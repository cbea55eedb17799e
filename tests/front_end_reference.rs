//! The front end's three bookkeeping analyses against the implementations
//! they replaced.
//!
//! Until PR 25 the rewriter merged duplicate outputs through a rendered
//! `BTreeMap<String, _>` key, weak acyclicity ran one DFS per special edge
//! over a `BTreeSet` of string-keyed positions, and the chase's join keys
//! were collected into a `BTreeMap<Arc<str>, BTreeSet<Vec<usize>>>`. Those
//! three bodies live on below, verbatim, as oracles — not as a second path:
//! the library has one implementation of each, and this file checks that
//! it answers exactly what the old one answered:
//!
//! * [`RewriteOutput::dedup`] keeps the same outputs as `canonical_key`;
//! * [`is_weakly_acyclic`] returns the same report, witness included
//!   (compared through `Debug`);
//! * [`join_keys`] lists the same `(relation, columns)` pairs in the order
//!   the old map registered them, and an instance ends up with the same
//!   key specs either way — pending registrations included.
//!
//! Over the 28 corpus entries, the scenarios embedded in `examples/`, the
//! running example and the §4 restriction pair, 200 seeded `random_spec`
//! programs, a 40-ladder `rewrite_wide`-shaped program and hand-made
//! programs that are not weakly acyclic.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use grom::chase::is_weakly_acyclic;
use grom::chase::trigger::{join_keys, register_join_keys};
use grom::lang::TermSubst;
use grom::prelude::*;
use grom::rewrite::rewrite_program;
use grom::scenarios::{generate, list_entries, random_spec, read_entry};
use grom_bench::workloads::{restriction_pair, RUNNING_EXAMPLE};

/// The implementations HEAD (`777107b`) shipped, kept as oracles.
mod reference {
    use std::collections::{BTreeMap, BTreeSet, HashMap};
    use std::sync::Arc;

    use grom::lang::{Dependency, Literal, Term, TermSubst, Var};

    /// `grom_rewrite::rewriter::canonical_key`.
    pub fn canonical_key(dep: &Dependency) -> String {
        let mut names: BTreeMap<Var, String> = BTreeMap::new();
        let mut order = 0usize;
        let mut subst = TermSubst::new();
        let mut intern = |v: &Var, subst: &mut TermSubst, order: &mut usize| {
            if !names.contains_key(v) {
                let fresh: Var = Arc::from(format!("c{order}").as_str());
                names.insert(v.clone(), fresh.to_string());
                subst.bind(v.clone(), Term::Var(fresh));
                *order += 1;
            }
        };
        for lit in &dep.premise {
            for v in lit.variables() {
                intern(&v, &mut subst, &mut order);
            }
        }
        for d in &dep.disjuncts {
            for v in d.variables() {
                intern(&v, &mut subst, &mut order);
            }
        }
        let renamed = dep.apply(&subst);
        let mut s = String::new();
        use std::fmt::Write;
        for l in &renamed.premise {
            let _ = write!(s, "{l};");
        }
        s.push('>');
        for d in &renamed.disjuncts {
            let _ = write!(s, "{d}|");
        }
        s
    }

    /// The names `grom_rewrite::rewriter::dedup` kept, in order.
    pub fn dedup_kept(deps: &[Dependency]) -> Vec<Arc<str>> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut kept = Vec::new();
        for dep in deps {
            if seen.insert(canonical_key(dep)) {
                kept.push(dep.name.clone());
            }
        }
        kept
    }

    pub type Position = (Arc<str>, usize);

    /// Field for field `grom_chase::WeakAcyclicityReport`, so the two
    /// `Debug` renderings compare as text.
    #[allow(dead_code)] // read through `Debug`
    #[derive(Debug, Clone)]
    pub struct WeakAcyclicityReport {
        pub weakly_acyclic: bool,
        pub witness: Option<(Position, Position)>,
        pub positions: usize,
        pub regular_edges: usize,
        pub special_edges: usize,
    }

    fn premise_positions(dep: &Dependency) -> BTreeMap<Var, Vec<Position>> {
        let mut out: BTreeMap<Var, Vec<Position>> = BTreeMap::new();
        for lit in &dep.premise {
            if let Literal::Pos(a) = lit {
                for (i, t) in a.args.iter().enumerate() {
                    if let Term::Var(v) = t {
                        out.entry(v.clone())
                            .or_default()
                            .push((a.predicate.clone(), i));
                    }
                }
            }
        }
        out
    }

    /// `grom_chase::is_weakly_acyclic`.
    pub fn is_weakly_acyclic(deps: &[Dependency]) -> WeakAcyclicityReport {
        let mut regular: BTreeSet<(Position, Position)> = BTreeSet::new();
        let mut special: BTreeSet<(Position, Position)> = BTreeSet::new();

        for dep in deps {
            let prem = premise_positions(dep);
            let universal: BTreeSet<Var> = prem.keys().cloned().collect();
            for disjunct in &dep.disjuncts {
                let mut concl: BTreeMap<Var, Vec<Position>> = BTreeMap::new();
                for a in &disjunct.atoms {
                    for (i, t) in a.args.iter().enumerate() {
                        if let Term::Var(v) = t {
                            concl
                                .entry(v.clone())
                                .or_default()
                                .push((a.predicate.clone(), i));
                        }
                    }
                }
                let existential: Vec<&Var> =
                    concl.keys().filter(|v| !universal.contains(*v)).collect();
                for (x, x_concl) in &concl {
                    if !universal.contains(x) {
                        continue;
                    }
                    let Some(x_prem) = prem.get(x) else { continue };
                    for p in x_prem {
                        for q in x_concl {
                            regular.insert((p.clone(), q.clone()));
                        }
                        for y in &existential {
                            for q in &concl[*y] {
                                special.insert((p.clone(), q.clone()));
                            }
                        }
                    }
                }
            }
        }

        let mut nodes: BTreeSet<Position> = BTreeSet::new();
        for (u, v) in regular.iter().chain(special.iter()) {
            nodes.insert(u.clone());
            nodes.insert(v.clone());
        }
        let mut adj: BTreeMap<&Position, Vec<&Position>> = BTreeMap::new();
        for (u, v) in regular.iter().chain(special.iter()) {
            adj.entry(u).or_default().push(v);
        }

        let reaches = |from: &Position, to: &Position| -> bool {
            let mut seen: BTreeSet<&Position> = BTreeSet::new();
            let mut stack = vec![from];
            while let Some(n) = stack.pop() {
                if n == to {
                    return true;
                }
                if let Some(next) = adj.get(n) {
                    for m in next {
                        if seen.insert(m) {
                            stack.push(m);
                        }
                    }
                }
            }
            false
        };

        let mut witness = None;
        for (u, v) in &special {
            if reaches(v, u) {
                witness = Some((u.clone(), v.clone()));
                break;
            }
        }

        WeakAcyclicityReport {
            weakly_acyclic: witness.is_none(),
            witness,
            positions: nodes.len(),
            regular_edges: regular.len(),
            special_edges: special.len(),
        }
    }

    /// `grom_chase::trigger::join_keys`.
    pub fn join_keys(deps: &[Dependency]) -> BTreeMap<Arc<str>, BTreeSet<Vec<usize>>> {
        let mut out: BTreeMap<Arc<str>, BTreeSet<Vec<usize>>> = BTreeMap::new();
        let add = |out: &mut BTreeMap<Arc<str>, BTreeSet<Vec<usize>>>,
                   rel: &Arc<str>,
                   cols: Vec<usize>| {
            if cols.len() >= 2 {
                out.entry(rel.clone()).or_default().insert(cols);
            }
        };
        for dep in deps {
            let mut occurs: HashMap<Var, usize> = HashMap::new();
            for lit in &dep.premise {
                let atom = match lit {
                    Literal::Pos(a) | Literal::Neg(a) => a,
                    Literal::Cmp(_) => continue,
                };
                let mut vars = BTreeSet::new();
                atom.collect_vars(&mut vars);
                for v in vars {
                    *occurs.entry(v).or_default() += 1;
                }
            }
            for lit in &dep.premise {
                let atom = match lit {
                    Literal::Pos(a) | Literal::Neg(a) => a,
                    Literal::Cmp(_) => continue,
                };
                let cols: Vec<usize> = atom
                    .args
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => occurs.get(v).copied().unwrap_or(0) >= 2,
                    })
                    .map(|(i, _)| i)
                    .collect();
                add(&mut out, &atom.predicate, cols);
            }
            let universal: BTreeSet<Var> = dep.universal_vars().into_iter().collect();
            for d in &dep.disjuncts {
                for atom in &d.atoms {
                    let cols: Vec<usize> = atom
                        .args
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| match t {
                            Term::Const(_) => true,
                            Term::Var(v) => universal.contains(v),
                        })
                        .map(|(i, _)| i)
                        .collect();
                    add(&mut out, &atom.predicate, cols);
                }
            }
        }
        out
    }
}

/// A named program: its views (the scenario's target views, or every view
/// of a schema-less program) and its dependencies.
struct Case {
    name: String,
    views: ViewSet,
    deps: Vec<Dependency>,
}

fn case(name: impl Into<String>, text: &str) -> Case {
    let name = name.into();
    let prog = Program::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
    match MappingScenario::from_program(&prog) {
        Ok(sc) => case_of(name, &sc),
        Err(_) => Case {
            name,
            views: prog.views,
            deps: prog.deps,
        },
    }
}

fn case_of(name: impl Into<String>, sc: &MappingScenario) -> Case {
    Case {
        name: name.into(),
        views: sc.target_views.clone(),
        deps: sc.all_dependencies().cloned().collect(),
    }
}

/// The raw string literals of an example that parse as a program.
fn embedded_programs(file: &str, source: &str) -> Vec<Case> {
    let mut out = Vec::new();
    let mut rest = source;
    while let Some(start) = rest.find("r#\"") {
        let body = &rest[start + 3..];
        let Some(end) = body.find("\"#") else { break };
        if Program::parse(&body[..end]).is_ok() {
            out.push(case(format!("{file}#{}", out.len()), &body[..end]));
        }
        rest = &body[end + 2..];
    }
    out
}

/// `grombench`'s `rewrite_wide` text at `ladders` ladders.
fn ladders(ladders: usize) -> String {
    let mut s = String::from("schema source {\n");
    for i in 0..ladders {
        let _ = writeln!(s, "    S_P{i}(id: int, name: string, rating: int);");
    }
    s.push_str("}\nschema target {\n");
    for i in 0..ladders {
        let _ = writeln!(
            s,
            "    T_P{i}(id: int, name: string, store: int);\n    \
             T_R{i}(id: int, product: int, thumbsUp: int);"
        );
    }
    s.push_str("}\n");
    for i in 0..ladders {
        let _ = write!(
            s,
            "view Popular{i}(pid, name) <- T_P{i}(pid, name, store), not T_R{i}(rid, pid, 0).\n\
             view Avg{i}(pid, name) <- T_P{i}(pid, name, store), T_R{i}(rid, pid, 1), \
             not Popular{i}(pid, name).\n\
             view Unpopular{i}(pid, name) <- T_P{i}(pid, name, store), \
             not Avg{i}(pid, name), not Popular{i}(pid, name).\n\
             tgd m0_{i}: S_P{i}(pid, name, rating), rating < 2 -> Unpopular{i}(pid, name).\n\
             tgd m1_{i}: S_P{i}(pid, name, rating), rating >= 2, rating < 4 -> Avg{i}(pid, name).\n\
             tgd m2_{i}: S_P{i}(pid, name, rating), rating >= 4 -> Popular{i}(pid, name).\n\
             egd e{i}: Popular{i}(id1, n), Popular{i}(id2, n) -> id1 = id2.\n"
        );
    }
    s
}

/// Programs that are not weakly acyclic, built so that the witness is not
/// the first special edge in declaration order.
const NOT_WEAKLY_ACYCLIC: [&str; 3] = [
    // A special self-loop: R#0 feeds the null it invents back into R#0.
    "tgd s: R(x, y) -> R(z, x).",
    // Two cycles through special edges, the later-sorting one declared
    // first, and a special edge that sorts before both on no cycle.
    "tgd b1: B(x) -> B2(x, y).\n\
     tgd b2: B2(x, y) -> B(y).\n\
     tgd a1: A(x) -> A2(x, y).\n\
     tgd a2: A2(x, y) -> A(y).\n\
     tgd a0: A(x) -> A1(x, y).",
    // A cycle through a regular edge and a ded branch.
    "ded d: P(x, y) -> Q(x) | P2(y, z).\n\
     tgd p: P2(u, v) -> P(v, u).",
];

fn every_case() -> Vec<Case> {
    let mut cases = Vec::new();
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let entries = list_entries(&corpus).expect("corpus/ readable");
    assert_eq!(entries.len(), 28, "the corpus this test was written for");
    for path in entries {
        let entry = read_entry(&path).expect("entry parses");
        cases.push(case(format!("corpus/{}", entry.name), &entry.program));
    }
    let examples = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&examples)
        .expect("examples/ readable")
        .map(|e| e.expect("entry").path())
        .collect();
    files.sort();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("example readable");
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        cases.extend(embedded_programs(&name, &text));
    }
    cases.push(case("running_example", RUNNING_EXAMPLE));
    let (perverse, reformulated) = restriction_pair();
    cases.push(case_of("restriction_pair/perverse", &perverse));
    cases.push(case_of("restriction_pair/reformulated", &reformulated));
    for seed in 0..200u64 {
        let g = generate(&random_spec(seed, 1));
        cases.push(case(format!("random_spec/{seed}"), &g.program));
    }
    cases.push(case("rewrite_wide/40", &ladders(40)));
    for (i, text) in NOT_WEAKLY_ACYCLIC.iter().enumerate() {
        cases.push(case(format!("not_wa/{i}"), text));
    }
    cases
}

/// `dep` with each variable `v` renamed `r_v`: equal up to renaming, so
/// dedup must merge it into the original.
fn renamed(dep: &Dependency) -> Dependency {
    let mut subst = TermSubst::new();
    for lit in &dep.premise {
        for v in lit.variables() {
            subst.bind(v.clone(), Term::var(format!("r_{v}")));
        }
    }
    for d in &dep.disjuncts {
        for v in d.variables() {
            subst.bind(v.clone(), Term::var(format!("r_{v}")));
        }
    }
    let mut out = dep.apply(&subst);
    out.name = Arc::from(format!("{}'renamed", dep.name).as_str());
    out
}

/// `dep` with its first variable replaced by its last one: a non-injective
/// renaming, which the old key told apart whenever the two differ.
fn collapsed(dep: &Dependency) -> Option<Dependency> {
    let mut vars = Vec::new();
    for lit in &dep.premise {
        vars.extend(lit.variables());
    }
    for d in &dep.disjuncts {
        vars.extend(d.variables());
    }
    let (first, last) = (vars.first()?, vars.last()?);
    let mut subst = TermSubst::new();
    subst.bind(first.clone(), Term::Var(last.clone()));
    let mut out = dep.apply(&subst);
    out.name = Arc::from(format!("{}'collapsed", dep.name).as_str());
    Some(out)
}

/// `dep` with its first constant changed: the old key told it apart.
fn shifted(dep: &Dependency) -> Option<Dependency> {
    let mut out = dep.clone();
    let premise = out.premise.iter_mut().flat_map(|lit| match lit {
        Literal::Pos(a) | Literal::Neg(a) => a.args.iter_mut().collect::<Vec<_>>(),
        Literal::Cmp(c) => vec![&mut c.lhs, &mut c.rhs],
    });
    let conclusion = out.disjuncts.iter_mut().flat_map(|d| {
        let atoms = d.atoms.iter_mut().flat_map(|a| a.args.iter_mut());
        let eqs = d.eqs.iter_mut().flat_map(|(l, r)| [l, r]);
        let cmps = d.cmps.iter_mut().flat_map(|c| [&mut c.lhs, &mut c.rhs]);
        atoms.chain(eqs).chain(cmps).collect::<Vec<_>>()
    });
    let mut terms = premise.chain(conclusion);
    let c = terms.find_map(|t| match t {
        Term::Const(c) => Some(c),
        Term::Var(_) => None,
    })?;
    let next = match &*c {
        Value::Int(i) => Value::int(i + 1),
        other => Value::str(format!("{other}'")),
    };
    *c = next;
    out.name = Arc::from(format!("{}'shifted", dep.name).as_str());
    Some(out)
}

/// What the rewriter emits for each dependency on its own, concatenated:
/// the outputs of different inputs repeat each other (the same check under
/// two mappings) with fresh variables numbered apart. Then a renamed, a
/// collapsed and a shifted copy of each.
fn dedup_input(c: &Case) -> Vec<Dependency> {
    let mut deps = Vec::new();
    for dep in &c.deps {
        let out = rewrite_program(&c.views, [dep], &RewriteOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", c.name));
        deps.extend(out.deps);
    }
    let copies: Vec<Dependency> = deps
        .iter()
        .flat_map(|d| [Some(renamed(d)), collapsed(d), shifted(d)])
        .flatten()
        .collect();
    deps.extend(copies);
    deps
}

#[test]
fn dedup_keeps_what_the_rendered_key_kept() {
    let mut merged = 0;
    for c in every_case() {
        let input = dedup_input(&c);
        let mut out = RewriteOutput {
            deps: input.clone(),
            ..RewriteOutput::default()
        };
        for d in &input {
            out.provenance.insert(d.name.clone(), Arc::from("input"));
        }
        out.dedup();
        let kept: Vec<Arc<str>> = out.deps.iter().map(|d| d.name.clone()).collect();
        assert_eq!(kept, reference::dedup_kept(&input), "{}", c.name);
        let provenance: Vec<&Arc<str>> = out.provenance.keys().collect();
        let mut expected: Vec<&Arc<str>> = kept.iter().collect();
        expected.sort();
        expected.dedup();
        assert_eq!(provenance, expected, "{}", c.name);
        merged += input.len() - kept.len();

        // And the whole program, rewritten at once, holds no two outputs
        // the old key would have merged.
        let whole = rewrite_program(&c.views, &c.deps, &RewriteOptions::default()).unwrap();
        assert_eq!(
            reference::dedup_kept(&whole.deps).len(),
            whole.deps.len(),
            "{}",
            c.name
        );
    }
    assert!(merged > 0, "the inputs hold duplicates");
}

#[test]
fn weak_acyclicity_reports_what_the_per_edge_search_reported() {
    let mut not_wa = 0;
    for c in every_case() {
        let rewritten = rewrite_program(&c.views, &c.deps, &RewriteOptions::default()).unwrap();
        for (what, deps) in [("rewritten", &rewritten.deps), ("as written", &c.deps)] {
            let deps: Vec<Dependency> = deps.to_vec();
            let new = format!("{:?}", is_weakly_acyclic(&deps));
            let old = format!("{:?}", reference::is_weakly_acyclic(&deps));
            assert_eq!(new, old, "{} ({what})", c.name);
            not_wa += usize::from(!reference::is_weakly_acyclic(&deps).weakly_acyclic);
        }
    }
    assert!(not_wa >= 2 * NOT_WEAKLY_ACYCLIC.len());
}

#[test]
fn the_witness_is_the_least_special_edge_on_a_cycle() {
    let deps = Program::parse(NOT_WEAKLY_ACYCLIC[1]).unwrap().deps;
    let report = is_weakly_acyclic(&deps);
    let (u, v) = report.witness.expect("not weakly acyclic");
    assert_eq!((u.0.as_ref(), u.1, v.0.as_ref(), v.1), ("A", 0, "A2", 1));
    let deps = Program::parse(NOT_WEAKLY_ACYCLIC[0]).unwrap().deps;
    let (u, v) = is_weakly_acyclic(&deps)
        .witness
        .expect("a special self-loop");
    assert_eq!((u.0.as_ref(), u.1), (v.0.as_ref(), v.1));
}

/// An instance holding `rels` (one all-zero row each, at the arity the
/// dependencies use), the rest left to pending registrations.
fn instance_with(rels: &[(Arc<str>, usize)]) -> Instance {
    let mut inst = Instance::new();
    for (rel, arity) in rels {
        inst.add(rel.as_ref(), vec![Value::int(0); *arity]).unwrap();
    }
    inst
}

fn key_specs(inst: &Instance) -> Vec<(String, Vec<Vec<usize>>)> {
    inst.relation_names()
        .map(|r| {
            let specs = inst.relation(r).unwrap().key_specs();
            (r.to_string(), specs.map(<[usize]>::to_vec).collect())
        })
        .collect()
}

#[test]
fn join_keys_register_what_the_key_map_registered() {
    for c in every_case() {
        let rewritten = rewrite_program(&c.views, &c.deps, &RewriteOptions::default()).unwrap();
        let deps = &rewritten.deps;
        let old = reference::join_keys(deps);
        let flat: Vec<(&str, Vec<usize>)> = old
            .iter()
            .flat_map(|(rel, keys)| keys.iter().map(move |k| (rel.as_ref(), k.clone())))
            .collect();
        assert_eq!(join_keys(deps), flat, "{}", c.name);

        // Half the relations exist before registration, half are created
        // after it: both the eager and the pending path.
        let mut rels: Vec<(Arc<str>, usize)> = Vec::new();
        for dep in deps {
            let premise = dep.premise.iter().filter_map(Literal::atom);
            for a in premise.chain(dep.disjuncts.iter().flat_map(|d| &d.atoms)) {
                if !rels.iter().any(|(r, _)| *r == a.predicate) {
                    rels.push((a.predicate.clone(), a.arity()));
                }
            }
        }
        let (now, later) = rels.split_at(rels.len() / 2);
        let mut new = instance_with(now);
        let mut by_reference = instance_with(now);
        register_join_keys(&mut new, deps);
        for (rel, keys) in &old {
            for cols in keys {
                by_reference.register_key(rel, cols);
            }
        }
        for (rel, arity) in later {
            for inst in [&mut new, &mut by_reference] {
                inst.add(rel.as_ref(), vec![Value::int(0); *arity]).unwrap();
            }
        }
        assert_eq!(key_specs(&new), key_specs(&by_reference), "{}", c.name);
    }
}
