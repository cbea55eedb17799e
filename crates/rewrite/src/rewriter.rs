//! Normalization: from expanded dependencies to executable tgds/egds/deds.
//!
//! See the crate docs for the algorithm overview. The entry point is
//! [`rewrite_program`].

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

use grom_lang::{
    Atom, CmpOp, Comparison, Dependency, Disjunct, Literal, Term, Var, VarGen, ViewSet,
};

use crate::error::{RewriteError, RewriteWarning};
use crate::expand::{cartesian, expand_atom, push_each, FlatAlt, NegTree};

/// Options controlling the rewriting.
#[derive(Debug, Clone)]
pub struct RewriteOptions {
    /// Budget on DNF alternatives per dependency. Exceeding it while
    /// expanding a premise is a hard error (truncation would be unsound).
    pub max_alternatives: usize,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        Self {
            max_alternatives: 4_096,
        }
    }
}

/// The result of rewriting a mapping.
#[derive(Debug, Clone, Default)]
pub struct RewriteOutput {
    /// Executable dependencies over base predicates only (no negated
    /// premises, no view atoms).
    pub deps: Vec<Dependency>,
    /// Sound strengthenings applied along the way.
    pub warnings: Vec<RewriteWarning>,
    /// Output dependency name → input dependency name.
    pub provenance: BTreeMap<Arc<str>, Arc<str>>,
    /// For every output that is a genuine ded: the views (or base
    /// predicates) whose negation contributed disjuncts.
    pub ded_causes: BTreeMap<Arc<str>, Vec<Arc<str>>>,
}

impl RewriteOutput {
    /// The outputs that are genuine deds (≥ 2 disjuncts).
    pub fn deds(&self) -> impl Iterator<Item = &Dependency> {
        self.deps.iter().filter(|d| d.is_ded())
    }

    /// Is the rewritten program ded-free (plain tgds/egds/denials only)?
    pub fn is_ded_free(&self) -> bool {
        self.deds().next().is_none()
    }
}

/// Result of [`simplify`].
enum Simplified {
    Sat(FlatAlt),
    Unsat,
}

/// The distinct variables of `atoms`, in first-occurrence order. Rewriting
/// asks "is this variable bound?" of a handful of variables at a time, so a
/// short vector scanned beats a set.
fn atom_vars<'a>(atoms: impl IntoIterator<Item = &'a Atom>) -> Vec<&'a Var> {
    let mut out: Vec<&Var> = Vec::new();
    for t in atoms.into_iter().flat_map(|a| &a.args) {
        if let Term::Var(v) = t {
            if !out.contains(&v) {
                out.push(v);
            }
        }
    }
    out
}

/// Is `t` a variable outside `bound`?
fn unbound(t: &Term, bound: &[&Var]) -> bool {
    matches!(t, Term::Var(v) if !bound.contains(&v))
}

/// Normalize a flat alternative against a set of *bound* (universal)
/// variables: substitute away equalities that involve an unbound variable,
/// evaluate ground equalities and comparisons, keep the rest.
fn simplify(mut alt: FlatAlt, bound: &[&Var]) -> Simplified {
    loop {
        let mut subst_pair: Option<(Var, Term)> = None;
        let mut keep: Vec<(Term, Term)> = Vec::new();
        let mut unsat = false;
        for (l, r) in std::mem::take(&mut alt.eqs) {
            if subst_pair.is_some() {
                keep.push((l, r));
                continue;
            }
            match (l, r) {
                (Term::Const(a), Term::Const(b)) => {
                    if a != b {
                        unsat = true;
                    }
                    // equal constants: drop the equality
                }
                (Term::Var(v), other) if !bound.contains(&&v) => subst_pair = Some((v, other)),
                (other, Term::Var(v)) if !bound.contains(&&v) => subst_pair = Some((v, other)),
                (l, r) => keep.push((l, r)),
            }
        }
        alt.eqs = keep;
        if unsat {
            return Simplified::Unsat;
        }
        match subst_pair {
            // Guard against `x = x` producing an identity substitution.
            Some((v, t)) if t != Term::Var(v.clone()) => alt.substitute(&v, &t),
            Some(_) => {}
            None => break,
        }
    }
    // Ground comparisons evaluate statically.
    let mut cmps = Vec::new();
    for c in std::mem::take(&mut alt.cmps) {
        match c.eval_ground() {
            Some(true) => {}
            Some(false) => return Simplified::Unsat,
            None => cmps.push(c),
        }
    }
    alt.cmps = cmps;
    Simplified::Sat(alt)
}

/// Per-input-dependency rewriting state.
struct Ctx<'a> {
    views: &'a ViewSet,
    vargen: &'a mut VarGen,
    input: Arc<str>,
    aux_counter: usize,
    out: &'a mut RewriteOutput,
    /// The warnings already in `out.warnings`, for the whole program.
    warned: &'a mut HashSet<RewriteWarning>,
}

impl Ctx<'_> {
    fn fresh_aux_name(&mut self) -> Arc<str> {
        self.aux_counter += 1;
        Arc::from(format!("{}_chk{}", self.input, self.aux_counter).as_str())
    }

    fn warn(&mut self, w: RewriteWarning) {
        if !self.warned.contains(&w) {
            self.warned.insert(w.clone());
            self.out.warnings.push(w);
        }
    }

    fn emit(&mut self, dep: Dependency, causes: Vec<Arc<str>>) {
        self.out
            .provenance
            .insert(dep.name.clone(), self.input.clone());
        if dep.is_ded() {
            self.out.ded_causes.insert(dep.name.clone(), causes);
        }
        self.out.deps.push(dep);
    }
}

/// Build a premise literal list: positive atoms, then equalities, then
/// comparisons.
fn premise_literals(
    atoms: Vec<Atom>,
    eqs: Vec<(Term, Term)>,
    cmps: impl IntoIterator<Item = Comparison>,
) -> Vec<Literal> {
    let mut out: Vec<Literal> = atoms.into_iter().map(Literal::Pos).collect();
    let eqs = eqs
        .into_iter()
        .map(|(l, r)| Comparison::new(CmpOp::Eq, l, r));
    out.extend(eqs.chain(cmps).map(Literal::Cmp));
    out
}

/// Turn one alternative of a negation tree into a ded disjunct, or drop it
/// (with a warning) when it cannot be expressed. `bound` is the set of
/// variables bound by the enclosing premise.
fn alt_to_disjunct(
    ctx: &mut Ctx<'_>,
    via: &Arc<str>,
    alt: FlatAlt,
    bound: &[&Var],
) -> Option<Disjunct> {
    let fa = match simplify(alt, bound) {
        Simplified::Unsat => return None, // unsatisfiable disjunct adds nothing
        Simplified::Sat(fa) => fa,
    };
    if !fa.negs.is_empty() {
        ctx.warn(RewriteWarning::DroppedNestedNegation {
            dependency: ctx.input.clone(),
            view: via.clone(),
        });
        return None;
    }
    // Remaining equalities/comparisons must be over bound variables (the
    // chase cannot invent a null constrained by an order comparison, and an
    // equality over existentials is meaningless).
    let exist_cmp = fa
        .cmps
        .iter()
        .find(|c| unbound(&c.lhs, bound) || unbound(&c.rhs, bound));
    if let Some(c) = exist_cmp {
        ctx.warn(RewriteWarning::DroppedExistentialComparison {
            dependency: ctx.input.clone(),
            comparison: c.to_string(),
        });
        return None;
    }
    if fa
        .eqs
        .iter()
        .any(|(l, r)| unbound(l, bound) || unbound(r, bound))
    {
        // After simplify, an equality with an unbound variable can only
        // remain if both sides are unbound variables in a loop; drop it as
        // a nested-negation-style strengthening.
        ctx.warn(RewriteWarning::DroppedNestedNegation {
            dependency: ctx.input.clone(),
            view: via.clone(),
        });
        return None;
    }
    Some(fa.into_disjunct())
}

/// Emit the auxiliary dependencies enforcing a *conclusion-side* negation
/// tree: `premise ∧ context ∧ alt_positive → (nested negations)`.
fn emit_conclusion_check(
    ctx: &mut Ctx<'_>,
    prem_atoms: &[Atom],
    prem_cmps: &[Comparison],
    context_atoms: &[Atom],
    nt: NegTree,
) {
    for fa in nt.alts {
        // The aux premise binds: premise vars + context vars + this alt's
        // positive vars.
        let mut aux_atoms: Vec<Atom> =
            Vec::with_capacity(prem_atoms.len() + context_atoms.len() + fa.atoms.len());
        aux_atoms.extend_from_slice(prem_atoms);
        aux_atoms.extend_from_slice(context_atoms);
        aux_atoms.extend(fa.atoms);
        let bound = atom_vars(&aux_atoms);

        let causes: Vec<Arc<str>> = fa.negs.iter().map(|n| n.via.clone()).collect();
        let mut disjuncts: Vec<Disjunct> = Vec::new();
        for nnt in fa.negs {
            for nalt in nnt.alts {
                if let Some(d) = alt_to_disjunct(ctx, &nnt.via, nalt, &bound) {
                    disjuncts.push(d);
                }
            }
        }
        let name = ctx.fresh_aux_name();
        let cmps = prem_cmps.iter().cloned().chain(fa.cmps);
        let premise = premise_literals(aux_atoms, fa.eqs, cmps);
        ctx.emit(Dependency::new(name, premise, disjuncts), causes);
    }
}

/// Rewrite one dependency, appending executable dependencies to `out`.
fn rewrite_into(
    dep: &Dependency,
    views: &ViewSet,
    vargen: &mut VarGen,
    options: &RewriteOptions,
    out: &mut RewriteOutput,
    warned: &mut HashSet<RewriteWarning>,
) -> Result<(), RewriteError> {
    let budget = options.max_alternatives;
    let mut ctx = Ctx {
        views,
        vargen,
        input: dep.name.clone(),
        aux_counter: 0,
        out,
        warned,
    };

    // ---- Step 1: premise DNF ------------------------------------------
    let mut prem_dnf: Vec<FlatAlt> = vec![FlatAlt::default()];
    for lit in &dep.premise {
        match lit {
            Literal::Pos(a) => {
                let sub = expand_atom(a.clone(), ctx.views, ctx.vargen, &dep.name, budget)?;
                prem_dnf = cartesian(prem_dnf, sub, &dep.name, budget)?;
            }
            Literal::Neg(a) => {
                let tree = NegTree {
                    source: a.clone(),
                    via: a.predicate.clone(),
                    alts: expand_atom(a.clone(), ctx.views, ctx.vargen, &dep.name, budget)?,
                };
                push_each(&mut prem_dnf, tree, |alt, t| alt.negs.push(t));
            }
            Literal::Cmp(c) => push_each(&mut prem_dnf, c.clone(), FlatAlt::push_cmp),
        }
    }

    // ---- Step 2: conclusion alternatives ------------------------------
    let mut conc_alts: Vec<FlatAlt> = Vec::new();
    for d in &dep.disjuncts {
        let mut dnf: Vec<FlatAlt> = vec![FlatAlt::default()];
        for a in &d.atoms {
            let sub = expand_atom(a.clone(), ctx.views, ctx.vargen, &dep.name, budget)?;
            dnf = cartesian(dnf, sub, &dep.name, budget)?;
        }
        for mut fa in dnf {
            fa.eqs.extend(d.eqs.iter().cloned());
            fa.cmps.extend(d.cmps.iter().cloned());
            conc_alts.push(fa);
        }
    }

    // ---- Step 3: one output dependency per premise alternative --------
    let premises = prem_dnf.len();
    let union_conclusion = conc_alts.len() > 1;
    for (pi, pa) in prem_dnf.into_iter().enumerate() {
        // Premise equalities stay as comparison literals (join conditions).
        let FlatAlt {
            atoms: prem_atoms,
            eqs,
            cmps: mut prem_cmps,
            negs,
        } = pa;
        prem_cmps.extend(
            eqs.into_iter()
                .map(|(l, r)| Comparison::new(CmpOp::Eq, l, r)),
        );
        let universal = atom_vars(&prem_atoms);

        let mut final_disjuncts: Vec<Disjunct> = Vec::new();
        let mut causes: Vec<Arc<str>> = Vec::new();
        let mut vacuous = false;
        let mut any_conc_negs = false;

        // Conclusion alternatives; the last premise alternative takes them.
        let conc = if pi + 1 == premises {
            std::mem::take(&mut conc_alts)
        } else {
            conc_alts.clone()
        };
        for ca in conc {
            let mut sca = match simplify(ca, &universal) {
                Simplified::Unsat => {
                    ctx.warn(RewriteWarning::UnsatisfiableAlternative {
                        dependency: dep.name.clone(),
                    });
                    continue;
                }
                Simplified::Sat(s) => s,
            };
            // Comparisons over existential variables cannot be enforced.
            if let Some(c) = sca
                .cmps
                .iter()
                .find(|c| unbound(&c.lhs, &universal) || unbound(&c.rhs, &universal))
            {
                ctx.warn(RewriteWarning::DroppedExistentialComparison {
                    dependency: dep.name.clone(),
                    comparison: c.to_string(),
                });
                continue;
            }
            // Negative requirements spawn auxiliary checks.
            if !sca.negs.is_empty() {
                any_conc_negs = true;
                let mut conc_exist = atom_vars(&sca.atoms);
                conc_exist.retain(|v| !universal.contains(v));
                for nt in std::mem::take(&mut sca.negs) {
                    let shares = nt
                        .alts
                        .iter()
                        .any(|alt| alt.any_var(&mut |v| conc_exist.contains(&v)));
                    let context: &[Atom] = if shares {
                        ctx.warn(RewriteWarning::SharedExistentialStrengthened {
                            dependency: dep.name.clone(),
                            view: nt.via.clone(),
                        });
                        &sca.atoms
                    } else {
                        &[]
                    };
                    emit_conclusion_check(&mut ctx, &prem_atoms, &prem_cmps, context, nt);
                }
            }
            if sca.atoms.is_empty() && sca.eqs.is_empty() && sca.cmps.is_empty() {
                // Positively trivial alternative: the disjunction is always
                // satisfiable (its negative side is enforced by the checks
                // above), so the main dependency is vacuous.
                vacuous = true;
            } else {
                final_disjuncts.push(sca.into_disjunct());
            }
        }
        if union_conclusion && any_conc_negs {
            ctx.warn(RewriteWarning::UnionNegationStrengthened {
                dependency: dep.name.clone(),
            });
        }
        if union_conclusion {
            causes.push(Arc::from(format!("{} (union view)", dep.name).as_str()));
        }

        // Premise negation trees become extra disjuncts.
        for nt in negs {
            for alt in nt.alts {
                if let Some(d) = alt_to_disjunct(&mut ctx, &nt.via, alt, &universal) {
                    final_disjuncts.push(d);
                    if !causes.contains(&nt.via) {
                        causes.push(nt.via.clone());
                    }
                }
            }
        }

        if !vacuous {
            let name: Arc<str> = if premises > 1 {
                Arc::from(format!("{}@{}", dep.name, pi).as_str())
            } else {
                dep.name.clone()
            };
            let premise = premise_literals(prem_atoms, Vec::new(), prem_cmps);
            ctx.emit(Dependency::new(name, premise, final_disjuncts), causes);
        }
    }
    Ok(())
}

/// The deepest view nesting [`rewrite_program`] unfolds: the unfolding
/// recurses once per level, so a deeper view is refused
/// ([`RewriteError::TooDeep`]) instead of overflowing the stack. Measured on
/// a 2 MiB stack, chains `V_k <- V_{k-1}` and `V_k <- T, not V_{k-1}`: a debug
/// build unfolds 500 levels and overflows at 505, a release build 2 000 and
/// 2 500 — half the debug figure. A constant, not an option: memoized
/// unfolding (ROADMAP item 5) removes the recursion and this bound with it.
pub const MAX_VIEW_NESTING: usize = 256;

/// Rewrite a whole mapping: every dependency of `deps` against `views`.
/// Duplicate outputs (identical up to variable renaming) are merged.
pub fn rewrite_program<'d>(
    views: &ViewSet,
    deps: impl IntoIterator<Item = &'d Dependency>,
    options: &RewriteOptions,
) -> Result<RewriteOutput, RewriteError> {
    // Every input is checked before any is rewritten.
    let deps: Vec<&Dependency> = deps.into_iter().collect();
    for dep in &deps {
        grom_lang::safety::check_dependency(dep)?;
        let premise = dep.premise.iter().filter_map(Literal::atom);
        for atom in premise.chain(dep.disjuncts.iter().flat_map(|d| &d.atoms)) {
            let view = &atom.predicate;
            if let Some(depth) = views.nesting_depth(view).filter(|&d| d > MAX_VIEW_NESTING) {
                let (view, limit) = (view.clone(), MAX_VIEW_NESTING);
                return Err(RewriteError::TooDeep { view, depth, limit });
            }
        }
    }
    let mut vargen = VarGen::new();
    let mut out = RewriteOutput::default();
    let mut warned = HashSet::new();
    for dep in deps {
        rewrite_into(dep, views, &mut vargen, options, &mut out, &mut warned)?;
    }
    out.dedup();
    verify_executable(&out)?;
    Ok(out)
}

impl RewriteOutput {
    /// Merge outputs that are equal up to a renaming of their variables,
    /// keeping the first of each class with its provenance.
    ///
    /// Two outputs are equal up to renaming iff their canonical keys are:
    /// the rendering `premise;…;>disjunct|…|` with each variable written
    /// `c<k>`, where `k` numbers the distinct variables by first occurrence
    /// **in render order** — the premise literals left to right, then each
    /// disjunct's atoms, equalities and comparisons. That is the order of
    /// `Literal::variables` over the premise followed by
    /// `Disjunct::variables` over the conclusion, so each key is written in
    /// one pass, numbering as it goes.
    pub fn dedup(&mut self) {
        let mut seen: HashSet<String> = HashSet::with_capacity(self.deps.len());
        let mut key = KeyWriter::default();
        let keep: Vec<bool> = self
            .deps
            .iter()
            .map(|dep| {
                let key = key.write(dep);
                !seen.contains(key) && seen.insert(key.to_owned())
            })
            .collect();
        let mut keep = keep.into_iter();
        let (provenance, ded_causes) = (&mut self.provenance, &mut self.ded_causes);
        self.deps.retain(|dep| {
            let kept = keep.next().expect("one flag per output");
            if !kept {
                provenance.remove(&dep.name);
                ded_causes.remove(&dep.name);
            }
            kept
        });
        self.deps.shrink_to_fit();
    }
}

/// Writes [`RewriteOutput::dedup`]'s canonical keys into one reused
/// buffer.
#[derive(Default)]
struct KeyWriter<'a> {
    buf: String,
    /// The variables met so far in the current dependency, by index.
    vars: Vec<&'a str>,
}

impl<'a> KeyWriter<'a> {
    fn write(&mut self, dep: &'a Dependency) -> &str {
        self.buf.clear();
        self.vars.clear();
        for lit in &dep.premise {
            match lit {
                Literal::Pos(a) => self.atom(a),
                Literal::Neg(a) => {
                    self.buf.push_str("not ");
                    self.atom(a);
                }
                Literal::Cmp(c) => self.comparison(&c.lhs, c.op.as_str(), &c.rhs),
            }
            self.buf.push(';');
        }
        self.buf.push('>');
        for d in &dep.disjuncts {
            let mut sep = "";
            for a in &d.atoms {
                self.buf.push_str(std::mem::replace(&mut sep, ", "));
                self.atom(a);
            }
            for (l, r) in &d.eqs {
                self.buf.push_str(std::mem::replace(&mut sep, ", "));
                self.comparison(l, "=", r);
            }
            for c in &d.cmps {
                self.buf.push_str(std::mem::replace(&mut sep, ", "));
                self.comparison(&c.lhs, c.op.as_str(), &c.rhs);
            }
            if sep.is_empty() {
                self.buf.push_str("true");
            }
            self.buf.push('|');
        }
        &self.buf
    }

    fn atom(&mut self, a: &'a Atom) {
        self.buf.push_str(&a.predicate);
        self.buf.push('(');
        for (i, t) in a.args.iter().enumerate() {
            if i > 0 {
                self.buf.push_str(", ");
            }
            self.term(t);
        }
        self.buf.push(')');
    }

    fn comparison(&mut self, l: &'a Term, op: &str, r: &'a Term) {
        self.term(l);
        self.buf.push(' ');
        self.buf.push_str(op);
        self.buf.push(' ');
        self.term(r);
    }

    fn term(&mut self, t: &'a Term) {
        match t {
            Term::Var(v) => {
                let k = match self.vars.iter().position(|w| *w == v.as_ref()) {
                    Some(k) => k,
                    None => {
                        self.vars.push(v);
                        self.vars.len() - 1
                    }
                };
                let _ = write!(self.buf, "c{k}");
            }
            Term::Const(c) => {
                let _ = write!(self.buf, "{c}");
            }
        }
    }
}

/// Post-condition: the rewriter's output must be executable — no negated
/// premise literals remain (all negation was normalized away).
fn verify_executable(out: &RewriteOutput) -> Result<(), RewriteError> {
    for dep in &out.deps {
        debug_assert!(
            !dep.has_negated_premise(),
            "internal error: rewritten dependency `{}` has a negated premise",
            dep.name
        );
        grom_lang::safety::check_dependency(dep)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_lang::parser::{parse_dependency, parse_program};
    use grom_lang::DepClass;

    fn opts() -> RewriteOptions {
        RewriteOptions::default()
    }

    fn rewrite_one(views_text: &str, dep_text: &str) -> RewriteOutput {
        let prog = parse_program(views_text).unwrap();
        let dep = parse_dependency(dep_text).unwrap();
        rewrite_program(&prog.views, &[dep], &opts()).unwrap()
    }

    /// The paper's target semantic schema (v1–v6).
    const PAPER_VIEWS: &str = r#"
        view Product(id, name) <- T_Product(id, name, store).
        view PopularProduct(pid, name) <-
            T_Product(pid, name, store), not T_Rating(rid, pid, 0).
        view AvgProduct(pid, name) <-
            T_Product(pid, name, store), T_Rating(rid, pid, 1),
            not PopularProduct(pid, name).
        view UnpopularProduct(pid, name) <-
            T_Product(pid, name, store),
            not AvgProduct(pid, name), not PopularProduct(pid, name).
        view SoldAt(pid, stid) <- T_Product(pid, pname, stid).
        view Store(id, name, addr) <- T_Store(id, name, addr, phone).
    "#;

    #[test]
    fn conjunctive_view_unfolding_is_plain_tgd() {
        let out = rewrite_one("view V(x) <- A(x, y), B(y).", "tgd m: S(x) -> V(x).");
        assert_eq!(out.deps.len(), 1);
        let dep = &out.deps[0];
        assert_eq!(dep.class(), DepClass::Tgd);
        assert!(out.warnings.is_empty());
        assert!(out.is_ded_free());
        // S(x) -> A(x, $y), B($y).
        assert_eq!(dep.disjuncts[0].atoms.len(), 2);
        assert_eq!(dep.disjuncts[0].atoms[0].predicate.as_ref(), "A");
    }

    #[test]
    fn base_only_dependency_passes_through() {
        let out = rewrite_one("view V(x) <- A(x).", "tgd m: S(x) -> T(x).");
        assert_eq!(out.deps.len(), 1);
        let dep = &out.deps[0];
        assert_eq!(dep.to_string(), "dep m: S(x) -> T(x).");
    }

    #[test]
    fn paper_d0_reproduced_from_e0() {
        // Rewriting the key egd e0 over PopularProduct must produce exactly
        // the paper's ded d0 (modulo variable names).
        let out = rewrite_one(
            PAPER_VIEWS,
            "egd e0: PopularProduct(id1, n), PopularProduct(id2, n) -> id1 = id2.",
        );
        assert_eq!(out.deps.len(), 1, "{:#?}", out.deps);
        let d0 = &out.deps[0];
        assert_eq!(d0.class(), DepClass::Ded);
        assert_eq!(d0.disjuncts.len(), 3);
        // Premise: two T_Product atoms sharing the name column.
        assert_eq!(d0.premise.len(), 2);
        for lit in &d0.premise {
            assert_eq!(lit.atom().unwrap().predicate.as_ref(), "T_Product");
        }
        // Disjunct 0: id1 = id2. Disjuncts 1, 2: existential T_Rating with
        // thumbsUp = 0.
        assert_eq!(d0.disjuncts[0].eqs.len(), 1);
        for d in &d0.disjuncts[1..] {
            assert_eq!(d.atoms.len(), 1);
            let a = &d.atoms[0];
            assert_eq!(a.predicate.as_ref(), "T_Rating");
            assert_eq!(a.args[2], Term::cons(0i64));
        }
        // Provenance blames PopularProduct.
        let causes = &out.ded_causes[&d0.name];
        assert!(causes.contains(&Arc::from("PopularProduct")));
        assert!(out.warnings.is_empty());
    }

    #[test]
    fn paper_m2_gives_tgd_plus_denial() {
        let out = rewrite_one(
            PAPER_VIEWS,
            "tgd m2: S_Product(pid, name, store, rating), rating >= 4 \
             -> PopularProduct(pid, name).",
        );
        // Main tgd + one auxiliary denial.
        assert_eq!(out.deps.len(), 2, "{:#?}", out.deps);
        let main = out.deps.iter().find(|d| d.name.as_ref() == "m2").unwrap();
        assert_eq!(main.class(), DepClass::Tgd);
        assert_eq!(main.disjuncts[0].atoms[0].predicate.as_ref(), "T_Product");

        let chk = out.deps.iter().find(|d| d.name.as_ref() != "m2").unwrap();
        assert_eq!(chk.class(), DepClass::Denial);
        // The denial forbids a 0-rating for a popular product.
        let preds: Vec<&str> = chk
            .premise
            .iter()
            .filter_map(|l| l.atom().map(|a| a.predicate.as_ref()))
            .collect();
        assert!(preds.contains(&"S_Product"));
        assert!(preds.contains(&"T_Rating"));
        assert!(out.is_ded_free());
    }

    #[test]
    fn paper_m0_unpopular_product_rewrites_with_witness_tgd() {
        let out = rewrite_one(
            PAPER_VIEWS,
            "tgd m0: S_Product(pid, name, store, rating), rating < 2 \
             -> UnpopularProduct(pid, name).",
        );
        // Expected: main tgd (copy product), a tgd inventing the 0-rating
        // witness (from ¬PopularProduct), and a strengthened denial
        // forbidding 1-ratings (from ¬AvgProduct), with a dropped-negation
        // warning for the nesting through PopularProduct.
        let main = out.deps.iter().find(|d| d.name.as_ref() == "m0").unwrap();
        assert_eq!(main.class(), DepClass::Tgd);

        let tgds: Vec<_> = out
            .deps
            .iter()
            .filter(|d| d.class() == DepClass::Tgd && d.name.as_ref() != "m0")
            .collect();
        assert_eq!(tgds.len(), 1, "{:#?}", out.deps);
        let witness = tgds[0];
        let a = &witness.disjuncts[0].atoms[0];
        assert_eq!(a.predicate.as_ref(), "T_Rating");
        assert_eq!(a.args[2], Term::cons(0i64));

        let denials: Vec<_> = out.deps.iter().filter(|d| d.is_denial()).collect();
        assert_eq!(denials.len(), 1, "{:#?}", out.deps);
        let denial_preds: Vec<&str> = denials[0]
            .premise
            .iter()
            .filter_map(|l| l.atom().map(|a| a.predicate.as_ref()))
            .collect();
        assert!(denial_preds.contains(&"T_Rating"));

        assert!(out
            .warnings
            .iter()
            .any(|w| matches!(w, RewriteWarning::DroppedNestedNegation { .. })));
    }

    #[test]
    fn union_view_in_conclusion_gives_ded() {
        let out = rewrite_one(
            "view V(x) <- A(x).\nview V(x) <- B(x).",
            "tgd m: S(x) -> V(x).",
        );
        assert_eq!(out.deps.len(), 1);
        let dep = &out.deps[0];
        assert_eq!(dep.class(), DepClass::Ded);
        assert_eq!(dep.disjuncts.len(), 2);
    }

    #[test]
    fn union_view_in_premise_splits_dependencies() {
        let out = rewrite_one(
            "view V(x) <- A(x).\nview V(x) <- B(x).",
            "tgd m: V(x) -> T(x).",
        );
        // V(x) -> T(x) becomes A(x) -> T(x) and B(x) -> T(x).
        assert_eq!(out.deps.len(), 2);
        assert!(out.deps.iter().all(|d| d.class() == DepClass::Tgd));
        let names: Vec<&str> = out.deps.iter().map(|d| d.name.as_ref()).collect();
        assert_eq!(names, vec!["m@0", "m@1"]);
    }

    #[test]
    fn negated_premise_literal_moves_to_conclusion() {
        let out = rewrite_one("view V(x) <- A(x).", "dep m: S(x), not B(x) -> T(x).");
        assert_eq!(out.deps.len(), 1);
        let dep = &out.deps[0];
        assert_eq!(dep.class(), DepClass::Ded);
        assert_eq!(dep.premise.len(), 1);
        assert_eq!(dep.disjuncts.len(), 2); // T(x) | B(x)
        assert!(!dep.has_negated_premise());
    }

    #[test]
    fn comparisons_inside_views_surface_in_premise() {
        let out = rewrite_one(
            "view Cheap(x) <- Price(x, p), p < 10.",
            "tgd m: Cheap(x) -> T(x).",
        );
        let dep = &out.deps[0];
        assert!(dep
            .premise
            .iter()
            .any(|l| matches!(l, Literal::Cmp(c) if c.op == CmpOp::Lt)));
    }

    #[test]
    fn comparison_on_existential_in_conclusion_is_dropped_with_warning() {
        let out = rewrite_one(
            "view Cheap(x) <- Price(x, p), p < 10.",
            "tgd m: S(x) -> Cheap(x).",
        );
        // Making Cheap(x) true needs Price(x, p) with p < 10; the chase
        // cannot constrain an invented null, so the alternative is dropped
        // (strengthening to an unsatisfiable requirement — a denial-like
        // dependency with no disjuncts).
        assert!(out
            .warnings
            .iter()
            .any(|w| matches!(w, RewriteWarning::DroppedExistentialComparison { .. })));
        let dep = &out.deps[0];
        assert!(dep.disjuncts.is_empty());
    }

    #[test]
    fn equality_with_existential_substitutes() {
        // Conclusion V(x) where V(y) <- A(y, z) with head arity 1: make
        // sure eq-substitution binds the head variable, not a fresh null.
        let out = rewrite_one("view V(x, x) <- A(x).", "tgd m: S(x, y) -> V(x, y).");
        // V(x, y) demands x = y (repeated head variable): the conclusion
        // equality over two universal variables is kept.
        let dep = &out.deps[0];
        assert_eq!(dep.disjuncts.len(), 1);
        assert_eq!(dep.disjuncts[0].eqs.len(), 1);
        assert_eq!(dep.disjuncts[0].atoms.len(), 1);
        assert_eq!(dep.class(), DepClass::TgdEgd);
    }

    #[test]
    fn egd_over_conjunctive_views_stays_egd() {
        let out = rewrite_one(
            "view V(x, n) <- A(x, n).",
            "egd e: V(x1, n), V(x2, n) -> x1 = x2.",
        );
        assert_eq!(out.deps.len(), 1);
        assert_eq!(out.deps[0].class(), DepClass::Egd);
        assert!(out.is_ded_free());
    }

    #[test]
    fn denial_over_views_unfolds() {
        let out = rewrite_one("view V(x) <- A(x).", "dep n: V(x), V(y), x != y -> false.");
        assert_eq!(out.deps.len(), 1);
        assert_eq!(out.deps[0].class(), DepClass::Denial);
        assert_eq!(
            out.deps[0]
                .premise
                .iter()
                .filter(|l| l.atom().is_some())
                .count(),
            2
        );
    }

    #[test]
    fn duplicate_outputs_are_merged() {
        // Both tgds produce the same auxiliary denial for ¬B.
        let prog = parse_program("view V(x) <- A(x), not B(x).").unwrap();
        let d1 = parse_dependency("tgd m1: S(x) -> V(x).").unwrap();
        let d2 = parse_dependency("tgd m2: S(x) -> V(x).").unwrap();
        let out = rewrite_program(&prog.views, &[d1, d2], &opts()).unwrap();
        // m1, m2 mains (identical premise but different names — still
        // canonically equal!) → the dedup keeps one main and one denial.
        assert_eq!(out.deps.len(), 2, "{:#?}", out.deps);
    }

    #[test]
    fn unsatisfiable_alternative_dropped() {
        let out = rewrite_one(
            "view V(x) <- A(x, 1).\nview V(x) <- A(x, 2).",
            "tgd m: S(x) -> V(x).",
        );
        // Both alternatives remain (both satisfiable): a 2-disjunct ded.
        assert_eq!(out.deps[0].disjuncts.len(), 2);

        let out = rewrite_one(
            "view W(x) <- B(x, y), y < 2, y > 5.",
            "tgd m: S(x) -> W(x).",
        );
        // y < 2 ∧ y > 5 over an existential is dropped (existential
        // comparison warning), leaving an empty disjunction.
        assert!(out.deps[0].disjuncts.is_empty());
    }

    #[test]
    fn ground_contradiction_is_unsat_alternative() {
        let out = rewrite_one(
            "view V(x) <- A(x, 1).",
            "ded m: S(x) -> V(x), V2(x) | V(x).",
        );
        // Smoke test for multi-disjunct input conclusions: both input
        // disjuncts expand; no crash, classification consistent.
        assert!(!out.deps.is_empty());
    }

    #[test]
    fn rewriting_is_deterministic() {
        let prog = parse_program(PAPER_VIEWS).unwrap();
        let dep = parse_dependency(
            "tgd m0: S_Product(pid, name, store, rating), rating < 2 \
             -> UnpopularProduct(pid, name).",
        )
        .unwrap();
        let a = rewrite_program(&prog.views, std::slice::from_ref(&dep), &opts()).unwrap();
        let b = rewrite_program(&prog.views, std::slice::from_ref(&dep), &opts()).unwrap();
        let fmt = |o: &RewriteOutput| {
            o.deps
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(fmt(&a), fmt(&b));
    }

    #[test]
    fn budget_violation_reported() {
        let mut views_text = String::new();
        // V = union of 20 rules, premise uses V three times: 20^3 > 4096.
        for i in 0..20 {
            views_text.push_str(&format!("view V(x) <- A{i}(x).\n"));
        }
        let prog = parse_program(&views_text).unwrap();
        let dep = parse_dependency("tgd m: V(x), V(y), V(z) -> T(x, y, z).").unwrap();
        let err = rewrite_program(&prog.views, &[dep], &opts());
        assert!(matches!(err, Err(RewriteError::TooComplex { .. })));
    }

    #[test]
    fn shared_existential_strengthening_warns() {
        // The negated atom uses the body variable z of the positive part.
        let out = rewrite_one("view V(x) <- A(x, z), not B(z).", "tgd m: S(x) -> V(x).");
        assert!(out
            .warnings
            .iter()
            .any(|w| matches!(w, RewriteWarning::SharedExistentialStrengthened { .. })));
        // The check dependency must include the context atom A to bind z.
        let chk = out.deps.iter().find(|d| d.is_denial()).unwrap();
        let preds: Vec<&str> = chk
            .premise
            .iter()
            .filter_map(|l| l.atom().map(|a| a.predicate.as_ref()))
            .collect();
        assert!(preds.contains(&"A"));
        assert!(preds.contains(&"B"));
    }

    #[test]
    fn view_over_view_in_conclusion() {
        let out = rewrite_one(
            "view V1(x) <- A(x).\nview V2(x) <- V1(x).",
            "tgd m: S(x) -> V2(x).",
        );
        assert_eq!(out.deps.len(), 1);
        assert_eq!(out.deps[0].disjuncts[0].atoms[0].predicate.as_ref(), "A");
    }

    #[test]
    fn all_outputs_reference_no_views() {
        let prog = parse_program(PAPER_VIEWS).unwrap();
        let deps = parse_program(
            "tgd m0: S_Product(pid, name, store, rating), rating < 2 -> UnpopularProduct(pid, name).\n\
             tgd m1: S_Product(pid, name, store, rating), rating >= 2, rating < 4 -> AvgProduct(pid, name).\n\
             tgd m2: S_Product(pid, name, store, rating), rating >= 4 -> PopularProduct(pid, name).\n\
             tgd m3: S_Product(pid, name, store, rating), S_Store(store, location) -> SoldAt(pid, sid), Store(sid, store, location).\n\
             egd e0: PopularProduct(id1, n), PopularProduct(id2, n) -> id1 = id2.",
        )
        .unwrap()
        .deps;
        let out = rewrite_program(&prog.views, &deps, &opts()).unwrap();
        for dep in &out.deps {
            assert!(!dep.has_negated_premise(), "{dep}");
            for p in dep.predicates() {
                assert!(!prog.views.is_view(&p), "view `{p}` survived in {dep}");
            }
        }
        // Provenance covers every output.
        for dep in &out.deps {
            assert!(out.provenance.contains_key(&dep.name), "{}", dep.name);
        }
    }
}
