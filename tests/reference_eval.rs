//! Differential testing of the evaluation engine against a brute-force
//! reference implementation.
//!
//! The engine (`grom-engine`) compiles a body into a register-file plan —
//! static join orders, per-step bound/free masks, filters placed on the
//! step that binds their last variable, index probes, old/new version
//! splits under delta seeding; the reference below enumerates *all*
//! assignments of body variables over the active domain and checks every
//! literal tuple by tuple. On random bodies and instances the two must
//! agree exactly — full scans, seeded scans and delta-seeded scans alike.
//! This is the test that keeps the planner honest.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;

use grom::data::{SymbolTable, Tuple};
use grom::engine::{BodyPlan, Control, Scratch};
use grom::lang::ast::body_variables;
use grom::lang::{Atom, Bindings, CmpOp, Comparison, Literal, Term, Var};
use grom::prelude::{Instance, Value};

const RELS: [&str; 3] = ["R0", "R1", "R2"];
const VARS: [&str; 4] = ["x", "y", "z", "w"];

/// Brute-force: the active domain of the instance.
fn active_domain(inst: &Instance) -> Vec<Value> {
    let mut dom = BTreeSet::new();
    for fact in inst.facts() {
        for v in fact.tuple.values() {
            dom.insert(v.clone());
        }
    }
    dom.into_iter().collect()
}

/// The variables an evaluation can bind, in deterministic order: the seed's,
/// then those of positive atoms.
fn bindable_vars(body: &[Literal], seed: &Bindings) -> Vec<Var> {
    let mut bindable: Vec<Var> = seed.iter().map(|(v, _)| v.clone()).collect();
    for lit in body {
        if let Literal::Pos(a) = lit {
            for v in a.variables() {
                if !bindable.contains(&v) {
                    bindable.push(v);
                }
            }
        }
    }
    bindable
}

/// Brute-force evaluation: try every assignment of the body's *bindable*
/// variables over the active domain (seed variables keep the seed's value).
fn reference_eval(inst: &Instance, body: &[Literal], seed: &Bindings) -> BTreeSet<Bindings> {
    let free: Vec<Var> = bindable_vars(body, seed)
        .into_iter()
        .filter(|v| !seed.contains(v))
        .collect();
    let dom = active_domain(inst);
    let mut out = BTreeSet::new();
    let total = dom.len().checked_pow(free.len() as u32).unwrap_or(0);
    for mut code in 0..total {
        let mut bindings = seed.clone();
        for v in &free {
            bindings.bind(v.clone(), dom[code % dom.len()].clone());
            code /= dom.len();
        }
        if holds(inst, body, &bindings) {
            out.insert(bindings);
        }
    }
    out
}

/// Does `tuple` instantiate `atom` under `bindings`? Unbound variables are
/// existential, but every occurrence of one must see the same value.
fn instantiates(atom: &Atom, tuple: &Tuple, bindings: &Bindings) -> bool {
    let mut local: BTreeMap<&Var, &Value> = BTreeMap::new();
    atom.args.len() == tuple.arity()
        && atom
            .args
            .iter()
            .zip(tuple.values())
            .all(|(term, v)| match term {
                Term::Const(c) => c == v,
                Term::Var(x) => match bindings.get(x) {
                    Some(bound) => bound == v,
                    None => *local.entry(x).or_insert(v) == v,
                },
            })
}

/// Naive literal-by-literal check under total bindings: every stored tuple
/// of the atom's relation is tried, no pattern, no index.
fn holds(inst: &Instance, body: &[Literal], bindings: &Bindings) -> bool {
    body.iter().all(|lit| match lit {
        Literal::Pos(a) => inst
            .tuples(&a.predicate)
            .any(|t| instantiates(a, t, bindings)),
        // Variables no positive atom binds are local to the negation.
        Literal::Neg(a) => !inst
            .tuples(&a.predicate)
            .any(|t| instantiates(a, t, bindings)),
        Literal::Cmp(c) => bindings.eval_comparison(c).unwrap_or(false),
    })
}

/// The same text once as a plain and once as an interned string constant:
/// equal by order comparison, distinct as join values.
fn sym(text: &str) -> Value {
    let mut table = SymbolTable::new();
    for t in ["a", "b", "c"] {
        table.intern(&Arc::from(t));
    }
    Value::Sym(table.get(text).unwrap())
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        4 => (0i64..3).prop_map(Value::int),
        1 => (0usize..3).prop_map(|i| Value::str(["a", "b", "c"][i])),
        1 => (0usize..3).prop_map(|i| sym(["a", "b", "c"][i])),
    ]
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    (0usize..3, 0usize..4, 0usize..4)
        .prop_map(|(r, a, b)| Atom::new(RELS[r], vec![Term::var(VARS[a]), Term::var(VARS[b])]))
}

fn arb_literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        4 => arb_atom().prop_map(Literal::Pos),
        2 => arb_atom().prop_map(Literal::Neg),
        1 => (0usize..4, -1i64..3).prop_map(|(v, c)| {
            Literal::Cmp(Comparison::new(CmpOp::Leq, Term::var(VARS[v]), Term::cons(c)))
        }),
        1 => (0usize..4, 0usize..4).prop_map(|(a, b)| {
            Literal::Cmp(Comparison::new(CmpOp::Neq, Term::var(VARS[a]), Term::var(VARS[b])))
        }),
        // Order comparisons against a plain and an interned string constant:
        // the instance holds both kinds, so `Sym`/`Str` meet on either side.
        1 => (0usize..4, arb_value()).prop_map(|(v, c)| {
            Literal::Cmp(Comparison::new(CmpOp::Lt, Term::var(VARS[v]), Term::Const(c)))
        }),
    ]
}

/// Bodies whose comparisons only use bindable variables (safety) —
/// negation-local variables are allowed.
fn safe(body: &[Literal], seed: &Bindings) -> bool {
    let bindable = bindable_vars(body, seed);
    body.iter().all(|l| match l {
        Literal::Cmp(c) => c.variables().iter().all(|v| bindable.contains(v)),
        _ => true,
    }) && body.iter().any(|l| matches!(l, Literal::Pos(_)))
}

fn arb_body() -> impl Strategy<Value = Vec<Literal>> {
    prop::collection::vec(arb_literal(), 1..4).prop_filter("safe", |b| safe(b, &Bindings::new()))
}

type Facts = Vec<(usize, Value, Value)>;

fn arb_facts(max: usize) -> impl Strategy<Value = Facts> {
    prop::collection::vec((0usize..3, arb_value(), arb_value()), 0..max)
}

fn instance_of(facts: &Facts) -> Instance {
    let mut inst = Instance::new();
    for (r, a, b) in facts {
        inst.add(RELS[*r], vec![a.clone(), b.clone()]).unwrap();
    }
    inst
}

/// `base` then `delta` in one instance, plus the per-relation lists of the
/// delta facts that were new — by construction each relation's trailing
/// rows, which is what a claimed delta is.
fn with_delta(base: &Facts, delta: &Facts) -> (Instance, BTreeMap<&'static str, Vec<Tuple>>) {
    let mut inst = instance_of(base);
    let mut lists: BTreeMap<&'static str, Vec<Tuple>> = BTreeMap::new();
    for (r, a, b) in delta {
        let tuple = Tuple::new(vec![a.clone(), b.clone()]);
        if inst.insert(&Arc::from(RELS[*r]), tuple.clone()).unwrap() {
            lists.entry(RELS[*r]).or_default().push(tuple);
        }
    }
    (inst, lists)
}

/// Does the match `b` use a delta tuple in some positive atom? Under a
/// total assignment every positive atom is ground, so it names one tuple.
fn uses_delta(body: &[Literal], b: &Bindings, delta: &BTreeMap<&'static str, Vec<Tuple>>) -> bool {
    body.iter().any(|lit| match lit {
        Literal::Pos(a) => delta
            .get(a.predicate.as_ref())
            .is_some_and(|tuples| tuples.iter().any(|t| instantiates(a, t, b))),
        _ => false,
    })
}

/// The engine's solutions of `body` from `seed`, in enumeration order: the
/// body compiled once, run, and each match read out of the registers.
fn engine_eval(inst: &Instance, body: &[Literal], seed: &Bindings) -> Vec<Bindings> {
    let plan = BodyPlan::compile(body, seed);
    let mut out = Vec::new();
    plan.run(inst, &mut Scratch::default(), seed, |regs| {
        out.push(plan.bindings(regs));
        Control::Continue
    });
    out
}

/// Delta-seeded evaluation of `body`, every match in enumeration order.
/// The engine is told only where each relation's new rows start: the
/// cursor that cuts off as many trailing rows as the delta list is long.
fn from_delta(
    inst: &Instance,
    body: &[Literal],
    delta: &BTreeMap<&'static str, Vec<Tuple>>,
) -> Vec<Bindings> {
    let cursor = |(rel, new): (&&'static str, &Vec<Tuple>)| {
        let stored = inst.relation(rel).expect("a delta relation is stored");
        (*rel, u64::from(stored.cursor_before_last(new.len())))
    };
    let since: Vec<(&str, u64)> = delta.iter().map(cursor).collect();
    let plan = BodyPlan::compile(body, &Bindings::new());
    let mut out = Vec::new();
    plan.run_delta(inst, &mut Scratch::default(), &since, |regs| {
        out.push(plan.bindings(regs));
        Control::Continue
    });
    out
}

fn edge(p: &str, a: &str, b: &str) -> Literal {
    Literal::Pos(Atom::new(p, vec![Term::var(a), Term::var(b)]))
}

fn int_facts(facts: &[(usize, i64, i64)]) -> Facts {
    facts
        .iter()
        .map(|&(r, a, b)| (r, Value::int(a), Value::int(b)))
        .collect()
}

#[test]
fn delta_self_join_with_the_delta_at_both_positions() {
    // R0 = (0,1) | (1,2), (2,3): the match (1,2)-(2,3) has delta tuples at
    // both positions and must come out once, (0,1)-(1,2) once.
    let body = vec![edge("R0", "x", "y"), edge("R0", "y", "z")];
    let (inst, delta) = with_delta(
        &int_facts(&[(0, 0, 1)]),
        &int_facts(&[(0, 1, 2), (0, 2, 3)]),
    );
    let got = from_delta(&inst, &body, &delta);
    let expected: BTreeSet<Bindings> = reference_eval(&inst, &body, &Bindings::new())
        .into_iter()
        .filter(|b| uses_delta(&body, b, &delta))
        .collect();
    assert_eq!(got.len(), 2, "{got:?}");
    assert_eq!(got.iter().cloned().collect::<BTreeSet<_>>(), expected);
}

#[test]
fn delta_over_two_relations_finds_the_cross_match_once() {
    // New R0(1,2) joins new R1(2,3) and old R1(2,4); old R0(5,2) joins the
    // new R1 tuple only through anchor position 1.
    let body = vec![edge("R0", "x", "y"), edge("R1", "y", "z")];
    let (inst, delta) = with_delta(
        &int_facts(&[(0, 5, 2), (1, 2, 4)]),
        &int_facts(&[(0, 1, 2), (1, 2, 3)]),
    );
    let got = from_delta(&inst, &body, &delta);
    let expected: BTreeSet<Bindings> = reference_eval(&inst, &body, &Bindings::new())
        .into_iter()
        .filter(|b| uses_delta(&body, b, &delta))
        .collect();
    assert_eq!(got.len(), 3, "{got:?}");
    assert_eq!(got.iter().cloned().collect::<BTreeSet<_>>(), expected);
}

#[test]
fn negation_with_a_repeated_local_variable_needs_equal_columns() {
    // not R1(w, w) with w local: only a tuple with equal columns refutes it.
    let body = vec![
        edge("R0", "x", "y"),
        Literal::Neg(Atom::new("R1", vec![Term::var("w"), Term::var("w")])),
    ];
    let inst = instance_of(&int_facts(&[(0, 1, 2), (1, 3, 4)]));
    assert_eq!(engine_eval(&inst, &body, &Bindings::new()).len(), 1);
    let inst = instance_of(&int_facts(&[(0, 1, 2), (1, 3, 4), (1, 5, 5)]));
    assert!(engine_eval(&inst, &body, &Bindings::new()).is_empty());
}

#[test]
fn interned_and_plain_strings_order_by_text_but_do_not_join() {
    let inst = instance_of(&vec![
        (0, sym("a"), Value::str("a")),
        (1, sym("b"), sym("b")),
    ]);
    // x < "b" holds for the interned "a"; x < "a" for nothing.
    let lt = |c: Value| {
        vec![
            edge("R0", "x", "y"),
            Literal::Cmp(Comparison::new(CmpOp::Lt, Term::var("x"), Term::Const(c))),
        ]
    };
    assert_eq!(
        engine_eval(&inst, &lt(Value::str("b")), &Bindings::new()).len(),
        1
    );
    assert_eq!(engine_eval(&inst, &lt(sym("b")), &Bindings::new()).len(), 1);
    assert!(engine_eval(&inst, &lt(Value::str("a")), &Bindings::new()).is_empty());
    // R0(x, x): Sym("a") and Str("a") are different join values.
    let repeated = vec![edge("R0", "x", "x")];
    assert!(engine_eval(&inst, &repeated, &Bindings::new()).is_empty());
    let repeated = vec![edge("R1", "x", "x")];
    assert_eq!(engine_eval(&inst, &repeated, &Bindings::new()).len(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_matches_brute_force_reference(
        body in arb_body(),
        facts in arb_facts(7),
    ) {
        let inst = instance_of(&facts);
        let seed = Bindings::new();
        let sols = engine_eval(&inst, &body, &seed);
        let engine: BTreeSet<Bindings> = sols.iter().cloned().collect();
        let reference = reference_eval(&inst, &body, &seed);
        prop_assert_eq!(
            &engine, &reference,
            "engine and reference disagree\nbody: {:?}\ninstance:\n{}",
            body, inst
        );
        // Enumeration is deterministic: a second run of the same input
        // yields the same solutions in the same order.
        prop_assert_eq!(&sols, &engine_eval(&inst, &body, &seed));
    }

    #[test]
    fn engine_solution_count_is_duplicate_free(
        body in arb_body(),
        facts in arb_facts(7),
    ) {
        // The engine may emit the same full binding at most once per
        // *distinct* combination of matched tuples; after projection onto
        // bindable variables, solutions must match the set semantics of the
        // reference (checked above) — here we check the weaker invariant
        // that full bindings are pairwise distinct.
        let inst = instance_of(&facts);
        let sols = engine_eval(&inst, &body, &Bindings::new());
        let vars = body_variables(&body);
        let mut seen = BTreeSet::new();
        for s in &sols {
            let key: Vec<Option<Value>> = vars.iter().map(|v| s.get(v).cloned()).collect();
            prop_assert!(seen.insert(key), "duplicate solution emitted");
        }
    }

    #[test]
    fn seeded_engine_matches_brute_force_reference(
        body in prop::collection::vec(arb_literal(), 1..4),
        facts in arb_facts(7),
        seeded in prop::collection::vec((0usize..4, arb_value()), 1..3),
    ) {
        // The seed may bind a join variable, a negation-local variable
        // (which then stops being a wildcard), a comparison-only variable
        // (which makes the comparison safe) or a variable the body never
        // mentions; its values need not occur in the instance.
        let mut seed = Bindings::new();
        for (v, value) in seeded {
            seed.bind(VARS[v].into(), value);
        }
        if !safe(&body, &seed) {
            continue;
        }
        let inst = instance_of(&facts);
        let sols = engine_eval(&inst, &body, &seed);
        let engine: BTreeSet<Bindings> = sols.iter().cloned().collect();
        prop_assert_eq!(sols.len(), engine.len(), "duplicate solution emitted");
        let reference = reference_eval(&inst, &body, &seed);
        prop_assert_eq!(
            &engine, &reference,
            "seeded engine and reference disagree\nbody: {:?}\nseed: {}\ninstance:\n{}",
            body, seed, inst
        );
    }

    #[test]
    fn delta_anchors_enumerate_each_new_match_exactly_once(
        body in arb_body(),
        base in arb_facts(6),
        delta in arb_facts(5),
    ) {
        // The union over anchor positions must be exactly the matches that
        // use at least one delta tuple — none missed by the old/new split,
        // none found at two anchors.
        let (inst, delta) = with_delta(&base, &delta);
        let got = from_delta(&inst, &body, &delta);
        let engine: BTreeSet<Bindings> = got.iter().cloned().collect();
        prop_assert_eq!(got.len(), engine.len(), "a match was enumerated twice: {:?}", got);
        let reference: BTreeSet<Bindings> = reference_eval(&inst, &body, &Bindings::new())
            .into_iter()
            .filter(|b| uses_delta(&body, b, &delta))
            .collect();
        prop_assert_eq!(
            &engine, &reference,
            "delta engine and reference disagree\nbody: {:?}\ndelta: {:?}\ninstance:\n{}",
            body, delta, inst
        );
        prop_assert_eq!(&got, &from_delta(&inst, &body, &delta));
    }
}
