//! Evaluation of conjunctions of literals: the public, [`Bindings`]-level
//! entry points over the compiled plans of [`crate::plan`].
//!
//! A solution is an assignment of the body variables such that, over the
//! given [`Db`]:
//!
//! * every positive atom matches a stored tuple,
//! * no negated atom matches any stored tuple (variables local to the
//!   negation are wildcards — the safe-Datalog `¬∃` reading), and
//! * every comparison holds under [`CmpOp::eval`] semantics.
//!
//! Each function here compiles its body into a [`BodyPlan`] — registers,
//! per-step bound/free masks, filters placed on the step that binds their
//! last variable — runs it, and materializes a [`Bindings`] per solution,
//! because that is the type these signatures promise. Callers that evaluate
//! the same body repeatedly (the chase, view materialization, validation)
//! hold a plan instead and never see a `Bindings`.
//!
//! [`CmpOp::eval`]: grom_lang::CmpOp::eval

use grom_lang::{Bindings, Literal};

use crate::db::Db;
use crate::plan::{BodyPlan, Scratch};

pub use crate::db::Control;

/// Evaluate `body` over `db`, starting from `seed` bindings, collecting all
/// solutions.
pub fn evaluate_body(db: &impl Db, body: &[Literal], seed: &Bindings) -> Vec<Bindings> {
    let plan = BodyPlan::compile(body, seed);
    let mut out = Vec::new();
    plan.run(db, &mut Scratch::default(), seed, |regs| {
        out.push(plan.bindings(regs));
        Control::Continue
    });
    out
}

/// Streaming evaluation: `visit` is called on every solution and may stop
/// the enumeration early.
pub fn evaluate_body_streaming(
    db: &impl Db,
    body: &[Literal],
    seed: &Bindings,
    mut visit: impl FnMut(&Bindings) -> Control,
) {
    let plan = BodyPlan::compile(body, seed);
    plan.run(db, &mut Scratch::default(), seed, |regs| {
        visit(&plan.bindings(regs))
    });
}

/// Delta-seeded semi-naive evaluation: enumerate solutions of `body` that
/// use at least one tuple of `deltas` in a positive atom, each solution
/// exactly once.
///
/// `deltas` maps relation names to the tuples inserted since the body was
/// last evaluated. For every positive atom whose predicate has a delta
/// entry, each delta tuple is bound to that atom (the *anchor*) and the
/// remaining literals are joined with the semi-naive version split:
/// positive atoms **before** the anchor that read a delta relation see only
/// that relation's *old* half ([`crate::Ver::Old`] of the cursor that
/// excludes the delta), atoms after the anchor and non-delta atoms see
/// everything, and negations/comparisons always check the full database. A
/// solution whose first (in body position order) new tuple sits at position
/// `p` is therefore enumerated only with `p` as the anchor — at any later
/// anchor, position `p` reads the old half, which excludes its tuple.
///
/// The versioning relies on the scheduler's claim discipline: each delta
/// list holds exactly the relation's most recently inserted tuples, so
/// [`Db::cursor_before_last_rel`] of the list length separates the relation
/// into "everything except this delta" and "this delta".
///
/// The chase does not call this function — it holds a compiled
/// [`crate::DepPlan`] and runs [`crate::DepPlan::violations_from_delta`],
/// the same anchors with the satisfaction check fused in.
///
/// Returns the number of delta tuples skipped by the anchor arity check —
/// stale entries logged before their relation's arity drifted; each stale
/// tuple counts once, regardless of how many anchor positions its relation
/// has.
pub fn evaluate_body_from_delta(
    db: &impl Db,
    body: &[Literal],
    deltas: &[(&str, &[grom_data::Tuple])],
    mut visit: impl FnMut(&Bindings) -> Control,
) -> usize {
    let plan = BodyPlan::compile(body, &Bindings::new());
    plan.run_delta(db, &mut Scratch::default(), deltas, |regs| {
        visit(&plan.bindings(regs))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_data::{Instance, Value};
    use grom_lang::{Atom, CmpOp, Comparison, Term};

    fn atom(p: &str, vars: &[&str]) -> Atom {
        Atom::new(p, vars.iter().map(Term::var).collect())
    }

    fn db() -> Instance {
        let mut inst = Instance::new();
        // Edges of a small graph.
        for (a, b) in [(1, 2), (2, 3), (3, 4), (1, 3)] {
            inst.add("E", vec![Value::int(a), Value::int(b)]).unwrap();
        }
        // Node labels.
        for (n, l) in [(1, "a"), (2, "b"), (3, "a"), (4, "b")] {
            inst.add("L", vec![Value::int(n), Value::str(l)]).unwrap();
        }
        inst
    }

    #[test]
    fn single_atom_all_solutions() {
        let inst = db();
        let body = vec![Literal::Pos(atom("E", &["x", "y"]))];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 4);
    }

    #[test]
    fn join_two_atoms() {
        let inst = db();
        // Paths of length 2: E(x,y), E(y,z).
        let body = vec![
            Literal::Pos(atom("E", &["x", "y"])),
            Literal::Pos(atom("E", &["y", "z"])),
        ];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        // 1->2->3, 2->3->4, 1->3->4.
        assert_eq!(sols.len(), 3);
        for s in &sols {
            let x = s.get(&"x".into()).unwrap().as_int().unwrap();
            let y = s.get(&"y".into()).unwrap().as_int().unwrap();
            let z = s.get(&"z".into()).unwrap().as_int().unwrap();
            assert!(x < y && y < z, "not a path: {x} {y} {z}");
        }
    }

    #[test]
    fn repeated_variable_in_one_atom() {
        let mut inst = Instance::new();
        inst.add("R", vec![Value::int(1), Value::int(1)]).unwrap();
        inst.add("R", vec![Value::int(1), Value::int(2)]).unwrap();
        let body = vec![Literal::Pos(atom("R", &["x", "x"]))];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(&"x".into()), Some(&Value::int(1)));
    }

    #[test]
    fn constants_in_atoms() {
        let inst = db();
        let body = vec![Literal::Pos(Atom::new(
            "L",
            vec![Term::var("n"), Term::cons("a")],
        ))];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn negation_filters() {
        let inst = db();
        // Nodes with no outgoing edge: L(n, l), not E(n, m).
        let body = vec![
            Literal::Pos(atom("L", &["n", "l"])),
            Literal::Neg(atom("E", &["n", "m"])),
        ];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(&"n".into()), Some(&Value::int(4)));
    }

    #[test]
    fn negation_on_missing_relation_holds() {
        let inst = db();
        let body = vec![
            Literal::Pos(atom("L", &["n", "l"])),
            Literal::Neg(atom("Absent", &["n"])),
        ];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 4);
    }

    #[test]
    fn comparisons_filter() {
        let inst = db();
        let body = vec![
            Literal::Pos(atom("E", &["x", "y"])),
            Literal::Cmp(Comparison::new(CmpOp::Gt, Term::var("y"), Term::cons(3i64))),
        ];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 1); // only 3 -> 4
    }

    #[test]
    fn seed_bindings_restrict() {
        let inst = db();
        let mut seed = Bindings::new();
        seed.bind("x".into(), Value::int(1));
        let body = vec![Literal::Pos(atom("E", &["x", "y"]))];
        let sols = evaluate_body(&inst, &body, &seed);
        assert_eq!(sols.len(), 2); // 1->2, 1->3
        for s in &sols {
            assert_eq!(s.get(&"x".into()), Some(&Value::int(1)));
        }
    }

    #[test]
    fn empty_body_yields_seed() {
        let inst = db();
        let sols = evaluate_body(&inst, &[], &Bindings::new());
        assert_eq!(sols.len(), 1);
        assert!(sols[0].is_empty());
    }

    #[test]
    fn cross_product_when_no_shared_vars() {
        let inst = db();
        let body = vec![
            Literal::Pos(atom("E", &["x", "y"])),
            Literal::Pos(atom("L", &["n", "l"])),
        ];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 16);
    }

    #[test]
    fn negation_with_local_wildcard_variable() {
        let mut inst = Instance::new();
        inst.add("P", vec![Value::int(1)]).unwrap();
        inst.add("P", vec![Value::int(2)]).unwrap();
        inst.add("Q", vec![Value::int(10), Value::int(1)]).unwrap();
        // P(x), not Q(w, x): w occurs only under negation — wildcard.
        let body = vec![
            Literal::Pos(atom("P", &["x"])),
            Literal::Neg(atom("Q", &["w", "x"])),
        ];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(&"x".into()), Some(&Value::int(2)));
    }

    #[test]
    fn nulls_join_by_label() {
        let mut inst = Instance::new();
        inst.add("A", vec![Value::null(0)]).unwrap();
        inst.add("B", vec![Value::null(0)]).unwrap();
        inst.add("B", vec![Value::null(1)]).unwrap();
        let body = vec![
            Literal::Pos(atom("A", &["x"])),
            Literal::Pos(atom("B", &["x"])),
        ];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(&"x".into()), Some(&Value::null(0)));
    }

    #[test]
    fn delta_seeding_restricts_to_new_tuples() {
        let inst = db();
        // Paths E(x,y), E(y,z) anchored at the new edge (2, 3): it can play
        // either role, giving 1->2->3 and 2->3->4.
        let body = vec![
            Literal::Pos(atom("E", &["x", "y"])),
            Literal::Pos(atom("E", &["y", "z"])),
        ];
        let delta = vec![grom_data::Tuple::new(vec![Value::int(2), Value::int(3)])];
        let mut sols = Vec::new();
        evaluate_body_from_delta(&inst, &body, &[("E", &delta)], |b| {
            sols.push(b.clone());
            Control::Continue
        });
        assert_eq!(sols.len(), 2);
        for s in &sols {
            let y = s.get(&"y".into()).unwrap().as_int().unwrap();
            assert!(y == 2 || y == 3);
        }
        // A delta on an unrelated relation seeds nothing.
        let mut count = 0;
        evaluate_body_from_delta(&inst, &body, &[("L", &delta)], |_| {
            count += 1;
            Control::Continue
        });
        assert_eq!(count, 0);
    }

    #[test]
    fn delta_seeding_counts_stale_arity_skips() {
        let inst = db();
        // E has arity 2; a unary delta tuple is stale and must be counted
        // once — not once per anchor position — and never silently dropped.
        let body = vec![
            Literal::Pos(atom("E", &["x", "y"])),
            Literal::Pos(atom("E", &["y", "z"])),
        ];
        let delta = vec![
            grom_data::Tuple::new(vec![Value::int(2)]),
            grom_data::Tuple::new(vec![Value::int(2), Value::int(3)]),
        ];
        let mut sols = 0;
        let skipped = evaluate_body_from_delta(&inst, &body, &[("E", &delta)], |_| {
            sols += 1;
            Control::Continue
        });
        assert_eq!(skipped, 1); // the stale tuple, once despite two anchors
        assert_eq!(sols, 2); // the well-formed tuple still seeds matches
        let skipped =
            evaluate_body_from_delta(&inst, &body, &[("E", &delta[1..])], |_| Control::Continue);
        assert_eq!(skipped, 0);
    }

    #[test]
    fn delta_seeding_respects_constants_and_stop() {
        let inst = db();
        let body = vec![Literal::Pos(Atom::new(
            "L",
            vec![Term::var("n"), Term::cons("a")],
        ))];
        // Two delta tuples; only the "a"-labeled one matches the constant.
        let delta = vec![
            grom_data::Tuple::new(vec![Value::int(1), Value::str("a")]),
            grom_data::Tuple::new(vec![Value::int(2), Value::str("b")]),
        ];
        let mut sols = Vec::new();
        evaluate_body_from_delta(&inst, &body, &[("L", &delta)], |b| {
            sols.push(b.clone());
            Control::Continue
        });
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(&"n".into()), Some(&Value::int(1)));

        // Early stop is honored across anchors and tuples.
        let body = vec![Literal::Pos(atom("E", &["x", "y"]))];
        let delta: Vec<grom_data::Tuple> = inst.tuples("E").cloned().collect();
        let mut count = 0;
        evaluate_body_from_delta(&inst, &body, &[("E", &delta)], |_| {
            count += 1;
            Control::Stop
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn delta_seeding_enumerates_each_match_exactly_once() {
        // E = (0,1), (1,2), (2,3); the trailing two rows are the delta. The
        // path body E(x,y), E(y,z) has two anchors over E, and the match
        // (1,2)-(2,3) uses delta tuples at *both* positions: the old
        // per-anchor enumeration yielded it twice, the semi-naive split must
        // yield it only at its first new position (anchor 0).
        let mut inst = Instance::new();
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            inst.add("E", vec![Value::int(a), Value::int(b)]).unwrap();
        }
        let delta = vec![
            grom_data::Tuple::new(vec![Value::int(1), Value::int(2)]),
            grom_data::Tuple::new(vec![Value::int(2), Value::int(3)]),
        ];
        let body = vec![
            Literal::Pos(atom("E", &["x", "y"])),
            Literal::Pos(atom("E", &["y", "z"])),
        ];
        let mut sols = Vec::new();
        evaluate_body_from_delta(&inst, &body, &[("E", &delta)], |b| {
            sols.push(b.clone());
            Control::Continue
        });
        // (0,1)-(1,2) anchored at position 1, (1,2)-(2,3) anchored at
        // position 0 — and nowhere else.
        assert_eq!(sols.len(), 2);
        let mut dedup = sols.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), sols.len(), "duplicate enumeration: {sols:?}");

        // A multi-relation delta finds the cross-relation match exactly once
        // as well: new-R at position 0 joined with new-S at position 1 is
        // anchored at position 0 only.
        let mut inst = Instance::new();
        inst.add("R", vec![Value::int(1), Value::int(2)]).unwrap();
        inst.add("S", vec![Value::int(2), Value::int(3)]).unwrap();
        let dr = vec![grom_data::Tuple::new(vec![Value::int(1), Value::int(2)])];
        let ds = vec![grom_data::Tuple::new(vec![Value::int(2), Value::int(3)])];
        let body = vec![
            Literal::Pos(atom("R", &["x", "y"])),
            Literal::Pos(atom("S", &["y", "z"])),
        ];
        let mut count = 0;
        evaluate_body_from_delta(&inst, &body, &[("R", &dr), ("S", &ds)], |_| {
            count += 1;
            Control::Continue
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn streaming_stop_is_respected() {
        let inst = db();
        let body = vec![Literal::Pos(atom("E", &["x", "y"]))];
        let mut count = 0;
        evaluate_body_streaming(&inst, &body, &Bindings::new(), |_| {
            count += 1;
            if count == 2 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert_eq!(count, 2);
        // A positive atom over an absent relation has no solution to stop at.
        let body = vec![Literal::Pos(atom("Absent", &["x"]))];
        evaluate_body_streaming(&inst, &body, &Bindings::new(), |_| {
            panic!("an absent relation matched")
        });
    }
}
