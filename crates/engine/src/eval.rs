//! Evaluation of a conjunction of literals: the public, [`Bindings`]-level
//! entry point over the compiled plans of [`crate::plan`].
//!
//! A solution is an assignment of the body variables such that, over the
//! given [`Db`]:
//!
//! * every positive atom matches a stored tuple,
//! * no negated atom matches any stored tuple (variables local to the
//!   negation are wildcards — the safe-Datalog `¬∃` reading), and
//! * every comparison holds under [`CmpOp::eval`] semantics.
//!
//! [`evaluate_body`] compiles its body into a [`BodyPlan`] — registers,
//! per-step bound/free masks, filters placed on the step that binds their
//! last variable — runs it, and materializes a [`Bindings`] per solution,
//! because that is the type its signature promises. Callers that evaluate
//! the same body repeatedly (the chase, view materialization, validation)
//! hold a plan instead and never see a `Bindings`.
//!
//! [`CmpOp::eval`]: grom_lang::CmpOp::eval

use grom_lang::{Bindings, Literal};

use crate::db::Db;
use crate::plan::{BodyPlan, Scratch};

use crate::db::Control;

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
        // A positive atom over an absent relation has no solution.
        let body = vec![Literal::Pos(atom("Absent", &["x"]))];
        assert!(evaluate_body(&inst, &body, &Bindings::new()).is_empty());
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

    /// The cursor past everything `rel` holds now: what is added next is new.
    fn frontier(inst: &Instance, rel: &str) -> u64 {
        inst.relation(rel).map_or(0, |r| u64::from(r.frontier()))
    }

    /// Every match of `body` that [`BodyPlan::run_delta`] enumerates from
    /// the rows past the cursors in `since`, as bindings.
    fn run_delta(inst: &Instance, body: &[Literal], since: &[(&str, u64)]) -> Vec<Bindings> {
        let plan = BodyPlan::compile(body, &Bindings::new());
        let mut out = Vec::new();
        plan.run_delta(inst, &mut Scratch::default(), since, |regs| {
            out.push(plan.bindings(regs));
            Control::Continue
        });
        out
    }

    #[test]
    fn delta_seeding_restricts_to_new_tuples() {
        let mut inst = db();
        // Paths E(x,y), E(y,z) anchored at the new edge (4, 1): it can play
        // either role, giving 3->4->1 and 4->1->2, 4->1->3.
        let body = vec![
            Literal::Pos(atom("E", &["x", "y"])),
            Literal::Pos(atom("E", &["y", "z"])),
        ];
        let since = frontier(&inst, "E");
        inst.add("E", vec![Value::int(4), Value::int(1)]).unwrap();
        let sols = run_delta(&inst, &body, &[("E", since)]);
        assert_eq!(sols.len(), 3);
        for s in &sols {
            let y = s.get(&"y".into()).unwrap().as_int().unwrap();
            assert!(y == 4 || y == 1);
        }
        // A relation the body does not read seeds nothing, and neither does
        // a cursor with nothing behind it.
        for since in [("L", 0), ("E", frontier(&inst, "E"))] {
            let sols = run_delta(&inst, &body, &[since]);
            assert!(sols.is_empty(), "nothing is new from {since:?}");
        }
    }

    #[test]
    fn delta_seeding_respects_constants_and_stop() {
        let mut inst = db();
        let body = vec![Literal::Pos(Atom::new(
            "L",
            vec![Term::var("n"), Term::cons("a")],
        ))];
        // Two new tuples; only the "a"-labeled one matches the constant.
        let since = frontier(&inst, "L");
        inst.add("L", vec![Value::int(5), Value::str("a")]).unwrap();
        inst.add("L", vec![Value::int(6), Value::str("b")]).unwrap();
        let sols = run_delta(&inst, &body, &[("L", since)]);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(&"n".into()), Some(&Value::int(5)));
        // The anchor filtered the slot range by itself: no index was built.
        assert!(inst.storage_report().iter().all(|r| r.indexes.is_empty()));

        // Early stop is honored across anchors and tuples.
        let plan = BodyPlan::compile(&[Literal::Pos(atom("E", &["x", "y"]))], &Bindings::new());
        let mut count = 0;
        plan.run_delta(&inst, &mut Scratch::default(), &[("E", 0)], |_| {
            count += 1;
            Control::Stop
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn delta_seeding_enumerates_each_match_exactly_once() {
        // E = (0,1) | (1,2), (2,3): the trailing two rows are new. The path
        // body E(x,y), E(y,z) has two anchors over E, and the match
        // (1,2)-(2,3) uses new tuples at *both* positions: a per-anchor
        // enumeration would yield it twice, the semi-naive split must yield
        // it only at its first new position (anchor 0).
        let mut inst = Instance::new();
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            inst.add("E", vec![Value::int(a), Value::int(b)]).unwrap();
        }
        let body = vec![
            Literal::Pos(atom("E", &["x", "y"])),
            Literal::Pos(atom("E", &["y", "z"])),
        ];
        let sols = run_delta(&inst, &body, &[("E", 1)]);
        // (0,1)-(1,2) anchored at position 1, (1,2)-(2,3) anchored at
        // position 0 — and nowhere else.
        assert_eq!(sols.len(), 2);
        let mut dedup = sols.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), sols.len(), "duplicate enumeration: {sols:?}");

        // New rows in two relations: new-R at position 0 joined with new-S
        // at position 1 is anchored at position 0 only.
        let mut inst = Instance::new();
        inst.add("R", vec![Value::int(1), Value::int(2)]).unwrap();
        inst.add("S", vec![Value::int(2), Value::int(3)]).unwrap();
        let body = vec![
            Literal::Pos(atom("R", &["x", "y"])),
            Literal::Pos(atom("S", &["y", "z"])),
        ];
        assert_eq!(run_delta(&inst, &body, &[("R", 0), ("S", 0)]).len(), 1);
    }
}
