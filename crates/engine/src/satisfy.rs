//! Satisfaction checks for dependencies.
//!
//! A dependency `premise → D_1 ∨ … ∨ D_k` is satisfied by a database when
//! every premise match extends to *some* disjunct: its equalities and
//! comparisons hold under the match, and its atoms embed into the database
//! (existential variables may map to any stored value, including labeled
//! nulls). A denial (`k = 0`) is satisfied when the premise never matches.
//!
//! The check itself is [`DepPlan::violations`]: the premise plan with the
//! per-disjunct checks run on the register file of every match. The chase
//! holds one [`DepPlan`] per dependency for a whole run;
//! [`instance_satisfies`] serves callers that check a program once — the
//! validator in `grom` (the soundness certificate: `V_T(J_T)` must satisfy
//! the original semantic mapping) and the tests comparing chase results —
//! so it compiles per dependency per call and hands the witness out as
//! [`Bindings`].

use std::fmt;

use grom_lang::{Bindings, Dependency};

use crate::db::{Control, Db};
use crate::plan::{DepPlan, Scratch};

/// A witness that a dependency is violated: the premise match for which no
/// disjunct can be satisfied.
#[derive(Debug, Clone)]
pub struct Violation {
    pub dependency: std::sync::Arc<str>,
    pub bindings: Bindings,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dependency `{}` violated at {}",
            self.dependency, self.bindings
        )
    }
}

fn first_violation(db: &impl Db, dep: &Dependency, s: &mut Scratch) -> Option<Violation> {
    let plan = DepPlan::compile(dep);
    let mut found = None;
    plan.violations(db, s, |regs| {
        found = Some(Violation {
            dependency: dep.name.clone(),
            bindings: plan.bindings(regs),
        });
        Control::Stop
    });
    found
}

/// Check a whole set of dependencies; returns one witness per violated
/// dependency (empty = all satisfied).
pub fn instance_satisfies<'d>(
    db: &impl Db,
    deps: impl IntoIterator<Item = &'d Dependency>,
) -> Vec<Violation> {
    let mut s = Scratch::default();
    deps.into_iter()
        .filter_map(|d| first_violation(db, d, &mut s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_data::{Instance, Value};
    use grom_lang::parser::parse_dependency;

    fn inst(facts: &[(&str, &[i64])]) -> Instance {
        let mut i = Instance::new();
        for (rel, vals) in facts {
            i.add(*rel, vals.iter().map(|&v| Value::int(v)).collect())
                .unwrap();
        }
        i
    }

    #[test]
    fn tgd_satisfaction() {
        let dep = parse_dependency("tgd m: S(x) -> T(x, y).").unwrap();
        // Satisfied: T has a tuple for x=1 with any second column.
        let db = inst(&[("S", &[1]), ("T", &[1, 9])]);
        assert!(instance_satisfies(&db, [&dep]).is_empty());
        // Violated: S(2) has no T-tuple.
        let db = inst(&[("S", &[1]), ("S", &[2]), ("T", &[1, 9])]);
        let v = &instance_satisfies(&db, [&dep])[0];
        assert_eq!(v.dependency.as_ref(), "m");
        assert_eq!(v.bindings.get(&"x".into()), Some(&Value::int(2)));
    }

    #[test]
    fn existential_witness_may_be_a_null() {
        let dep = parse_dependency("tgd m: S(x) -> T(x, y).").unwrap();
        let mut db = inst(&[("S", &[1])]);
        db.add("T", vec![Value::int(1), Value::null(0)]).unwrap();
        assert!(instance_satisfies(&db, [&dep]).is_empty());
    }

    #[test]
    fn egd_satisfaction() {
        let dep = parse_dependency("egd e: T(x, n), T(y, n) -> x = y.").unwrap();
        let db = inst(&[("T", &[1, 7]), ("T", &[2, 8])]);
        assert!(instance_satisfies(&db, [&dep]).is_empty());
        let db = inst(&[("T", &[1, 7]), ("T", &[2, 7])]);
        assert!(!instance_satisfies(&db, [&dep]).is_empty());
    }

    #[test]
    fn denial_satisfaction() {
        let dep = parse_dependency("dep n: T(x, x) -> false.").unwrap();
        let db = inst(&[("T", &[1, 2])]);
        assert!(instance_satisfies(&db, [&dep]).is_empty());
        let db = inst(&[("T", &[3, 3])]);
        assert!(!instance_satisfies(&db, [&dep]).is_empty());
    }

    #[test]
    fn ded_satisfied_by_any_disjunct() {
        // The paper's d0 shape.
        let dep = parse_dependency("ded d0: P(p1, n), P(p2, n) -> p1 = p2 | R(r, p1) | R(r2, p2).")
            .unwrap();
        // Same name, different ids, but p2 has an R-tuple: satisfied.
        let db = inst(&[("P", &[1, 7]), ("P", &[2, 7]), ("R", &[5, 2])]);
        assert!(instance_satisfies(&db, [&dep]).is_empty());
        // No R-tuples and different ids: violated.
        let db = inst(&[("P", &[1, 7]), ("P", &[2, 7])]);
        assert!(!instance_satisfies(&db, [&dep]).is_empty());
        // Equal ids satisfy the first disjunct.
        let db = inst(&[("P", &[1, 7])]);
        assert!(instance_satisfies(&db, [&dep]).is_empty());
    }

    #[test]
    fn disjunct_with_comparison() {
        let dep = parse_dependency("dep d: S(x, y) -> T(x), y > 0.").unwrap();
        let db = inst(&[("S", &[1, 5]), ("T", &[1])]);
        assert!(instance_satisfies(&db, [&dep]).is_empty());
        let db = inst(&[("S", &[1, -5]), ("T", &[1])]);
        assert!(!instance_satisfies(&db, [&dep]).is_empty());
    }

    #[test]
    fn premise_with_comparison() {
        let dep = parse_dependency("tgd m: S(x, r), r >= 4 -> T(x).").unwrap();
        // r = 3 < 4: premise never matches, trivially satisfied.
        let db = inst(&[("S", &[1, 3])]);
        assert!(instance_satisfies(&db, [&dep]).is_empty());
        let db = inst(&[("S", &[1, 4])]);
        assert!(!instance_satisfies(&db, [&dep]).is_empty());
    }

    #[test]
    fn premise_with_negation() {
        let dep = parse_dependency("dep d: S(x), not Block(x) -> T(x).").unwrap();
        let db = inst(&[("S", &[1]), ("Block", &[1])]);
        assert!(instance_satisfies(&db, [&dep]).is_empty());
        let db = inst(&[("S", &[1])]);
        assert!(!instance_satisfies(&db, [&dep]).is_empty());
    }

    #[test]
    fn instance_satisfies_reports_per_dependency() {
        let d1 = parse_dependency("tgd a: S(x) -> T(x, y).").unwrap();
        let d2 = parse_dependency("dep b: S(x) -> false.").unwrap();
        let db = inst(&[("S", &[1])]);
        let violations = instance_satisfies(&db, [&d1, &d2]);
        assert_eq!(violations.len(), 2);
        let names: Vec<&str> = violations.iter().map(|v| v.dependency.as_ref()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn equality_of_nulls_by_label() {
        let dep = parse_dependency("egd e: T(x, n), T(y, n) -> x = y.").unwrap();
        let mut db = Instance::new();
        db.add("T", vec![Value::null(0), Value::int(7)]).unwrap();
        db.add("T", vec![Value::null(0), Value::int(7)]).unwrap(); // dedup: same tuple
        assert!(instance_satisfies(&db, [&dep]).is_empty());
        db.add("T", vec![Value::null(1), Value::int(7)]).unwrap();
        assert!(!instance_satisfies(&db, [&dep]).is_empty()); // N0 != N1
    }
}
