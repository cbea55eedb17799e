//! The soundness certificate: does `Υ_T(J_T)` satisfy the original
//! semantic mapping?
//!
//! GROM's rewriting is sound but not complete (§3): *whenever the rewritten
//! program admits a universal solution `J_T`, then `Υ_T(J_T)` is a solution
//! of the original source-to-semantic mapping*. This module checks that
//! property on concrete instances — it is both a user-facing sanity report
//! and the oracle for the repository's property-based soundness tests.
//!
//! Procedure: materialize the target views over `J_T` and evaluate every
//! original mapping and target constraint over the source side, `J_T` and
//! `Υ_T(J_T)` read as one database — by reference ([`LayeredDb`]): nothing
//! is copied or re-indexed. One body (`validate_layers`) serves both
//! kinds of caller:
//!
//! * [`validate_solution`] hands it plain instances: the caller's source,
//!   `Υ_S(source)`, a target read from anywhere.
//! * [`MappingScenario::run`] and [`MappingScenario::resume`] hand it the
//!   chased instance as it stands: the chased source ∪ source extents as
//!   one layer, the target relations split off it, and the scenario's
//!   dependencies and view rules — interned through the run's symbol
//!   table, or as they stand for a resumed run, whose checkpoint holds
//!   plain strings. The indexes the chase built are the ones validation
//!   probes — unless there are target views to materialize, when the run
//!   gives them back first to make room for `Υ_T(J_T)`.
//!
//! The two read the same source unless the *source itself* holds labeled
//! nulls that a target egd merges (`S(1, N5)` copied to `T(1, N5)`, a key on
//! `T` equating `N5` with `7`). The chase substitutes a merged null
//! everywhere, source relations included, so the run certifies the target
//! against `S(1, 7)` — the source under the valuation the egd forced — and
//! says *valid*; `validate_solution` with the caller's unchased
//! `S(1, N5)` asks for a `T(1, N5)` that no longer exists and says
//! *invalid*. A null in a source is a value the egds may fix, so the run's
//! reading is the meaningful one (`tests/tail_equivalence.rs` pins both).

use std::fmt;

use grom_data::Instance;
use grom_engine::{instance_satisfies, materialize_views, LayeredDb};
use grom_lang::{Dependency, ViewSet};

use crate::pipeline::PipelineError;
use crate::scenario::MappingScenario;

/// The outcome of validating a solution.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// All original dependencies satisfied?
    pub ok: bool,
    /// Names of violated dependencies with a witness description.
    pub violations: Vec<String>,
    /// Number of dependencies checked.
    pub checked: usize,
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok {
            write!(f, "solution valid ({} dependencies checked)", self.checked)
        } else {
            writeln!(f, "solution INVALID ({} checked):", self.checked)?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Check that `target` is a solution of `scenario` for `source`: every
/// mapping and every target constraint holds over the *semantic* instances
/// (view extents), which is the paper's notion of solution.
pub fn validate_solution(
    scenario: &MappingScenario,
    source: &Instance,
    target: &Instance,
) -> Result<ValidationReport, PipelineError> {
    let source_extents = materialize_views(&scenario.source_views, source)?;
    validate_layers(
        &[source, &source_extents],
        target,
        &scenario.target_views,
        scenario.all_dependencies(),
    )
}

/// The validation body: do `dependencies` hold over `source_side ∪ target ∪
/// Υ_T(target)`? Constants in `target_views` and `dependencies` must be of
/// the kind the layers store (all plain, or all interned by one table).
pub(crate) fn validate_layers<'d>(
    source_side: &[&Instance],
    target: &Instance,
    target_views: &ViewSet,
    dependencies: impl Iterator<Item = &'d Dependency>,
) -> Result<ValidationReport, PipelineError> {
    let target_extents = materialize_views(target_views, target)?;
    let mut layers = source_side.to_vec();
    layers.extend([target, &target_extents]);
    let mut checked = 0;
    let violations = instance_satisfies(
        &LayeredDb::new(&layers),
        dependencies.inspect(|_| checked += 1),
    );
    Ok(ValidationReport {
        ok: violations.is_empty(),
        violations: violations.iter().map(|v| v.to_string()).collect(),
        checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_data::Value;
    use grom_lang::Program;

    fn simple_scenario() -> MappingScenario {
        let prog = Program::parse(
            r#"
            schema source { S_P(id: int, rating: int); }
            schema target { T_P(id: int); T_R(id: int, val: int); }
            view Good(x) <- T_P(x), not T_R(x, 0).
            tgd m: S_P(x, r), r >= 4 -> Good(x).
            "#,
        )
        .unwrap();
        MappingScenario::from_program(&prog).unwrap()
    }

    #[test]
    fn valid_solution_accepted() {
        let sc = simple_scenario();
        let mut source = Instance::new();
        source
            .add("S_P", vec![Value::int(1), Value::int(5)])
            .unwrap();
        let mut target = Instance::new();
        target.add("T_P", vec![Value::int(1)]).unwrap();
        let report = validate_solution(&sc, &source, &target).unwrap();
        assert!(report.ok, "{report}");
        assert_eq!(report.checked, 1);
    }

    #[test]
    fn missing_tuple_detected() {
        let sc = simple_scenario();
        let mut source = Instance::new();
        source
            .add("S_P", vec![Value::int(1), Value::int(5)])
            .unwrap();
        let target = Instance::new();
        let report = validate_solution(&sc, &source, &target).unwrap();
        assert!(!report.ok);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains('m'));
    }

    #[test]
    fn view_semantics_respected_by_validator() {
        // T_P(1) present but a 0-rating kills Good(1): invalid.
        let sc = simple_scenario();
        let mut source = Instance::new();
        source
            .add("S_P", vec![Value::int(1), Value::int(5)])
            .unwrap();
        let mut target = Instance::new();
        target.add("T_P", vec![Value::int(1)]).unwrap();
        target
            .add("T_R", vec![Value::int(9), Value::int(1)])
            .unwrap();
        // T_R(9, 1): second column is the product? No — schema is
        // T_R(id, val); the view negates T_R(x, 0) i.e. val = 0 for the
        // same id... T_R(1, 0) is the killer:
        let report = validate_solution(&sc, &source, &target).unwrap();
        assert!(report.ok);

        target
            .add("T_R", vec![Value::int(1), Value::int(0)])
            .unwrap();
        let report = validate_solution(&sc, &source, &target).unwrap();
        assert!(!report.ok, "{report}");
    }

    #[test]
    fn target_constraints_checked() {
        let prog = Program::parse(
            r#"
            schema source { S(x: int); }
            schema target { T(x: int, y: int); }
            egd key: T(x, a), T(x, b) -> a = b.
            tgd m: S(x) -> T(x, y).
            "#,
        )
        .unwrap();
        let sc = MappingScenario::from_program(&prog).unwrap();
        let mut source = Instance::new();
        source.add("S", vec![Value::int(1)]).unwrap();
        let mut target = Instance::new();
        target.add("T", vec![Value::int(1), Value::int(7)]).unwrap();
        let report = validate_solution(&sc, &source, &target).unwrap();
        assert!(report.ok);
        target.add("T", vec![Value::int(1), Value::int(8)]).unwrap();
        let report = validate_solution(&sc, &source, &target).unwrap();
        assert!(!report.ok);
        assert!(report.violations[0].contains("key"));
    }

    #[test]
    fn report_display() {
        let sc = simple_scenario();
        let report = validate_solution(&sc, &Instance::new(), &Instance::new()).unwrap();
        assert!(report.to_string().contains("valid"));
    }
}
