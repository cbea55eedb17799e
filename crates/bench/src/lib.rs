//! # grom-bench — seeded workload generators
//!
//! What the tests, the examples and the `grombench` ledger share: the
//! paper's running example ([`workloads::RUNNING_EXAMPLE`]), one generator
//! per quantitative claim of the paper's §3–§4 (asserted as exact counts in
//! `tests/paper_claims.rs`), and the fixed calibration workload behind the
//! ledger's `harness.calibration_ms`.
//!
//! All generators are seeded and pure: the same parameters produce the same
//! scenario and instance. Nothing here measures anything — timing lives in
//! `grombench/` (see `BENCHMARK.json`).

mod calibration;
pub mod workloads;

pub use calibration::calibration_ms;
pub use workloads::{
    conjunctive_family, delta_scaling_workload, greedy_intricacy_workload, negation_family,
    restriction_pair, running_example_scenario, running_example_source, universal_model_workload,
    RunningExampleConfig,
};
