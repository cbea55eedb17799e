//! The ledger's calibration workload.
//!
//! `grombench` records `harness.calibration_ms` beside every result so two
//! result files can be read knowing how fast the machine was when each was
//! taken. The figure is the wall time of one tiny **fixed** workload: a
//! small deterministic chase (the reverse-declared copy chain of
//! [`crate::workloads::delta_scaling_workload`]) run under the sequential
//! delta scheduler — pure CPU + hashing, no I/O, no randomness. Best-of-N
//! keeps scheduler jitter out of the figure. Changing the workload breaks
//! the comparability of every recorded figure, so its size is pinned by a
//! test.

use std::time::Instant;

use grom::chase::{chase_standard, SchedulerMode};
use grom::prelude::ChaseConfig;

use crate::workloads::delta_scaling_workload;

/// Chain depth / width of the fixed workload: large enough to sit above
/// timer noise, small enough to add nothing to a ledger run.
const DEPTH: usize = 8;
const WIDTH: usize = 400;
const REPEATS: usize = 3;

/// Run the fixed calibration workload and return its best-of-3 wall time
/// in milliseconds.
pub fn calibration_ms() -> f64 {
    let (deps, inst) = delta_scaling_workload(DEPTH, WIDTH);
    let cfg = ChaseConfig::default().with_scheduler(SchedulerMode::Delta);
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let res = chase_standard(inst.clone(), &deps, &cfg).expect("calibration chase succeeds");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        // Keep the optimizer honest: the result size feeds the check.
        assert_eq!(res.instance.len(), (DEPTH + 1) * WIDTH);
        best = best.min(ms);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_positive_and_finite() {
        let ms = calibration_ms();
        assert!(ms.is_finite() && ms > 0.0, "calibration_ms = {ms}");
        // grombench's `harness.calibration_ms` is comparable across commits
        // only while the workload is: `calibration_ms` checks every chase
        // ends at (DEPTH + 1) * WIDTH tuples, this pins that to (8 + 1) * 400
        // over three repeats.
        assert_eq!((DEPTH, WIDTH, REPEATS), (8, 400, 3));
    }
}
