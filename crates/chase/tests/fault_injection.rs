//! The chase under injected faults (`grom_fail::install`).
//!
//! The fault plan is process-global, so these tests live in a binary of
//! their own: inside the `grom-chase` unit-test binary an installed
//! `sweep:interrupt@2` or `worker:panic@1` would be hit by whichever other
//! test happened to chase at the same moment. [`grom_fail::test_lock`]
//! serializes the tests of this binary among themselves.

use grom_chase::{
    chase_resume, chase_standard, ChaseConfig, ChaseError, Checkpoint, InterruptReason,
    SchedulerMode,
};
use grom_data::{canonical_render, Instance, Value};
use grom_lang::parser::parse_program;

fn inst(facts: &[(&str, &[i64])]) -> Instance {
    let mut i = Instance::new();
    for (rel, vals) in facts {
        i.add(*rel, vals.iter().map(|&v| Value::int(v)).collect())
            .unwrap();
    }
    i
}

fn par(threads: usize) -> ChaseConfig {
    ChaseConfig::default().with_scheduler(SchedulerMode::Parallel { threads })
}

#[test]
fn injected_worker_panic_is_contained() {
    let _g = grom_fail::test_lock();
    grom_fail::install("worker:panic@1").unwrap();
    let p = parse_program("tgd a: S(x) -> T(x).").unwrap();
    let res = chase_standard(inst(&[("S", &[1]), ("S", &[2])]), &p.deps, &par(2));
    grom_fail::clear();
    match res {
        Err(ChaseError::WorkerPanicked { detail }) => {
            assert!(
                detail.contains("injected panic"),
                "unexpected panic detail: {detail}"
            );
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    // Containment leaves no poisoned state behind: the same engine
    // config chases to completion immediately afterwards.
    let ok = chase_standard(inst(&[("S", &[1])]), &p.deps, &par(2)).unwrap();
    assert_eq!(ok.instance.tuples("T").count(), 1);
}

#[test]
fn sweep_interrupt_checkpoint_resume_matches_uninterrupted() {
    let _g = grom_fail::test_lock();
    // Declared consumer-first so the worker-local cascade cannot finish
    // everything in sweep 1: `b`'s work lands in sweep 2, which is
    // where the fault directive interrupts.
    let p = parse_program(
        "tgd b: T(x, y) -> U(y).\n\
         tgd a: S(x) -> T(x, y).",
    )
    .unwrap();
    let start = inst(&[("S", &[1]), ("S", &[2])]);
    let full = chase_standard(start.clone(), &p.deps, &par(2)).unwrap();

    grom_fail::install("sweep:interrupt@2").unwrap();
    let res = chase_standard(start, &p.deps, &par(2));
    grom_fail::clear();
    let interrupted = match res {
        Err(ChaseError::Interrupted(i)) => i,
        other => panic!("expected an interruption, got {other:?}"),
    };
    assert_eq!(interrupted.reason, InterruptReason::Fault);

    // Round-trip the checkpoint through its JSON form, then resume.
    let cp = Checkpoint::from_json(&interrupted.checkpoint.to_json()).unwrap();
    let resumed = match chase_resume(&cp, &p.deps, &par(2)) {
        Ok(r) => r,
        other => panic!("resume should complete, got {other:?}"),
    };
    assert_eq!(
        canonical_render(&resumed.instance),
        canonical_render(&full.instance)
    );
}
