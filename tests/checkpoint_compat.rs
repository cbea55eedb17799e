//! Checkpoint compatibility: envelopes written by earlier binaries resume,
//! and a resumed run is `run` from a checkpoint — certified, core-minimized
//! when asked, and interruptible again like any other.
//!
//! `fixtures/checkpoint_v2.json` was written by the parent of the commit
//! that introduced envelope v3, the last binary to write v2:
//!
//! ```text
//! GROM_FAIL=sweep:interrupt@2 grom run tests/fixtures/checkpoint_scenario.grom \
//!     tests/fixtures/checkpoint_source.facts --checkpoint tests/fixtures/checkpoint_v2.json
//! ```
//!
//! — the kill window of `property_resilience.rs`: dependency `d` has yet to
//! see the row `c2` appended to `C`, carried as tuple text. No binary still
//! writes v1; `checkpoint_v1.json` is that file in the v1 envelope (v2
//! without the per-entry `"new"` record). `checkpoint_target.expected` is
//! the same binary's uninterrupted `grom run` output; CI's "Checkpoint
//! compatibility" step diffs the release binary's `--resume` against it.

use grom::chase::{Budget, ChaseConfig, ChaseError, Checkpoint, SchedulerMode};
use grom::data::read_instance;
use grom::lang::Program;
use grom::{MappingScenario, PipelineError, PipelineOptions};

const ENVELOPES: [(u32, &str); 2] = [
    (1, include_str!("fixtures/checkpoint_v1.json")),
    (2, include_str!("fixtures/checkpoint_v2.json")),
];

const EXPECTED: &str = include_str!("fixtures/checkpoint_target.expected");

const MODES: [SchedulerMode; 4] = [
    SchedulerMode::FullRescan,
    SchedulerMode::Delta,
    SchedulerMode::Parallel { threads: 2 },
    SchedulerMode::Parallel { threads: 4 },
];

fn scenario() -> MappingScenario {
    let program = Program::parse(include_str!("fixtures/checkpoint_scenario.grom")).unwrap();
    MappingScenario::from_program(&program).unwrap()
}

fn options(mode: SchedulerMode) -> PipelineOptions {
    PipelineOptions {
        chase: ChaseConfig::default().with_scheduler(mode),
        ..Default::default()
    }
}

/// Every committed envelope under every mode, loaded, with a label.
fn cases() -> impl Iterator<Item = (String, SchedulerMode, Checkpoint)> {
    MODES.into_iter().flat_map(|mode| {
        ENVELOPES.into_iter().map(move |(version, json)| {
            let what = format!("v{version} under {mode:?}");
            let checkpoint = Checkpoint::from_json(json).expect(&what);
            (what, mode, checkpoint)
        })
    })
}

#[test]
fn parent_written_v1_and_v2_checkpoints_resume_under_every_mode() {
    let scenario = scenario();
    let source = read_instance(include_str!("fixtures/checkpoint_source.facts")).unwrap();
    for mode in MODES {
        let uninterrupted = scenario.run(&source, &options(mode)).unwrap().target;
        assert_eq!(uninterrupted.to_string(), EXPECTED, "{mode:?}");
    }
    for (version, json) in ENVELOPES {
        // The fixture is that envelope, pending work as tuple text.
        assert!(json.starts_with(&format!("{{\"version\":{version},")));
        assert!(json.contains("{\"kind\":\"delta\",\"tuples\":\"C(10, 11)."));
    }
    for (what, mode, checkpoint) in cases() {
        // Loaded, the list is a count; saved again, the envelope is v3.
        let resaved = checkpoint.to_json();
        assert!(resaved.starts_with("{\"version\":3,"), "{what}: {resaved}");
        assert!(resaved.contains("{\"kind\":\"delta\",\"new\":{\"C\":1}}"));
        let resumed = scenario
            .resume(&checkpoint, &options(mode))
            .unwrap_or_else(|e| panic!("{what}: resume did not complete: {e}"));
        assert_eq!(resumed.target.to_string(), EXPECTED, "{what}");
        // Certified like a fresh run: the five mappings, over the
        // checkpoint's source relations.
        let validation = resumed.validation.expect(&what);
        assert!(validation.ok, "{what}: {validation}");
        assert_eq!(validation.checked, 5, "{what}");
        assert!(resumed.core_stats.is_none(), "{what}");
        assert!(resumed.source_view_extents.is_empty(), "{what}");
        // Only d had work left: one row to see, nothing to rescan.
        let seen = (
            resumed.chase_stats.full_rescans,
            resumed.chase_stats.delta_tuples_seeded,
        );
        assert!(
            mode == SchedulerMode::FullRescan || seen == (0, 1),
            "{what}"
        );
    }
}

#[test]
fn a_resumed_run_honours_skip_validation_and_core_minimize() {
    let scenario = scenario();
    for (what, mode, checkpoint) in cases() {
        let skip = PipelineOptions {
            skip_validation: true,
            ..options(mode)
        };
        let resumed = scenario.resume(&checkpoint, &skip).expect(&what);
        assert!(resumed.validation.is_none(), "{what}");
        assert_eq!(resumed.target.to_string(), EXPECTED, "{what}");

        let core = PipelineOptions {
            core_minimize: true,
            ..options(mode)
        };
        let resumed = scenario.resume(&checkpoint, &core).expect(&what);
        // A null-free target is its own core.
        let folded = resumed
            .core_stats
            .map(|s| (s.nulls_folded, s.tuples_removed));
        assert_eq!(folded, Some((0, 0)), "{what}");
        assert!(resumed.validation.expect(&what).ok, "{what}");
        assert_eq!(resumed.target.to_string(), EXPECTED, "{what}");
    }
}

/// A deadline (not a fault plan: a plan is process-global) stops the
/// resumed chase before its first sweep; the checkpoint it leaves resumes,
/// unbudgeted, to the same target.
#[test]
fn a_resumed_run_stopped_by_its_budget_resumes_again() {
    let scenario = scenario();
    for (what, mode, checkpoint) in cases() {
        let mut budgeted = options(mode);
        budgeted.chase = budgeted
            .chase
            .with_budget(Budget::none().with_deadline_ms(0));
        let interrupted = match scenario.resume(&checkpoint, &budgeted) {
            Err(PipelineError::Chase(ChaseError::Interrupted(i))) => i,
            other => panic!("{what}: a zero deadline did not interrupt: {other:?}"),
        };
        let again = Checkpoint::from_json(&interrupted.checkpoint.to_json()).expect(&what);
        let resumed = scenario.resume(&again, &options(mode)).expect(&what);
        assert_eq!(resumed.target.to_string(), EXPECTED, "{what}");
        assert!(resumed.validation.expect(&what).ok, "{what}");
    }
}
