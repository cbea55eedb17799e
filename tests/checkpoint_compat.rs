//! Checkpoint compatibility: envelopes written by earlier binaries resume.
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

use grom::chase::{ChaseConfig, ChaseOutcome, Checkpoint, SchedulerMode};
use grom::data::{canonical_render, read_instance};
use grom::lang::Program;
use grom::{MappingScenario, PipelineOptions};

const ENVELOPES: [(u32, &str); 2] = [
    (1, include_str!("fixtures/checkpoint_v1.json")),
    (2, include_str!("fixtures/checkpoint_v2.json")),
];

#[test]
fn parent_written_v1_and_v2_checkpoints_resume_under_every_mode() {
    let program = Program::parse(include_str!("fixtures/checkpoint_scenario.grom")).unwrap();
    let scenario = MappingScenario::from_program(&program).unwrap();
    let source = read_instance(include_str!("fixtures/checkpoint_source.facts")).unwrap();
    for mode in [
        SchedulerMode::FullRescan,
        SchedulerMode::Delta,
        SchedulerMode::Parallel { threads: 2 },
        SchedulerMode::Parallel { threads: 4 },
    ] {
        let chase = ChaseConfig::default().with_scheduler(mode);
        let options = PipelineOptions {
            chase,
            ..Default::default()
        };
        let uninterrupted = scenario.run(&source, &options).unwrap().target;
        let expected = include_str!("fixtures/checkpoint_target.expected");
        assert_eq!(uninterrupted.to_string(), expected, "{mode:?}");

        for (version, json) in ENVELOPES {
            let what = format!("v{version} under {mode:?}");
            // The fixture is that envelope, pending work as tuple text.
            assert!(json.starts_with(&format!("{{\"version\":{version},")));
            assert!(json.contains("{\"kind\":\"delta\",\"tuples\":\"C(10, 11)."));
            let checkpoint = Checkpoint::from_json(json).expect(&what);
            // Loaded, the list is a count; saved again, the envelope is v3.
            let resaved = checkpoint.to_json();
            assert!(resaved.starts_with("{\"version\":3,"), "{what}: {resaved}");
            assert!(resaved.contains("{\"kind\":\"delta\",\"new\":{\"C\":1}}"));
            let resumed = match scenario.resume(&checkpoint, &options) {
                Ok(ChaseOutcome::Completed(r)) => r,
                other => panic!("{what}: resume did not complete: {other:?}"),
            };
            let target = scenario.extract_target(&resumed.instance).unwrap();
            assert_eq!(
                canonical_render(&target),
                canonical_render(&uninterrupted),
                "{what}"
            );
            // Only d had work left: one row to see, nothing to rescan.
            let seen = (
                resumed.stats.full_rescans,
                resumed.stats.delta_tuples_seeded,
            );
            assert!(
                mode == SchedulerMode::FullRescan || seen == (0, 1),
                "{what}"
            );
        }
    }
}
