//! Kill/resume property tests: on randomly generated scenarios, force an
//! interruption at a seeded random sweep via the `grom_fail` injection
//! hooks, round-trip the resulting checkpoint through its JSON encoding,
//! resume, and require the final instance to render identically (up to
//! null renaming, via [`grom::data::canonical_render`]) to a run that was
//! never interrupted — under every scheduler mode.
//!
//! This is the end-to-end contract behind `grom run --checkpoint/--resume`:
//! a chase killed at any sweep boundary loses no work and converges to the
//! same fixpoint after resuming from the serialized checkpoint.

use proptest::prelude::*;

use grom::chase::{
    chase_resume, chase_standard, fail, ChaseConfig, ChaseError, Checkpoint, InterruptReason,
    SchedulerMode,
};
use grom::data::canonical_render;
use grom::prelude::{Dependency, Instance, Value};
use grom::scenarios::{generate, random_spec, ScenarioSpec};

const MODES: [SchedulerMode; 4] = [
    SchedulerMode::FullRescan,
    SchedulerMode::Delta,
    SchedulerMode::Parallel { threads: 2 },
    SchedulerMode::Parallel { threads: 4 },
];

/// Run `deps` over `inst` to completion under `mode`, uninterrupted.
fn clean_render(inst: &Instance, deps: &[Dependency], cfg: &ChaseConfig) -> String {
    match chase_standard(inst.clone(), deps, cfg) {
        Ok(r) => canonical_render(&r.instance),
        other => panic!(
            "{:?}: uninterrupted run did not complete: {other:?}",
            cfg.scheduler
        ),
    }
}

/// Kill a run under `kill_cfg` before sweep 2, returning the checkpoint's
/// JSON form.
fn kill_before_sweep_2(inst: &Instance, deps: &[Dependency], kill_cfg: &ChaseConfig) -> String {
    fail::install("sweep:interrupt@2").unwrap();
    let killed = chase_standard(inst.clone(), deps, kill_cfg);
    fail::clear();
    let interrupted = match killed {
        Err(ChaseError::Interrupted(i)) => i,
        other => panic!(
            "{:?}: sweep-2 kill did not interrupt: {other:?}",
            kill_cfg.scheduler
        ),
    };
    assert!(matches!(interrupted.reason, InterruptReason::Fault));
    interrupted.checkpoint.to_json()
}

/// The consumer-before-producer program of the kill-window test below.
fn kill_window_scenario() -> (Vec<Dependency>, Instance) {
    let program = "tgd c: B(x, y) -> C(x, y).\n\
                   tgd d: C(x, y) -> D(x, y).\n\
                   tgd p: A(x, y) -> B(x, y).";
    let p = grom::lang::parser::parse_program(program).unwrap();
    let mut inst = Instance::new();
    for i in 0..6i64 {
        inst.add("A", vec![Value::int(i), Value::int(i + 1)])
            .unwrap();
    }
    (p.deps, inst)
}

/// Round-trip `json` through the checkpoint parser, resume under
/// `resume_cfg`, and require the rendering `want`.
fn resume_and_check(
    json: &str,
    deps: &[Dependency],
    resume_cfg: &ChaseConfig,
    want: &str,
    what: &str,
) {
    let restored = Checkpoint::from_json(json)
        .unwrap_or_else(|e| panic!("{what}: checkpoint does not round-trip: {e}"));
    let resumed = match chase_resume(&restored, deps, resume_cfg) {
        Ok(r) => r,
        other => panic!("{what}: resume did not complete: {other:?}"),
    };
    assert_eq!(
        canonical_render(&resumed.instance),
        want,
        "{what}: resumed instance diverges from the uninterrupted run"
    );
}

/// A kill landing *between* insertion and the claim that would see the
/// inserted tuples: the consumer is declared before its producer, so the
/// producer's sweep-1 inserts sit past the consumer's watermark and are
/// claimed — and thereby folded into the old half — only in sweep 2.
/// Interrupting before sweep 2 runs therefore checkpoints live `delta`
/// entries, and the v3 envelope must carry them as counts of trailing new
/// rows — no tuple text in the worklist — and resume to the uninterrupted
/// fixpoint.
#[test]
fn kill_between_insertion_and_promotion_round_trips_pending_deltas() {
    let _guard = fail::test_lock();
    fail::clear();

    let (deps, inst) = kill_window_scenario();
    for mode in MODES {
        let cfg = ChaseConfig::default()
            .with_max_rounds(50)
            .with_scheduler(mode);
        let want = clean_render(&inst, &deps, &cfg);
        let json = kill_before_sweep_2(&inst, &deps, &cfg);
        assert!(json.starts_with("{\"version\":3,"), "{mode:?}: {json}");
        let pending = &json[json.find("\"pending\":").expect("a worklist")..];
        if matches!(mode, SchedulerMode::Delta) {
            // The window this test exists for: unclaimed work in the
            // envelope. p's six B rows are past c's watermark (d's C has
            // yet to be filled), as a count.
            assert_eq!(
                pending,
                "\"pending\":[{\"kind\":\"delta\",\"new\":{\"B\":6}},\
                 {\"kind\":\"idle\"},{\"kind\":\"idle\"}]}",
                "{mode:?}: the kill window did not checkpoint c's unseen rows"
            );
        }
        // Whatever the mode left pending, it is counts: no tuple text.
        assert!(
            !pending.contains("tuples") && !pending.contains('('),
            "{mode:?}: tuple text in the worklist: {pending}"
        );
        resume_and_check(&json, &deps, &cfg, &want, &format!("{mode:?}"));
    }
}

/// "Any mode resumes any checkpoint": kill under mode A before sweep 2,
/// round-trip the checkpoint through JSON, resume under mode B, and
/// require the uninterrupted fixpoint — for all 4×4 (A, B) pairs, on the
/// hand-written kill-window program (live `delta` entries cross the mode
/// boundary) and on a generated egd-bearing scenario (a restored
/// null map and post-merge `Full` slots cross it).
#[test]
fn any_mode_resumes_any_modes_checkpoint() {
    let _guard = fail::test_lock();
    fail::clear();

    let spec = ScenarioSpec::parse("mix=vpart:1,er:1 depth=3 egd=1.00 seed=153 scale=2").unwrap();
    let generated = generate(&spec).parts().expect("generated scenario parses");
    for (what, (deps, inst)) in [("kill-window", kill_window_scenario()), ("egd", generated)] {
        assert!(
            what != "egd"
                || deps
                    .iter()
                    .any(|d| d.disjuncts.iter().any(|j| !j.eqs.is_empty())),
            "the generated scenario must bear egds"
        );
        let base = ChaseConfig::default().with_max_rounds(200);
        for kill_mode in MODES {
            let kill_cfg = base.clone().with_scheduler(kill_mode);
            let want = clean_render(&inst, &deps, &kill_cfg);
            let json = kill_before_sweep_2(&inst, &deps, &kill_cfg);
            for resume_mode in MODES {
                let resume_cfg = base.clone().with_scheduler(resume_mode);
                let what =
                    format!("{what}: killed under {kill_mode:?}, resumed under {resume_mode:?}");
                resume_and_check(&json, &deps, &resume_cfg, &want, &what);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kill_and_resume_reaches_the_uninterrupted_fixpoint(
        seed in 0u64..100_000,
        kill_sweep in 1u64..5,
    ) {
        // Fault plans are process-global; serialize against every other
        // test that installs one.
        let _guard = fail::test_lock();
        fail::clear();

        let scenario = generate(&random_spec(seed, 2));
        let (deps, inst) = scenario.parts().expect("generated scenario parses");
        let base = ChaseConfig::default().with_max_rounds(200);

        for mode in MODES {
            let cfg = base.clone().with_scheduler(mode);
            let clean = match chase_standard(inst.clone(), &deps, &cfg) {
                Ok(r) => r,
                other => panic!("{mode:?}: uninterrupted run did not complete: {other:?}"),
            };
            let want = canonical_render(&clean.instance);

            fail::install(&format!("sweep:interrupt@{kill_sweep}")).unwrap();
            let killed = chase_standard(inst.clone(), &deps, &cfg);
            fail::clear();
            match killed {
                Err(ChaseError::Interrupted(i)) => {
                    prop_assert!(
                        matches!(i.reason, InterruptReason::Fault),
                        "{mode:?}: unexpected interrupt reason {:?}", i.reason
                    );
                    // The checkpoint must survive its JSON encoding.
                    let json = i.checkpoint.to_json();
                    let restored = Checkpoint::from_json(&json)
                        .unwrap_or_else(|e| panic!("{mode:?}: checkpoint does not round-trip: {e}"));
                    let resumed = match chase_resume(&restored, &deps, &cfg) {
                        Ok(r) => r,
                        other => panic!("{mode:?}: resume did not complete: {other:?}"),
                    };
                    prop_assert_eq!(
                        canonical_render(&resumed.instance),
                        want,
                        "{:?}: resumed instance diverges from the uninterrupted run \
                         (killed at sweep {}, spec {})",
                        mode, kill_sweep, scenario.spec
                    );
                }
                // The chase reached its fixpoint before sweep `kill_sweep`
                // ever started: nothing to resume, but the armed directive
                // must not have perturbed the result.
                Ok(r) => {
                    prop_assert_eq!(canonical_render(&r.instance), want);
                }
                other => panic!("{mode:?}: interrupted run failed hard: {other:?}"),
            }
        }
    }
}
