//! Golden per-mode counters: for a handful of corpus entries the complete
//! [`ChaseStats`] (totalled from the profile) and the counter half of the
//! [`ChaseProfile`] are pinned under every scheduler mode; the ded paths'
//! `ChaseStats` are pinned by a second golden. The rest of the file checks
//! what the counters cannot show: the profile's wall times add up, every
//! dependency is attributed to its conflict group, the JSONL stream
//! mirrors the profile, and the pool's counters do not depend on its
//! thread count.
//!
//! The modes legitimately count differently — the delta and pool executors
//! count a trailing empty round where the rescan reference counts a
//! trailing no-progress round, pool workers count `obligations_batched`
//! only for non-trivial equalities while the live applier counts every
//! equality — so no cross-mode assertion can catch a refactor that moves
//! one of them. This file can: `tests/golden/sweep_counters.txt` holds the
//! rendering recorded before the three chase loops were collapsed into one
//! sweep driver. Re-record (after an *intentional* counting change) with
//!
//! ```sh
//! cargo test --test sweep_counters -- --ignored --nocapture print_golden \
//!     | grep '^== \|^  ' > tests/golden/sweep_counters.txt
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use grom::chase::{
    chase_exhaustive, chase_greedy, chase_standard, Budget, ChaseConfig, ChaseError, ChaseProfile,
    MemorySink, TraceHandle,
};
use grom::prelude::{ChaseStats, Dependency, Instance, Program, SchedulerMode, Value};
use grom::scenarios::{all_modes, read_entry};
use grom::trace::json;

/// tgd-only, egd-heavy, mixed, and two budgeted `expect: interrupted`
/// entries (one egd-bearing, one with several active conflict groups).
const ENTRIES: [&str; 8] = [
    "copy_deep",
    "vpart_no_egd",
    "er_cliff",
    "er_deep_clusters",
    "mix_all_dense",
    "cliff_null_cascade",
    "nwa_egd_pump",
    "nwa_dense",
];

const GOLDEN: &str = include_str!("golden/sweep_counters.txt");

/// A committed corpus entry's program and source, under the default config
/// plus the entry's derived-tuple budget, if it has one.
fn load(name: &str) -> (Vec<Dependency>, Instance, ChaseConfig) {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let entry = read_entry(&corpus.join(name)).expect("entry parses");
    let (deps, inst) = entry.parts().expect("entry texts parse");
    let mut cfg = ChaseConfig::default();
    if let Some(n) = entry.max_tuples {
        cfg = cfg.with_budget(Budget::none().with_max_tuples(n as usize));
    }
    (deps, inst, cfg)
}

fn render_run(out: &mut String, class: &str, profile: &ChaseProfile) {
    let stats = ChaseStats::from(profile);
    let p = profile.counters_only();
    let _ = writeln!(
        out,
        "  {class}: rounds={} full_rescans={} delta_activations={} delta_tuples_seeded={} \
         substitution_passes={} obligations_batched={} egd_merges={} \
         tgd_applications={} tuples_inserted={} nulls_invented={}",
        stats.rounds,
        stats.full_rescans,
        stats.delta_activations,
        stats.delta_tuples_seeded,
        stats.substitution_passes,
        stats.obligations_batched,
        stats.egd_merges,
        stats.tgd_applications,
        stats.tuples_inserted,
        stats.nulls_invented,
    );
    let _ = writeln!(
        out,
        "  profile: mode={} sweeps={} substitution_passes={} groups=[{}]",
        p.mode,
        p.sweeps,
        p.substitution_passes,
        p.groups
            .iter()
            .map(|g| format!("{}:{}", g.group, g.jobs))
            .collect::<Vec<_>>()
            .join(" "),
    );
    for d in &p.deps {
        let _ = writeln!(
            out,
            "    {} act={} full={} delta={} hits={} seeded={} viol={} tuples={} oblig={} \
             dedup={} group={}",
            d.name,
            d.activations,
            d.full_rescans,
            d.delta_activations,
            d.delta_hits,
            d.delta_tuples_seeded,
            d.violations,
            d.tuples_produced,
            d.obligations,
            d.dedup_hits,
            d.group.map_or("-".to_string(), |g| g.to_string()),
        );
    }
}

fn render_all() -> String {
    let mut out = String::new();
    for name in ENTRIES {
        let (deps, inst, cfg) = load(name);
        for (mode_name, mode) in all_modes() {
            let _ = writeln!(out, "== {name} / {mode_name}");
            let cfg = cfg.clone().with_scheduler(mode);
            match chase_standard(inst.clone(), &deps, &cfg) {
                Ok(r) => {
                    assert_eq!(r.stats, ChaseStats::from(&r.profile), "{name}/{mode_name}");
                    render_run(&mut out, "completed", &r.profile)
                }
                Err(ChaseError::Interrupted(i)) => render_run(&mut out, "interrupted", &i.profile),
                Err(e) => panic!("{name}/{mode_name}: chase failed hard: {e}"),
            }
        }
    }
    out
}

#[test]
fn per_mode_counters_match_the_recorded_golden() {
    let actual = render_all();
    let (mut a, mut g) = (actual.lines(), GOLDEN.lines());
    for n in 1.. {
        match (a.next(), g.next()) {
            (None, None) => break,
            (a, g) => assert_eq!(a, g, "first difference at golden line {n}"),
        }
    }
}

/// Not a test: prints the rendering so it can be re-recorded (see the
/// module docs).
#[test]
#[ignore = "prints the golden rendering for re-recording"]
fn print_golden() {
    print!("{}", render_all());
}

/// The ded paths' complete `ChaseStats`, one `Display` line per run,
/// recorded before `ChaseStats` was totalled from the profile: greedy
/// success in one scenario and after backtracking, greedy exhaustion, the
/// exhaustive chase on `paper_claims`' E4 input (k = 4) and an exhaustive
/// chase whose forks merge nulls.
const DED_GOLDEN: &str = "\
greedy_one_scenario: rounds=2 tgd_apps=4 inserted=4 nulls=0 merges=0 scenarios=1(failed 0) nodes=0 leaves=0 branches_failed=0 rescans=1 delta_acts=0 delta_seeded=0 subst_passes=0 obligations=0
greedy_backtracking: rounds=4 tgd_apps=9 inserted=9 nulls=3 merges=3 scenarios=2(failed 1) nodes=0 leaves=0 branches_failed=0 rescans=5 delta_acts=1 delta_seeded=3 subst_passes=1 obligations=3
greedy_exhausted: rounds=0 tgd_apps=0 inserted=0 nulls=0 merges=0 scenarios=2(failed 2) nodes=0 leaves=0 branches_failed=0 rescans=0 delta_acts=0 delta_seeded=0 subst_passes=0 obligations=0
exhaustive_e4: rounds=31 tgd_apps=30 inserted=30 nulls=0 merges=0 scenarios=0(failed 0) nodes=31 leaves=16 branches_failed=0 rescans=0 delta_acts=0 delta_seeded=0 subst_passes=0 obligations=0
exhaustive_merging: rounds=34 tgd_apps=9 inserted=9 nulls=9 merges=8 scenarios=0(failed 0) nodes=17 leaves=9 branches_failed=0 rescans=17 delta_acts=0 delta_seeded=0 subst_passes=8 obligations=8
";

fn facts(inst: &mut Instance, rel: &str, rows: &[&[Value]]) {
    for row in rows {
        inst.add(rel, row.to_vec()).expect("fresh relation");
    }
}

fn render_ded_paths() -> String {
    let cfg = ChaseConfig::default();
    let program = |text: &str| Program::parse(text).expect("parses").deps;
    let mut out = String::new();

    // E4's input: one binary ded over four independent `P` facts.
    let e4 = program("ded d: P(x) -> Q(x) | R(x).");
    let mut e4_facts = Instance::new();
    facts(
        &mut e4_facts,
        "P",
        &[
            &[Value::int(0)],
            &[Value::int(1)],
            &[Value::int(2)],
            &[Value::int(3)],
        ],
    );
    let res = chase_greedy(e4_facts.clone(), &e4, &cfg).expect("greedy succeeds");
    let _ = writeln!(out, "greedy_one_scenario: {}", res.stats);

    // The cheapest scenario (the equality) clashes on constants; the
    // second one invents witnesses, which the egd then merges.
    let backtrack = program(
        "tgd t: S(x, n) -> P(x, n).\n\
         tgd q: S(x, n) -> Q(x, n).\n\
         ded d: P(p1, n), P(p2, n) -> p1 = p2 | R(p1, w).\n\
         egd k: R(p, w1), Q(p, w2) -> w1 = w2.",
    );
    let mut source = Instance::new();
    facts(
        &mut source,
        "S",
        &[
            &[Value::int(1), Value::int(7)],
            &[Value::int(2), Value::int(7)],
            &[Value::int(3), Value::int(8)],
        ],
    );
    let res = chase_greedy(source, &backtrack, &cfg).expect("greedy succeeds");
    let _ = writeln!(out, "greedy_backtracking: {}", res.stats);

    let denied = program(
        "ded d: P(x) -> Q(x) | R(x).\n\
         dep nq: Q(x) -> false.\n\
         dep nr: R(x) -> false.",
    );
    let mut one = Instance::new();
    facts(&mut one, "P", &[&[Value::int(1)]]);
    match chase_greedy(one, &denied, &cfg) {
        Err(ChaseError::GreedyExhausted { profile, .. }) => {
            let search = &profile.search;
            assert_eq!((search.scenarios_tried, search.scenarios_failed), (2, 2));
            let _ = writeln!(out, "greedy_exhausted: {}", ChaseStats::from(&*profile));
        }
        other => panic!("expected GreedyExhausted, got {other:?}"),
    }

    let res = chase_exhaustive(e4_facts, &e4, &cfg).expect("exhaustive succeeds");
    let _ = writeln!(out, "exhaustive_e4: {}", res.stats);

    // Forks that equate a null with a constant (a merge and a substitution
    // pass per fork) or invent a witness null.
    let merging = program(
        "tgd t: S(x) -> T(x, y).\n\
         ded d: P(p1, n), P(p2, n) -> p1 = p2 | R(p1, w).",
    );
    let mut source = Instance::new();
    facts(&mut source, "S", &[&[Value::int(5)]]);
    facts(
        &mut source,
        "P",
        &[
            &[Value::null(0), Value::int(7)],
            &[Value::int(1), Value::int(7)],
            &[Value::null(1), Value::int(8)],
            &[Value::int(2), Value::int(8)],
        ],
    );
    let res = chase_exhaustive(source, &merging, &cfg).expect("exhaustive succeeds");
    let _ = writeln!(out, "exhaustive_merging: {}", res.stats);
    out
}

#[test]
fn ded_path_counters_match_the_recorded_golden() {
    assert_eq!(render_ded_paths(), DED_GOLDEN);
}

#[test]
fn sequential_wall_times_sum_to_the_evaluate_phase() {
    for (name, mode) in [
        ("copy_deep", SchedulerMode::Delta),
        ("er_cliff", SchedulerMode::Delta),
        ("er_cliff", SchedulerMode::FullRescan),
    ] {
        let (deps, inst, cfg) = load(name);
        let res = chase_standard(inst, &deps, &cfg.with_scheduler(mode)).unwrap();
        let p = &res.profile;
        assert!(p.sweeps > 0 && p.sweeps <= p.rounds, "{name}/{mode:?}");
        // Sequential executors derive the evaluate phase from the
        // activation walls, so the per-dependency times sum to it exactly
        // and stay under the run total (which also covers scheduling).
        assert_eq!(p.total_dep_wall_ns(), p.evaluate_ns, "{name}/{mode:?}");
        assert!(
            p.evaluate_ns + p.substitute_ns <= p.total_ns,
            "{name}/{mode:?}: phases exceed total: evaluate={} substitute={} total={}",
            p.evaluate_ns,
            p.substitute_ns,
            p.total_ns
        );
    }
}

#[test]
fn parallel_profile_attributes_every_dependency_to_its_group() {
    let (deps, inst, cfg) = load("er_deep_clusters");
    let cfg = cfg.with_scheduler(SchedulerMode::Parallel { threads: 4 });
    let p = chase_standard(inst, &deps, &cfg).unwrap().profile;
    assert_eq!(p.mode, "parallel4");
    assert_eq!(p.groups.len(), 2, "two independent clusters, two groups");
    assert!(p.groups.iter().all(|g| g.jobs > 0 && g.busy_ns > 0));
    assert!(p.deps.iter().all(|d| d.group.is_some()));
    assert!(
        p.evaluate_ns + p.merge_ns + p.substitute_ns <= p.total_ns,
        "phases exceed total"
    );
}

#[test]
fn jsonl_stream_is_well_formed_and_matches_the_profile() {
    let sink = Arc::new(MemorySink::new());
    let (deps, inst, cfg) = load("er_deep_clusters");
    let config = cfg
        .with_scheduler(SchedulerMode::Parallel { threads: 2 })
        .with_trace(TraceHandle::new(sink.clone()));
    let p = chase_standard(inst, &deps, &config).unwrap().profile;

    let lines = sink.lines();
    let mut counts = BTreeMap::<String, u64>::new();
    for line in &lines {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line `{line}`: {e}"));
        let event = v
            .get("event")
            .and_then(|e| e.as_str())
            .unwrap_or_else(|| panic!("line without event: {line}"));
        *counts.entry(event.to_string()).or_default() += 1;
    }
    let count = |event: &str| counts.get(event).copied().unwrap_or(0);
    assert_eq!((count("run_start"), count("run_end")), (1, 1));
    assert_eq!(count("activation"), p.total_activations());
    assert_eq!(count("merge"), p.substitution_passes);
    assert!(p.substitution_passes > 0, "an egd entry merges");
    assert_eq!(count("sweep"), p.sweeps);
    assert_eq!(
        lines.len() as u64,
        2 + p.total_activations() + p.substitution_passes + p.sweeps,
        "unexpected extra events"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Thread-count independence: on generated corpus scenarios the
    /// profiles of Parallel{2} and Parallel{4} agree on every counter (wall
    /// times excluded — that is what `counters_only` zeroes). Delta is
    /// *not* compared against parallel: the parallel executor legitimately
    /// turns deferred dependencies into extra full rescans.
    #[test]
    fn parallel_profiles_are_thread_count_independent(spec_seed in any::<u64>()) {
        let spec = grom::scenarios::random_spec(spec_seed, 2);
        let g = grom::scenarios::generate(&spec);
        let (deps, inst) = g.parts().expect("generated scenario parses");
        let run = |threads| {
            let cfg = ChaseConfig::default().with_scheduler(SchedulerMode::Parallel { threads });
            chase_standard(inst.clone(), &deps, &cfg)
        };
        match (run(2), run(4)) {
            (Ok(a), Ok(b)) => {
                let mut a2 = a.profile.counters_only();
                let mut b4 = b.profile.counters_only();
                // The mode string is the only legitimate difference.
                a2.mode = String::new();
                b4.mode = String::new();
                prop_assert_eq!(
                    a2, b4,
                    "spec `{}`: parallel counters depend on thread count", spec
                );
            }
            (Err(_), Err(_)) => {} // failing scenarios have no profile
            (a, b) => {
                prop_assert!(false,
                    "spec `{}`: thread counts disagree on success: 2={:?} 4={:?}",
                    spec, a.map(|r| r.stats), b.map(|r| r.stats));
            }
        }
    }
}
