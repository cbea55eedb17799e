//! Golden per-mode counters: for a handful of corpus entries the complete
//! [`ChaseStats`] and the counter half of the [`ChaseProfile`] are pinned
//! under every scheduler mode.
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

use std::fmt::Write as _;
use std::path::PathBuf;

use grom::chase::{chase_standard, Budget, ChaseConfig, ChaseError, ChaseProfile};
use grom::prelude::ChaseStats;
use grom::scenarios::{all_modes, read_entry};

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

fn render_run(out: &mut String, class: &str, stats: &ChaseStats, profile: &ChaseProfile) {
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
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut out = String::new();
    for name in ENTRIES {
        let entry = read_entry(&corpus.join(name)).expect("entry parses");
        let (deps, inst) = entry.parts().expect("entry texts parse");
        let mut cfg = ChaseConfig::default();
        if let Some(n) = entry.max_tuples {
            cfg = cfg.with_budget(Budget::none().with_max_tuples(n as usize));
        }
        for (mode_name, mode) in all_modes() {
            let _ = writeln!(out, "== {name} / {mode_name}");
            let cfg = cfg.clone().with_scheduler(mode);
            match chase_standard(inst.clone(), &deps, &cfg) {
                Ok(r) => render_run(&mut out, "completed", &r.stats, &r.profile),
                Err(ChaseError::Interrupted(i)) => {
                    render_run(&mut out, "interrupted", &i.stats, &i.profile)
                }
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
