//! The dominance-report renderer behind `grom explain`.
//!
//! Takes a finished [`ChaseProfile`] and renders a plain-text report:
//! where the wall time went per dependency (with full/delta splits and
//! delta-hit rates), how the sweep phases break down, how busy each
//! conflict group kept the pool in parallel mode, what each relation of the
//! chased instance holds (rows, tombstones, which columns were ever probed
//! and so carry an index), and a rewrite hint when a single group (or,
//! sequentially, a single dependency) holds more than 80% of the work.

use std::fmt::Write as _;

use crate::profile::ChaseProfile;

/// Share of the work above which the report suggests a rewrite.
const DOMINANCE_THRESHOLD: f64 = 0.8;

/// Rendering knobs for [`render_report`].
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// How many dependencies (by wall time) and relations (by bytes) to
    /// list.
    pub top: usize,
}

impl Default for ReportOptions {
    fn default() -> Self {
        Self { top: 10 }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Render the dominance report for a finished profile.
pub fn render_report(profile: &ChaseProfile, opts: &ReportOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chase profile: mode={} sweeps={} total={:.2}ms",
        profile.mode,
        profile.sweeps,
        ms(profile.total_ns)
    );

    // --- Per-dependency dominance, by wall time. ---
    let dep_wall = profile.total_dep_wall_ns();
    let mut order: Vec<usize> = (0..profile.deps.len()).collect();
    order.sort_by(|&a, &b| {
        profile.deps[b]
            .wall_ns
            .cmp(&profile.deps[a].wall_ns)
            .then_with(|| profile.deps[a].name.cmp(&profile.deps[b].name))
    });
    let shown = order.len().min(opts.top.max(1));
    let _ = writeln!(
        out,
        "top {shown} of {} dependencies by time:",
        profile.deps.len()
    );
    for &i in order.iter().take(shown) {
        let d = &profile.deps[i];
        let hit = match d.delta_hit_rate() {
            Some(r) => format!("{:.0}%", 100.0 * r),
            None => "-".to_string(),
        };
        let group = match d.group {
            Some(g) => format!(" group={g}"),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "  {:<24} {:>8.2}ms {:>5.1}%  acts={} (full={} delta={})  tuples={} hit={hit}{group}",
            d.name,
            ms(d.wall_ns),
            pct(d.wall_ns, dep_wall),
            d.activations,
            d.full_rescans,
            d.delta_activations,
            d.tuples_produced,
        );
    }

    // --- Phase accounting. ---
    let _ = writeln!(
        out,
        "phases: evaluate={:.2}ms merge={:.2}ms substitute={:.2}ms ({} passes)",
        ms(profile.evaluate_ns),
        ms(profile.merge_ns),
        ms(profile.substitute_ns),
        profile.substitution_passes
    );
    if let Some(rate) = profile.delta_hit_rate() {
        let _ = writeln!(
            out,
            "delta: activations={} seeded={} hit-rate={:.0}%",
            profile.total_delta_activations(),
            profile.total_delta_tuples_seeded(),
            100.0 * rate
        );
    }

    // --- Per-group utilization (parallel mode only). ---
    let group_busy: u64 = profile.groups.iter().map(|g| g.busy_ns).sum();
    if !profile.groups.is_empty() {
        let _ = writeln!(out, "parallel groups ({}):", profile.groups.len());
        for g in &profile.groups {
            let _ = writeln!(
                out,
                "  group {:<3} jobs={:<5} busy={:>8.2}ms {:>5.1}% of busy work",
                g.group,
                g.jobs,
                ms(g.busy_ns),
                pct(g.busy_ns, group_busy)
            );
        }
    }

    // --- Storage gauges, largest relations first. ---
    if !profile.storage.is_empty() {
        let mut by_size: Vec<_> = profile.storage.iter().collect();
        by_size.sort_by(|a, b| {
            b.approx_bytes
                .cmp(&a.approx_bytes)
                .then_with(|| a.relation.cmp(&b.relation))
        });
        let total: u64 = profile.storage.iter().map(|g| g.approx_bytes).sum();
        let shown = by_size.len().min(opts.top.max(1));
        let _ = writeln!(
            out,
            "storage: top {shown} of {} relations by size, {:.1} KiB in all \
             (indexes are built by the first probe that binds them):",
            by_size.len(),
            total as f64 / 1024.0
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>8} {:>6} {:>9}  indexes (columns:entries)",
            "relation", "rows", "tombs", "KiB"
        );
        for g in by_size.into_iter().take(shown) {
            let indexes: Vec<String> = g
                .indexes
                .iter()
                .map(|(cols, entries)| {
                    let cols: Vec<String> = cols.iter().map(usize::to_string).collect();
                    format!("{}:{entries}", cols.join(","))
                })
                .collect();
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>6} {:>9.1}  {}",
                g.relation,
                g.live_rows,
                g.tombstones,
                g.approx_bytes as f64 / 1024.0,
                if indexes.is_empty() {
                    "-".to_string()
                } else {
                    indexes.join(" ")
                }
            );
        }
    }

    // --- Rewrite hint: one group (or one dependency) dominates. ---
    if !profile.groups.is_empty() {
        if let Some(top) = profile
            .groups
            .iter()
            .max_by_key(|g| (g.busy_ns, std::cmp::Reverse(g.group)))
        {
            if group_busy > 0 && top.busy_ns as f64 > DOMINANCE_THRESHOLD * group_busy as f64 {
                let members: Vec<&str> = profile
                    .deps
                    .iter()
                    .filter(|d| d.group == Some(top.group))
                    .map(|d| d.name.as_str())
                    .collect();
                let _ = writeln!(
                    out,
                    "hint: group {} holds {:.0}% of the parallel work ({}); \
                     splitting its dependencies (or rewriting them to touch \
                     disjoint relations) would unlock more parallelism",
                    top.group,
                    pct(top.busy_ns, group_busy),
                    members.join(", ")
                );
            }
        }
    } else if let Some(top) = order.first().map(|&i| &profile.deps[i]) {
        if dep_wall > 0 && top.wall_ns as f64 > DOMINANCE_THRESHOLD * dep_wall as f64 {
            let _ = writeln!(
                out,
                "hint: dependency {} holds {:.0}% of the chase work; consider \
                 splitting its premise or adding join keys to narrow its \
                 activations",
                top.name,
                pct(top.wall_ns, dep_wall)
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{DepProfile, GroupProfile, StorageGauge};

    fn dep(name: &str, wall_ns: u64) -> DepProfile {
        DepProfile {
            name: name.into(),
            activations: 2,
            full_rescans: 1,
            delta_activations: 1,
            delta_hits: 1,
            tuples_produced: 3,
            wall_ns,
            ..Default::default()
        }
    }

    #[test]
    fn report_lists_deps_by_wall_time() {
        let p = ChaseProfile {
            mode: "delta".into(),
            deps: vec![dep("small", 1_000_000), dep("big", 9_000_000)],
            sweeps: 2,
            evaluate_ns: 10_000_000,
            total_ns: 11_000_000,
            ..Default::default()
        };
        let r = render_report(&p, &ReportOptions::default());
        let big = r.find("big").unwrap();
        let small = r.find("small").unwrap();
        assert!(big < small, "big should be listed first:\n{r}");
        assert!(r.contains("mode=delta"));
        assert!(r.contains("hit=100%"));
        // 9/10 of the dep wall > 80% → sequential dominance hint fires.
        assert!(r.contains("hint: dependency big holds 90%"), "{r}");
    }

    #[test]
    fn storage_table_lists_relations_by_size_with_their_indexes() {
        let gauge = |relation: &str, approx_bytes, indexes| StorageGauge {
            relation: relation.into(),
            live_rows: 10,
            tombstones: 2,
            indexes,
            approx_bytes,
        };
        let p = ChaseProfile {
            mode: "delta".into(),
            storage: vec![
                gauge("Iterated", 1024, vec![]),
                gauge("Probed", 4096, vec![(vec![0], 12), (vec![0, 2], 12)]),
                gauge("Small", 10, vec![]),
            ],
            ..Default::default()
        };
        let r = render_report(&p, &ReportOptions { top: 2 });
        assert!(r.contains("storage: top 2 of 3 relations"), "{r}");
        let probed = r.find("Probed").unwrap();
        let iterated = r.find("Iterated").unwrap();
        assert!(probed < iterated, "{r}");
        assert!(r.contains("0:12 0,2:12"), "{r}");
        assert!(!r.contains("Small"), "{r}");
        // A profile without gauges (a failed run) prints no table.
        let r = render_report(&ChaseProfile::default(), &ReportOptions::default());
        assert!(!r.contains("storage:"), "{r}");
    }

    #[test]
    fn top_n_truncates() {
        let deps: Vec<DepProfile> = (0..8).map(|i| dep(&format!("d{i}"), 1_000)).collect();
        let p = ChaseProfile {
            mode: "delta".into(),
            deps,
            ..Default::default()
        };
        let r = render_report(&p, &ReportOptions { top: 3 });
        assert!(r.contains("top 3 of 8 dependencies"));
        assert_eq!(r.matches("acts=").count(), 3);
    }

    #[test]
    fn group_dominance_hint_fires_above_threshold() {
        let mut d0 = dep("hot_a", 5_000_000);
        d0.group = Some(1);
        let mut d1 = dep("hot_b", 4_000_000);
        d1.group = Some(1);
        let mut d2 = dep("cold", 1_000_000);
        d2.group = Some(0);
        let p = ChaseProfile {
            mode: "parallel4".into(),
            deps: vec![d0, d1, d2],
            groups: vec![
                GroupProfile {
                    group: 0,
                    jobs: 2,
                    busy_ns: 1_000_000,
                },
                GroupProfile {
                    group: 1,
                    jobs: 2,
                    busy_ns: 9_000_000,
                },
            ],
            ..Default::default()
        };
        let r = render_report(&p, &ReportOptions::default());
        assert!(r.contains("parallel groups (2)"));
        assert!(r.contains("hint: group 1 holds 90%"), "{r}");
        assert!(r.contains("hot_a, hot_b"), "{r}");
    }

    #[test]
    fn balanced_groups_get_no_hint() {
        let p = ChaseProfile {
            mode: "parallel2".into(),
            deps: vec![dep("a", 1), dep("b", 1)],
            groups: vec![
                GroupProfile {
                    group: 0,
                    jobs: 1,
                    busy_ns: 500,
                },
                GroupProfile {
                    group: 1,
                    jobs: 1,
                    busy_ns: 500,
                },
            ],
            ..Default::default()
        };
        let r = render_report(&p, &ReportOptions::default());
        assert!(!r.contains("hint:"), "{r}");
    }
}
