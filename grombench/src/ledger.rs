//! The recorded result file, and the comparison of two of them.
//!
//! Later issues quote numbers from a recorded file by workload and metric
//! name instead of measuring live; `grombench compare a.json b.json` is
//! how two commits (or two runs of one) are held against the bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use grom::trace::json::{self, JsonValue};

use crate::metrics::{json_number, to_json, Better, Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};

/// One workload measured once (both passes).
pub struct Run {
    pub repeat: usize,
    pub workload: &'static str,
    pub attempted: usize,
    pub failed: usize,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// Everything a result file records besides the runs.
pub struct Provenance {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub nproc: usize,
    pub rustc: String,
    pub git_head: String,
    /// Per workload, its generator constants.
    pub constants: Vec<(&'static str, Vec<(&'static str, usize)>)>,
}

pub fn render(provenance: &Provenance, runs: &[Run]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"grombench/1\",");
    let _ = writeln!(out, "  \"seed\": {},", provenance.seed);
    let _ = writeln!(out, "  \"seconds\": {},", json_number(provenance.seconds));
    let _ = writeln!(out, "  \"smoke\": {},", provenance.smoke);
    let _ = writeln!(out, "  \"nproc\": {},", provenance.nproc);
    let _ = writeln!(out, "  \"rustc\": \"{}\",", json::escape(&provenance.rustc));
    let _ = writeln!(
        out,
        "  \"git_head\": \"{}\",",
        json::escape(&provenance.git_head)
    );
    let constants: Vec<String> = provenance
        .constants
        .iter()
        .map(|(w, cs)| {
            let fields: Vec<String> = cs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("\"{w}\": {{{}}}", fields.join(", "))
        })
        .collect();
    let _ = writeln!(out, "  \"constants\": {{{}}},", constants.join(", "));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"repeat\": {}, \"workload\": \"{}\", \"attempted\": {}, \"failed\": {}, \
             \"end_to_end\": {}, \"per_layer\": {}}}",
            r.repeat,
            r.workload,
            r.attempted,
            r.failed,
            to_json(&r.end_to_end),
            to_json(&r.per_layer)
        );
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// A parsed result file: `(workload, metric) → one value per repeat`.
pub struct Recorded {
    pub seed: u64,
    pub smoke: bool,
    pub workloads: Vec<String>,
    pub values: BTreeMap<(String, String), Vec<f64>>,
}

pub fn parse(text: &str) -> Result<Recorded, String> {
    let root = json::parse(text)?;
    if root.get("schema").and_then(JsonValue::as_str) != Some("grombench/1") {
        return Err("not a grombench/1 result file".to_string());
    }
    let seed = root
        .get("seed")
        .and_then(JsonValue::as_u64)
        .ok_or("missing `seed`")?;
    let smoke = matches!(root.get("smoke"), Some(JsonValue::Bool(true)));
    let Some(JsonValue::Arr(runs)) = root.get("runs") else {
        return Err("missing `runs`".to_string());
    };
    let mut recorded = Recorded {
        seed,
        smoke,
        workloads: Vec::new(),
        values: BTreeMap::new(),
    };
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("run without `workload`")?;
        if !recorded.workloads.iter().any(|w| w == workload) {
            recorded.workloads.push(workload.to_string());
        }
        for section in ["end_to_end", "per_layer"] {
            let Some(JsonValue::Obj(metrics)) = run.get(section) else {
                return Err(format!("run of `{workload}` without `{section}`"));
            };
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("`{workload}` `{name}` has no numeric value"))?;
                recorded
                    .values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(recorded)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound: neither "unchanged"
    /// nor "regressed" can be read off these runs.
    Unresolved,
}

/// Judge `b` against base `a` for one end-to-end metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let b_always_better = b.iter().all(|y| {
        a.iter().all(|x| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    if spread(a).max(spread(b)) > bound && !b_always_better {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

/// Compare two result files; returns the report and whether `b` is
/// acceptable (nothing regressed, every exact count equal).
pub fn compare(a: &Recorded, b: &Recorded) -> (String, bool) {
    let mut out = String::new();
    let mut acceptable = true;
    let _ = writeln!(
        out,
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b/a", "bound"
    );
    for w in &a.workloads {
        for m in &END_TO_END {
            let key = (w.clone(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                let _ = writeln!(out, "{w:<16} {:<14} missing in one file", m.name);
                acceptable = false;
                continue;
            };
            let verdict = judge(va, vb, m.better, m.bound);
            acceptable &= verdict != Verdict::Regressed;
            let _ = writeln!(
                out,
                "{w:<16} {:<14} {:>14.4} {:>14.4} {:>9.4} {:>6.2}  {}",
                m.name,
                median(va),
                median(vb),
                median(vb) / median(va),
                m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if a.seed != b.seed || a.smoke != b.smoke {
        let _ = writeln!(
            out,
            "exact counts not compared: the files differ in seed or tier"
        );
        return (out, acceptable);
    }
    let mut unequal = 0;
    for w in &a.workloads {
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let key = (w.clone(), m.name.to_string());
            let all: Vec<f64> = [a.values.get(&key), b.values.get(&key)]
                .into_iter()
                .flatten()
                .flatten()
                .copied()
                .collect();
            if all.windows(2).any(|p| p[0] != p[1]) {
                let _ = writeln!(out, "{w:<16} {:<28} exact count differs: {all:?}", m.name);
                unequal += 1;
            }
        }
    }
    let _ = writeln!(
        out,
        "exact counts: {}",
        if unequal == 0 {
            "all equal".to_string()
        } else {
            format!("{unequal} differ")
        }
    );
    (out, acceptable && unequal == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{assemble, end_to_end_units, per_layer_units};

    fn file(run_ms: &[f64], rounds: f64) -> Recorded {
        let runs: Vec<Run> = run_ms
            .iter()
            .enumerate()
            .map(|(repeat, &ms)| Run {
                repeat,
                workload: "copy_fanout",
                attempted: 3,
                failed: 0,
                end_to_end: assemble(
                    &end_to_end_units(),
                    &[
                        ("run_ms_p50", ms),
                        ("tuples_per_s", 1e6 / ms),
                        ("peak_heap_mb", 10.0),
                        ("setup_s", 0.5),
                    ],
                ),
                per_layer: {
                    let values: Vec<(&str, f64)> = PER_LAYER
                        .iter()
                        .map(|m| {
                            (
                                m.name,
                                if m.name == "chase.rounds" {
                                    rounds
                                } else {
                                    1.0
                                },
                            )
                        })
                        .collect();
                    assemble(&per_layer_units(), &values)
                },
            })
            .collect();
        let provenance = Provenance {
            seed: 42,
            seconds: 1.0,
            smoke: true,
            nproc: 2,
            rustc: "rustc \"x\"".into(),
            git_head: "unknown".into(),
            constants: vec![("copy_fanout", vec![("rows", 12)])],
        };
        parse(&render(&provenance, &runs)).unwrap()
    }

    #[test]
    fn result_file_round_trips() {
        let r = file(&[80.0, 82.0], 17.0);
        assert_eq!(r.seed, 42);
        assert!(r.smoke);
        assert_eq!(r.workloads, vec!["copy_fanout"]);
        let key = ("copy_fanout".to_string(), "run_ms_p50".to_string());
        assert_eq!(r.values[&key], vec![80.0, 82.0]);
        assert_eq!(r.values.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn same_numbers_compare_ok_and_a_slowdown_regresses() {
        let a = file(&[80.0, 81.0, 80.5], 17.0);
        let (report, ok) = compare(&a, &file(&[80.2, 80.9, 80.4], 17.0));
        assert!(ok, "{report}");
        assert!(!report.contains("regressed") && report.contains("all equal"));

        let (report, ok) = compare(&a, &file(&[95.0, 96.0, 95.5], 17.0));
        assert!(!ok);
        assert!(report.contains("regressed"), "{report}");
    }

    #[test]
    fn an_exact_count_that_moved_is_not_acceptable() {
        let a = file(&[80.0, 81.0], 17.0);
        let (report, ok) = compare(&a, &file(&[80.0, 81.0], 18.0));
        assert!(!ok);
        assert!(report.contains("chase.rounds"), "{report}");
    }

    #[test]
    fn judge_reports_a_wide_spread_as_unresolved_unless_every_run_wins() {
        let noisy = [100.0, 140.0, 70.0, 120.0];
        assert_eq!(
            judge(&noisy, &[101.0, 139.0, 72.0, 118.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[50.0, 60.0, 40.0, 55.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&[100.0, 101.0], &[89.0, 88.0], Better::Higher, 0.10),
            Verdict::Regressed
        );
    }
}
