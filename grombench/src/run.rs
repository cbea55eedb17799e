//! Set-up (inputs, reference oracle, warm-up) and the untraced pass that
//! yields the end-to-end metrics.

use std::time::Instant;

use grom::chase::SchedulerMode;
use grom::data::canonical_render;
use grom::trace::json::{self, JsonValue};

use crate::heap;
use crate::metrics::{self, Metric};
use crate::pipeline::{run_op, OpOutput};
use crate::stats::{fnv1a, median};
use crate::workloads::{generate, Inputs, Sizes, Workload};

/// How much of everything one run does (every count at least 1). `FULL`
/// is what the ledger records; `SMOKE` finishes in seconds and is what the
/// tests invoke.
#[derive(Debug, Clone)]
pub struct Tier {
    pub smoke: bool,
    pub sizes: Sizes,
    pub setup_repeats: usize,
    pub warmup_ops: usize,
    /// The untraced pass runs for `--seconds` and at least this many ops,
    /// so a p90 always has ten samples beyond it in a full run.
    pub min_ops: usize,
    pub staged_ops: usize,
    /// Ops per chase variant and repeats per kernel in the traced pass.
    pub variant_ops: usize,
    /// The untraced pass is split over this many processes, one after the
    /// other, and their samples pooled: a process's address-space layout
    /// shifts every op in it by a few percent, and the pool averages over
    /// layouts where one long process would report only its own.
    pub processes: usize,
}

impl Tier {
    pub const FULL: Tier = Tier {
        smoke: false,
        sizes: Sizes::FULL,
        setup_repeats: 3,
        warmup_ops: 5,
        min_ops: 110,
        staged_ops: 15,
        variant_ops: 5,
        processes: 4,
    };

    pub const SMOKE: Tier = Tier {
        smoke: true,
        sizes: Sizes::SMOKE,
        setup_repeats: 1,
        warmup_ops: 1,
        min_ops: 3,
        staged_ops: 3,
        variant_ops: 2,
        processes: 2,
    };
}

/// A workload ready to be measured.
pub struct Prepared {
    pub workload: Workload,
    pub inputs: Inputs,
    /// FNV digest of the rendered target every op must reproduce byte for
    /// byte — taken from a warm-up op whose `canonical_render` equals that
    /// of the `FullRescan` reference run. `Err` says why no such digest
    /// exists; every op then counts as failed.
    pub rendered_digest: Result<u64, String>,
    /// Median over the set-up repeats.
    pub setup_s: f64,
}

/// The relation of the first line on which two canonical renderings differ.
fn first_differing_relation(a: &str, b: &str) -> String {
    let mut lines = a.lines().zip(b.lines());
    let line = lines
        .find(|(x, y)| x != y)
        .map(|(x, _)| x)
        .or_else(|| a.lines().nth(b.lines().count()))
        .or_else(|| b.lines().nth(a.lines().count()))
        .unwrap_or("?");
    line.split('(').next().unwrap_or("?").to_string()
}

/// One set-up: generate the inputs, run the reference oracle, warm up.
fn setup_once(workload: Workload, tier: &Tier, seed: u64) -> (Inputs, Result<u64, String>) {
    let inputs = generate(workload, &tier.sizes, seed);
    let digest = (|| {
        let reference = run_op(&inputs.scenario, &inputs.facts, SchedulerMode::FullRescan)
            .map_err(|e| format!("reference run failed: {e}"))?;
        inputs
            .expected
            .check(&reference.target)
            .map_err(|e| format!("reference run: {e}"))?;
        let reference_canon = canonical_render(&reference.target);
        let mut digest = None;
        for _ in 0..tier.warmup_ops {
            let out = run_op(&inputs.scenario, &inputs.facts, SchedulerMode::Delta)
                .map_err(|e| format!("warm-up op failed: {e}"))?;
            if digest.is_none() {
                let canon = canonical_render(&out.target);
                if canon != reference_canon {
                    return Err(format!(
                        "target differs from the FullRescan reference, first in relation `{}`",
                        first_differing_relation(&canon, &reference_canon)
                    ));
                }
                digest = Some(fnv1a(out.rendered.as_bytes()));
            }
        }
        Ok(digest.expect("at least one warm-up op ran"))
    })();
    (inputs, digest)
}

/// Set up `tier.setup_repeats` times and keep the last; `setup_s` is the
/// median, so one slow repeat does not move it.
pub fn setup(workload: Workload, tier: &Tier, seed: u64) -> Prepared {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..tier.setup_repeats {
        let t0 = Instant::now();
        last = Some(setup_once(workload, tier, seed));
        seconds.push(t0.elapsed().as_secs_f64());
    }
    let (inputs, rendered_digest) = last.expect("at least one set-up ran");
    Prepared {
        workload,
        inputs,
        rendered_digest,
        setup_s: median(&seconds),
    }
}

impl Prepared {
    /// The output check, independent of the code under test: closed-form
    /// cardinalities, the soundness certificate, and byte equality with
    /// the output that matched the reference.
    pub fn check(&self, out: &OpOutput) -> Result<(), String> {
        self.inputs.expected.check(&out.target)?;
        if !out.validation_ok {
            return Err("validation.ok is false".to_string());
        }
        match &self.rendered_digest {
            Err(why) => Err(why.clone()),
            Ok(d) if *d == fnv1a(out.rendered.as_bytes()) => Ok(()),
            Ok(_) => Err("rendered target differs from the warm-up op's".to_string()),
        }
    }
}

/// Ops attempted and failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    /// Count one op; a failure is printed with workload and op index.
    pub fn record(&mut self, workload: Workload, what: &str, outcome: Result<(), String>) {
        if let Err(why) = outcome {
            self.failed += 1;
            println!(
                "FAILED {} {what} {}: {why}",
                workload.name(),
                self.attempted
            );
        }
        self.attempted += 1;
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

pub struct Untraced {
    pub run_ms: Vec<f64>,
    pub peak_bytes: Vec<f64>,
    pub tally: Tally,
}

/// Closed loop, one client, one thread: ops back to back for `seconds`
/// and at least `min_ops`. Timing covers the op alone; the heap window is
/// reset before each op; the check runs after the clock stops.
pub fn untraced_pass(p: &Prepared, seconds: f64, min_ops: usize) -> Untraced {
    let mut u = Untraced {
        run_ms: Vec::new(),
        peak_bytes: Vec::new(),
        tally: Tally::default(),
    };
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || u.run_ms.len() < min_ops {
        let window = heap::Window::start();
        let t0 = Instant::now();
        let out = run_op(&p.inputs.scenario, &p.inputs.facts, SchedulerMode::Delta);
        u.run_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        u.peak_bytes.push(window.peak_bytes() as f64);
        u.tally
            .record(p.workload, "op", out.and_then(|o| p.check(&o)));
    }
    u
}

impl Untraced {
    pub fn run_ms_p50(&self) -> f64 {
        median(&self.run_ms)
    }

    /// One JSON line: how a child process hands its samples to the parent.
    pub fn to_line(&self) -> String {
        let list = |v: &[f64]| {
            let items: Vec<String> = v.iter().map(|&x| metrics::json_number(x)).collect();
            items.join(",")
        };
        format!(
            "{{\"run_ms\":[{}],\"peak_bytes\":[{}],\"attempted\":{},\"failed\":{}}}",
            list(&self.run_ms),
            list(&self.peak_bytes),
            self.tally.attempted,
            self.tally.failed
        )
    }

    pub fn from_line(line: &str) -> Result<Untraced, String> {
        let v = json::parse(line)?;
        let list = |key: &str| match v.get(key) {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|x| x.as_f64().ok_or(format!("`{key}` holds a non-number")))
                .collect::<Result<Vec<f64>, String>>(),
            _ => Err(format!("no `{key}` list")),
        };
        let count = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .map(|n| n as usize)
                .ok_or(format!("no `{key}` count"))
        };
        Ok(Untraced {
            run_ms: list("run_ms")?,
            peak_bytes: list("peak_bytes")?,
            tally: Tally {
                attempted: count("attempted")?,
                failed: count("failed")?,
            },
        })
    }

    pub fn absorb(&mut self, other: Untraced) {
        self.run_ms.extend(other.run_ms);
        self.peak_bytes.extend(other.peak_bytes);
        self.tally.absorb(&other.tally);
    }
}

pub fn end_to_end(p: &Prepared, u: &Untraced) -> Vec<Metric> {
    let p50 = u.run_ms_p50();
    metrics::assemble(
        &metrics::end_to_end_units(),
        &[
            ("run_ms_p50", p50),
            (
                "tuples_per_s",
                p.inputs.expected.total_tuples() as f64 / (p50 / 1e3),
            ),
            ("peak_heap_mb", median(&u.peak_bytes) / (1 << 20) as f64),
            ("setup_s", p.setup_s),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_counts_hold_at_toy_sizes_for_all_workloads() {
        for w in Workload::ALL {
            for seed in [42, 7] {
                let p = setup(w, &Tier::SMOKE, seed);
                assert!(
                    p.rendered_digest.is_ok(),
                    "{} seed {seed}: {:?}",
                    w.name(),
                    p.rendered_digest
                );
                let u = untraced_pass(&p, 0.0, 2);
                assert_eq!((u.tally.attempted, u.tally.failed), (2, 0), "{}", w.name());
            }
        }
    }

    #[test]
    fn a_wrong_output_fails_the_check() {
        let p = setup(Workload::CopyFanout, &Tier::SMOKE, 42);
        let good = run_op(&p.inputs.scenario, &p.inputs.facts, SchedulerMode::Delta).unwrap();
        assert_eq!(p.check(&good), Ok(()));

        let mut fewer = p.inputs.facts.lines().collect::<Vec<_>>();
        fewer.pop();
        let bad = run_op(&p.inputs.scenario, &fewer.join("\n"), SchedulerMode::Delta).unwrap();
        let why = p.check(&bad).unwrap_err();
        assert!(why.contains("relation `L1`"), "{why}");

        let tampered = OpOutput {
            rendered: good.rendered.replace("L1(", "L1 ("),
            ..good
        };
        assert!(p.check(&tampered).unwrap_err().contains("differs"));
    }

    #[test]
    fn samples_survive_the_trip_between_processes() {
        let mut u = Untraced {
            run_ms: vec![75.123456789, 80.5],
            peak_bytes: vec![1048576.0, 2097152.0],
            tally: Tally {
                attempted: 2,
                failed: 1,
            },
        };
        let back = Untraced::from_line(&u.to_line()).unwrap();
        assert_eq!(back.run_ms, u.run_ms);
        assert_eq!(back.peak_bytes, u.peak_bytes);
        assert_eq!((back.tally.attempted, back.tally.failed), (2, 1));
        u.absorb(back);
        assert_eq!(u.run_ms.len(), 4);
        assert_eq!((u.tally.attempted, u.tally.failed), (4, 2));
        assert!(Untraced::from_line("{}").is_err());
    }

    #[test]
    fn first_difference_names_the_relation() {
        assert_eq!(first_differing_relation("A(1)\nB(2)", "A(1)\nB(3)"), "B");
        assert_eq!(first_differing_relation("A(1)\nC(2)", "A(1)"), "C");
        assert_eq!(first_differing_relation("A(1)", "A(1)\nD(2)"), "D");
    }
}
