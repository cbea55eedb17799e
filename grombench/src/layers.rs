//! The traced pass: staged ops for per-stage self time, then kernels and
//! chase variants on the last staged op's intermediate products.
//!
//! Layers are the crates. Everything here calls public functions only.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use grom::chase::{chase_with_deds, core_minimize, JsonlSink, MemorySink, SchedulerMode};
use grom::data::{Fact, Instance, NullId, Value};
use grom::engine::{evaluate_body, instance_satisfies};
use grom::lang::Bindings;
use grom::rewrite::analyze;
use grom::{PipelineOptions, TraceHandle};

use crate::heap;
use crate::metrics::{self, Metric};
use crate::pipeline::{chase_config, run_staged, Staged};
use crate::run::{Prepared, Tally, Tier, Untraced};
use crate::spans::{self_ms_by_name, Tracer};
use crate::stats::{median, percentile};

pub struct Traced {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub spans_jsonl: String,
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn ns_per(total_ms: f64, n: usize) -> f64 {
    total_ms * 1e6 / n.max(1) as f64
}

/// Median wall time in ms of `f` over `repeats` calls.
fn timed<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            ms_since(t0)
        })
        .collect();
    median(&samples)
}

/// The stage spans in pipeline order, each with the metric that reports its
/// median self time.
const STAGES: [(&str, &str); 13] = [
    ("lang.parse", "lang.parse_ms"),
    ("core.from_program", "core.from_program_ms"),
    ("data.read_facts", "data.read_facts_ms"),
    ("core.typecheck", "core.typecheck_ms"),
    ("engine.materialize_source", "engine.materialize_source_ms"),
    ("data.working_copy", "data.working_copy_ms"),
    ("rewrite.rewrite", "rewrite.rewrite_ms"),
    ("chase.wa", "chase.wa_ms"),
    ("data.intern", "data.intern_ms"),
    ("chase.run", "chase.run_ms"),
    ("core.extract_target", "core.extract_target_ms"),
    ("core.validate", "core.validate_ms"),
    ("data.render", "data.render_ms"),
];

/// Run the traced pass. `Err` means no staged op completed, so there is
/// nothing to measure the layers on.
pub fn traced_pass(
    p: &Prepared,
    untraced: &Untraced,
    tier: &Tier,
    scratch: &Path,
) -> Result<Traced, String> {
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let mut tally = Tally::default();
    let w = p.workload;

    // 1. Staged ops.
    let mut tracer = Tracer::default();
    let mut last: Option<Staged> = None;
    let mut allocs = Vec::new();
    // Per op: evaluate, substitute, merge, total (ms) from the profile.
    let mut phases: Vec<[f64; 4]> = Vec::new();
    for op in 0..tier.staged_ops {
        // Free the previous op's products first: an op that runs beside a
        // live copy of its own output pays for fresh pages `run` never sees.
        let previous_stats = last.take().map(|s: Staged| s.chase.stats);
        let window = heap::Window::start();
        match run_staged(&p.inputs.scenario, &p.inputs.facts, &mut tracer, op as u32) {
            Ok(staged) => {
                allocs.push(window.allocs() as f64);
                let prof = &staged.chase.profile;
                phases.push(
                    [
                        prof.evaluate_ns,
                        prof.substitute_ns,
                        prof.merge_ns,
                        prof.total_ns,
                    ]
                    .map(|ns| ns as f64 / 1e6),
                );
                let mut outcome = p.check(&staged.output);
                if outcome.is_ok() && previous_stats.is_some_and(|s| s != staged.chase.stats) {
                    outcome = Err("chase counters differ between two staged ops".to_string());
                }
                tally.record(w, "staged op", outcome);
                last = Some(staged);
            }
            Err(e) => tally.record(w, "staged op", Err(e)),
        }
    }
    let staged = last.ok_or_else(|| format!("{}: no staged op completed", w.name()))?;

    let by_name = self_ms_by_name(tracer.spans());
    let mut stage_sum_per_op = vec![0.0; phases.len()];
    for (span, metric) in STAGES {
        let per_op = by_name.get(span).map_or(&[][..], Vec::as_slice);
        for (sum, ms) in stage_sum_per_op.iter_mut().zip(per_op) {
            *sum += ms;
        }
        values.push((metric, median(per_op)));
    }
    let staged_sum = median(&stage_sum_per_op);
    let p50 = untraced.run_ms_p50();
    values.push(("pipeline.unattributed_ms", p50 - staged_sum));
    values.push(("harness.staged_vs_run_ratio", staged_sum / p50));
    // A smoke run has too few samples for any tail; it shows the maximum.
    let tail = percentile(&untraced.run_ms, 90)
        .unwrap_or_else(|| untraced.run_ms.iter().copied().fold(0.0, f64::max));
    values.push(("pipeline.run_ms_p90", tail));
    values.push(("pipeline.samples", untraced.run_ms.len() as f64));
    values.push(("data.allocs_per_op", median(&allocs)));
    values.push(("lang.parse_kb", p.inputs.scenario.len() as f64 / 1024.0));

    // 2. The chase, from the profile and counters it returns.
    let column = |i: usize| median(&phases.iter().map(|r| r[i]).collect::<Vec<_>>());
    values.push(("chase.evaluate_ms", column(0)));
    // A share, not a time: with no egd merges the profile records exactly
    // zero substitution time, run after run.
    let substitute_share: Vec<f64> = phases.iter().map(|r| r[1] / r[3]).collect();
    values.push(("chase.substitute_share", median(&substitute_share)));
    let sched_self: Vec<f64> = phases.iter().map(|r| r[3] - r[0] - r[1] - r[2]).collect();
    values.push(("chase.sched_self_ms", median(&sched_self)));
    let stats = &staged.chase.stats;
    let prof = &staged.chase.profile;
    for (name, n) in [
        ("chase.rounds", stats.rounds),
        ("chase.sweeps", prof.sweeps as usize),
        ("chase.tuples_inserted", stats.tuples_inserted),
        ("chase.nulls_invented", stats.nulls_invented),
        ("chase.egd_merges", stats.egd_merges),
        ("chase.full_rescans", stats.full_rescans),
        ("chase.delta_activations", stats.delta_activations),
        ("chase.delta_tuples_seeded", stats.delta_tuples_seeded),
        ("chase.substitution_passes", stats.substitution_passes),
        (
            "chase.violations",
            prof.deps.iter().map(|d| d.violations).sum::<u64>() as usize,
        ),
        ("chase.scenarios_tried", stats.scenarios_tried),
        ("chase.scenarios_failed", stats.scenarios_failed),
    ] {
        values.push((name, n as f64));
    }
    values.push(("chase.delta_hit_rate", prof.delta_hit_rate().unwrap_or(0.0)));
    values.push((
        "chase.insert_yield",
        stats.tuples_inserted as f64 / stats.tgd_applications.max(1) as f64,
    ));

    // 3. The rewriter's output, and `grom analyze`'s cost.
    let rewritten = &staged.rewritten;
    values.push(("rewrite.deps_out", rewritten.deps.len() as f64));
    values.push(("rewrite.deds_out", rewritten.deds().count() as f64));
    values.push((
        "rewrite.max_disjuncts",
        rewritten
            .deps
            .iter()
            .map(|d| d.disjuncts.len())
            .max()
            .unwrap_or(0) as f64,
    ));
    let source_deps: Vec<_> = staged.scenario.all_dependencies().cloned().collect();
    let rewrite_options = PipelineOptions::default().rewrite;
    values.push((
        "rewrite.analyze_ms",
        timed(tier.variant_ops, || {
            analyze(
                &staged.scenario.target_views,
                &source_deps,
                &rewrite_options,
            )
            .is_ok()
        }),
    ));

    data_kernels(&staged.chase.instance, tier, &mut values);
    engine_kernels(&staged, tier, &mut values, &mut tally, p);
    chase_variants(&staged, tier, scratch, &mut values, &mut tally, p);

    values.push((
        "chase.core_min_ms",
        timed(tier.variant_ops, || {
            core_minimize(&mut staged.output.target.clone())
        }),
    ));
    values.push(("harness.calibration_ms", grom_bench::calibration_ms()));
    values.push((
        "harness.nproc",
        std::thread::available_parallelism().map_or(1, usize::from) as f64,
    ));

    Ok(Traced {
        metrics: metrics::assemble(&metrics::per_layer_units(), &values),
        tally,
        spans_jsonl: tracer.to_jsonl(),
    })
}

/// Storage kernels on the chased instance: rebuild it tuple by tuple,
/// re-insert everything (all dedup hits), probe every tuple by its first
/// column, and fold half the nulls onto the other half.
fn data_kernels(chased: &Instance, tier: &Tier, values: &mut Vec<(&'static str, f64)>) {
    let tuples = chased.len();
    let mut insert_ms = Vec::new();
    let mut dup_ms = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..tier.variant_ops {
        let live_before = heap::live_bytes();
        let feed: Vec<Fact> = chased.facts().collect();
        let again = feed.clone();
        let t0 = Instant::now();
        let mut rebuilt = Instance::new();
        for fact in feed {
            rebuilt
                .insert_fact(fact)
                .expect("same arities as the source instance");
        }
        insert_ms.push(ms_since(t0));
        let t0 = Instant::now();
        for fact in again {
            rebuilt
                .insert_fact(fact)
                .expect("same arities as the source instance");
        }
        dup_ms.push(ms_since(t0));
        // `feed` and `again` are consumed: what is live beyond the start
        // level is the rebuilt instance alone.
        bytes.push(heap::live_bytes().saturating_sub(live_before) as f64);
        assert_eq!(rebuilt.len(), tuples, "re-insertion must dedup");
    }
    values.push((
        "data.insert_ns_per_tuple",
        ns_per(median(&insert_ms), tuples),
    ));
    values.push((
        "data.dup_insert_ns_per_tuple",
        ns_per(median(&dup_ms), tuples),
    ));
    values.push((
        "data.bytes_per_tuple",
        median(&bytes) / tuples.max(1) as f64,
    ));

    let mut lookups = 0usize;
    let probe_ms = timed(tier.variant_ops, || {
        lookups = 0;
        let mut hits = 0usize;
        for name in chased.relation_names() {
            let rel = chased.relation(name).expect("named relation exists");
            let arity = rel.arity().unwrap_or(0);
            if arity == 0 {
                continue;
            }
            let mut pattern: Vec<Option<Value>> = vec![None; arity];
            for t in rel.iter() {
                pattern[0] = Some(t.values()[0].clone());
                rel.scan_each(&pattern, &mut |_| {
                    hits += 1;
                    true
                });
                lookups += 1;
            }
        }
        hits
    });
    values.push(("data.probe_ns_per_lookup", ns_per(probe_ms, lookups)));

    let nulls: Vec<NullId> = {
        let mut set = std::collections::BTreeSet::new();
        for name in chased.relation_names() {
            set.extend(chased.tuples(name).flat_map(|t| t.nulls()));
        }
        set.into_iter().collect()
    };
    let fold: HashMap<NullId, Value> = nulls
        .chunks_exact(2)
        .map(|pair| (pair[1], Value::Null(pair[0])))
        .collect();
    let mut substitute_ms = Vec::new();
    for _ in 0..tier.variant_ops {
        let mut copy = chased.clone();
        let t0 = Instant::now();
        std::hint::black_box(copy.substitute_nulls_batch(&fold));
        substitute_ms.push(ms_since(t0));
    }
    values.push(("data.substitute_ms", median(&substitute_ms)));
}

/// Evaluator kernels at the fixpoint: every rewritten premise evaluated
/// against the chased instance, and the satisfaction check of the whole
/// program (which must find no violation).
fn engine_kernels(
    staged: &Staged,
    tier: &Tier,
    values: &mut Vec<(&'static str, f64)>,
    tally: &mut Tally,
    p: &Prepared,
) {
    let chased = &staged.chase.instance;
    let mut matches = 0usize;
    let eval_ms = timed(tier.variant_ops, || {
        matches = staged
            .chase_deps
            .iter()
            .map(|d| evaluate_body(chased, &d.premise, &Bindings::new()).len())
            .sum();
        matches
    });
    values.push(("engine.premise_eval_ms", eval_ms));
    values.push(("engine.premise_matches", matches as f64));
    values.push(("engine.premise_ns_per_match", ns_per(eval_ms, matches)));

    let mut violated = 0usize;
    let check_ms = timed(tier.variant_ops, || {
        violated = instance_satisfies(chased, staged.chase_deps.iter()).len();
        violated
    });
    values.push(("engine.satisfied_check_ms", check_ms));
    let outcome = if violated == 0 {
        Ok(())
    } else {
        Err(format!(
            "{violated} rewritten dependencies violated at the fixpoint"
        ))
    };
    tally.record(p.workload, "fixpoint check", outcome);
}

/// The same chase under other schedulers and with trace sinks attached,
/// interleaved with a plain delta run so every ratio has a base measured
/// under the same conditions.
fn chase_variants(
    staged: &Staged,
    tier: &Tier,
    scratch: &Path,
    values: &mut Vec<(&'static str, f64)>,
    tally: &mut Tally,
    p: &Prepared,
) {
    let chased_len = staged.chase.instance.len();
    let chase = |tally: &mut Tally, what: &str, mode: SchedulerMode, trace: TraceHandle| {
        let input = staged.chase_input.clone();
        let config = chase_config(mode, trace);
        let t0 = Instant::now();
        let result = chase_with_deds(input, &staged.chase_deps, &config);
        let ms = ms_since(t0);
        let outcome = match &result {
            Ok(r) if r.instance.len() == chased_len => Ok(()),
            Ok(r) => Err(format!(
                "{} tuples, the delta chase produced {chased_len}",
                r.instance.len()
            )),
            Err(e) => Err(e.to_string()),
        };
        tally.record(p.workload, what, outcome);
        (ms, result.ok())
    };

    let jsonl_path = scratch.join(format!("chase-events-{}.jsonl", p.workload.name()));
    let (mut delta, mut full, mut par, mut mem, mut jsonl) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut par_sweeps = Vec::new();
    let mut par_idle = Vec::new();
    let mut par_merge = Vec::new();
    let mut events = 0usize;
    for _ in 0..tier.variant_ops {
        delta.push(
            chase(
                tally,
                "delta chase",
                SchedulerMode::Delta,
                TraceHandle::none(),
            )
            .0,
        );
        full.push(
            chase(
                tally,
                "full-rescan chase",
                SchedulerMode::FullRescan,
                TraceHandle::none(),
            )
            .0,
        );

        let (ms, result) = chase(
            tally,
            "parallel chase",
            SchedulerMode::Parallel { threads: 2 },
            TraceHandle::none(),
        );
        par.push(ms);
        if let Some(r) = result {
            let busy: u64 = r.profile.groups.iter().map(|g| g.busy_ns).sum();
            par_sweeps.push(r.profile.sweeps as f64);
            par_idle.push(1.0 - busy as f64 / (2.0 * r.profile.evaluate_ns.max(1) as f64));
            par_merge.push(r.profile.merge_ns as f64 / r.profile.total_ns.max(1) as f64);
        }

        let sink = Arc::new(MemorySink::new());
        mem.push(
            chase(
                tally,
                "memory-sink chase",
                SchedulerMode::Delta,
                TraceHandle::new(sink.clone()),
            )
            .0,
        );
        events = sink.lines().len();

        match JsonlSink::create(&jsonl_path) {
            Ok(sink) => jsonl.push(
                chase(
                    tally,
                    "jsonl-sink chase",
                    SchedulerMode::Delta,
                    TraceHandle::new(Arc::new(sink)),
                )
                .0,
            ),
            Err(e) => tally.record(
                p.workload,
                "jsonl-sink chase",
                Err(format!("cannot create {}: {e}", jsonl_path.display())),
            ),
        }
    }
    let base = median(&delta);
    let or_nan = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
    values.push(("chase.full_rescan_run_ms", median(&full)));
    values.push(("chase.delta_speedup", median(&full) / base));
    values.push(("exec.parallel2_run_ms", median(&par)));
    values.push(("exec.parallel2_ratio", median(&par) / base));
    values.push((
        "exec.parallel2_overhead_ms_per_sweep",
        (median(&par) - base) / or_nan(&par_sweeps).max(1.0),
    ));
    values.push(("exec.parallel2_idle_share", or_nan(&par_idle)));
    values.push(("exec.parallel2_merge_share", or_nan(&par_merge)));
    values.push(("trace.memory_sink_ratio", median(&mem) / base));
    values.push(("trace.jsonl_sink_ratio", or_nan(&jsonl) / base));
    values.push(("trace.events_per_run", events as f64));
}
