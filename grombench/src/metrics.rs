//! The declared metrics: names, units, directions, bounds.
//!
//! `BENCHMARK.json` at the repository root repeats these tables for the
//! driver; a test keeps the two equal.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric, measured untraced. `bound` is the share of the
/// parent's median by which it may worsen before it counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "run_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "tuples_per_s",
        unit: "tuples/s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric, measured in the traced pass. `exact` marks counts
/// that must repeat exactly at a fixed seed.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit: "count",
        better,
        exact: true,
    }
}

const fn ratio(name: &'static str, better: Better, exact: bool) -> Layer {
    Layer {
        name,
        unit: "ratio",
        better,
        exact,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [Layer; 62] = [
    // grom-lang
    lower("lang.parse_ms", "ms"),
    Layer {
        name: "lang.parse_kb",
        unit: "KiB",
        better: Lower,
        exact: true,
    },
    // grom-core, and the pipeline as a whole
    lower("core.from_program_ms", "ms"),
    lower("core.typecheck_ms", "ms"),
    lower("core.extract_target_ms", "ms"),
    lower("core.validate_ms", "ms"),
    lower("pipeline.unattributed_ms", "ms"),
    lower("pipeline.run_ms_p90", "ms"),
    Layer {
        name: "pipeline.samples",
        unit: "count",
        better: Higher,
        exact: false,
    },
    // grom-data: stages, then kernels on the chased instance
    lower("data.read_facts_ms", "ms"),
    lower("data.working_copy_ms", "ms"),
    lower("data.intern_ms", "ms"),
    lower("data.render_ms", "ms"),
    lower("data.insert_ns_per_tuple", "ns/tuple"),
    lower("data.dup_insert_ns_per_tuple", "ns/tuple"),
    lower("data.probe_ns_per_lookup", "ns/lookup"),
    lower("data.substitute_ms", "ms"),
    lower("data.bytes_per_tuple", "B/tuple"),
    Layer {
        name: "data.allocs_per_op",
        unit: "count",
        better: Lower,
        exact: false,
    },
    // grom-engine
    lower("engine.materialize_source_ms", "ms"),
    lower("engine.premise_eval_ms", "ms"),
    count("engine.premise_matches", Lower),
    lower("engine.premise_ns_per_match", "ns/match"),
    lower("engine.satisfied_check_ms", "ms"),
    // grom-rewrite
    lower("rewrite.rewrite_ms", "ms"),
    lower("rewrite.analyze_ms", "ms"),
    count("rewrite.deps_out", Lower),
    count("rewrite.deds_out", Lower),
    count("rewrite.max_disjuncts", Lower),
    // grom-chase
    lower("chase.run_ms", "ms"),
    lower("chase.wa_ms", "ms"),
    lower("chase.evaluate_ms", "ms"),
    ratio("chase.substitute_share", Lower, false),
    lower("chase.sched_self_ms", "ms"),
    count("chase.rounds", Lower),
    count("chase.sweeps", Lower),
    count("chase.tuples_inserted", Lower),
    count("chase.nulls_invented", Lower),
    count("chase.egd_merges", Lower),
    count("chase.full_rescans", Lower),
    count("chase.delta_activations", Lower),
    count("chase.delta_tuples_seeded", Lower),
    count("chase.substitution_passes", Lower),
    count("chase.violations", Lower),
    count("chase.scenarios_tried", Lower),
    count("chase.scenarios_failed", Lower),
    ratio("chase.delta_hit_rate", Higher, true),
    ratio("chase.insert_yield", Higher, true),
    lower("chase.full_rescan_run_ms", "ms"),
    ratio("chase.delta_speedup", Higher, false),
    lower("chase.core_min_ms", "ms"),
    // grom-exec
    lower("exec.parallel2_run_ms", "ms"),
    ratio("exec.parallel2_ratio", Lower, false),
    lower("exec.parallel2_overhead_ms_per_sweep", "ms"),
    ratio("exec.parallel2_idle_share", Lower, false),
    ratio("exec.parallel2_merge_share", Lower, false),
    // grom-trace
    ratio("trace.memory_sink_ratio", Lower, false),
    ratio("trace.jsonl_sink_ratio", Lower, false),
    count("trace.events_per_run", Lower),
    // harness
    ratio("harness.staged_vs_run_ratio", Lower, false),
    lower("harness.calibration_ms", "ms"),
    Layer {
        name: "harness.nproc",
        unit: "count",
        better: Higher,
        exact: false,
    },
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Attach the declared unit to each `(name, value)`, in declaration order.
///
/// # Panics
/// When a declared metric has no value or a value has no declaration: the
/// set a run reports is fixed, and a drift is a bug in this program.
pub fn assemble(declared: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in values {
        assert!(
            declared.iter().any(|(d, _)| d == name),
            "metric `{name}` is measured but not declared"
        );
    }
    declared
        .iter()
        .map(|&(name, unit)| {
            let (_, value) = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric `{name}` is declared but not measured"));
            Metric {
                name,
                unit,
                value: *value,
            }
        })
        .collect()
}

pub fn end_to_end_units() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

pub fn per_layer_units() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}

/// `{"name": {"value": v, "unit": "u"}, …}` — the shape the driver reads.
pub fn to_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A float with all its digits; JSON has no NaN or infinity, so those
/// become `null` (and fail any reader that expects a number — loudly).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_orders_by_declaration_and_attaches_units() {
        let declared = [("a", "ms"), ("b", "count")];
        let got = assemble(&declared, &[("b", 2.0), ("a", 1.5)]);
        assert_eq!(got[0].name, "a");
        assert_eq!(got[1].unit, "count");
        assert_eq!(
            to_json(&got),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}"
        );
    }

    #[test]
    #[should_panic(expected = "declared but not measured")]
    fn assemble_rejects_a_missing_metric() {
        assemble(&[("a", "ms")], &[]);
    }

    #[test]
    #[should_panic(expected = "measured but not declared")]
    fn assemble_rejects_an_undeclared_metric() {
        assemble(&[("a", "ms")], &[("a", 1.0), ("zz", 1.0)]);
    }
}
