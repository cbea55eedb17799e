//! Drives the `grombench` binary at toy sizes (`--smoke`) and holds what
//! it emits against the declarations in `metrics.rs` and `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use grom::trace::json::{self, JsonValue};
use grombench::ledger;
use grombench::metrics::{END_TO_END, PER_LAYER};
use grombench::workloads::Workload;

fn grombench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_grombench"))
        .args(args)
        .env_remove("GROM_THREADS")
        .env_remove("GROM_FAIL")
        .env_remove("GROM_TRACE")
        .output()
        .expect("grombench starts")
}

/// A fresh directory per test: tests run in parallel and must not share
/// files.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && s.chars().next().unwrap().is_ascii_alphanumeric()
}

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn array<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match v.get(key) {
        Some(JsonValue::Arr(items)) => items,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap()
}

#[test]
fn benchmark_json_declares_exactly_what_the_program_emits() {
    let bench = benchmark_json();
    let workloads: Vec<&str> = array(&bench, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    let declared: Vec<(String, String, String, Option<f64>)> = array(&bench, "end_to_end")
        .iter()
        .map(|m| {
            (
                text(m, "name").to_string(),
                text(m, "unit").to_string(),
                text(m, "better").to_string(),
                m.get("bound").and_then(JsonValue::as_f64),
            )
        })
        .collect();
    let ours: Vec<_> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
                Some(m.bound),
            )
        })
        .collect();
    assert_eq!(declared, ours);

    let declared: Vec<(&str, &str, &str)> = array(&bench, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let ours: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better.as_str()))
        .collect();
    assert_eq!(declared, ours);

    let paths: Vec<&str> = array(&bench, "paths")
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["grombench"]);
}

#[test]
fn every_declared_name_is_well_formed_and_used_once() {
    let mut seen = BTreeSet::new();
    let names = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(is_name(name), "{name}");
        assert!(seen.insert(name), "{name} declared twice");
    }
}

#[test]
fn smoke_ledger_emits_every_metric_and_compares_equal_to_itself() {
    let dir = scratch("ledger");
    let result = dir.join("result.json");
    let out = grombench(&[
        "--smoke",
        "--repeat",
        "2",
        "--out",
        result.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(!stdout.contains("FAILED"), "{stdout}");

    let recorded = ledger::parse(&std::fs::read_to_string(&result).unwrap()).unwrap();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(recorded.workloads, ours);
    let declared: BTreeSet<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for w in Workload::ALL {
        let emitted: BTreeSet<&str> = recorded
            .values
            .keys()
            .filter(|(workload, _)| workload == w.name())
            .map(|(_, metric)| metric.as_str())
            .collect();
        assert_eq!(emitted, declared, "{}", w.name());
        // One span file per workload, every line an object with the five
        // span fields.
        let spans = std::fs::read_to_string(dir.join(format!("spans-{}.jsonl", w.name()))).unwrap();
        assert!(spans.lines().count() >= 14);
        for line in spans.lines() {
            let span = json::parse(line).unwrap();
            for field in ["name", "start_ns", "end_ns", "parent", "op"] {
                assert!(span.get(field).is_some(), "{line}");
            }
        }
    }
    for values in recorded.values.values() {
        assert_eq!(values.len(), 2, "one value per repeat");
    }

    // Timings at toy sizes are noise, so only the exact counts are judged.
    let path = result.to_str().unwrap();
    let cmp = grombench(&["compare", path, path]);
    let report = String::from_utf8_lossy(&cmp.stdout);
    assert!(report.contains("exact counts: all equal"), "{report}");
    assert!(report.contains("run_ms_p50"), "{report}");
}

#[test]
fn driver_mode_ends_with_the_contract_object() {
    for (trace, expected) in [
        ("0", END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
        ("1", PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()),
    ] {
        let dir = scratch(&format!("driver{trace}"));
        let out = grombench(&[
            "--smoke",
            "--workload",
            "egd_resolve",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--out",
            dir.join("result.json").to_str().unwrap(),
        ]);
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let last = json::parse(stdout.lines().last().unwrap()).unwrap();
        let JsonValue::Obj(fields) = &last else {
            panic!("not an object: {last:?}")
        };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(last.get("failed").and_then(JsonValue::as_u64), Some(0));
        assert!(last.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 3);
        let Some(JsonValue::Obj(metrics)) = last.get("metrics") else {
            panic!("no metrics")
        };
        let mut emitted: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut expected = expected;
        emitted.sort_unstable();
        expected.sort_unstable();
        assert_eq!(emitted, expected);
        for m in metrics.values() {
            assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
            assert!(m.get("unit").and_then(JsonValue::as_str).is_some());
        }
    }
}

#[test]
fn refuses_to_start_in_a_non_hermetic_environment() {
    let out = Command::new(env!("CARGO_BIN_EXE_grombench"))
        .args(["--smoke"])
        .env("GROM_THREADS", "2")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("GROM_THREADS"));
    assert!(out.stdout.is_empty());
}

#[test]
fn rejects_bad_arguments() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "1"],
        &["--trace", "2", "--workload", "copy_fanout"],
        &["--frobnicate"],
        &["compare", "only-one.json"],
    ] {
        assert_eq!(grombench(args).status.code(), Some(2), "{args:?}");
    }
}
