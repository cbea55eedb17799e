//! `grombench` — GROM's end-to-end performance ledger.
//!
//! ```text
//! grombench [--seed N] [--seconds S] [--repeat K] [--workload W] [--out FILE] [--smoke]
//!     every workload (or W): set-up, untraced pass, traced pass; prints
//!     every metric, writes the result file and the span files, exits
//!     non-zero if any op failed
//! grombench --workload W --trace 0|1 [--seed N] [--seconds S] [--smoke]
//!     one pass of one workload; the last line of standard output is the
//!     JSON object BENCHMARK.json's driver reads
//! grombench compare A.json B.json
//!     hold result file B against base A
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use grombench::layers::traced_pass;
use grombench::ledger::{self, Provenance, Run};
use grombench::metrics::{self, Metric, END_TO_END};
use grombench::run::{end_to_end, setup, untraced_pass, Tally, Tier, Untraced};
use grombench::stats::{median, spread};
use grombench::workloads::Workload;

// The counting allocator behind `peak_heap_mb`; see `grombench::heap`.
#[global_allocator]
static ALLOCATOR: grombench::heap::Counting = grombench::heap::Counting;

const USAGE: &str = "usage: grombench [--workload NAME] [--trace 0|1] [--seed N] [--seconds S] \
                     [--repeat K] [--out FILE] [--smoke]\n       grombench compare A.json B.json";

/// Variables that change what the library does behind the benchmark's
/// back: `ChaseConfig::default` reads `GROM_THREADS`, `grom-fail` reads
/// `GROM_FAIL`, the CLI reads `GROM_TRACE`.
const FORBIDDEN_ENV: [&str; 3] = ["GROM_THREADS", "GROM_FAIL", "GROM_TRACE"];

struct Args {
    workload: Option<Workload>,
    trace: Option<bool>,
    seed: u64,
    seconds: Option<f64>,
    repeat: usize,
    out: Option<PathBuf>,
    smoke: bool,
    /// Internal: this process is one of the untraced pass's children.
    untraced_child: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        trace: None,
        seed: 42,
        seconds: None,
        repeat: 1,
        out: None,
        smoke: false,
        untraced_child: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--smoke" => parsed.smoke = true,
            "--untraced-child" => parsed.untraced_child = true,
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 0..=600".to_string());
                }
                parsed.seconds = Some(s);
            }
            "--repeat" => {
                parsed.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&parsed.repeat) {
                    return Err("--repeat must be within 1..=100".to_string());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if (parsed.trace.is_some() || parsed.untraced_child) && parsed.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("grombench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("grombench: refusing to run with {var} set: the run would not be hermetic");
        return ExitCode::from(2);
    }
    let tier = if args.smoke { Tier::SMOKE } else { Tier::FULL };
    // A smoke run is bounded by its op counts alone.
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.0 } else { 10.0 });
    if let (true, Some(w)) = (args.untraced_child, args.workload) {
        let once = Tier {
            setup_repeats: 1,
            ..tier.clone()
        };
        let prepared = setup(w, &once, args.seed);
        let share = tier.min_ops.div_ceil(tier.processes);
        println!("{}", untraced_pass(&prepared, seconds, share).to_line());
        return ExitCode::SUCCESS;
    }
    let out = args.out.clone().unwrap_or_else(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        Path::new(&target).join("grombench").join("result.json")
    });
    let dir = out.parent().unwrap_or(Path::new(".")).to_path_buf();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("grombench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let result = match (args.workload, args.trace) {
        (Some(w), Some(trace)) => driver_run(w, trace, args.seed, seconds, &tier, &dir),
        _ => ledger_run(&args, seconds, &tier, &out, &dir),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("grombench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_metrics(workload: Workload, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{:<16} {:<38} {:>18.6} {}",
            workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
}

/// The spread of the timed ops inside one run, for a human reading the
/// output: quartiles need no ten-samples-beyond rule to be worth a look.
fn print_distribution(workload: Workload, run_ms: &[f64]) {
    let mut v = run_ms.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    println!(
        "# {} op ms over {} ops: min {:.3} p25 {:.3} p50 {:.3} p75 {:.3} max {:.3}",
        workload.name(),
        v.len(),
        at(0.0),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0)
    );
}

/// The untraced pass, split over `tier.processes` child processes run one
/// after the other (see [`Tier::processes`]). Each child sets up for
/// itself, measures its share of `seconds`, and prints its samples as its
/// last line; whatever else it prints (failed ops) is passed through.
fn pooled_untraced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tier: &Tier,
) -> Result<Untraced, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut pooled: Option<Untraced> = None;
    for _ in 0..tier.processes {
        let mut child = Command::new(&exe);
        child
            .args(["--untraced-child", "--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &(seconds / tier.processes as f64).to_string()]);
        if tier.smoke {
            child.arg("--smoke");
        }
        // `output` waits for the child to end.
        let out = child
            .output()
            .map_err(|e| format!("cannot start a child process: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let samples = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        if !out.status.success() {
            return Err(format!(
                "a child process failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let part = Untraced::from_line(samples).map_err(|e| format!("child output: {e}"))?;
        match &mut pooled {
            Some(all) => all.absorb(part),
            None => pooled = Some(part),
        }
    }
    pooled.ok_or_else(|| "no child process ran".to_string())
}

fn write_spans(dir: &Path, workload: Workload, jsonl: &str) -> Result<(), String> {
    let path = dir.join(format!("spans-{}.jsonl", workload.name()));
    std::fs::write(&path, jsonl).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One pass of one workload, as BENCHMARK.json's driver runs it: the
/// end-to-end metrics with `--trace 0`, the per-layer metrics with
/// `--trace 1`, as one JSON object on the last line.
fn driver_run(
    workload: Workload,
    trace: bool,
    seed: u64,
    seconds: f64,
    tier: &Tier,
    dir: &Path,
) -> Result<ExitCode, String> {
    let prepared = setup(workload, tier, seed);
    let untraced = pooled_untraced(workload, seed, seconds, tier)?;
    let mut tally = Tally::default();
    tally.absorb(&untraced.tally);
    let metrics = if trace {
        let traced = traced_pass(&prepared, &untraced, tier, dir)?;
        write_spans(dir, workload, &traced.spans_jsonl)?;
        tally.absorb(&traced.tally);
        traced.metrics
    } else {
        end_to_end(&prepared, &untraced)
    };
    print_distribution(workload, &untraced.run_ms);
    print_metrics(workload, &metrics);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics::to_json(&metrics)
    );
    Ok(ExitCode::SUCCESS)
}

/// The first line a command prints, or "unknown" (the driver's checkout,
/// for one, is not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The whole ledger: every workload, both passes, `--repeat` times into
/// one result file.
fn ledger_run(
    args: &Args,
    seconds: f64,
    tier: &Tier,
    out: &Path,
    dir: &Path,
) -> Result<ExitCode, String> {
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut runs = Vec::new();
    for repeat in 0..args.repeat {
        for &w in &workloads {
            let prepared = setup(w, tier, args.seed);
            let untraced = pooled_untraced(w, args.seed, seconds, tier)?;
            let e2e = end_to_end(&prepared, &untraced);
            let traced = traced_pass(&prepared, &untraced, tier, dir)?;
            write_spans(dir, w, &traced.spans_jsonl)?;
            let mut tally = Tally::default();
            tally.absorb(&untraced.tally);
            tally.absorb(&traced.tally);
            println!(
                "# {} (repeat {repeat}): {} ops attempted, {} failed, failed_share {}",
                w.name(),
                tally.attempted,
                tally.failed,
                tally.failed as f64 / tally.attempted as f64
            );
            print_distribution(w, &untraced.run_ms);
            print_metrics(w, &e2e);
            print_metrics(w, &traced.metrics);
            runs.push(Run {
                repeat,
                workload: w.name(),
                attempted: tally.attempted,
                failed: tally.failed,
                end_to_end: e2e,
                per_layer: traced.metrics,
            });
        }
    }
    if args.repeat > 1 {
        println!(
            "# run-to-run spread over {} repeats (inter-quartile distance / median)",
            args.repeat
        );
        for &w in &workloads {
            for (i, m) in END_TO_END.iter().enumerate() {
                let values: Vec<f64> = runs
                    .iter()
                    .filter(|r| r.workload == w.name())
                    .map(|r| r.end_to_end[i].value)
                    .collect();
                println!(
                    "{:<16} {:<14} median {:>14.4} {:<9} spread {:.4} (bound {:.2})",
                    w.name(),
                    m.name,
                    median(&values),
                    m.unit,
                    spread(&values),
                    m.bound
                );
            }
        }
    }
    let provenance = Provenance {
        seed: args.seed,
        seconds,
        smoke: tier.smoke,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        rustc: first_line_of("rustc", &["-V"]),
        git_head: first_line_of("git", &["rev-parse", "HEAD"]),
        constants: workloads
            .iter()
            .map(|&w| (w.name(), tier.sizes.of(w)))
            .collect(),
    };
    std::fs::write(out, ledger::render(&provenance, &runs))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("# result file: {}", out.display());
    let failed: usize = runs.iter().map(|r| r.failed).sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| ledger::parse(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (report, acceptable) = ledger::compare(&a, &b);
            print!("{report}");
            if acceptable {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("grombench: {e}");
            ExitCode::from(2)
        }
    }
}
