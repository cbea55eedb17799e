//! The `grom` command-line tool: the scriptable counterpart of the demo's
//! GUI (Figure 3 of the paper).
//!
//! ```text
//! grom rewrite  <scenario.grom>                      print the rewritten program
//! grom analyze  <scenario.grom>                      restriction report (problematic views)
//! grom run      <scenario.grom> [data.facts]         full pipeline; prints J_T
//!               [--core] [--no-validate] [--quiet] [--threads N] [--trace out.jsonl]
//! grom explain  <scenario.grom|corpus-entry|corpus>  chase + dominance report
//!               [data.facts] [--threads N] [--top N] [--slowest N] [--trace out.jsonl]
//! grom validate <scenario.grom> <source.facts> <target.facts>
//!                                                    check an existing solution
//! grom corpus   <gen|record|verify|fuzz|list> ...    conformance-corpus tooling
//! ```
//!
//! Scenario files use the language documented in `grom_lang::parser`; data
//! files are fact-per-line (`grom_data::io`). A scenario's inline `fact`s
//! are always loaded; a data file adds to them.
//!
//! `run` and `explain` stream a JSONL chase trace when `--trace <path>` is
//! given (or the `GROM_TRACE` environment variable is set) — one event per
//! activation, merge and sweep; see the README's Observability section.

use std::process::ExitCode;

use grom::prelude::*;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  grom rewrite  <scenario.grom>\n  grom analyze  <scenario.grom>\n  \
         grom run      <scenario.grom> [data.facts] [--core] [--no-validate] [--quiet] \
         [--threads N] [--trace out.jsonl]\n                \
         [--deadline-ms MS] [--max-tuples N] [--checkpoint <file>] [--resume <file>]\n  \
         grom explain  <scenario.grom|corpus-entry|corpus> [data.facts] [--threads N] \
         [--top N] [--slowest N] [--trace out.jsonl]\n  \
         grom validate <scenario.grom> <source.facts> <target.facts>\n  \
         grom corpus   gen    --name <entry> --spec \"<spec>\" [--dir corpus]\n  \
         grom corpus   record [--dir corpus] [entry...]\n  \
         grom corpus   verify [--dir corpus] [--summary-md <file>] [entry...]\n  \
         grom corpus   fuzz   [--budget N] [--seed S] [--max-scale K] [--deadline-ms MS] \
         [--out <dir>]\n  \
         grom corpus   list   [--dir corpus]"
    );
    ExitCode::from(2)
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("grom: {msg}");
    ExitCode::FAILURE
}

fn load_program(path: &str) -> Result<Program, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Program::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_scenario(path: &str) -> Result<(MappingScenario, Instance), String> {
    let program = load_program(path)?;
    let mut inline = Instance::new();
    for f in &program.facts {
        inline
            .insert_fact(f.clone())
            .map_err(|e| format!("{path}: inline facts: {e}"))?;
    }
    let scenario = MappingScenario::from_program(&program).map_err(|e| format!("{path}: {e}"))?;
    Ok((scenario, inline))
}

/// Render a data error against the file it came from: a `file:line:`
/// prefix when the error carries line context (so terminals make it
/// clickable), and the offending relation named in the message either way.
fn describe_data_error(path: &str, e: &grom::data::GromError) -> String {
    match e.line() {
        // Syntax errors embed their own `line N:` prefix; print just the
        // message so the line appears once, in the clickable position.
        Some(line) => match e.unwrap_context() {
            grom::data::GromError::Syntax { message, .. } => format!("{path}:{line}: {message}"),
            inner => format!("{path}:{line}: {inner}"),
        },
        None => format!("{path}: {e}"),
    }
}

fn load_facts(path: &str) -> Result<Instance, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    grom::data::read_instance(&text).map_err(|e| describe_data_error(path, &e))
}

/// Resolve the trace destination: the `--trace` flag wins, then the
/// `GROM_TRACE` environment variable; neither yields the no-op handle.
fn open_trace(flag: Option<&str>) -> Result<TraceHandle, String> {
    let path = flag
        .map(str::to_string)
        .or_else(|| std::env::var("GROM_TRACE").ok());
    match path.as_deref() {
        Some(p) if !p.is_empty() => {
            let sink = grom::trace::JsonlSink::create(std::path::Path::new(p))
                .map_err(|e| format!("cannot create trace file `{p}`: {e}"))?;
            Ok(TraceHandle::new(std::sync::Arc::new(sink)))
        }
        _ => Ok(TraceHandle::none()),
    }
}

fn cmd_rewrite(path: &str) -> ExitCode {
    let (scenario, _) = match load_scenario(path) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let out = match scenario.rewrite(&RewriteOptions::default()) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    for dep in &out.deps {
        println!("[{}] {}", dep.class(), dep);
    }
    if !out.warnings.is_empty() {
        eprintln!("\nwarnings (sound strengthenings):");
        for w in &out.warnings {
            eprintln!("  {w}");
        }
    }
    for (name, causes) in &out.ded_causes {
        let causes: Vec<String> = causes.iter().map(|c| c.to_string()).collect();
        eprintln!("ded `{name}` caused by: {}", causes.join(", "));
    }
    ExitCode::SUCCESS
}

fn cmd_analyze(path: &str) -> ExitCode {
    let (scenario, _) = match load_scenario(path) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let deps = scenario.all_dependencies();
    match analyze(&scenario.target_views, deps, &RewriteOptions::default()) {
        Ok((report, _)) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

/// Hook SIGINT to a [`CancelToken`]: the first Ctrl-C requests a graceful,
/// sweep-aligned interruption (the handler only flips an atomic, which is
/// async-signal-safe). Installing twice is a no-op.
#[cfg(unix)]
fn install_ctrl_c(token: &CancelToken) {
    use std::sync::OnceLock;
    static CTRL_C_TOKEN: OnceLock<CancelToken> = OnceLock::new();
    extern "C" fn on_sigint(_sig: i32) {
        if let Some(t) = CTRL_C_TOKEN.get() {
            t.cancel();
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    if CTRL_C_TOKEN.set(token.clone()).is_ok() {
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
fn install_ctrl_c(_token: &CancelToken) {}

/// Report an interrupted chase: partial statistics always, a checkpoint
/// file when the caller asked for one. Exit code 3 distinguishes "stopped
/// resumable" from hard failures.
fn report_interrupted(
    i: &grom::chase::Interrupted,
    checkpoint_path: Option<&str>,
    quiet: bool,
) -> ExitCode {
    eprintln!(
        "chase interrupted ({}) after {} rounds; instance so far has {} tuples",
        i.reason,
        i.profile.rounds,
        i.instance.len()
    );
    if !quiet {
        eprintln!("chase: {}", ChaseStats::from(&i.profile));
    }
    match checkpoint_path {
        Some(p) => {
            if let Err(e) = std::fs::write(p, i.checkpoint.to_json()) {
                return fail(format!("cannot write checkpoint `{p}`: {e}"));
            }
            eprintln!(
                "checkpoint written to `{p}`; continue with `grom run <scenario> --resume {p}`"
            );
        }
        None => eprintln!("hint: pass `--checkpoint <file>` to save a resumable checkpoint"),
    }
    ExitCode::from(3)
}

/// Print an instance to stdout: rendered once, written once. (`print!`
/// would stream `Display` through the line-buffered handle — one `write(2)`
/// per fact.)
fn print_instance(inst: &Instance) -> Result<(), String> {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    out.write_all(inst.to_string().as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write to stdout: {e}"))
}

fn cmd_run(path: &str, rest: &[String]) -> ExitCode {
    let mut data_file: Option<&str> = None;
    let mut core = false;
    let mut no_validate = false;
    let mut quiet = false;
    let mut threads: Option<usize> = None;
    let mut trace_path: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut max_tuples: Option<usize> = None;
    let mut checkpoint_path: Option<String> = None;
    let mut resume_path: Option<String> = None;
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--core" => core = true,
            "--no-validate" => no_validate = true,
            "--quiet" => quiet = true,
            "--threads" => {
                threads = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => Some(n),
                    None => return fail("--threads requires a positive integer"),
                };
            }
            "--trace" => {
                trace_path = match args.next() {
                    Some(p) => Some(p.clone()),
                    None => return fail("--trace requires a file path"),
                };
            }
            "--deadline-ms" => {
                deadline_ms = match args.next().and_then(|v| v.parse().ok()) {
                    Some(ms) => Some(ms),
                    None => return fail("--deadline-ms requires a millisecond count"),
                };
            }
            "--max-tuples" => {
                max_tuples = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => Some(n),
                    None => return fail("--max-tuples requires a positive integer"),
                };
            }
            "--checkpoint" => {
                checkpoint_path = match args.next() {
                    Some(p) => Some(p.clone()),
                    None => return fail("--checkpoint requires a file path"),
                };
            }
            "--resume" => {
                resume_path = match args.next() {
                    Some(p) => Some(p.clone()),
                    None => return fail("--resume requires a checkpoint file"),
                };
            }
            flag if flag.starts_with("--") => {
                return fail(format!("unknown flag `{flag}`"));
            }
            file => data_file = Some(file),
        }
    }

    let (scenario, mut source) = match load_scenario(path) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    if let Some(f) = data_file {
        match load_facts(f) {
            Ok(extra) => {
                if let Err(e) = source.absorb(&extra) {
                    return fail(describe_data_error(f, &e));
                }
            }
            Err(e) => return fail(e),
        }
    }

    let trace = match open_trace(trace_path.as_deref()) {
        Ok(t) => t,
        Err(e) => return fail(e),
    };
    let mut budget = Budget::none();
    if let Some(ms) = deadline_ms {
        budget = budget.with_deadline_ms(ms);
    }
    if let Some(n) = max_tuples {
        budget = budget.with_max_tuples(n);
    }
    let cancel = CancelToken::new();
    install_ctrl_c(&cancel);
    let mut chase = ChaseConfig::default()
        .with_trace(trace)
        .with_budget(budget)
        .with_cancel(cancel);
    if let Some(n) = threads {
        chase = chase.with_scheduler(SchedulerMode::with_threads(n));
    }
    let options = PipelineOptions {
        chase,
        skip_validation: no_validate,
        core_minimize: core,
        ..Default::default()
    };

    let outcome = match resume_path {
        None => scenario.run(&source, &options),
        Some(_) if data_file.is_some() => {
            return fail("--resume continues from a checkpoint; do not also pass a data file");
        }
        Some(rp) => {
            let text = match std::fs::read_to_string(&rp) {
                Ok(t) => t,
                Err(e) => return fail(format!("cannot read checkpoint `{rp}`: {e}")),
            };
            match Checkpoint::from_json(&text) {
                Ok(checkpoint) => scenario.resume(&checkpoint, &options),
                Err(e) => return fail(format!("{rp}: {e}")),
            }
        }
    };
    match outcome {
        Ok(result) => {
            if let Err(e) = print_instance(&result.target) {
                return fail(e);
            }
            if !quiet {
                eprintln!("chase: {}", result.chase_stats);
                eprintln!("termination: {}", result.wa_report);
                if let Some(cs) = &result.core_stats {
                    eprintln!(
                        "core: folded {} nulls, removed {} tuples",
                        cs.nulls_folded, cs.tuples_removed
                    );
                }
                if let Some(v) = &result.validation {
                    eprintln!("{v}");
                }
            }
            if result.validation.map(|v| !v.ok).unwrap_or(false) {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(PipelineError::Chase(ChaseError::Interrupted(i))) => {
            report_interrupted(&i, checkpoint_path.as_deref(), quiet)
        }
        Err(e) => fail(e),
    }
}

fn cmd_validate(scenario_path: &str, source_path: &str, target_path: &str) -> ExitCode {
    let (scenario, inline) = match load_scenario(scenario_path) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let mut source = inline;
    match load_facts(source_path) {
        Ok(s) => {
            if let Err(e) = source.absorb(&s) {
                return fail(describe_data_error(source_path, &e));
            }
        }
        Err(e) => return fail(e),
    }
    let target = match load_facts(target_path) {
        Ok(t) => t,
        Err(e) => return fail(e),
    };
    match validate_solution(&scenario, &source, &target) {
        Ok(report) => {
            println!("{report}");
            if report.ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => fail(e),
    }
}

// -------------------------------------------------------------- explain --

mod explain_cli {
    use super::{fail, load_facts, load_scenario, open_trace};
    use grom::chase::{chase_standard, render_report, ChaseConfig, ReportOptions};
    use grom::prelude::*;
    use grom::scenarios::{chase_mode, list_entries, read_entry};
    use std::path::{Path, PathBuf};
    use std::process::ExitCode;
    use std::time::Instant;

    fn report(profile: &ChaseProfile, top: usize) -> Result<(), String> {
        print!("{}", render_report(profile, &ReportOptions { top }));
        println!("chase: {}", ChaseStats::from(profile));
        Ok(())
    }

    /// The default config plus the entry's committed derived-tuple budget,
    /// if any — without it the `expect: interrupted` entries never
    /// terminate under an unbudgeted chase.
    fn entry_config(entry: &grom::scenarios::CorpusEntry) -> ChaseConfig {
        let mut cfg = ChaseConfig::default();
        if let Some(n) = entry.max_tuples {
            cfg = cfg.with_budget(Budget::none().with_max_tuples(n as usize));
        }
        cfg
    }

    /// Chase one corpus entry under `mode` with tracing on and print its
    /// dominance report.
    fn explain_entry(
        dir: &Path,
        mode: SchedulerMode,
        top: usize,
        trace: &TraceHandle,
    ) -> Result<(), String> {
        let entry = read_entry(dir).map_err(|e| e.to_string())?;
        let (deps, inst) = entry.parts().map_err(|e| e.to_string())?;
        let cfg = entry_config(&entry)
            .with_scheduler(mode)
            .with_trace(trace.clone());
        println!("== {} ==", entry.name);
        match chase_standard(inst, &deps, &cfg) {
            Ok(res) => report(&res.profile, top),
            // Budgeted (non-terminating) entries still profile their prefix.
            Err(ChaseError::Interrupted(i)) => {
                println!("(interrupted by budget: {}; partial profile)", i.reason);
                report(&i.profile, top)
            }
            Err(e) => Err(format!("entry `{}`: {e}", entry.name)),
        }
    }

    /// Rank a corpus root's entries by an untraced delta-mode chase and
    /// keep the `n` slowest — the ones worth a full explain.
    fn slowest_entries(root: &Path, n: usize) -> Result<Vec<PathBuf>, String> {
        let dirs = list_entries(root).map_err(|e| e.to_string())?;
        if dirs.is_empty() {
            return Err(format!("no corpus entries under `{}`", root.display()));
        }
        let mut timed = Vec::new();
        for dir in dirs {
            let entry = read_entry(&dir).map_err(|e| e.to_string())?;
            let (deps, inst) = entry.parts().map_err(|e| e.to_string())?;
            let cfg = entry_config(&entry);
            let t0 = Instant::now();
            // Failing entries still cost wall time; rank them like the rest.
            let _ = chase_mode(&deps, inst, SchedulerMode::Delta, &cfg);
            timed.push((t0.elapsed(), dir));
        }
        timed.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        timed.truncate(n.max(1));
        Ok(timed.into_iter().map(|(_, d)| d).collect())
    }

    /// Explain a full `.grom` scenario: run the pipeline (validation
    /// skipped — this is a chase diagnosis, not a soundness check) and
    /// report on its chase profile.
    fn explain_program(
        path: &str,
        data_file: Option<&str>,
        threads: Option<usize>,
        top: usize,
        trace: &TraceHandle,
    ) -> Result<(), String> {
        let (scenario, mut source) = load_scenario(path)?;
        if let Some(f) = data_file {
            let extra = load_facts(f)?;
            source.absorb(&extra).map_err(|e| e.to_string())?;
        }
        let mut chase = ChaseConfig::default().with_trace(trace.clone());
        if let Some(n) = threads {
            chase = chase.with_scheduler(SchedulerMode::with_threads(n));
        }
        let options = PipelineOptions {
            chase,
            skip_validation: true,
            ..Default::default()
        };
        let result = scenario.run(&source, &options).map_err(|e| e.to_string())?;
        report(&result.chase_profile, top)
    }

    pub fn cmd_explain(path: &str, rest: &[String]) -> ExitCode {
        let mut threads: Option<usize> = None;
        let mut top = 10usize;
        let mut slowest = 2usize;
        let mut trace_path: Option<String> = None;
        let mut data_file: Option<&str> = None;
        let mut args = rest.iter();
        while let Some(arg) = args.next() {
            let mut number = |flag: &str| -> Result<usize, ExitCode> {
                args.next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| fail(format!("{flag} requires a positive integer")))
            };
            match arg.as_str() {
                "--threads" => match number("--threads") {
                    Ok(n) => threads = Some(n),
                    Err(code) => return code,
                },
                "--top" => match number("--top") {
                    Ok(n) => top = n,
                    Err(code) => return code,
                },
                "--slowest" => match number("--slowest") {
                    Ok(n) => slowest = n,
                    Err(code) => return code,
                },
                "--trace" => {
                    trace_path = match args.next() {
                        Some(p) => Some(p.clone()),
                        None => return fail("--trace requires a file path"),
                    };
                }
                flag if flag.starts_with("--") => {
                    return fail(format!("unknown flag `{flag}`"));
                }
                file => data_file = Some(file),
            }
        }
        let trace = match open_trace(trace_path.as_deref()) {
            Ok(t) => t,
            Err(e) => return fail(e),
        };
        let mode = match threads {
            Some(n) => SchedulerMode::with_threads(n),
            None => SchedulerMode::Delta,
        };

        let target = Path::new(path);
        let outcome = if target.is_dir() {
            if target.join(grom::scenarios::corpus::PROGRAM_FILE).is_file() {
                explain_entry(target, mode, top, &trace)
            } else {
                // A corpus root: time everything cheaply, then explain the
                // slowest entries with tracing on.
                slowest_entries(target, slowest).and_then(|dirs| {
                    dirs.iter()
                        .try_for_each(|dir| explain_entry(dir, mode, top, &trace))
                })
            }
        } else {
            explain_program(path, data_file, threads, top, &trace)
        };
        match outcome {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(e),
        }
    }
}

// --------------------------------------------------------------- corpus --

mod corpus_cli {
    use super::fail;
    use grom::chase::ChaseConfig;
    use grom::scenarios::{
        all_modes, fuzz, list_entries, read_entry, verify_entry, write_entry, CorpusEntry,
        EntryReport, ScenarioSpec,
    };
    use std::path::{Path, PathBuf};
    use std::process::ExitCode;

    /// Flags shared by the corpus subcommands: `--key value` pairs plus
    /// positional entry names.
    struct Flags {
        dir: PathBuf,
        names: Vec<String>,
        spec: Option<String>,
        name: Option<String>,
        summary_md: Option<PathBuf>,
        budget: usize,
        seed: u64,
        max_scale: usize,
        deadline_ms: u64,
        out: Option<PathBuf>,
        force: bool,
    }

    fn parse_flags(rest: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            dir: PathBuf::from("corpus"),
            names: Vec::new(),
            spec: None,
            name: None,
            summary_md: None,
            budget: 64,
            seed: 1,
            max_scale: 2,
            deadline_ms: 5000,
            out: None,
            force: false,
        };
        let mut args = rest.iter();
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| {
                args.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match arg.as_str() {
                "--dir" => flags.dir = PathBuf::from(value("--dir")?),
                "--spec" => flags.spec = Some(value("--spec")?),
                "--name" => flags.name = Some(value("--name")?),
                "--summary-md" => flags.summary_md = Some(PathBuf::from(value("--summary-md")?)),
                "--budget" => {
                    flags.budget = value("--budget")?
                        .parse()
                        .map_err(|_| "--budget requires an integer".to_string())?
                }
                "--seed" => {
                    flags.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed requires an integer".to_string())?
                }
                "--max-scale" => {
                    flags.max_scale = value("--max-scale")?
                        .parse()
                        .map_err(|_| "--max-scale requires a positive integer".to_string())?
                }
                "--deadline-ms" => {
                    flags.deadline_ms = value("--deadline-ms")?
                        .parse()
                        .map_err(|_| "--deadline-ms requires a millisecond count".to_string())?
                }
                "--out" => flags.out = Some(PathBuf::from(value("--out")?)),
                "--force" => flags.force = true,
                flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
                name => flags.names.push(name.to_string()),
            }
        }
        Ok(flags)
    }

    /// Resolve the entries to operate on: explicit names, or all of them.
    fn select_entries(dir: &Path, names: &[String]) -> Result<Vec<CorpusEntry>, String> {
        let paths: Vec<PathBuf> = if names.is_empty() {
            list_entries(dir).map_err(|e| e.to_string())?
        } else {
            names.iter().map(|n| dir.join(n)).collect()
        };
        if paths.is_empty() {
            return Err(format!("no corpus entries under `{}`", dir.display()));
        }
        paths
            .iter()
            .map(|p| read_entry(p).map_err(|e| e.to_string()))
            .collect()
    }

    fn cmd_gen(flags: Flags) -> ExitCode {
        let (Some(name), Some(spec_line)) = (&flags.name, &flags.spec) else {
            return fail("corpus gen needs --name and --spec");
        };
        let spec = match ScenarioSpec::parse(spec_line) {
            Ok(s) => s,
            Err(e) => return fail(e),
        };
        if flags.dir.join(name).exists() && !flags.force {
            return fail(format!(
                "entry `{name}` already exists (use --force to overwrite)"
            ));
        }
        let mut entry = CorpusEntry::from_spec(name.clone(), &spec);
        if let Err(e) = entry.record(&ChaseConfig::default()) {
            return fail(e);
        }
        match write_entry(&flags.dir, &entry) {
            Ok(path) => {
                println!(
                    "wrote {} ({} expected lines)",
                    path.display(),
                    entry.expected.as_deref().map_or(0, |e| e.lines().count())
                );
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        }
    }

    fn cmd_record(flags: Flags) -> ExitCode {
        let entries = match select_entries(&flags.dir, &flags.names) {
            Ok(e) => e,
            Err(e) => return fail(e),
        };
        let cfg = ChaseConfig::default();
        for mut entry in entries {
            if let Err(e) = entry.record(&cfg) {
                return fail(e);
            }
            match write_entry(&flags.dir, &entry) {
                Ok(path) => println!("recorded {}", path.display()),
                Err(e) => return fail(e),
            }
        }
        ExitCode::SUCCESS
    }

    fn render_summary_md(reports: &[EntryReport]) -> String {
        let modes: Vec<&str> = all_modes().iter().map(|(n, _)| *n).collect();
        let mut out = String::from("### Corpus conformance\n\n");
        out.push_str(&format!("| entry | regen | {} |\n", modes.join(" | ")));
        out.push_str(&format!("|---|---|{}\n", "---|".repeat(modes.len())));
        for r in reports {
            let regen = match r.regen_ok {
                Some(true) => "ok",
                Some(false) => "MISMATCH",
                None => "n/a",
            };
            let cells: Vec<String> = r
                .modes
                .iter()
                .map(|m| {
                    if m.ok {
                        format!("{:.1} ms", m.wall_ms)
                    } else {
                        "FAIL".to_string()
                    }
                })
                .collect();
            out.push_str(&format!(
                "| {} | {} | {} |\n",
                r.name,
                regen,
                cells.join(" | ")
            ));
        }
        out.push_str("\n**Per-mode totals:** ");
        let totals: Vec<String> = modes
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let total: f64 = reports.iter().map(|r| r.modes[i].wall_ms).sum();
                format!("{name} {total:.1} ms")
            })
            .collect();
        out.push_str(&totals.join(", "));
        out.push('\n');
        out
    }

    fn cmd_verify(flags: Flags) -> ExitCode {
        let entries = match select_entries(&flags.dir, &flags.names) {
            Ok(e) => e,
            Err(e) => return fail(e),
        };
        let cfg = ChaseConfig::default();
        let modes = all_modes();
        let mut reports = Vec::new();
        let mut failures = 0usize;
        let mut total_wall_ms = 0.0f64;
        for entry in &entries {
            let report = match verify_entry(entry, &modes, &cfg) {
                Ok(r) => r,
                Err(e) => return fail(e),
            };
            let status = if report.ok() { "ok" } else { "FAIL" };
            let entry_wall: f64 = report.modes.iter().map(|m| m.wall_ms).sum();
            total_wall_ms += entry_wall;
            let timing: Vec<String> = report
                .modes
                .iter()
                .map(|m| format!("{}={:.1}ms", m.mode, m.wall_ms))
                .collect();
            println!(
                "{:<28} {:<4} {:>7.1}ms  {}",
                report.name,
                status,
                entry_wall,
                timing.join(" ")
            );
            if report.regen_ok == Some(false) {
                println!("    regeneration from spec is not byte-identical");
            }
            for m in report.modes.iter().filter(|m| !m.ok) {
                println!(
                    "    {}: {}",
                    m.mode,
                    m.detail.as_deref().unwrap_or("failed")
                );
            }
            if !report.ok() {
                failures += 1;
            }
            reports.push(report);
        }
        let md = render_summary_md(&reports);
        if let Some(path) = &flags.summary_md {
            if let Err(e) = std::fs::write(path, &md) {
                return fail(format!("cannot write `{}`: {e}", path.display()));
            }
        }
        println!(
            "{} entries verified, {} failing, {} modes each, {:.1}ms total wall",
            reports.len(),
            failures,
            modes.len(),
            total_wall_ms
        );
        if failures > 0 {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }

    fn cmd_fuzz(flags: Flags) -> ExitCode {
        let out_dir = flags
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from("fuzz-findings"));
        let cfg = ChaseConfig::default();
        println!(
            "fuzzing {} scenarios (seed {}, max scale {}) -> {}",
            flags.budget,
            flags.seed,
            flags.max_scale,
            out_dir.display()
        );
        let deadline = if flags.deadline_ms == 0 {
            None
        } else {
            Some(flags.deadline_ms)
        };
        let outcome = match fuzz(
            flags.budget,
            flags.seed,
            flags.max_scale,
            deadline,
            &out_dir,
            &cfg,
            |i, spec| {
                if i % 16 == 0 {
                    println!("  [{i}] {spec}");
                }
            },
        ) {
            Ok(o) => o,
            Err(e) => return fail(e),
        };
        println!(
            "tried {} scenarios, {} divergences ({} deadline exhaustions)",
            outcome.tried,
            outcome.findings.len(),
            outcome.timed_out
        );
        for f in &outcome.findings {
            println!(
                "  {}: {} (from {} deps/{} tuples to {} deps/{} tuples)\n    spec: {}",
                f.entry_dir.display(),
                f.detail,
                f.before.0,
                f.before.1,
                f.after.0,
                f.after.1,
                f.spec
            );
        }
        if outcome.findings.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }

    fn cmd_list(flags: Flags) -> ExitCode {
        let entries = match select_entries(&flags.dir, &flags.names) {
            Ok(e) => e,
            Err(e) => return fail(e),
        };
        for entry in &entries {
            let origin = match &entry.provenance {
                grom::scenarios::Provenance::Generated(spec) => format!("spec: {spec}"),
                grom::scenarios::Provenance::Minimized { origin } => {
                    format!("minimized-from: {origin}")
                }
                grom::scenarios::Provenance::Handwritten { note } => {
                    format!("handwritten: {note}")
                }
            };
            println!("{:<28} {}", entry.name, origin);
        }
        ExitCode::SUCCESS
    }

    pub fn cmd_corpus(rest: &[String]) -> Option<ExitCode> {
        let (sub, rest) = rest.split_first()?;
        let flags = match parse_flags(rest) {
            Ok(f) => f,
            Err(e) => return Some(fail(e)),
        };
        match sub.as_str() {
            "gen" => Some(cmd_gen(flags)),
            "record" => Some(cmd_record(flags)),
            "verify" => Some(cmd_verify(flags)),
            "fuzz" => Some(cmd_fuzz(flags)),
            "list" => Some(cmd_list(flags)),
            _ => None,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => match (cmd.as_str(), rest) {
            ("rewrite", [path]) => cmd_rewrite(path),
            ("analyze", [path]) => cmd_analyze(path),
            ("run", [path, rest @ ..]) => cmd_run(path, rest),
            ("explain", [path, rest @ ..]) => explain_cli::cmd_explain(path, rest),
            ("validate", [sc, src, tgt]) => cmd_validate(sc, src, tgt),
            ("corpus", rest) => corpus_cli::cmd_corpus(rest).unwrap_or_else(usage),
            _ => usage(),
        },
        None => usage(),
    }
}
