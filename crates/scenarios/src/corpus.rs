//! The conformance corpus: persisted scenarios with expected canonical
//! chase results, verified across every scheduler mode.
//!
//! One entry is a directory holding four files:
//!
//! ```text
//! corpus/<name>/
//!   spec.gen        # provenance: `spec: <line>` (regenerable) or
//!                   # `minimized-from: <text>` (shrunk fuzz finding)
//!   scenario.grom   # the dependency program (schemas + tgds/egds)
//!   source.facts    # the source instance, fact per line
//!   expected.txt    # canonical_render of the FullRescan chase result
//! ```
//!
//! `verify` re-chases an entry under `FullRescan`, `Delta`, `Parallel{2}`
//! and `Parallel{4}` and compares each canonical rendering against
//! `expected.txt`; for spec-born entries it additionally regenerates the
//! scenario from the recorded spec line and demands byte identity — the
//! determinism gate of the generator.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use grom_chase::{chase_standard, Budget, ChaseConfig, ChaseError, SchedulerMode};
use grom_data::{canonical_render, Instance};
use grom_lang::Dependency;

use crate::gen::{generate, parse_scenario_texts, random_spec};
use crate::minimize::minimize;
use crate::spec::ScenarioSpec;

pub const SPEC_FILE: &str = "spec.gen";
pub const PROGRAM_FILE: &str = "scenario.grom";
pub const SOURCE_FILE: &str = "source.facts";
pub const EXPECTED_FILE: &str = "expected.txt";

/// The scheduler modes every corpus entry must agree under, with the
/// stable names CI reports use.
pub fn all_modes() -> [(&'static str, SchedulerMode); 4] {
    [
        ("full_rescan", SchedulerMode::FullRescan),
        ("delta", SchedulerMode::Delta),
        ("parallel2", SchedulerMode::Parallel { threads: 2 }),
        ("parallel4", SchedulerMode::Parallel { threads: 4 }),
    ]
}

/// Where an entry came from.
#[derive(Debug, Clone, PartialEq)]
pub enum Provenance {
    /// Regenerable from a spec line; verification enforces byte identity.
    Generated(ScenarioSpec),
    /// A minimized fuzz finding (or hand-written regression); the origin
    /// text records the spec that originally exposed it.
    Minimized { origin: String },
    /// Written by hand (e.g. the non-weakly-acyclic resilience entries);
    /// the note says why it exists. No regeneration check applies.
    Handwritten { note: String },
}

/// One corpus entry, fully in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    pub name: String,
    pub provenance: Provenance,
    pub program: String,
    pub source: String,
    /// `None` until recorded (freshly generated entries).
    pub expected: Option<String>,
    /// `Some(class)` turns verification inside out: every mode must *fail*
    /// in this [`error_class`] (e.g. `interrupted` for non-terminating
    /// entries chased under a budget) instead of matching `expected.txt`.
    pub expect: Option<String>,
    /// Derived-tuple budget applied when chasing this entry; what makes
    /// `expect: interrupted` entries deterministic across machines.
    pub max_tuples: Option<u64>,
}

/// Corpus-layer failures.
#[derive(Debug)]
pub enum CorpusError {
    Io {
        path: PathBuf,
        error: std::io::Error,
    },
    Malformed {
        path: PathBuf,
        detail: String,
    },
    Parse {
        name: String,
        detail: String,
    },
    Chase {
        name: String,
        detail: String,
    },
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            CorpusError::Malformed { path, detail } => {
                write!(f, "{}: {detail}", path.display())
            }
            CorpusError::Parse { name, detail } => write!(f, "entry `{name}`: {detail}"),
            CorpusError::Chase { name, detail } => {
                write!(f, "entry `{name}`: reference chase failed: {detail}")
            }
        }
    }
}

impl std::error::Error for CorpusError {}

fn io_err(path: &Path, error: std::io::Error) -> CorpusError {
    CorpusError::Io {
        path: path.to_path_buf(),
        error,
    }
}

impl CorpusEntry {
    /// Build a fresh (unrecorded) entry from a spec.
    pub fn from_spec(name: impl Into<String>, spec: &ScenarioSpec) -> CorpusEntry {
        let g = generate(spec);
        CorpusEntry {
            name: name.into(),
            provenance: Provenance::Generated(spec.clone()),
            program: g.program,
            source: g.source,
            expected: None,
            expect: None,
            max_tuples: None,
        }
    }

    /// Parse the entry's texts into chase inputs.
    pub fn parts(&self) -> Result<(Vec<Dependency>, Instance), CorpusError> {
        parse_scenario_texts(&self.program, &self.source).map_err(|detail| CorpusError::Parse {
            name: self.name.clone(),
            detail,
        })
    }

    /// Chase under the reference mode and store the canonical rendering as
    /// the expected result.
    pub fn record(&mut self, cfg: &ChaseConfig) -> Result<&str, CorpusError> {
        let (deps, inst) = self.parts()?;
        let rendered = chase_mode(&deps, inst, SchedulerMode::FullRescan, cfg).map_err(|e| {
            CorpusError::Chase {
                name: self.name.clone(),
                detail: e,
            }
        })?;
        self.expected = Some(rendered);
        Ok(self.expected.as_deref().expect("just set"))
    }
}

/// Chase `deps` over `inst` under one mode and canonically render the
/// result. Errors are rendered as a stable `chase error: <class>` line so
/// failing scenarios can still be compared across modes.
pub fn chase_mode(
    deps: &[Dependency],
    inst: Instance,
    mode: SchedulerMode,
    cfg: &ChaseConfig,
) -> Result<String, String> {
    let cfg = cfg.clone().with_scheduler(mode);
    match chase_standard(inst, deps, &cfg) {
        Ok(res) => Ok(canonical_render(&res.instance)),
        Err(e) => Err(error_class(&e).to_string()),
    }
}

/// Stable error classification: two modes "agree" on a failing scenario
/// when they fail in the same class (the precise dependency/round may
/// legitimately differ between schedulers).
pub fn error_class(e: &ChaseError) -> &'static str {
    match e {
        ChaseError::Failure { .. } => "failure",
        ChaseError::RoundLimit { .. } => "round-limit",
        ChaseError::GreedyExhausted { .. } => "greedy-exhausted",
        ChaseError::NodeLimit { .. } => "node-limit",
        ChaseError::NoSolution { .. } => "no-solution",
        ChaseError::NotExecutable { .. } => "not-executable",
        ChaseError::Data(_) => "data-error",
        ChaseError::Interrupted(_) => "interrupted",
        ChaseError::WorkerPanicked { .. } => "worker-panicked",
    }
}

// ------------------------------------------------------------------ disk --

/// Write an entry to `<dir>/<name>/`, creating directories as needed.
/// Returns the entry directory.
pub fn write_entry(dir: &Path, entry: &CorpusEntry) -> Result<PathBuf, CorpusError> {
    let path = dir.join(&entry.name);
    fs::create_dir_all(&path).map_err(|e| io_err(&path, e))?;
    let mut spec_text = match &entry.provenance {
        Provenance::Generated(spec) => format!(
            "# regenerate: grom corpus gen --name {} --spec \"{spec}\"\nspec: {spec}\n",
            entry.name
        ),
        Provenance::Minimized { origin } => format!(
            "# minimized fuzz finding; not regenerable from a spec.\nminimized-from: {origin}\n"
        ),
        Provenance::Handwritten { note } => {
            format!("# hand-written entry; not regenerable from a spec.\nhandwritten: {note}\n")
        }
    };
    if let Some(n) = entry.max_tuples {
        spec_text.push_str(&format!("max-tuples: {n}\n"));
    }
    if let Some(class) = &entry.expect {
        spec_text.push_str(&format!("expect: {class}\n"));
    }
    let writes: [(&str, &str); 3] = [
        (SPEC_FILE, &spec_text),
        (PROGRAM_FILE, &entry.program),
        (SOURCE_FILE, &entry.source),
    ];
    for (file, text) in writes {
        let p = path.join(file);
        fs::write(&p, text).map_err(|e| io_err(&p, e))?;
    }
    if let Some(expected) = &entry.expected {
        let p = path.join(EXPECTED_FILE);
        // canonical_render output has no trailing newline; keep the file
        // POSIX-friendly and strip it back on read.
        fs::write(&p, format!("{expected}\n")).map_err(|e| io_err(&p, e))?;
    }
    Ok(path)
}

/// Read one entry from its directory.
pub fn read_entry(path: &Path) -> Result<CorpusEntry, CorpusError> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| CorpusError::Malformed {
            path: path.to_path_buf(),
            detail: "entry directory has no utf-8 name".into(),
        })?
        .to_string();
    let read = |file: &str| -> Result<String, CorpusError> {
        let p = path.join(file);
        fs::read_to_string(&p).map_err(|e| io_err(&p, e))
    };
    let spec_text = read(SPEC_FILE)?;
    let mut provenance = None;
    let mut expect = None;
    let mut max_tuples = None;
    for line in spec_text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("spec:") {
            let spec = ScenarioSpec::parse(rest.trim()).map_err(|e| CorpusError::Malformed {
                path: path.join(SPEC_FILE),
                detail: e.to_string(),
            })?;
            provenance.get_or_insert(Provenance::Generated(spec));
        } else if let Some(rest) = line.strip_prefix("minimized-from:") {
            provenance.get_or_insert(Provenance::Minimized {
                origin: rest.trim().to_string(),
            });
        } else if let Some(rest) = line.strip_prefix("handwritten:") {
            provenance.get_or_insert(Provenance::Handwritten {
                note: rest.trim().to_string(),
            });
        } else if let Some(rest) = line.strip_prefix("expect:") {
            expect = Some(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("max-tuples:") {
            max_tuples = Some(
                rest.trim()
                    .parse::<u64>()
                    .map_err(|e| CorpusError::Malformed {
                        path: path.join(SPEC_FILE),
                        detail: format!("bad max-tuples line: {e}"),
                    })?,
            );
        }
    }
    let provenance = provenance.ok_or_else(|| CorpusError::Malformed {
        path: path.join(SPEC_FILE),
        detail: "no `spec:`, `minimized-from:` or `handwritten:` line".into(),
    })?;
    let expected = match fs::read_to_string(path.join(EXPECTED_FILE)) {
        Ok(text) => Some(text.trim_end_matches('\n').to_string()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(io_err(&path.join(EXPECTED_FILE), e)),
    };
    Ok(CorpusEntry {
        name,
        provenance,
        program: read(PROGRAM_FILE)?,
        source: read(SOURCE_FILE)?,
        expected,
        expect,
        max_tuples,
    })
}

/// List the entry directories of a corpus root, sorted by name.
pub fn list_entries(dir: &Path) -> Result<Vec<PathBuf>, CorpusError> {
    let mut out = Vec::new();
    let iter = fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for item in iter {
        let item = item.map_err(|e| io_err(dir, e))?;
        let path = item.path();
        if path.is_dir() && path.join(SPEC_FILE).is_file() {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

// ----------------------------------------------------------- verification --

/// Outcome of chasing one entry under one scheduler mode.
#[derive(Debug, Clone)]
pub struct ModeRun {
    pub mode: &'static str,
    pub wall_ms: f64,
    pub ok: bool,
    /// Mismatch/error description when not ok.
    pub detail: Option<String>,
}

/// Full verification report for one entry.
#[derive(Debug, Clone)]
pub struct EntryReport {
    pub name: String,
    /// `Some(false)` when the entry's recorded spec no longer regenerates
    /// its committed texts byte for byte; `None` for minimized entries.
    pub regen_ok: Option<bool>,
    pub modes: Vec<ModeRun>,
}

impl EntryReport {
    pub fn ok(&self) -> bool {
        self.regen_ok != Some(false) && self.modes.iter().all(|m| m.ok)
    }
}

/// Verify one entry: determinism (for spec-born entries) plus conformance
/// of every requested mode against the committed expected rendering.
pub fn verify_entry(
    entry: &CorpusEntry,
    modes: &[(&'static str, SchedulerMode)],
    cfg: &ChaseConfig,
) -> Result<EntryReport, CorpusError> {
    let regen_ok = match &entry.provenance {
        Provenance::Generated(spec) => {
            let g = generate(spec);
            Some(g.program == entry.program && g.source == entry.source)
        }
        Provenance::Minimized { .. } | Provenance::Handwritten { .. } => None,
    };
    let mut cfg = cfg.clone();
    if let Some(n) = entry.max_tuples {
        cfg = cfg.with_budget(Budget::none().with_max_tuples(n as usize));
    }
    // `expect: <class>` entries (e.g. non-terminating programs chased
    // under a tuple budget) must *fail* in that class under every mode;
    // no expected.txt applies. Everything else compares renderings.
    let expected = match entry.expect.as_deref() {
        Some(_) => None,
        None => Some(
            entry
                .expected
                .as_deref()
                .ok_or_else(|| CorpusError::Parse {
                    name: entry.name.clone(),
                    detail: format!("no committed {EXPECTED_FILE}; run `grom corpus record` first"),
                })?,
        ),
    };
    let (deps, inst) = entry.parts()?;
    let mut runs = Vec::new();
    for &(mode_name, mode) in modes {
        let t0 = Instant::now();
        let outcome = chase_mode(&deps, inst.clone(), mode, &cfg);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (ok, detail) = match (entry.expect.as_deref(), outcome) {
            (Some(want), Err(class)) if class == want => (true, None),
            (Some(want), Err(class)) => (
                false,
                Some(format!(
                    "expected `{want}` failure, chase failed with `{class}`"
                )),
            ),
            (Some(want), Ok(_)) => (
                false,
                Some(format!("expected `{want}` failure, chase completed")),
            ),
            (None, Ok(rendered)) if Some(rendered.as_str()) == expected => (true, None),
            (None, Ok(rendered)) => (
                false,
                Some(format!(
                    "canonical render mismatch ({} vs {} expected lines)",
                    rendered.lines().count(),
                    expected.map_or(0, |e| e.lines().count())
                )),
            ),
            (None, Err(class)) => (false, Some(format!("chase error: {class}"))),
        };
        runs.push(ModeRun {
            mode: mode_name,
            wall_ms,
            ok,
            detail,
        });
    }
    Ok(EntryReport {
        name: entry.name.clone(),
        regen_ok,
        modes: runs,
    })
}

// ------------------------------------------------------------------ fuzz --

/// Check one scenario for cross-mode divergence: chase under every mode
/// and compare canonical renderings (and error classes) against the
/// `FullRescan` reference. Returns a human-readable description of the
/// first divergence, or `None` when all modes agree.
pub fn divergence(deps: &[Dependency], inst: &Instance, cfg: &ChaseConfig) -> Option<String> {
    let reference = chase_mode(deps, inst.clone(), SchedulerMode::FullRescan, cfg);
    for (mode_name, mode) in all_modes().into_iter().skip(1) {
        let got = chase_mode(deps, inst.clone(), mode, cfg);
        match (&reference, &got) {
            (Ok(a), Ok(b)) if a == b => {}
            (Err(a), Err(b)) if a == b => {}
            _ => {
                let show = |r: &Result<String, String>| match r {
                    Ok(s) => format!("ok ({} lines)", s.lines().count()),
                    Err(c) => format!("error `{c}`"),
                };
                return Some(format!(
                    "mode {mode_name} diverges from full_rescan: {} vs {}",
                    show(&got),
                    show(&reference)
                ));
            }
        }
    }
    None
}

/// One divergence found (and minimized) by [`fuzz`].
#[derive(Debug, Clone)]
pub struct FuzzFinding {
    /// Directory of the written minimized entry.
    pub entry_dir: PathBuf,
    /// Spec that first exposed the divergence.
    pub spec: ScenarioSpec,
    /// Divergence description from the *minimized* scenario.
    pub detail: String,
    /// Sizes before and after minimization: (deps, tuples).
    pub before: (usize, usize),
    pub after: (usize, usize),
}

/// Outcome of a fuzz campaign.
#[derive(Debug, Clone, Default)]
pub struct FuzzOutcome {
    pub tried: usize,
    pub findings: Vec<FuzzFinding>,
    /// How many of `findings` are deadline exhaustions rather than
    /// cross-mode divergences.
    pub timed_out: usize,
}

/// Run `budget` random scenarios through every scheduler mode; divergences
/// are greedily minimized and written to `out_dir` as ready-to-commit
/// corpus entries (provenance `minimized-from`). The expected file records
/// the minimized scenario's *reference* (FullRescan) rendering, so dropping
/// the entry into `corpus/` turns the divergence into a red conformance
/// test until the bug is fixed.
pub fn fuzz(
    budget: usize,
    seed: u64,
    max_scale: usize,
    deadline_ms: Option<u64>,
    out_dir: &Path,
    cfg: &ChaseConfig,
    mut progress: impl FnMut(usize, &ScenarioSpec),
) -> Result<FuzzOutcome, CorpusError> {
    // The deadline bounds every individual chase of the campaign: one
    // pathological (non-terminating or explosive) scenario can no longer
    // hang the whole run. Exhaustions surface as findings below.
    let cfg = match deadline_ms {
        Some(ms) => cfg.clone().with_budget(Budget::none().with_deadline_ms(ms)),
        None => cfg.clone(),
    };
    let cfg = &cfg;
    let mut outcome = FuzzOutcome::default();
    for i in 0..budget {
        let spec = random_spec(seed.wrapping_add(i as u64), max_scale);
        progress(i, &spec);
        let g = generate(&spec);
        let (deps, inst) = g.parts().map_err(|detail| CorpusError::Parse {
            name: format!("fuzz seed {}", spec.seed),
            detail,
        })?;
        outcome.tried += 1;

        // Chase every mode once; a deadline exhaustion in any mode is its
        // own finding (written un-minimized — the shrinker would re-chase
        // the runaway program thousands of times), not a divergence.
        let results: Vec<(&'static str, Result<String, String>)> = all_modes()
            .into_iter()
            .map(|(mode_name, mode)| (mode_name, chase_mode(&deps, inst.clone(), mode, cfg)))
            .collect();
        let timed: Vec<&str> = results
            .iter()
            .filter(|(_, r)| r.as_ref().err().map(String::as_str) == Some("interrupted"))
            .map(|(mode_name, _)| *mode_name)
            .collect();
        if !timed.is_empty() {
            let detail = format!(
                "deadline of {}ms exceeded under: {}",
                deadline_ms.unwrap_or(0),
                timed.join(", ")
            );
            let entry = CorpusEntry {
                name: format!("timeout_{:08x}_{i:04}", seed),
                provenance: Provenance::Handwritten {
                    note: format!("fuzz deadline exhaustion; originating spec: {spec}"),
                },
                program: g.program.clone(),
                source: g.source.clone(),
                expected: None,
                expect: Some("interrupted".into()),
                max_tuples: None,
            };
            let dir = write_entry(out_dir, &entry)?;
            let detail_path = dir.join("divergence.txt");
            fs::write(&detail_path, format!("{detail}\n")).map_err(|e| io_err(&detail_path, e))?;
            let size = (deps.len(), inst.len());
            outcome.timed_out += 1;
            outcome.findings.push(FuzzFinding {
                entry_dir: dir,
                spec,
                detail,
                before: size,
                after: size,
            });
            continue;
        }
        let diverged = {
            let reference = &results[0].1;
            results[1..].iter().any(|(_, got)| match (reference, got) {
                (Ok(a), Ok(b)) => a != b,
                (Err(a), Err(b)) => a != b,
                _ => true,
            })
        };
        if !diverged {
            continue;
        }
        let before = (deps.len(), inst.len());
        let report = minimize(deps, inst, 5_000, |d, i| divergence(d, i, cfg).is_some());
        let detail = divergence(&report.deps, &report.instance, cfg)
            .unwrap_or_else(|| "divergence lost during minimization".into());
        let mut entry = CorpusEntry {
            name: format!("min_{:08x}_{i:04}", seed),
            provenance: Provenance::Minimized {
                origin: spec.to_string(),
            },
            program: render_minimized_program(&report.deps, &spec),
            source: grom_data::write_instance(&report.instance),
            expected: None,
            expect: None,
            max_tuples: None,
        };
        // Record the reference rendering when the reference chase still
        // succeeds; a failing reference leaves expected absent (the entry
        // then documents the divergence via spec.gen + this detail).
        let _ = entry.record(cfg);
        let dir = write_entry(out_dir, &entry)?;
        let detail_path = dir.join("divergence.txt");
        fs::write(&detail_path, format!("{detail}\n")).map_err(|e| io_err(&detail_path, e))?;
        outcome.findings.push(FuzzFinding {
            entry_dir: dir,
            spec,
            detail,
            before,
            after: (report.deps.len(), report.instance.len()),
        });
    }
    Ok(outcome)
}

/// Render a minimized dependency set as a parseable scenario program.
/// Schema blocks are intentionally omitted: the chase needs only the
/// dependencies, and a minimized program should stay minimal to read.
fn render_minimized_program(deps: &[Dependency], origin: &ScenarioSpec) -> String {
    let mut out = String::new();
    out.push_str("# minimized by grom-scenarios from a fuzz divergence.\n");
    out.push_str(&format!("# originating spec: {origin}\n"));
    for d in deps {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Mix;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("grom_corpus_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec {
            mix: Mix {
                copy: 1,
                vpart: 1,
                er: 1,
                ..Default::default()
            },
            depth: 2,
            egd_density: 0.5,
            seed: 7,
            scale: 1,
        }
    }

    #[test]
    fn entry_round_trips_through_disk_and_verifies() {
        let dir = tmp_dir("roundtrip");
        let cfg = ChaseConfig::default();
        let mut entry = CorpusEntry::from_spec("rt_entry", &small_spec());
        entry.record(&cfg).expect("reference chase succeeds");
        let path = write_entry(&dir, &entry).unwrap();
        let back = read_entry(&path).unwrap();
        assert_eq!(back, entry);

        let report = verify_entry(&back, &all_modes(), &cfg).unwrap();
        assert!(report.ok(), "fresh entry verifies: {report:?}");
        assert_eq!(report.regen_ok, Some(true));
        assert_eq!(report.modes.len(), 4);

        assert_eq!(list_entries(&dir).unwrap(), vec![path]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_expected_fails_verification() {
        let cfg = ChaseConfig::default();
        let mut entry = CorpusEntry::from_spec("tampered", &small_spec());
        entry.record(&cfg).unwrap();
        entry.expected = Some(format!("{}\nGhost(0)", entry.expected.unwrap()));
        let report = verify_entry(&entry, &all_modes(), &cfg).unwrap();
        assert!(!report.ok());
        assert!(report.modes.iter().all(|m| !m.ok));
    }

    #[test]
    fn tampered_program_fails_the_determinism_gate() {
        let cfg = ChaseConfig::default();
        let mut entry = CorpusEntry::from_spec("regen", &small_spec());
        entry.record(&cfg).unwrap();
        entry.program.push_str("# sneaky edit\n");
        // Chase results are unchanged (a comment), but regeneration from
        // the spec no longer reproduces the committed bytes.
        entry.record(&cfg).unwrap();
        let report = verify_entry(&entry, &all_modes(), &cfg).unwrap();
        assert_eq!(report.regen_ok, Some(false));
        assert!(!report.ok());
    }

    #[test]
    fn generated_scenarios_conform_across_modes() {
        let cfg = ChaseConfig::default();
        for seed in 0..12u64 {
            let spec = random_spec(seed, 2);
            let g = generate(&spec);
            let (deps, inst) = g.parts().unwrap();
            assert_eq!(
                divergence(&deps, &inst, &cfg),
                None,
                "spec `{spec}` diverges"
            );
        }
    }

    #[test]
    fn expect_interrupted_entry_verifies_under_every_mode() {
        let dir = tmp_dir("expect");
        let cfg = ChaseConfig::default();
        // A self-feeding tgd: not weakly acyclic, never terminates. With a
        // tuple budget every mode must interrupt, and the entry says so.
        let entry = CorpusEntry {
            name: "nwa_probe".into(),
            provenance: Provenance::Handwritten {
                note: "self-feeding tgd, chase cannot terminate".into(),
            },
            program: "tgd m: R(x, y) -> R(y, z).\n".into(),
            source: "R(1, 2).\n".into(),
            expected: None,
            expect: Some("interrupted".into()),
            max_tuples: Some(50),
        };
        let path = write_entry(&dir, &entry).unwrap();
        let back = read_entry(&path).unwrap();
        assert_eq!(back, entry);

        let report = verify_entry(&back, &all_modes(), &cfg).unwrap();
        assert!(report.ok(), "expect-entry verifies: {report:?}");
        assert_eq!(report.regen_ok, None);

        // Without the budget the expectation cannot be met in bounded
        // time, so a round-limit class shows up as the wrong failure —
        // under every mode. The class is the same at 200 rounds as at the
        // default 10 000, which a debug build takes over a minute to reach.
        let mut unbudgeted = back.clone();
        unbudgeted.max_tuples = None;
        let capped = ChaseConfig::default().with_max_rounds(200);
        let report = verify_entry(&unbudgeted, &all_modes(), &capped).unwrap();
        assert_eq!(report.modes.len(), all_modes().len());
        for run in &report.modes {
            assert!(!run.ok, "round limit is not `interrupted`: {run:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fuzz_deadline_exhaustion_is_a_finding() {
        let dir = tmp_dir("fuzz_deadline");
        let cfg = ChaseConfig::default();
        // A 0ms deadline trips at the first sweep of every scenario, so
        // each try becomes a timeout finding rather than a hang.
        let outcome = fuzz(2, 99, 1, Some(0), &dir, &cfg, |_, _| {}).unwrap();
        assert_eq!(outcome.tried, 2);
        assert_eq!(outcome.timed_out, 2);
        assert_eq!(outcome.findings.len(), 2);
        for f in &outcome.findings {
            assert!(f.detail.contains("deadline"));
            let entry = read_entry(&f.entry_dir).unwrap();
            assert_eq!(entry.expect.as_deref(), Some("interrupted"));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fuzz_clean_run_finds_nothing() {
        let dir = tmp_dir("fuzz");
        let cfg = ChaseConfig::default();
        let outcome = fuzz(4, 99, 1, None, &dir, &cfg, |_, _| {}).unwrap();
        assert_eq!(outcome.tried, 4);
        assert!(outcome.findings.is_empty());
        assert_eq!(outcome.timed_out, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
