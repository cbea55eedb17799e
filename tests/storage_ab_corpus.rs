//! A/B gate for the interned storage path: on the full conformance corpus,
//! chasing with symbol interning on must render **byte-identically** to
//! chasing the plain string instance, under every scheduler mode — plus
//! determinism checks on the interner itself (same program + facts must
//! produce the same symbol ids, in every thread).

use std::path::PathBuf;

use grom::chase::{chase_standard, Budget, ChaseConfig, SchedulerMode};
use grom::data::{canonical_render, Instance, SymbolTable};
use grom::intern_dependencies;
use grom::lang::Dependency;
use grom::scenarios::{all_modes, chase_mode, error_class, list_entries, read_entry};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// [`chase_mode`]'s twin with the pipeline's interning choke point wired
/// in: intern the instance and the dependency constants through one
/// table, chase, un-intern, render.
fn chase_mode_interned(
    deps: &[Dependency],
    inst: &Instance,
    mode: SchedulerMode,
    cfg: &ChaseConfig,
) -> Result<String, String> {
    let mut table = SymbolTable::new();
    let interned = inst.intern_strings(&mut table);
    let ideps = intern_dependencies(deps, &mut table);
    let cfg = cfg.clone().with_scheduler(mode);
    match chase_standard(interned, &ideps, &cfg) {
        Ok(mut res) => {
            res.instance.unintern();
            Ok(canonical_render(&res.instance))
        }
        Err(e) => Err(error_class(&e).to_string()),
    }
}

#[test]
fn interned_storage_renders_identically_on_the_full_corpus() {
    let mut entries = 0usize;
    for path in list_entries(&corpus_dir()).expect("corpus/ readable") {
        let entry = read_entry(&path).expect("entry parses");
        let (deps, inst) = entry.parts().expect("entry parts");
        // Respect the entry's committed budget: the `expect: interrupted`
        // entries never terminate unbudgeted, and the interned path must
        // agree with the plain one on the interruption class too.
        let mut cfg = ChaseConfig::default();
        if let Some(n) = entry.max_tuples {
            cfg = cfg.with_budget(Budget::none().with_max_tuples(n as usize));
        }
        for (mode_name, mode) in all_modes() {
            let plain = chase_mode(&deps, inst.clone(), mode, &cfg);
            let interned = chase_mode_interned(&deps, &inst, mode, &cfg);
            assert_eq!(
                plain, interned,
                "entry `{}`, mode {mode_name}: interned chase diverges",
                entry.name
            );
        }
        entries += 1;
    }
    assert!(entries >= 20, "corpus shrank to {entries} entries");
}

#[test]
fn interning_round_trips_and_renders_identically() {
    for path in list_entries(&corpus_dir()).expect("corpus/ readable") {
        let entry = read_entry(&path).expect("entry parses");
        let (_, inst) = entry.parts().expect("entry parts");
        let mut table = SymbolTable::new();
        let mut interned = inst.intern_strings(&mut table);
        // Symbols display exactly like the strings they replace.
        assert_eq!(canonical_render(&inst), canonical_render(&interned));
        // And fold back into the original instance.
        interned.unintern();
        assert_eq!(canonical_render(&inst), canonical_render(&interned));
        assert_eq!(inst.to_string(), interned.to_string());
    }
}

#[test]
fn interner_assigns_the_same_ids_in_every_run_and_thread() {
    let entries: Vec<_> = list_entries(&corpus_dir())
        .expect("corpus/ readable")
        .into_iter()
        .map(|p| read_entry(&p).expect("entry parses"))
        .collect();

    let snapshot_of = |entry: &grom::scenarios::CorpusEntry| -> Vec<String> {
        let (deps, inst) = entry.parts().expect("entry parts");
        let mut table = SymbolTable::new();
        let _ = inst.intern_strings(&mut table);
        let _ = intern_dependencies(&deps, &mut table);
        table.snapshot().iter().map(|s| s.to_string()).collect()
    };

    for entry in &entries {
        let reference = snapshot_of(entry);
        // Re-running the exact same interning sequence reproduces the ids.
        assert_eq!(reference, snapshot_of(entry), "entry `{}`", entry.name);
        // And so does every other thread: symbol ids depend only on the
        // program + facts, never on scheduling.
        let parallel: Vec<Vec<String>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| scope.spawn(|| snapshot_of(entry)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("interner thread"))
                .collect()
        });
        for snap in parallel {
            assert_eq!(reference, snap, "entry `{}`", entry.name);
        }
    }
}
