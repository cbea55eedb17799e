//! `grom-scenarios`: parameterized chase-scenario generation, the
//! committed conformance corpus, and greedy scenario minimization.
//!
//! The crate closes the loop the paper's evaluation methodology implies
//! but a reproduction has to build itself:
//!
//! 1. [`ScenarioSpec`] — one-line, fully reproducible scenario specifications
//!    (`mix=… depth=… egd=… seed=… scale=…`);
//! 2. [`generate`] — the iBench-style primitive composer turning a spec into a
//!    dependency program plus source instance, deterministically;
//! 3. [`corpus`] — on-disk entries pairing a scenario with its expected
//!    canonical chase rendering, verified under every scheduler mode;
//! 4. [`minimize()`] — the shrink pass proptest's vendored shim lacks,
//!    reducing fuzz-found divergences to committable regression entries.

pub mod corpus;
mod gen;
mod minimize;
mod spec;

pub use corpus::{
    all_modes, chase_mode, divergence, error_class, fuzz, list_entries, read_entry, verify_entry,
    write_entry, CorpusEntry, CorpusError, EntryReport, FuzzFinding, FuzzOutcome, ModeRun,
    Provenance,
};
pub use gen::{generate, parse_scenario_texts, random_spec, GeneratedScenario};
pub use minimize::{minimize, MinimizeReport};
pub use spec::{Mix, ScenarioSpec, SpecError};
