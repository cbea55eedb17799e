//! # grom-chase — the chase engine of GROM
//!
//! The execution half of Figure 2 of the paper: given a source instance and
//! the *rewritten* dependencies produced by `grom-rewrite`, generate a
//! target instance. This is the module the paper borrows from the Llunatic
//! project \[5\]; here it is a native in-memory engine with the same
//! semantics.
//!
//! * the **standard chase** ([`chase_standard`]) — the restricted chase
//!   for tgds, egds and denial constraints: tgd conclusions are witnessed
//!   with fresh labeled nulls, egds unify nulls (failing on
//!   constant/constant conflicts), denials fail on any premise match.
//!   Produces **universal solutions** for weakly-acyclic programs. It and
//!   [`chase_resume`] both run on
//! * the **sweep driver** (`sweep.rs`): the one loop that counts rounds,
//!   enforces `max_rounds`, polls budget / cancellation / fault injection
//!   at sweep boundaries, captures checkpoints and assembles the result.
//!   It hands each sweep to one of three executors selected by
//!   [`SchedulerMode`], and hosts what two of them share: one activation
//!   body over a repair-sink trait, and the one repair applier every chase
//!   variant uses.
//! * [`trigger`] and the worklist (`scheduler.rs`) — the delta worklist and
//!   the **inline executor** (the default): the worklist keeps, per
//!   dependency and premise relation, the slot up to which the dependency
//!   has seen the relation, and premise evaluation is seeded from the rows
//!   past it instead of rescanning the whole instance every round; a
//!   static trigger index finds the readers of a relation a null
//!   substitution rewrote.
//! * the **pool executor** (`partition.rs`, `parallel.rs`) — the worklist
//!   is partitioned into conflict-free dependency groups (egds included —
//!   they are pure readers within a sweep) and each sweep's activations run
//!   on the worker pool of `grom-exec` against immutable instance
//!   snapshots. Per-worker insertion buffers are merged deterministically
//!   at the sweep barrier, where the workers' equality-obligation buffers
//!   are also unified — in declaration order — and resolved with one
//!   combined substitution pass per merge-bearing sweep.
//! * the **rescan executor** (in `standard.rs`) — the classical loop, every
//!   premise against the whole instance every round; the reference the
//!   other two are tested against.
//! * the **ded chase** ([`chase_greedy`], [`chase_exhaustive`]) — the two
//!   strategies of §3 "Handling Complexity": the **greedy chase** (search
//!   over standard scenarios derived by fixing one disjunct per ded —
//!   sound, incomplete, usually fast) and the **exhaustive chase** (fork
//!   per disjunct at every violation; the set of successful leaves is the
//!   *universal model set* of Deutsch–Nash–Remmel, potentially exponential
//!   — exactly the blow-up experiment E4 measures).
//! * [`Checkpoint`] — sweep-aligned, serializable checkpoints of an
//!   interrupted run; any mode resumes any mode's checkpoint.
//! * [`is_weakly_acyclic`] — weak-acyclicity analysis of the position
//!   graph, the classical sufficient condition for chase termination;
//!   non-weakly-acyclic programs run under the round budget of
//!   [`ChaseConfig`].

mod checkpoint;
mod config;
mod core_min;
mod ded;
pub mod nullmap;
mod parallel;
mod partition;
mod result;
mod scheduler;
mod standard;
mod sweep;
pub mod trigger;
mod wa;

pub use checkpoint::{chase_resume, Checkpoint};
pub use config::{Budget, CancelToken, ChaseConfig, InterruptReason, SchedulerMode};
pub use core_min::{core_minimize, CoreStats};
pub use ded::{chase_exhaustive, chase_greedy, chase_with_deds, ExhaustiveResult};
pub use nullmap::NullMap;
pub use result::{ChaseError, ChaseResult, ChaseStats, Interrupted};
pub use standard::chase_standard;
pub use wa::{is_weakly_acyclic, WeakAcyclicityReport};

// Re-exported so resilience tests can install fault-injection plans
// without depending on `grom-fail` directly.
pub use grom_fail as fail;

// Re-exported so chase callers can attach sinks and read profiles without
// depending on `grom-trace` directly.
pub use grom_trace::{
    render_report, ChaseProfile, DepProfile, GroupProfile, JsonlSink, MemorySink, ReportOptions,
    StorageGauge, TraceHandle, TraceSink,
};
