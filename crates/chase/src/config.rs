//! Chase configuration.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grom_trace::TraceHandle;

/// How the standard chase schedules premise evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerMode {
    /// Delta-driven (semi-naive) scheduling: a trigger index routes newly
    /// inserted tuples to the dependencies whose premises read them, and
    /// evaluation is seeded from those deltas. Full rescans happen only on
    /// each dependency's first activation and after egd-driven null
    /// unifications. The default.
    Delta,
    /// The classical loop: every round re-evaluates every premise against
    /// the entire instance. Quadratic in rounds × instance size; kept as
    /// the reference implementation and for A/B benchmarking.
    FullRescan,
    /// Delta scheduling with sweeps executed by the parallel chase
    /// executor: the scheduler worklist is partitioned into conflict-free
    /// dependency groups (see `partition.rs`; egds are ordinary
    /// group members) and each group's activations run on a worker pool
    /// against an immutable snapshot of the instance. Per-worker insertion
    /// buffers are merged deterministically at the sweep barrier; equality
    /// obligations collected by the workers are unified there in
    /// declaration order and applied as one combined substitution pass per
    /// merge-bearing sweep. Results are identical to
    /// [`SchedulerMode::Delta`] up to the renaming of labeled nulls.
    Parallel {
        /// Worker-pool width; `0` and `1` both mean one worker.
        threads: usize,
    },
}

impl SchedulerMode {
    /// The mode for a requested thread count: [`SchedulerMode::Delta`] for
    /// zero or one thread (the sequential loop has no sweep-barrier
    /// overhead), [`SchedulerMode::Parallel`] otherwise.
    pub fn with_threads(threads: usize) -> Self {
        if threads >= 2 {
            SchedulerMode::Parallel { threads }
        } else {
            SchedulerMode::Delta
        }
    }
}

impl Default for SchedulerMode {
    /// [`SchedulerMode::Delta`], unless the `GROM_THREADS` environment
    /// variable requests two or more workers — the hook the CI thread
    /// matrix uses to run the whole test suite under the parallel
    /// executor.
    fn default() -> Self {
        let threads = std::env::var("GROM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(1);
        SchedulerMode::with_threads(threads)
    }
}

/// Why a chase run stopped before reaching a fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptReason {
    /// The wall-clock deadline in [`Budget`] passed.
    Deadline,
    /// The derived-tuple cap in [`Budget`] was reached.
    TupleCap,
    /// The [`CancelToken`] was cancelled (e.g. Ctrl-C in `grom run`).
    Cancelled,
    /// A `GROM_FAIL` directive forced the interruption (tests).
    Fault,
}

impl std::fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            InterruptReason::Deadline => "wall-clock deadline exceeded",
            InterruptReason::TupleCap => "derived-tuple cap reached",
            InterruptReason::Cancelled => "cancelled",
            InterruptReason::Fault => "fault injected",
        };
        f.write_str(s)
    }
}

/// Resource budget for one chase run. All limits are optional; the default
/// budget is unbounded. Exhaustion does not discard work: the chase stops
/// at the next sweep boundary and returns [`crate::Interrupted`] with the
/// instance-so-far and a resumable checkpoint.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Duration>,
    max_tuples: Option<usize>,
    /// The resolved deadline instant, anchored once per run (or once per
    /// ded-chase campaign) by [`Budget::anchored`].
    deadline_at: Option<Instant>,
}

impl Budget {
    /// An unbounded budget (the default).
    pub fn none() -> Self {
        Budget::default()
    }

    /// Stop after roughly `ms` milliseconds of wall-clock time.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline = Some(Duration::from_millis(ms));
        self
    }

    /// Stop after deriving `n` tuples (counted via `tuples_inserted`).
    pub fn with_max_tuples(mut self, n: usize) -> Self {
        self.max_tuples = Some(n);
        self
    }

    /// Resolve the relative deadline into an absolute instant. Idempotent:
    /// an already-anchored budget is returned unchanged, so the ded chase
    /// can anchor once and the inner standard runs share one deadline.
    pub fn anchored(&self) -> Budget {
        let mut b = self.clone();
        if b.deadline_at.is_none() {
            if let Some(d) = b.deadline {
                b.deadline_at = Some(Instant::now() + d);
            }
        }
        b
    }

    /// The anchored deadline instant, if any. Workers use this to observe
    /// the deadline without cloning the whole budget.
    pub fn deadline_at(&self) -> Option<Instant> {
        self.deadline_at
    }

    /// Check the budget against the run's `tuples_inserted` so far.
    pub fn exceeded(&self, tuples: usize) -> Option<InterruptReason> {
        if let Some(at) = self.deadline_at {
            if Instant::now() >= at {
                return Some(InterruptReason::Deadline);
            }
        }
        if let Some(cap) = self.max_tuples {
            if tuples >= cap {
                return Some(InterruptReason::TupleCap);
            }
        }
        None
    }
}

/// A shareable cancellation flag. Clones observe the same flag; cancelling
/// is sticky. The chase polls it cooperatively between activations, so a
/// cancelled run always stops at a sweep boundary with a valid checkpoint.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Safe to call from another thread or a signal
    /// handler's sibling thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Budgets and knobs for the chase engine.
///
/// Defaults are generous enough for every scenario in this repository; the
/// round budget is the safety net for programs that are not weakly acyclic
/// (see [`crate::is_weakly_acyclic`]).
#[derive(Debug, Clone)]
pub struct ChaseConfig {
    /// Maximum number of chase rounds in the standard chase. A round visits
    /// every dependency once; weakly-acyclic programs converge long before
    /// any realistic budget.
    pub max_rounds: usize,
    /// Maximum number of standard scenarios the greedy ded chase will try
    /// before giving up (the scenario space is the product of the deds'
    /// disjunct counts).
    pub max_scenarios: usize,
    /// Maximum number of tree nodes the exhaustive ded chase will expand.
    pub max_nodes: usize,
    /// Premise scheduling strategy for the standard chase (and therefore for
    /// every ded-chase scenario and exhaustive-chase node closure).
    pub scheduler: SchedulerMode,
    /// Event sink for the trace layer. Empty by default — per-dependency
    /// profiling is always on (see [`grom_trace::ChaseProfile`]), but JSONL
    /// events are only assembled and emitted when a sink is attached here.
    pub trace: TraceHandle,
    /// Resource budget; unbounded by default. Exhaustion interrupts the
    /// chase gracefully at a sweep boundary instead of erroring.
    pub budget: Budget,
    /// Cooperative cancellation flag, polled between activations. Share a
    /// clone with e.g. a signal handler to stop a running chase.
    pub cancel: CancelToken,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        Self {
            max_rounds: 10_000,
            max_scenarios: 4_096,
            max_nodes: 1_000_000,
            scheduler: SchedulerMode::default(),
            trace: TraceHandle::none(),
            budget: Budget::none(),
            cancel: CancelToken::new(),
        }
    }
}

impl ChaseConfig {
    /// A configuration with a tight round budget, for tests that exercise
    /// non-terminating programs.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    pub fn with_max_scenarios(mut self, max_scenarios: usize) -> Self {
        self.max_scenarios = max_scenarios;
        self
    }

    pub fn with_max_nodes(mut self, max_nodes: usize) -> Self {
        self.max_nodes = max_nodes;
        self
    }

    /// Select the premise scheduling strategy.
    pub fn with_scheduler(mut self, scheduler: SchedulerMode) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Attach an event sink; the chase streams one JSONL event per
    /// activation / merge / sweep into it.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Set the resource budget for this run.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Use `cancel` as this run's cancellation token (keep a clone to
    /// trigger it from elsewhere).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts_map_to_modes() {
        assert_eq!(SchedulerMode::with_threads(0), SchedulerMode::Delta);
        assert_eq!(SchedulerMode::with_threads(1), SchedulerMode::Delta);
        assert_eq!(
            SchedulerMode::with_threads(4),
            SchedulerMode::Parallel { threads: 4 }
        );
    }

    #[test]
    fn unbounded_budget_never_trips() {
        let b = Budget::none().anchored();
        assert_eq!(b.exceeded(usize::MAX), None);
    }

    #[test]
    fn caps_trip_in_priority_order() {
        let b = Budget::none().with_max_tuples(10);
        assert_eq!(b.exceeded(3), None);
        assert_eq!(b.exceeded(10), Some(InterruptReason::TupleCap));
        // A passed deadline is reported before the tuple cap.
        let b = b.with_deadline_ms(0).anchored();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(b.exceeded(10), Some(InterruptReason::Deadline));
    }

    #[test]
    fn deadline_only_trips_once_anchored_and_elapsed() {
        let b = Budget::none().with_deadline_ms(0);
        // Unanchored: the relative deadline alone never trips.
        assert_eq!(b.exceeded(0), None);
        let b = b.anchored();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(b.exceeded(0), Some(InterruptReason::Deadline));
        // Anchoring is idempotent.
        let again = b.anchored();
        assert_eq!(again.deadline_at(), b.deadline_at());
    }

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled());
        assert!(c.is_cancelled());
    }
}
