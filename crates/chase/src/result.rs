//! Chase results, statistics and errors.

use std::fmt;
use std::sync::Arc;

use grom_data::{DataError, Instance, Value};
use grom_trace::{ChaseProfile, DepProfile};

use crate::checkpoint::Checkpoint;
use crate::config::InterruptReason;

/// The profile's mode label for the full-rescan reference executor.
pub(crate) const FULL_RESCAN_MODE: &str = "full_rescan";

/// Counters describing a chase run, totalled from its [`ChaseProfile`] when
/// the run ends (the `From` conversion below is the only way the chase
/// makes one). Experiments E4/E5/E7 report these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Rounds of the standard chase (a round visits every dependency).
    pub rounds: usize,
    /// Tgd-style applications (tuples-producing steps).
    pub tgd_applications: usize,
    /// Tuples actually inserted (after deduplication).
    pub tuples_inserted: usize,
    /// Fresh labeled nulls invented for existential variables.
    pub nulls_invented: usize,
    /// Egd merges (null unifications).
    pub egd_merges: usize,
    /// Greedy ded chase: scenarios attempted (including the successful one).
    pub scenarios_tried: usize,
    /// Greedy ded chase: scenarios that ended in failure.
    pub scenarios_failed: usize,
    /// Exhaustive ded chase: tree nodes expanded.
    pub nodes_expanded: usize,
    /// Exhaustive ded chase: successful leaves (size of the universal model
    /// set found).
    pub leaves: usize,
    /// Exhaustive ded chase: branches pruned by failure.
    pub branches_failed: usize,
    /// Delta scheduler: dependency activations that evaluated the premise
    /// against the full instance (first activations and post-merge
    /// invalidations).
    pub full_rescans: usize,
    /// Delta scheduler: dependency activations seeded from delta tuples.
    pub delta_activations: usize,
    /// Delta scheduler: total delta tuples used to seed premise evaluation.
    pub delta_tuples_seeded: usize,
    /// Instance-wide null substitution passes applied on behalf of egd
    /// enforcement. The batched Delta/Parallel schedulers apply exactly
    /// one per merge-bearing sweep; the full-rescan reference loop one per
    /// merging dependency per round.
    pub substitution_passes: usize,
    /// Equality obligations routed through the `NullMap` (one per equality
    /// of each applied eq-bearing disjunct; the batched schedulers resolve
    /// them once per sweep).
    pub obligations_batched: usize,
}

impl From<&ChaseProfile> for ChaseStats {
    fn from(p: &ChaseProfile) -> Self {
        let total = |count: fn(&DepProfile) -> u64| p.deps.iter().map(count).sum::<u64>() as usize;
        // The rescan reference runs no worklist: its activations scan the
        // whole instance by construction, and are not counted as rescans.
        let worklist = p.mode != FULL_RESCAN_MODE;
        ChaseStats {
            rounds: p.rounds as usize,
            tgd_applications: total(|d| d.applications),
            tuples_inserted: total(|d| d.tuples_produced),
            nulls_invented: total(|d| d.nulls_invented),
            egd_merges: total(|d| d.egd_merges),
            scenarios_tried: p.search.scenarios_tried as usize,
            scenarios_failed: p.search.scenarios_failed as usize,
            nodes_expanded: p.search.nodes_expanded as usize,
            leaves: p.search.leaves as usize,
            branches_failed: p.search.branches_failed as usize,
            full_rescans: if worklist {
                total(|d| d.full_rescans)
            } else {
                0
            },
            delta_activations: total(|d| d.delta_activations),
            delta_tuples_seeded: total(|d| d.delta_tuples_seeded),
            substitution_passes: p.substitution_passes as usize,
            obligations_batched: total(|d| d.obligations),
        }
    }
}

impl fmt::Display for ChaseStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rounds={} tgd_apps={} inserted={} nulls={} merges={} \
             scenarios={}(failed {}) nodes={} leaves={} branches_failed={} \
             rescans={} delta_acts={} delta_seeded={} \
             subst_passes={} obligations={}",
            self.rounds,
            self.tgd_applications,
            self.tuples_inserted,
            self.nulls_invented,
            self.egd_merges,
            self.scenarios_tried,
            self.scenarios_failed,
            self.nodes_expanded,
            self.leaves,
            self.branches_failed,
            self.full_rescans,
            self.delta_activations,
            self.delta_tuples_seeded,
            self.substitution_passes,
            self.obligations_batched
        )
    }
}

/// A successful chase: the chased instance (source relations plus the
/// generated target relations), the run's profile (counts, wall times,
/// activation splits, delta-hit rates — see [`grom_trace::ChaseProfile`])
/// and the statistics totalled from it.
#[derive(Debug, Clone)]
pub struct ChaseResult {
    pub instance: Instance,
    pub stats: ChaseStats,
    pub profile: ChaseProfile,
}

/// A chase stopped early by its budget, cancellation or fault injection.
/// Unlike the hard [`ChaseError`] variants this carries everything the run
/// produced — the instance-so-far and its profile, whose totals
/// `ChaseStats::from` reads — plus a [`Checkpoint`] from which
/// [`chase_resume`](crate::chase_resume) continues to the same final
/// instance an uninterrupted run would have reached.
#[derive(Debug, Clone)]
pub struct Interrupted {
    pub reason: InterruptReason,
    pub instance: Instance,
    pub profile: ChaseProfile,
    pub checkpoint: Checkpoint,
}

impl Interrupted {
    /// Map every interned symbol back to a plain string value, in both the
    /// carried instance and the checkpoint. The pipeline calls this when
    /// string interning was enabled for the run.
    pub fn unintern(&mut self) {
        self.instance.unintern();
        self.checkpoint.unintern();
    }
}

/// Chase failure modes.
#[derive(Debug, Clone)]
pub enum ChaseError {
    /// An egd equated two distinct constants, or a denial premise matched.
    Failure {
        dependency: Arc<str>,
        detail: String,
    },
    /// The round budget was exhausted (program likely not terminating).
    /// Carries the partial profile so the diagnostics of the
    /// budget-tripping run are not discarded with the instance.
    RoundLimit {
        rounds: usize,
        profile: Box<ChaseProfile>,
    },
    /// Greedy ded chase: every attempted scenario failed. The profile's
    /// search section carries the campaign's scenario counts.
    GreedyExhausted {
        scenarios_tried: usize,
        profile: Box<ChaseProfile>,
    },
    /// The budget, the cancel token or an injected fault stopped the run at
    /// a sweep boundary; the boxed payload carries the partial instance and
    /// a resumable checkpoint. Every entry point — [`crate::chase_standard`],
    /// [`crate::chase_resume`], [`crate::chase_with_deds`] — reports such a
    /// stop this way; it is not a failure of the program.
    Interrupted(Box<Interrupted>),
    /// A worker thread panicked inside the parallel executor. The panic is
    /// contained by `catch_unwind`; the pool stays reusable.
    WorkerPanicked { detail: String },
    /// Exhaustive ded chase: the node budget was exhausted.
    NodeLimit { nodes: usize },
    /// Exhaustive ded chase: every branch failed — the ded set is
    /// unsatisfiable over this instance.
    NoSolution { branches_failed: usize },
    /// A dependency is not executable by the chase (negated premise
    /// literals must be eliminated by the rewriter first).
    NotExecutable {
        dependency: Arc<str>,
        reason: String,
    },
    /// Storage error (arity drift — indicates a malformed program).
    Data(DataError),
}

impl ChaseError {
    /// Convenience constructor for constant-clash failures.
    pub fn clash(dep: &Arc<str>, a: &Value, b: &Value) -> Self {
        ChaseError::Failure {
            dependency: dep.clone(),
            detail: format!("cannot equate distinct constants {a} and {b}"),
        }
    }
}

impl fmt::Display for ChaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseError::Failure { dependency, detail } => {
                write!(f, "chase failure at `{dependency}`: {detail}")
            }
            ChaseError::RoundLimit { rounds, .. } => {
                write!(f, "chase did not terminate within {rounds} rounds")
            }
            ChaseError::GreedyExhausted {
                scenarios_tried, ..
            } => write!(
                f,
                "greedy ded chase: all {scenarios_tried} scenarios failed"
            ),
            ChaseError::Interrupted(i) => {
                write!(
                    f,
                    "chase interrupted ({}) after {} rounds; resumable",
                    i.reason, i.profile.rounds
                )
            }
            ChaseError::WorkerPanicked { detail } => {
                write!(f, "chase worker panicked: {detail}")
            }
            ChaseError::NodeLimit { nodes } => {
                write!(f, "exhaustive ded chase: node budget ({nodes}) exhausted")
            }
            ChaseError::NoSolution { branches_failed } => write!(
                f,
                "exhaustive ded chase: no solution ({branches_failed} branches failed)"
            ),
            ChaseError::NotExecutable { dependency, reason } => {
                write!(f, "dependency `{dependency}` is not executable: {reason}")
            }
            ChaseError::Data(e) => write!(f, "chase storage error: {e}"),
        }
    }
}

impl std::error::Error for ChaseError {}

impl From<DataError> for ChaseError {
    fn from(e: DataError) -> Self {
        ChaseError::Data(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_total_the_profile() {
        let dep = |name: &str, full: u64, merges: u64| DepProfile {
            name: name.into(),
            activations: full + 1,
            full_rescans: full,
            delta_activations: 1,
            applications: 2,
            tuples_produced: 3,
            egd_merges: merges,
            ..Default::default()
        };
        let mut p = ChaseProfile {
            mode: "delta".into(),
            deps: vec![dep("a", 1, 0), dep("b", 2, 4)],
            rounds: 5,
            substitution_passes: 1,
            ..Default::default()
        };
        p.search.leaves = 6;
        let s = ChaseStats::from(&p);
        assert_eq!((s.rounds, s.full_rescans, s.delta_activations), (5, 3, 2));
        assert_eq!(
            (s.tgd_applications, s.tuples_inserted, s.egd_merges),
            (4, 6, 4)
        );
        assert_eq!((s.substitution_passes, s.leaves), (1, 6));
        // The rescan reference's activations are not worklist rescans.
        p.mode = FULL_RESCAN_MODE.into();
        assert_eq!(ChaseStats::from(&p).full_rescans, 0);
    }

    #[test]
    fn stats_display_covers_every_counter() {
        let s = ChaseStats {
            branches_failed: 7,
            delta_tuples_seeded: 8,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("branches_failed=7"), "{text}");
        assert!(text.contains("delta_seeded=8"), "{text}");
    }

    #[test]
    fn error_display() {
        let e = ChaseError::clash(&Arc::from("e0"), &Value::int(1), &Value::int(2));
        assert_eq!(
            e.to_string(),
            "chase failure at `e0`: cannot equate distinct constants 1 and 2"
        );
    }
}
