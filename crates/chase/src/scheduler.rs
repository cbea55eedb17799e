//! The delta-driven (semi-naive) chase scheduler.
//!
//! The classical chase loop re-evaluates every dependency's premise against
//! the *entire* instance each round, so its cost grows with rounds ×
//! instance size even when a round changes almost nothing. This module
//! replaces that loop with a worklist of `(dependency, delta)` pairs:
//!
//! * a static [`TriggerIndex`] maps each relation to the dependencies whose
//!   premise reads it;
//! * the instance records the tuples each repair batch inserts (the
//!   [`DeltaLog`] of `grom-data`);
//! * premise evaluation is seeded from the delta tuples only (the compiled
//!   [`grom_engine::DepPlan`] anchors one premise atom to a delta tuple and
//!   joins the rest with the semi-naive old/new version split: premise
//!   atoms before the anchor read only the *old* half of their relation —
//!   everything except the claimed delta — so each match is enumerated
//!   exactly once across anchor positions).
//!
//! ## Old/new versioning and the claim-time promote
//!
//! The version split leans on a storage invariant instead of stored
//! promotion state: relation rows only append (`grom-data` tombstones and
//! re-appends on null substitution), and a claimed delta's tuples for a
//! relation are exactly that relation's most recently inserted live rows.
//! This holds because substitution re-marks every reader of a rewritten
//! relation `Full` (dropping its deltas), conclusion-overlapping
//! dependencies share a conflict group (so only one writer appends to a
//! relation between claims), and worklist routing only ever appends to or
//! trims the front of a pending list. `delta_violations` therefore
//! "promotes" implicitly: at claim time it asks the storage for the cursor
//! splitting off the last `n` rows ([`grom_engine::Db::cursor_before_last_rel`]);
//! everything below is old, and the next claim recomputes the cursor
//! against the rows appended since. Debug builds assert the exactly-once
//! guarantee with the `seen`-set check the split made redundant.
//!
//! Full premise rescans remain in exactly two places, both required for
//! correctness: every dependency's **first** activation (the initial
//! instance is one big delta), and — after an **egd-driven null
//! unification** — the dependencies whose premise reads a relation the
//! substitution actually rewrote. [`grom_data::Instance::substitute_nulls_batch`]
//! reports the rewritten relations, so deltas of dependencies reading only
//! untouched relations survive the merge
//! ([`Scheduler::invalidate_readers`]).
//!
//! ## Sweep-level egd batching
//!
//! Egd repairs record equality *obligations* into the [`crate::NullMap`]
//! union-find without touching the instance. One sweep may accumulate
//! obligations from any number of eq-bearing dependencies; the executor
//! applies a **single** combined substitution pass per merge-bearing sweep
//! ([`crate::NullMap::flatten`] + `Instance::substitute_nulls_batch`) followed
//! by a single targeted reader invalidation. Until that pass runs, the
//! instance may hold nulls with pending replacements; violations matched
//! against it are rechecked with their values resolved through the
//! union-find (see `crate::sweep::activate`) so stale ones are skipped
//! without a rewrite, and any
//! premise match that only materializes *after* the rewrite is recovered
//! by the sweep-end invalidation — its premise necessarily reads a
//! rewritten relation.
//!
//! One class of dependency cannot run over pending obligations:
//! *atom-bearing* conclusions (tgds, mixed disjuncts), whose restricted-
//! chase satisfaction check embeds the conclusion into the **stored**
//! instance — binding resolution cannot see through stale stored tuples,
//! so such a check could miss a match that materializes after the rewrite
//! and insert a redundant fresh-null tuple the substitution cannot merge
//! away. The inline executor (`inline_sweep`) therefore *flushes* the
//! pending obligations immediately before an atom-bearing dependency with
//! pending work — exactly where the declaration-ordered reference would
//! have substituted — so runs of obligation-recording dependencies (the
//! egd-heavy case) still share one combined pass, and egd-only
//! merge-bearing sweeps get exactly one. The pool executor
//! ([`crate::parallel`]) *defers* such a dependency past its barrier
//! substitution instead.
//!
//! The worklist serves every chase variant through the sweep driver of
//! [`crate::sweep`]: the standard chase directly, the greedy and exhaustive
//! ded chases of [`crate::ded`] for their per-scenario / per-node closures.
//! [`crate::core_min`] reuses the same changed-relation reporting to keep
//! its null-occurrence index incremental.

use std::collections::BTreeMap;
#[cfg(debug_assertions)]
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use grom_data::{DeltaLog, Tuple};
use grom_lang::Dependency;

use grom_engine::{Control, Db, DepPlan, Matches, Scratch};

use crate::config::InterruptReason;
use crate::result::{ChaseError, ChaseStats};
use crate::sweep::{activate, Run, SweepEnd};
use crate::trigger::TriggerIndex;

/// Pending work for one dependency.
#[derive(Debug, Clone)]
pub(crate) enum Pending {
    /// Nothing new since the premise was last evaluated.
    Idle,
    /// Evaluate the premise against the full instance (first activation, or
    /// after a null unification invalidated the deltas).
    Full,
    /// Evaluate seeded from these per-relation delta tuples only.
    Delta(BTreeMap<Arc<str>, Vec<Tuple>>),
}

impl Pending {
    /// Fold freshly routed tuples of `rel` into this slot. `Full` already
    /// subsumes any delta; `Idle` wakes up.
    pub(crate) fn add_delta(&mut self, rel: &Arc<str>, tuples: &[Tuple]) {
        match self {
            Pending::Full => {}
            Pending::Delta(map) => {
                map.entry(rel.clone())
                    .or_default()
                    .extend(tuples.iter().cloned());
            }
            slot @ Pending::Idle => {
                let mut map = BTreeMap::new();
                map.insert(rel.clone(), tuples.to_vec());
                *slot = Pending::Delta(map);
            }
        }
    }
}

/// The worklist: per-dependency pending state plus the trigger index that
/// routes deltas to dependencies.
#[derive(Debug)]
pub struct Scheduler {
    triggers: TriggerIndex,
    pending: Vec<Pending>,
}

impl Scheduler {
    /// A scheduler over `deps`, with every dependency initially scheduled
    /// for a full scan (round one of the classical chase).
    pub fn new(deps: &[Dependency]) -> Self {
        Self::with_pending(deps, vec![Pending::Full; deps.len()])
    }

    /// A scheduler over `deps` resuming a checkpointed worklist. `pending`
    /// must be index-aligned with `deps` (validated by
    /// [`Checkpoint::restore`](crate::Checkpoint)).
    pub(crate) fn with_pending(deps: &[Dependency], pending: Vec<Pending>) -> Self {
        debug_assert_eq!(pending.len(), deps.len());
        Self {
            triggers: TriggerIndex::build(deps),
            pending,
        }
    }

    /// Clone the worklist for a checkpoint. Sweep-aligned by construction:
    /// the driver only captures between sweeps, when every routed delta has
    /// been folded into these slots.
    pub(crate) fn pending_snapshot(&self) -> Vec<Pending> {
        self.pending.clone()
    }

    /// Is any dependency scheduled?
    pub fn has_work(&self) -> bool {
        !self.pending.iter().all(|p| matches!(p, Pending::Idle))
    }

    /// The trigger index routing relations to their premise readers.
    pub fn triggers(&self) -> &TriggerIndex {
        &self.triggers
    }

    /// Claim dependency `k`'s pending work, leaving it idle.
    pub(crate) fn take(&mut self, k: usize) -> Pending {
        std::mem::replace(&mut self.pending[k], Pending::Idle)
    }

    /// Does dependency `k` have pending work?
    pub(crate) fn has_pending(&self, k: usize) -> bool {
        !matches!(self.pending[k], Pending::Idle)
    }

    /// Re-schedule dependency `k` for a full rescan. Used by the parallel
    /// executor when a worker *defers* an atom-bearing dependency whose
    /// claimed work collided with pending equality obligations: `Full`
    /// subsumes whatever delta was claimed, and the rescan runs after the
    /// barrier substitution on the rewritten instance.
    pub(crate) fn reschedule_full(&mut self, k: usize) {
        self.pending[k] = Pending::Full;
    }

    /// Route a batch of newly inserted tuples to the dependencies their
    /// relations trigger.
    pub fn post(&mut self, delta: &DeltaLog) {
        debug_assert!(!delta.invalidated(), "stale deltas must invalidate");
        for (rel, tuples) in delta.relations() {
            for &k in self.triggers.triggered_by(rel) {
                self.pending[k].add_delta(rel, tuples);
            }
        }
    }

    /// Route a parallel job's delta batch, skipping per-dependency prefixes
    /// the job already delivered in-sweep: `consumed[(k, rel)] = c` means
    /// dependency `k` consumed the first `c` tuples of `rel` through the
    /// worker-local routing, so only the remainder is posted to it.
    pub(crate) fn post_job(
        &mut self,
        delta: &DeltaLog,
        consumed: &BTreeMap<(usize, Arc<str>), usize>,
    ) {
        debug_assert!(!delta.invalidated(), "stale deltas must invalidate");
        for (rel, tuples) in delta.relations() {
            for &k in self.triggers.triggered_by(rel) {
                let skip = consumed.get(&(k, rel.clone())).copied().unwrap_or(0);
                if skip < tuples.len() {
                    self.pending[k].add_delta(rel, &tuples[skip..]);
                }
            }
        }
    }

    /// Schedule a full rescan for every dependency whose premise reads one
    /// of the `changed` relations — the relations a null substitution
    /// actually rewrote, per the report of
    /// [`grom_data::Instance::substitute_nulls`]. Deltas of dependencies reading only
    /// untouched relations stay valid: a relation is only *unchanged* when
    /// the substitution mapped none of the nulls occurring in it, so every
    /// tuple logged for it is still stored verbatim.
    pub fn invalidate_readers(&mut self, changed: &[Arc<str>]) {
        for rel in changed {
            for &k in self.triggers.triggered_by(rel) {
                self.pending[k] = Pending::Full;
            }
        }
    }
}

/// Violating premise matches of `plan`'s dependency seeded from
/// per-relation deltas, in deterministic order. With `stop_at_first`
/// (denials) at most one match is returned. Generic over [`Db`] so the
/// parallel executor can evaluate against snapshot views. Stale delta tuples
/// skipped by the anchor arity check are counted in `stats` instead of
/// being dropped silently.
///
/// The semi-naive version split of [`DepPlan::violations_from_delta`]
/// enumerates each match exactly once across anchor positions, so no dedup
/// set is needed on the hot path and each surviving match is copied out of
/// the registers exactly once. Debug builds keep the historical `seen` set
/// as an assertion that the split holds.
pub(crate) fn delta_violations(
    db: &impl Db,
    plan: &DepPlan<'_>,
    delta: &BTreeMap<Arc<str>, Vec<Tuple>>,
    stop_at_first: bool,
    stats: &mut ChaseStats,
    scratch: &mut Scratch,
) -> Matches {
    let deltas: Vec<(&str, &[Tuple])> = delta
        .iter()
        .map(|(rel, tuples)| (rel.as_ref(), tuples.as_slice()))
        .collect();
    #[cfg(debug_assertions)]
    let mut seen = BTreeSet::new();
    let mut out = Matches::new(plan.width());
    let after_match = if stop_at_first {
        Control::Stop
    } else {
        Control::Continue
    };
    stats.stale_delta_skipped += plan.violations_from_delta(db, scratch, &deltas, |regs| {
        #[cfg(debug_assertions)]
        assert!(
            seen.insert(regs[..plan.width()].to_vec()),
            "semi-naive split enumerated a duplicate match for {}: {}",
            plan.dep.name,
            plan.bindings(regs)
        );
        out.push(regs);
        after_match
    });
    out
}

/// Does any disjunct of `dep` conclude atoms? Atom-bearing repairs embed
/// their conclusion into the *stored* instance, which the
/// pending-obligation resolution cannot see through: running one while
/// obligations are pending could miss a match that only materializes after
/// the substitution and insert a redundant fresh-null tuple the
/// substitution cannot merge away. The batched executors therefore flush
/// (or defer) around such dependencies; pure egds, denials and
/// comparison-only disjuncts are binding-level checks and need neither.
pub(crate) fn concludes_atoms(dep: &Dependency) -> bool {
    dep.disjuncts.iter().any(|d| !d.atoms.is_empty())
}

/// Is re-applying `dep`'s repair to an already-satisfied match a no-op? True
/// for a single disjunct with no equalities and no existential variables:
/// the conclusion is then a fixed set of ground atoms per premise match, and
/// the insert-side dedup makes a redundant application invisible. The
/// shared activation body uses this to skip the satisfied-under-pending-repairs
/// recheck — one stored-instance probe per violation on the hot path.
/// Dependencies with equalities, multiple disjuncts, or existentials (where
/// a redundant application would invent a fresh, unmergeable null) keep the
/// recheck.
pub(crate) fn idempotent_repair(dep: &Dependency) -> bool {
    dep.disjuncts.len() == 1
        && dep.disjuncts[0].eqs.is_empty()
        && dep.existential_vars(0).is_empty()
}

/// Apply one sweep's accumulated equality obligations: flatten the
/// union-find once, rewrite the instance in a **single** combined pass,
/// and re-schedule exactly the dependencies whose premise reads a
/// rewritten relation. Called once per merge-bearing sweep by the inline
/// executor and by the pool executor's barrier — plus mid-sweep by the
/// inline executor when an atom-bearing dependency is about to run with
/// obligations pending, so its satisfaction checks see exactly the
/// instance state the declaration-ordered reference gives them. Returns
/// `true` when the `subst` fault-injection point fired an interruption
/// (the pass itself always completes).
pub(crate) fn apply_sweep_merges(run: &mut Run<'_>) -> bool {
    let t0 = Instant::now();
    let map = run.nullmap.flatten();
    let changed = run.inst.substitute_nulls_batch(&map);
    run.inst.take_delta(); // discard the invalidation marker, if tracking
    run.stats.substitution_passes += 1;
    run.sched.invalidate_readers(&changed);
    run.rec.substitution(
        run.sweep,
        map.len(),
        changed.len(),
        t0.elapsed().as_nanos() as u64,
    );
    grom_fail::hit("subst")
}

/// One sweep of the delta-driven scheduler, the
/// [`SchedulerMode::Delta`](crate::config::SchedulerMode::Delta) executor:
/// activate the worklist in declaration order against the live (delta-
/// tracked) instance, routing each activation's inserts straight back into
/// the worklist so later dependencies of the same sweep see them.
pub(crate) fn inline_sweep(run: &mut Run<'_>) -> Result<SweepEnd, ChaseError> {
    let mut tripped: Option<InterruptReason> = None;
    let mut merged = false;
    for (k, plan) in run.plans.iter().enumerate() {
        let dep = plan.dep;
        // An atom-bearing dependency must not evaluate against an instance
        // with pending obligations (its embedding checks read stored
        // tuples the resolution cannot see through): flush first, exactly
        // where the declaration-ordered reference would have substituted.
        // Runs of obligation-recording dependencies — the egd-heavy case —
        // still share one combined pass.
        if merged && concludes_atoms(dep) && run.sched.has_pending(k) {
            if apply_sweep_merges(run) {
                tripped.get_or_insert(InterruptReason::Fault);
            }
            merged = false;
        }
        let pending = run.sched.take(k);
        let (mut sink, stats, scratch) = run.live();
        if let Some(done) = activate(&mut sink, plan, k, pending, stats, scratch)? {
            // Route everything; if this sweep turns out to be
            // merge-bearing, the invalidation after its substitution
            // re-marks every reader of a rewritten relation Full,
            // subsuming any stale tuples routed here.
            let log = run.inst.take_delta();
            if !log.is_empty() {
                run.sched.post(&log);
            }
            run.rec.activation(run.sweep, &done.record);
            merged |= done.merged;
        }
        if tripped.is_none() {
            tripped = run.tripped();
        }
    }
    // One combined substitution pass for the sweep's remaining
    // obligations, however many dependencies recorded them.
    if merged && apply_sweep_merges(run) {
        tripped.get_or_insert(InterruptReason::Fault);
    }
    Ok(SweepEnd {
        tripped,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChaseConfig, SchedulerMode};
    use crate::standard::chase_standard;
    use grom_data::{Instance, Value};
    use grom_lang::parser::parse_program;

    fn delta() -> ChaseConfig {
        ChaseConfig::default().with_scheduler(SchedulerMode::Delta)
    }

    #[test]
    fn scheduler_routes_deltas_by_trigger() {
        let p = parse_program(
            "tgd a: S(x) -> A(x).\n\
             tgd b: A(x) -> B(x).",
        )
        .unwrap();
        let mut sched = Scheduler::new(&p.deps);
        assert!(sched.has_work()); // everything starts Full

        // Drain the initial Full work.
        for k in 0..p.deps.len() {
            sched.take(k);
        }
        assert!(!sched.has_work());

        // A delta on A wakes only dependency b.
        let mut inst = Instance::new();
        inst.begin_delta_tracking();
        inst.add("A", vec![Value::int(1)]).unwrap();
        let log = inst.take_delta();
        sched.post(&log);
        assert!(matches!(sched.take(0), Pending::Idle));
        assert!(matches!(sched.take(1), Pending::Delta(_)));
    }

    #[test]
    fn targeted_invalidation_spares_unrelated_readers() {
        let p = parse_program(
            "tgd a: A(x) -> A2(x).\n\
             tgd b: B(x) -> B2(x).",
        )
        .unwrap();
        let mut sched = Scheduler::new(&p.deps);
        for k in 0..p.deps.len() {
            sched.take(k);
        }
        // Both dependencies hold pending deltas...
        let mut inst = Instance::new();
        inst.begin_delta_tracking();
        inst.add("A", vec![Value::int(1)]).unwrap();
        inst.add("B", vec![Value::int(2)]).unwrap();
        sched.post(&inst.take_delta());
        // ...then a substitution rewrites only A: its reader goes Full,
        // B's reader keeps its delta.
        sched.invalidate_readers(&[Arc::from("A")]);
        assert!(matches!(sched.take(0), Pending::Full));
        assert!(matches!(sched.take(1), Pending::Delta(_)));
    }

    #[test]
    fn merge_bearing_sweep_substitutes_exactly_once() {
        // Two independent key egds, both violated in the same sweep: their
        // obligations are batched into ONE substitution pass, not one per
        // dependency as in the full-rescan reference loop.
        let p = parse_program(
            "egd e1: T(x, y1), T(x, y2) -> y1 = y2.\n\
             egd e2: U(x, y1), U(x, y2) -> y1 = y2.",
        )
        .unwrap();
        let mut inst = Instance::new();
        inst.add("T", vec![Value::int(1), Value::null(0)]).unwrap();
        inst.add("T", vec![Value::int(1), Value::int(5)]).unwrap();
        inst.add("U", vec![Value::int(2), Value::null(1)]).unwrap();
        inst.add("U", vec![Value::int(2), Value::int(7)]).unwrap();
        let res = chase_standard(inst, &p.deps, &delta()).unwrap();
        assert_eq!(res.stats.substitution_passes, 1);
        assert_eq!(res.stats.egd_merges, 2);
        assert!(res.stats.obligations_batched >= 2);
        let t: Vec<_> = res.instance.tuples("T").collect();
        let u: Vec<_> = res.instance.tuples("U").collect();
        assert_eq!((t.len(), u.len()), (1, 1));
        assert_eq!(t[0].get(1), Some(&Value::int(5)));
        assert_eq!(u[0].get(1), Some(&Value::int(7)));
    }

    #[test]
    fn each_merge_bearing_sweep_substitutes_once() {
        // A two-stage merge: eU's violation only materializes after eT's
        // substitution rewrites U's key column, so the chase needs two
        // merge-bearing sweeps — and exactly two substitution passes.
        let p = parse_program(
            "egd eT: T(x, y1), T(x, y2) -> y1 = y2.\n\
             egd eU: U(k, a1), U(k, a2) -> a1 = a2.",
        )
        .unwrap();
        let mut inst = Instance::new();
        inst.add("T", vec![Value::int(1), Value::null(0)]).unwrap();
        inst.add("T", vec![Value::int(1), Value::null(1)]).unwrap();
        inst.add("U", vec![Value::null(1), Value::null(5)]).unwrap();
        inst.add("U", vec![Value::null(0), Value::int(4)]).unwrap();
        let res = chase_standard(inst, &p.deps, &delta()).unwrap();
        // Sweep 1 merges N1 -> N0 (eT); the rewrite makes U's two keys
        // collide, so sweep 2 merges N5 -> 4 (eU).
        assert_eq!(res.stats.substitution_passes, 2);
        assert_eq!(res.stats.egd_merges, 2);
        let u: Vec<_> = res.instance.tuples("U").collect();
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].get(0), Some(&Value::null(0)));
        assert_eq!(u[0].get(1), Some(&Value::int(4)));
    }

    #[test]
    fn tgd_after_merging_egd_sees_the_rewritten_instance() {
        // t2 is declared *after* the merging egd, so the
        // declaration-ordered reference substitutes before t2's
        // satisfaction check runs. The batched sweep must flush its
        // pending obligations before t2 (an atom-bearing dependency whose
        // embedding check reads stored tuples the binding resolution
        // cannot see through) — otherwise t2 misses the post-substitution
        // match T(5, 7) and inserts a redundant T(5, N) with a fresh null
        // the sweep-end substitution cannot merge away.
        use crate::standard::chase_standard_full_rescan;
        use grom_data::canonical_render;
        let p = parse_program(
            "tgd t1: A(x) -> T(y, x).\n\
             egd e: T(a, b), W(c, b) -> a = c.\n\
             tgd t2: W(c, b) -> T(c, z).",
        )
        .unwrap();
        let mut start = Instance::new();
        start.add("A", vec![Value::int(7)]).unwrap();
        start.add("W", vec![Value::int(5), Value::int(7)]).unwrap();
        let reference =
            chase_standard_full_rescan(start.clone(), &p.deps, &ChaseConfig::default()).unwrap();
        assert_eq!(reference.instance.len(), 3);

        let batched = chase_standard(start.clone(), &p.deps, &delta()).unwrap();
        assert_eq!(
            canonical_render(&reference.instance),
            canonical_render(&batched.instance)
        );
        // t1, e and t2 share relation T, so they form one conflict group
        // and the worker defers t2 past the barrier substitution.
        let par = chase_standard(
            start,
            &p.deps,
            &ChaseConfig::default().with_scheduler(SchedulerMode::Parallel { threads: 2 }),
        )
        .unwrap();
        assert_eq!(
            canonical_render(&reference.instance),
            canonical_render(&par.instance)
        );
    }
}
