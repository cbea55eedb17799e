//! The delta-driven (semi-naive) chase scheduler.
//!
//! The classical chase loop re-evaluates every dependency's premise against
//! the *entire* instance each round, so its cost grows with rounds ×
//! instance size even when a round changes almost nothing. This module
//! replaces that loop with a worklist that keeps, per dependency and
//! premise relation, **one integer** — a *watermark*: the relation's
//! frontier (the slot its next row goes to) when the dependency last
//! claimed its work — plus one `full` flag per dependency. A claim compares
//! watermarks with frontiers: nothing moved is `Idle`; otherwise the rows
//! from the watermark on are the dependency's delta, and the compiled
//! [`grom_engine::DepPlan`] anchors one premise atom to them and joins the
//! rest with the semi-naive old/new split (atoms before the anchor read
//! only the rows *below* their relation's watermark, so each match is
//! enumerated exactly once across anchor positions; debug builds assert it
//! with a `seen` set). Nothing is routed and nothing is copied: a tuple
//! exists once, in its relation, and what is new for a dependency is a slot
//! range. Full scans remain for a dependency's first activation and for the
//! readers of a relation a null unification rewrote.
//!
//! ## The three invariants watermarks rest on
//!
//! 1. **Slots only append.** A relation's rows live in a slot vector that
//!    grows at the end only, so what a dependency has not seen is the slots
//!    from its watermark to the frontier, in insertion order — the order a
//!    routed list would have had.
//! 2. **A substitution resets the readers of what it rewrites.** Null
//!    substitution alone tombstones slots, re-appends rewritten rows and
//!    may compact (renumber) a relation. It reports the relations it
//!    rewrote, and [`Scheduler::invalidate_readers`] marks their readers
//!    `full`; a `full` claim scans the whole premise and moves every
//!    watermark to the current frontier, so no watermark outlives a
//!    renumbering. Untouched relations keep their slots, and their readers
//!    their deltas.
//! 3. **One job writes a relation.** Dependencies that conclude a relation,
//!    or read what another concludes, share a conflict group
//!    ([`crate::partition`]), so under the pool executor a relation's new
//!    rows all sit in one worker's buffer, and the barrier absorbs it in
//!    insertion order: buffer row `i` lands in master slot `frontier + i`.
//!    A shard view numbers its rows the same way, so an entry claimed at
//!    its turn sees the snapshot rows past its watermark plus every row
//!    buffered so far (the in-job cascade), and the watermark that claim
//!    leaves (`ShardView::frontier`) is exact after the barrier.
//!
//! A checkpoint cannot keep slots — serialization drops tombstones and
//! renumbers — so it stores counts of trailing unseen rows (`Pending`);
//! `Scheduler::with_pending` turns them back into slots.
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

#[cfg(debug_assertions)]
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use grom_data::{Instance, RelId};
use grom_lang::{Dependency, Literal};

use grom_engine::{Control, Db, DepPlan, Matches, Scratch};

use crate::config::InterruptReason;
use crate::result::ChaseError;
use crate::sweep::{activate, Run, SweepEnd};
use crate::trigger::TriggerIndex;

/// A dependency's unclaimed work as a checkpoint holds it: independent of
/// slot numbers, which serialization does not preserve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Pending {
    /// Evaluate the premise against the full instance (first activation, or
    /// a null unification rewrote a premise relation).
    Full,
    /// Per premise relation, how many of its trailing rows the dependency
    /// has not seen. Relations with none are left out; none at all is idle.
    New(Vec<(Arc<str>, usize)>),
}

/// One premise relation of one dependency, and how much of it the
/// dependency has seen.
#[derive(Debug, Clone)]
pub(crate) struct Mark {
    pub rel: Arc<str>,
    /// The relation's id in the master instance, once it exists there.
    /// Resolved once: ids are stable.
    pub id: Option<RelId>,
    /// The watermark: the relation's frontier at the dependency's last claim.
    seen: u64,
}

impl Mark {
    /// The relation's frontier in the master instance.
    pub fn stored(&self, inst: &Instance) -> u64 {
        self.id
            .map_or(0, |id| u64::from(inst.relation_by_id(id).frontier()))
    }
}

/// One dependency's worklist entry.
#[derive(Debug, Default)]
pub(crate) struct Entry {
    full: bool,
    /// One mark per relation the premise reads positively.
    marks: Vec<Mark>,
}

/// What a claimed entry asks its dependency to evaluate.
#[derive(Debug)]
pub(crate) enum Claim {
    /// No premise relation grew since the last claim.
    Idle,
    Full,
    /// Seed the premise from the rows at or past these cursors — the
    /// relations that grew, each with its previous watermark — `seeded`
    /// rows in all.
    Delta {
        since: Vec<(Arc<str>, u64)>,
        seeded: usize,
    },
}

impl Entry {
    /// Is there anything to evaluate? `frontier` tells how far a premise
    /// relation has grown in the database the dependency would run on.
    pub fn pending(&self, frontier: impl Fn(&Mark) -> u64) -> bool {
        self.full || self.marks.iter().any(|m| frontier(m) != m.seen)
    }

    /// Claim the entry's work: every watermark moves up to `frontier`, and
    /// what lay in between is the dependency's delta.
    pub fn claim(&mut self, frontier: impl Fn(&Mark) -> u64) -> Claim {
        let full = std::mem::take(&mut self.full);
        let mut since = Vec::new();
        let mut seeded = 0;
        for m in &mut self.marks {
            let now = frontier(m);
            if !full && now != m.seen {
                since.push((m.rel.clone(), m.seen));
                seeded += (now - m.seen) as usize;
            }
            m.seen = now;
        }
        match (full, since.is_empty()) {
            (true, _) => Claim::Full,
            (false, true) => Claim::Idle,
            (false, false) => Claim::Delta { since, seeded },
        }
    }
}

/// The worklist: per-dependency watermarks, plus the trigger index that
/// finds the readers of a relation.
#[derive(Debug)]
pub struct Scheduler {
    triggers: TriggerIndex,
    entries: Vec<Entry>,
    /// How many of the master instance's relations `resolve` has seen.
    resolved: usize,
}

impl Scheduler {
    /// A scheduler over `deps` resuming a checkpointed worklist against
    /// the restored `inst`: counts of trailing rows become watermarks.
    /// `pending` must be index-aligned with `deps` and count only rows
    /// that exist (validated by [`Checkpoint::restore`](crate::Checkpoint)).
    pub(crate) fn with_pending(deps: &[Dependency], inst: &Instance, pending: &[Pending]) -> Self {
        debug_assert_eq!(pending.len(), deps.len());
        let entry = |(dep, pending): (&Dependency, &Pending)| {
            let mut marks: Vec<Mark> = Vec::with_capacity(dep.premise.len());
            for lit in &dep.premise {
                let Literal::Pos(atom) = lit else { continue };
                let rel = &atom.predicate;
                if marks.iter().any(|m| m.rel == *rel) {
                    continue;
                }
                let seen = match pending {
                    Pending::Full => 0,
                    Pending::New(counts) => inst.relation(rel).map_or(0, |stored| {
                        let unseen = counts.iter().find(|(r, _)| r == rel);
                        stored.cursor_before_last(unseen.map_or(0, |(_, n)| *n))
                    }),
                };
                marks.push(Mark {
                    rel: rel.clone(),
                    id: None,
                    seen: u64::from(seen),
                });
            }
            let full = *pending == Pending::Full;
            Entry { full, marks }
        };
        Self {
            triggers: TriggerIndex::build(deps),
            entries: deps.iter().zip(pending).map(entry).collect(),
            resolved: 0,
        }
    }

    /// Give the marks of the relations `inst` created since the last call
    /// their ids. Ids are dense and stable, so this is an integer compare
    /// when nothing was created and one trigger lookup per new relation
    /// otherwise — never a name lookup per dependency.
    fn resolve(&mut self, inst: &Instance) {
        for id in (self.resolved..inst.relation_count()).map(|i| RelId(i as u32)) {
            let name = inst.rel_name(id);
            for &k in self.triggers.triggered_by(name) {
                let marks = &mut self.entries[k].marks;
                if let Some(mark) = marks.iter_mut().find(|m| m.rel == *name) {
                    mark.id = Some(id);
                }
            }
        }
        self.resolved = inst.relation_count();
    }

    /// The worklist in checkpoint form. Sweep-aligned by construction: the
    /// driver only captures between sweeps.
    pub(crate) fn pending_snapshot(&mut self, inst: &Instance) -> Vec<Pending> {
        self.resolve(inst);
        let unseen = |m: &Mark| {
            let n = (m.stored(inst) - m.seen) as usize;
            (n > 0).then(|| (m.rel.clone(), n))
        };
        let pending = |e: &Entry| {
            if e.full {
                Pending::Full
            } else {
                Pending::New(e.marks.iter().filter_map(unseen).collect())
            }
        };
        self.entries.iter().map(pending).collect()
    }

    /// Is any dependency scheduled, given how far `inst` has grown?
    pub fn has_work(&mut self, inst: &Instance) -> bool {
        self.resolve(inst);
        self.entries.iter().any(|e| e.pending(|m| m.stored(inst)))
    }

    /// The trigger index: relations to their premise readers.
    pub fn triggers(&self) -> &TriggerIndex {
        &self.triggers
    }

    /// Does dependency `k` have pending work against `inst`?
    pub(crate) fn has_pending(&mut self, k: usize, inst: &Instance) -> bool {
        self.resolve(inst);
        self.entries[k].pending(|m| m.stored(inst))
    }

    /// Claim dependency `k`'s pending work against `inst`, leaving it idle.
    pub(crate) fn claim(&mut self, k: usize, inst: &Instance) -> Claim {
        self.resolve(inst);
        self.entries[k].claim(|m| m.stored(inst))
    }

    /// Move dependency `k`'s entry out, for a pool job to claim at its
    /// turn against a shard view; [`Scheduler::put`] brings it back.
    pub(crate) fn take(&mut self, k: usize) -> Entry {
        std::mem::take(&mut self.entries[k])
    }

    pub(crate) fn put(&mut self, k: usize, entry: Entry) {
        self.entries[k] = entry;
    }

    /// Re-schedule dependency `k` for a full rescan. Used by the parallel
    /// executor when a worker *defers* an atom-bearing dependency whose
    /// claimed work collided with pending equality obligations: `Full`
    /// subsumes whatever delta was pending, and the rescan runs after the
    /// barrier substitution on the rewritten instance.
    pub(crate) fn reschedule_full(&mut self, k: usize) {
        self.entries[k].full = true;
    }

    /// Schedule a full rescan for every dependency whose premise reads one
    /// of the `changed` relations — the relations a null substitution
    /// actually rewrote, per the report of
    /// [`grom_data::Instance::substitute_nulls`]. Deltas of dependencies reading only
    /// untouched relations stay valid: a relation is only *unchanged* when
    /// the substitution mapped none of the nulls occurring in it, so every
    /// one of its slots holds what it held.
    fn invalidate_readers(&mut self, changed: &[Arc<str>]) {
        for rel in changed {
            for &k in self.triggers.triggered_by(rel) {
                self.entries[k].full = true;
            }
        }
    }
}

/// Violating premise matches of `plan`'s dependency seeded from the rows
/// its premise relations gained `since` their cursors, in deterministic
/// order. With `stop_at_first` (denials) at most one match is returned.
/// Generic over [`Db`] so the parallel executor can evaluate against
/// snapshot views.
///
/// The semi-naive version split of [`DepPlan::violations_from_delta`]
/// enumerates each match exactly once across anchor positions, so no dedup
/// set is needed on the hot path and each surviving match is copied out of
/// the registers exactly once. Debug builds keep the historical `seen` set
/// as an assertion that the split holds.
pub(crate) fn delta_violations(
    db: &impl Db,
    plan: &DepPlan<'_>,
    since: &[(Arc<str>, u64)],
    stop_at_first: bool,
    scratch: &mut Scratch,
) -> Matches {
    #[cfg(debug_assertions)]
    let mut seen = BTreeSet::new();
    let mut out = Matches::new(plan.width());
    let after_match = if stop_at_first {
        Control::Stop
    } else {
        Control::Continue
    };
    plan.violations_from_delta(db, scratch, since, |regs| {
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
/// activate the worklist in declaration order against the live instance.
/// Each claim reads the frontiers as they are at its turn, so later
/// dependencies of the same sweep see what earlier ones inserted.
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
        if merged && concludes_atoms(dep) && run.sched.has_pending(k, &run.inst) {
            if apply_sweep_merges(run) {
                tripped.get_or_insert(InterruptReason::Fault);
            }
            merged = false;
        }
        let claim = run.sched.claim(k, &run.inst);
        let (mut sink, scratch) = run.live();
        // If this sweep turns out to be merge-bearing, the invalidation
        // after its substitution re-marks every reader of a rewritten
        // relation Full, whatever rows it had yet to see.
        if let Some(done) = activate(&mut sink, plan, k, claim, scratch)? {
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

    /// A scheduler over `deps` with every dependency scheduled for a full
    /// scan, as a fresh run starts.
    fn all_full(deps: &[Dependency]) -> Scheduler {
        Scheduler::with_pending(deps, &Instance::new(), &vec![Pending::Full; deps.len()])
    }

    /// Relation name, watermark and row count of a delta claim.
    fn delta_of(claim: Claim) -> (Vec<(String, u64)>, usize) {
        match claim {
            Claim::Delta { since, seeded } => {
                let since = since.iter().map(|(r, c)| (r.to_string(), *c));
                (since.collect(), seeded)
            }
            other => panic!("expected a delta claim, got {other:?}"),
        }
    }

    #[test]
    fn scheduler_routes_deltas_by_trigger() {
        let p = parse_program(
            "tgd a: S(x) -> A(x).\n\
             tgd b: A(x) -> B(x).",
        )
        .unwrap();
        let mut inst = Instance::new();
        inst.add("A", vec![Value::int(0)]).unwrap();
        let mut sched = all_full(&p.deps);
        assert!(sched.has_work(&inst)); // everything starts Full

        // Drain the initial Full work.
        for k in 0..p.deps.len() {
            assert!(matches!(sched.claim(k, &inst), Claim::Full));
        }
        assert!(!sched.has_work(&inst));

        // Rows added to A wake only dependency b, from its watermark on.
        inst.add("A", vec![Value::int(1)]).unwrap();
        inst.add("A", vec![Value::int(2)]).unwrap();
        assert!(sched.has_work(&inst));
        assert!(matches!(sched.claim(0, &inst), Claim::Idle));
        assert_eq!(delta_of(sched.claim(1, &inst)), (vec![("A".into(), 1)], 2));
        assert!(!sched.has_work(&inst));
        // A relation created after the scheduler was built is picked up too.
        inst.add("S", vec![Value::int(7)]).unwrap();
        assert_eq!(delta_of(sched.claim(0, &inst)), (vec![("S".into(), 0)], 1));
    }

    #[test]
    fn targeted_invalidation_spares_unrelated_readers() {
        let p = parse_program(
            "tgd a: A(x) -> A2(x).\n\
             tgd b: B(x) -> B2(x).",
        )
        .unwrap();
        let mut inst = Instance::new();
        inst.add("B", vec![Value::int(0)]).unwrap();
        let mut sched = all_full(&p.deps);
        for k in 0..p.deps.len() {
            sched.claim(k, &inst);
        }
        // Both dependencies have rows to see...
        inst.add("A", vec![Value::int(1)]).unwrap();
        inst.add("B", vec![Value::int(2)]).unwrap();
        // ...then a substitution rewrites only A: its reader goes Full,
        // B's reader keeps its delta — exactly the row added.
        sched.invalidate_readers(&[Arc::from("A")]);
        assert!(matches!(sched.claim(0, &inst), Claim::Full));
        assert_eq!(delta_of(sched.claim(1, &inst)), (vec![("B".into(), 1)], 1));
    }

    #[test]
    fn a_checkpointed_worklist_restores_to_the_same_claims() {
        let p = parse_program("tgd a: A(x), B(x) -> C(x).").unwrap();
        let mut inst = Instance::new();
        for i in 0..3 {
            inst.add("A", vec![Value::int(i)]).unwrap();
        }
        let mut sched = all_full(&p.deps);
        assert_eq!(sched.pending_snapshot(&inst), vec![Pending::Full]);
        sched.claim(0, &inst);
        assert_eq!(sched.pending_snapshot(&inst), vec![Pending::New(vec![])]);
        inst.add("A", vec![Value::int(3)]).unwrap();
        inst.add("B", vec![Value::int(3)]).unwrap();
        let pending = sched.pending_snapshot(&inst);
        let counts = vec![(Arc::from("A"), 1), (Arc::from("B"), 1)];
        assert_eq!(pending, vec![Pending::New(counts)]);
        // Counts become watermarks again, against whatever slots the
        // restored instance has.
        let mut restored = Scheduler::with_pending(&p.deps, &inst, &pending);
        assert_eq!(
            delta_of(restored.claim(0, &inst)),
            (vec![("A".into(), 3), ("B".into(), 0)], 2)
        );
    }

    #[test]
    fn anchored_premise_constants_filter_the_slot_range_without_an_index() {
        // Consumers declared before their producers: every premise that
        // carries a constant is only ever evaluated delta-seeded. The
        // anchor must filter its slot range with the atom's own pattern; a
        // probe would build a column index the copy chain never needed.
        let p = parse_program(
            "tgd t2: L2(x, 1) -> L3(x, 1).\n\
             tgd t1: L1(x, 1) -> L2(x, 1).\n\
             tgd t0: L0(x) -> L1(x, 1), L1(x, 2).",
        )
        .unwrap();
        let mut start = Instance::new();
        for i in 0..20 {
            start.add("L0", vec![Value::int(i)]).unwrap();
        }
        for mode in [SchedulerMode::Delta, SchedulerMode::Parallel { threads: 2 }] {
            let cfg = ChaseConfig::default().with_scheduler(mode);
            let res = chase_standard(start.clone(), &p.deps, &cfg).unwrap();
            let len = |rel: &str| res.instance.tuples(rel).count();
            assert_eq!((len("L1"), len("L2"), len("L3")), (40, 20, 20), "{mode:?}");
            assert_eq!(res.stats.delta_activations, 2, "{mode:?}");
            assert_eq!(res.stats.delta_tuples_seeded, 60, "{mode:?}");
            for relation in res.instance.storage_report() {
                assert!(relation.indexes.is_empty(), "{mode:?}: {relation:?}");
            }
        }
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
        let rescan = ChaseConfig::default().with_scheduler(SchedulerMode::FullRescan);
        let reference = chase_standard(start.clone(), &p.deps, &rescan).unwrap();
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
