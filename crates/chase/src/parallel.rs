//! The pool executor: scheduler sweeps on a worker pool.
//!
//! The [`SchedulerMode::Parallel`] executor of the sweep driver
//! ([`crate::sweep`]) runs the same worklist as the inline executor
//! (`crate::scheduler::inline_sweep`), but executes each sweep's
//! activations concurrently:
//!
//! 1. The dependency set is statically partitioned into **conflict-free
//!    groups** ([`crate::partition::Partition`]): two dependencies conflict
//!    iff one's conclusion relations intersect the other's premise or
//!    conclusion relations. Groups never interact within a sweep — one
//!    group's insertions can neither create nor satisfy another group's
//!    matches. *Every* dependency is group-executable, egds included.
//! 2. Each sweep claims the whole worklist at once; the groups with
//!    pending work become jobs on a [`WorkerPool`]. Every worker runs the
//!    shared activation body (`crate::sweep::activate`) over a
//!    `ShardSink`: reads see an immutable snapshot of the instance ∪ the
//!    worker's private insertion buffer ([`ShardView`]), fresh nulls come
//!    from a disjoint strided label range.
//! 3. Equality repairs never touch the instance from a worker: they
//!    **collect obligations** — value pairs, buffered in the shard view —
//!    against a read-only snapshot of the run-level [`NullMap`], plus a
//!    worker-local overlay so later violations of the same job see the
//!    pending merges and are skipped.
//! 4. At the sweep barrier the coordinator unifies the merged obligation
//!    sets **deterministically** — concatenated in job order and stably
//!    sorted by declaration index, so the unification order (and any
//!    constant-clash report) is a function of the job contents, never of
//!    thread scheduling — then absorbs the insertion buffers in job order
//!    and puts the jobs' worklist entries back. If anything merged, it
//!    applies **one** combined substitution pass and one targeted reader
//!    invalidation for the whole sweep (`apply_sweep_merges`).
//!
//! Within a group, a worker claims each entry *at its turn* against its
//! shard view — the snapshot rows past the entry's watermarks plus every
//! row the job has buffered so far — mirroring the same-sweep cascading of
//! the inline executor. The watermark the claim leaves behind is already
//! the right one for the master after the barrier (see invariant 3 of
//! [`crate::scheduler`]). The inline executor's atom-bearing flush rule
//! carries over too: once a job holds pending obligations, a later
//! atom-bearing dependency of the same job is *deferred* (the coordinator
//! re-marks it `Full`) so its embedding checks run after the barrier
//! substitution, never against stale stored tuples. The result is
//! identical to [`SchedulerMode::Delta`] up to the renaming of labeled
//! nulls (workers draw from strided ranges, so labels differ, structure
//! does not) — with one documented corner: dependencies in conflict-
//! *disconnected* groups that share labeled nulls only through the
//! *initial* instance evaluate against the sweep-start snapshot where the
//! inline executor would flush first, and may keep a redundant (but
//! sound — the result is still a universal solution) fresh-null tuple the
//! inline executor avoids. No dependency chain can create that sharing:
//! any dep copying a null between the two relation clusters would conflict
//! with both and merge the groups.
//!
//! [`SchedulerMode::Delta`]: crate::config::SchedulerMode::Delta
//! [`SchedulerMode::Parallel`]: crate::config::SchedulerMode::Parallel

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use grom_data::{DataError, Instance, StridedNullGenerator, Tuple, Value};
use grom_engine::{DepPlan, Scratch};
use grom_lang::Dependency;
use grom_trace::{ActivationRecord, WorkerRecorder};

use grom_exec::{ShardView, WorkerPool};

use crate::config::{CancelToken, InterruptReason};
use crate::nullmap::{NullMap, Unify};
use crate::partition::Partition;
use crate::result::ChaseError;
use crate::scheduler::{apply_sweep_merges, concludes_atoms, Entry, Mark};
use crate::sweep::{activate, RepairSink, Run, SweepEnd};

/// The worker-observable slice of the run budget: cancellation and the
/// anchored wall-clock deadline. Tuple/null caps are coordinator-side only
/// — they gate on *global* counters no single worker can see.
struct TripWatch {
    deadline_at: Option<Instant>,
    cancel: CancelToken,
}

impl TripWatch {
    fn check(&self) -> Option<InterruptReason> {
        if self.cancel.is_cancelled() {
            return Some(InterruptReason::Cancelled);
        }
        match self.deadline_at {
            Some(at) if Instant::now() >= at => Some(InterruptReason::Deadline),
            _ => None,
        }
    }
}

/// One worker job: the worklist entries of one conflict group within one
/// sweep, in dependency order. The job claims them at their turn and hands
/// them back with its outcome.
#[derive(Default)]
struct GroupJob {
    /// The conflict-group index, for per-group utilization accounting.
    group: usize,
    work: Vec<(usize, Entry)>,
}

/// What a job hands back at the barrier.
#[derive(Default)]
struct GroupOutcome {
    /// The job, its entries claimed (or, where deferred, untouched).
    job: GroupJob,
    /// Everything the job inserted, in per-relation insertion order.
    buffer: Instance,
    /// Equality obligations collected by the job's egd repairs, tagged
    /// with their dependency index, in collection order. Kept on failure
    /// too: obligations recorded before the failing dependency are
    /// genuine, and the coordinator may find an earlier constant clash in
    /// them.
    obligations: Vec<(usize, Value, Value)>,
    /// Atom-bearing dependencies the worker *deferred* because the job had
    /// already recorded obligations: their embedding checks read stored
    /// tuples the overlay resolution cannot see through, so they must run
    /// after the barrier substitution. The coordinator re-schedules them
    /// `Full` (which subsumes the pending work).
    deferred: Vec<usize>,
    /// The worker-local activation records, folded into the run
    /// [`Recorder`](grom_trace::Recorder) at the barrier in job order — so
    /// the profile (and the event stream) is deterministic under any thread
    /// schedule.
    trace: WorkerRecorder,
    /// Largest null label drawn from the job's strided range, if any.
    max_null: Option<u64>,
    /// Denial / comparison failure, tagged with its dependency index so
    /// the coordinator can report the earliest one deterministically.
    failure: Option<(usize, ChaseError)>,
    /// Cancellation / deadline / fault observed by the worker. Whether the
    /// job deferred wholesale (observed at entry) or completed (observed
    /// between slots), the coordinator folds this into the sweep-boundary
    /// interruption decision.
    observed: Option<InterruptReason>,
}

/// The worker-side repair sink: reads and inserts go through the
/// [`ShardView`]; equalities become *obligations* for the coordinator's
/// barrier unification instead of being unified in place.
struct ShardSink<'a> {
    view: ShardView<'a>,
    /// The run-level null map, frozen at sweep start. Stored tuples are
    /// clean with respect to it (every sweep that merges also
    /// substitutes), so `local` carries all the action; the frozen hop is
    /// a cheap safety net.
    base_nulls: &'a NullMap,
    /// Worker-local overlay of the obligations this job has recorded, so
    /// its later violations see the pending merges.
    local: NullMap,
    nulls: StridedNullGenerator,
}

impl ShardSink<'_> {
    /// How far `mark`'s relation has grown in this job's view.
    fn frontier(&self, mark: &Mark) -> u64 {
        self.view.frontier(mark.id, &mark.rel)
    }
}

impl<'a> RepairSink for ShardSink<'a> {
    type Db = ShardView<'a>;

    fn db(&self) -> &ShardView<'a> {
        &self.view
    }

    fn insert(&mut self, relation: &Arc<str>, tuple: Tuple) -> Result<bool, DataError> {
        self.view.insert(relation, tuple)
    }

    fn clean(&self) -> bool {
        self.base_nulls.is_empty() && self.local.is_empty()
    }

    fn resolve(&mut self, value: &Value) -> Value {
        self.local.resolve(&self.base_nulls.resolve_frozen(value))
    }

    /// Record the obligation for the coordinator and fold it into the
    /// overlay. Only non-trivial equalities are recorded (and counted);
    /// merges are counted where they happen, at the barrier.
    fn equate(
        &mut self,
        _dep: &Dependency,
        left: Value,
        right: Value,
        rec: &mut ActivationRecord,
    ) -> Result<bool, ChaseError> {
        let (l, r) = (self.resolve(&left), self.resolve(&right));
        if l != r {
            // A Clash here (two distinct constants) leaves the overlay
            // untouched; the recorded obligation surfaces it at the
            // barrier, deterministically.
            let _ = self.local.unify(&l, &r);
            self.view.record_obligation(left, right);
            rec.obligations += 1;
        }
        Ok(false)
    }

    fn fresh_null(&mut self) -> Value {
        self.nulls.fresh()
    }

    fn dedup_hits(&self) -> u64 {
        self.view.dedup_hits()
    }
}

/// Run one group's entries against a snapshot: the shared activation body
/// per entry, claimed at its turn, with the pool-specific parts around it —
/// deferral instead of a mid-sweep flush, and failures packaged by
/// dependency index instead of raised. What the job inserts reaches its
/// later entries through the view (cross-group routing does not exist — by
/// construction no other group can read these relations).
fn run_group_job(
    base: &Instance,
    plans: &[DepPlan<'_>],
    base_nulls: &NullMap,
    watch: &TripWatch,
    job: GroupJob,
    nulls: StridedNullGenerator,
) -> GroupOutcome {
    let mut out = GroupOutcome {
        job,
        ..Default::default()
    };
    // Job-entry interruption point: the `worker` fault (a panic here is
    // contained by the pool's `run_timed_caught`) and the cancellation /
    // deadline watch. A job that observes either *before doing any work*
    // defers wholesale — every entry with pending work is handed back for
    // a Full rescan. That is exact: conflict-free groups do not interact
    // within a sweep, so deferring the whole job is equivalent to the
    // scheduler having claimed it one sweep later.
    out.observed = if grom_fail::hit("worker") {
        Some(InterruptReason::Fault)
    } else {
        watch.check()
    };
    if out.observed.is_some() {
        let work = out.job.work.iter();
        let pending = work.filter(|(_, entry)| entry.pending(|m| m.stored(base)));
        out.deferred = pending.map(|(k, _)| *k).collect();
        return out;
    }

    let mut sink = ShardSink {
        view: ShardView::new(base),
        base_nulls,
        local: NullMap::new(),
        nulls,
    };
    let mut scratch = Scratch::default();
    for slot in 0..out.job.work.len() {
        // Between entries the watch is observe-only: a started job
        // completes its work (mid-job skips would break exactness), and
        // the coordinator acts on the observation at the sweep barrier.
        if out.observed.is_none() {
            out.observed = watch.check();
        }
        let (k, entry) = &mut out.job.work[slot];
        let k = *k;
        // The inline executor flushes here; a worker cannot rewrite the
        // snapshot, so once this job holds pending obligations an
        // atom-bearing dependency is deferred past the barrier
        // substitution instead (the coordinator re-marks it Full).
        if !out.obligations.is_empty()
            && concludes_atoms(plans[k].dep)
            && entry.pending(|m| sink.frontier(m))
        {
            out.deferred.push(k);
            continue;
        }
        // The claim at its turn: snapshot rows past the entry's watermarks
        // plus everything this job has buffered so far.
        let claim = entry.claim(|m| sink.frontier(m));
        let result = activate(&mut sink, &plans[k], k, claim, &mut scratch);
        // Kept on failure too: obligations recorded before the failing
        // repair are genuine, and the coordinator may find an earlier
        // constant clash in them.
        let recorded = sink.view.take_obligations();
        out.obligations
            .extend(recorded.into_iter().map(|(l, r)| (k, l, r)));
        match result {
            Ok(None) => {}
            Ok(Some(done)) => out.trace.record(done.record),
            Err(e) => {
                out.failure = Some((k, e));
                return out;
            }
        }
    }
    out.max_null = sink.nulls.max_allocated();
    out.buffer = sink.view.into_buffer();
    out
}

/// The pool executor's per-run state: the conflict partition, the worker
/// pool, and the workers' view of the budget.
pub(crate) struct PoolExecutor {
    partition: Partition,
    pool: WorkerPool,
    watch: TripWatch,
}

impl PoolExecutor {
    pub(crate) fn new(run: &mut Run<'_>, threads: usize) -> Self {
        let partition = Partition::build(run.deps, run.sched.triggers());
        let groups: Vec<usize> = (0..run.deps.len()).map(|k| partition.group_of(k)).collect();
        run.rec.set_groups(&groups);
        PoolExecutor {
            partition,
            pool: WorkerPool::new(threads),
            watch: TripWatch {
                deadline_at: run.budget.deadline_at(),
                cancel: run.config.cancel.clone(),
            },
        }
    }

    /// One sweep: claim, snapshot-execute on the pool, then the barrier.
    pub(crate) fn sweep(&self, run: &mut Run<'_>) -> Result<SweepEnd, ChaseError> {
        let (deps, plans) = (run.deps, run.plans);
        // The conflict groups with pending work become jobs, each taking
        // all of its group's worklist entries.
        let mut jobs: BTreeMap<usize, GroupJob> = BTreeMap::new();
        for k in 0..deps.len() {
            if run.sched.has_pending(k, &run.inst) {
                let group = self.partition.group_of(k);
                let work = Vec::new();
                jobs.entry(group).or_insert(GroupJob { group, work });
            }
        }
        for k in 0..deps.len() {
            if let Some(job) = jobs.get_mut(&self.partition.group_of(k)) {
                job.work.push((k, run.sched.take(k)));
            }
        }
        let jobs: Vec<GroupJob> = jobs.into_values().collect();

        // Snapshot-execute the sweep. Null ranges and result order are
        // functions of the job index, so the sweep is deterministic under
        // any thread schedule.
        let base_label = run.nullgen.peek_next();
        let stride = jobs.len() as u64;
        let (snapshot, frozen_nulls) = (&run.inst, &run.nullmap);
        let t_eval = Instant::now();
        // A worker panic is contained by the pool (every thread is still
        // joined); surface it as a hard error instead of aborting the
        // process. The pool is stateless and reusable.
        let outcomes = self
            .pool
            .run_timed_caught(jobs, |j, job| {
                let nulls = StridedNullGenerator::new(base_label, j as u64, stride);
                run_group_job(snapshot, plans, frozen_nulls, &self.watch, job, nulls)
            })
            .map_err(|detail| ChaseError::WorkerPanicked { detail })?;
        let evaluate_ns = t_eval.elapsed().as_nanos() as u64;
        let t_merge = Instant::now();

        // Barrier-entry fault point, plus the workers' observations (in
        // job order, so the recorded reason is deterministic).
        let mut tripped = grom_fail::hit("barrier").then_some(InterruptReason::Fault);
        for (o, _) in &outcomes {
            tripped = tripped.or(o.observed);
        }

        // Barrier, step 1 — unify the merged obligation sets on the
        // run-level null map: concatenate in job order, stable-sort by
        // declaration index (each dependency lives in exactly one job, so
        // per-dependency collection order is preserved), then unify.
        // Constant clashes surface here, deterministically; each merge is
        // credited to the dependency that recorded the obligation.
        let mut obligations: Vec<&(usize, Value, Value)> = outcomes
            .iter()
            .flat_map(|(o, _)| o.obligations.iter())
            .collect();
        obligations.sort_by_key(|(k, _, _)| *k);
        let mut any_merge = false;
        let mut failure: Option<(usize, ChaseError)> = None;
        for (k, l, r) in obligations {
            match run.nullmap.unify(l, r) {
                Unify::Noop => {}
                Unify::Merged => {
                    any_merge = true;
                    run.rec.merged(*k);
                }
                Unify::Clash(a, b) => {
                    failure = Some((*k, ChaseError::clash(&deps[*k].name, &a, &b)));
                    break;
                }
            }
        }

        // Barrier, step 2 — report the earliest failure by dependency
        // index (denials / comparisons from workers win ties against
        // constant clashes from the unification), mirroring declaration
        // order.
        for (o, _) in &outcomes {
            if let Some((wk, we)) = &o.failure {
                if failure.as_ref().is_none_or(|(fk, _)| wk <= fk) {
                    failure = Some((*wk, we.clone()));
                }
            }
        }
        if let Some((_, e)) = failure {
            return Err(e);
        }

        // Barrier, step 3 — absorb the buffers into the master in job
        // order and put the entries back: a buffered row lands in the slot
        // the job's view gave it, so the watermarks the workers left are
        // exact. Worker trace buffers fold into the run recorder here, in
        // job order, so the profile is thread-schedule-independent.
        for (o, busy) in outcomes {
            run.rec.group_job(o.job.group, busy.as_nanos() as u64);
            run.rec.merge_worker(run.sweep, o.trace);
            if let Some(m) = o.max_null {
                run.nullgen.advance_to(m + 1);
            }
            run.inst.absorb(&o.buffer)?;
            for (k, entry) in o.job.work {
                run.sched.put(k, entry);
            }
            // Deps a worker deferred past the barrier substitution run as
            // full rescans next sweep, on the rewritten instance.
            for &k in &o.deferred {
                run.sched.reschedule_full(k);
            }
        }
        let merge_ns = t_merge.elapsed().as_nanos() as u64;

        // Coordinator-side budget check against the *global* counters the
        // absorb just updated (tuple/null caps live here, not in the
        // workers).
        tripped = tripped.or_else(|| run.tripped());

        // Barrier, step 4 — one combined substitution pass and one
        // targeted invalidation for the whole sweep, if anything merged.
        if any_merge && apply_sweep_merges(run) {
            tripped.get_or_insert(InterruptReason::Fault);
        }
        Ok(SweepEnd {
            tripped,
            fixpoint: false,
            evaluate_ns: Some(evaluate_ns),
            merge_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChaseConfig, SchedulerMode};
    use crate::standard::chase_standard;
    use crate::trigger::TriggerIndex;
    use grom_data::canonical_render;
    use grom_engine::instance_satisfies;
    use grom_lang::parser::{parse_dependency, parse_program};

    fn inst(facts: &[(&str, &[i64])]) -> Instance {
        let mut i = Instance::new();
        for (rel, vals) in facts {
            i.add(*rel, vals.iter().map(|&v| Value::int(v)).collect())
                .unwrap();
        }
        i
    }

    fn par(threads: usize) -> ChaseConfig {
        ChaseConfig::default().with_scheduler(SchedulerMode::Parallel { threads })
    }

    fn rescan() -> ChaseConfig {
        ChaseConfig::default().with_scheduler(SchedulerMode::FullRescan)
    }

    #[test]
    fn independent_partitions_match_sequential() {
        // Four disjoint copy chains; each is one conflict group.
        let mut text = String::new();
        for p in 0..4 {
            for i in (0..3).rev() {
                text.push_str(&format!(
                    "tgd t{p}_{i}: C{p}L{i}(x) -> C{p}L{}(x).\n",
                    i + 1
                ));
            }
        }
        let prog = parse_program(&text).unwrap();
        let mut start = Instance::new();
        for p in 0..4 {
            for r in 0..10 {
                start.add(format!("C{p}L0"), vec![Value::int(r)]).unwrap();
            }
        }
        let seq = chase_standard(start.clone(), &prog.deps, &ChaseConfig::default()).unwrap();
        let parl = chase_standard(start, &prog.deps, &par(4)).unwrap();
        // Constant-only chains: byte-identical instances.
        assert_eq!(seq.instance.to_string(), parl.instance.to_string());
        assert!(parl.stats.delta_activations > 0);
    }

    #[test]
    fn existential_nulls_match_up_to_renaming() {
        let p = parse_program(
            "tgd a: S(x) -> T(x, w), U(w).\n\
             tgd b: S2(x) -> V(x, w).",
        )
        .unwrap();
        let start = inst(&[("S", &[1]), ("S", &[2]), ("S2", &[7])]);
        let seq = chase_standard(start.clone(), &p.deps, &ChaseConfig::default()).unwrap();
        let parl = chase_standard(start, &p.deps, &par(2)).unwrap();
        assert_eq!(
            canonical_render(&seq.instance),
            canonical_render(&parl.instance)
        );
        assert_eq!(seq.stats.nulls_invented, parl.stats.nulls_invented);
        assert!(instance_satisfies(&parl.instance, &p.deps).is_empty());
    }

    #[test]
    fn egds_collect_obligations_and_agree() {
        let m = parse_dependency("tgd m: S(x) -> T(x, y).").unwrap();
        let k = parse_dependency("tgd k: S2(x, y) -> T(x, y).").unwrap();
        let e = parse_dependency("egd e: T(x, y1), T(x, y2) -> y1 = y2.").unwrap();
        let deps = vec![m, k, e];
        let start = inst(&[("S", &[1]), ("S2", &[1, 42])]);
        let seq = chase_standard(start.clone(), &deps, &rescan()).unwrap();
        let parl = chase_standard(start, &deps, &par(3)).unwrap();
        assert_eq!(
            canonical_render(&seq.instance),
            canonical_render(&parl.instance)
        );
        let t: Vec<_> = parl.instance.tuples("T").collect();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].get(1), Some(&Value::int(42)));
        assert!(parl.stats.obligations_batched >= 1);
    }

    #[test]
    fn egd_between_tgds_no_longer_segments_the_sweep() {
        // tgd | egd | tgd: previously the egd was a sequential segment
        // boundary; now the whole dependency set runs as pool jobs and the
        // egd's obligations resolve at the barrier. Results must still
        // match the full-rescan reference exactly (up to null renaming).
        let p = parse_program(
            "tgd a: S(x) -> T(x, w).\n\
             egd e: T(x, y1), T(x, y2) -> y1 = y2.\n\
             tgd b: S2(x, y) -> T(x, y).",
        )
        .unwrap();
        // All three deps touch T: one conflict group, no `None` slots.
        let part = Partition::build(&p.deps, &TriggerIndex::build(&p.deps));
        for k in 0..p.deps.len() {
            assert_eq!(part.group_of(k), 0);
        }
        let start = inst(&[("S", &[1]), ("S2", &[1, 9]), ("S2", &[2, 3])]);
        let seq = chase_standard(start.clone(), &p.deps, &rescan()).unwrap();
        let parl = chase_standard(start, &p.deps, &par(2)).unwrap();
        assert_eq!(
            canonical_render(&seq.instance),
            canonical_render(&parl.instance)
        );
        // The unification resolved a's invented null to 9.
        let mut ys: Vec<_> = parl
            .instance
            .tuples("T")
            .filter_map(|t| t.get(1).unwrap().as_int())
            .collect();
        ys.sort_unstable();
        assert_eq!(ys, vec![3, 9]);
        assert!(instance_satisfies(&parl.instance, &p.deps).is_empty());
    }

    #[test]
    fn parallel_merge_bearing_sweep_substitutes_once() {
        // Two egds over relations nobody writes: two independent pool
        // jobs collect obligations concurrently, the coordinator applies
        // ONE substitution pass at the barrier.
        let p = parse_program(
            "egd e1: T(x, y1), T(x, y2) -> y1 = y2.\n\
             egd e2: U(x, y1), U(x, y2) -> y1 = y2.",
        )
        .unwrap();
        let part = Partition::build(&p.deps, &TriggerIndex::build(&p.deps));
        assert_ne!(part.group_of(0), part.group_of(1));
        let mut start = Instance::new();
        start.add("T", vec![Value::int(1), Value::null(0)]).unwrap();
        start.add("T", vec![Value::int(1), Value::int(5)]).unwrap();
        start.add("U", vec![Value::int(2), Value::null(1)]).unwrap();
        start.add("U", vec![Value::int(2), Value::int(7)]).unwrap();
        let res = chase_standard(start, &p.deps, &par(2)).unwrap();
        assert_eq!(res.stats.substitution_passes, 1);
        assert_eq!(res.stats.egd_merges, 2);
        assert_eq!(res.instance.tuples("T").count(), 1);
        assert_eq!(res.instance.tuples("U").count(), 1);
    }

    #[test]
    fn constant_clash_is_detected_at_the_barrier() {
        let e = parse_dependency("egd e: T(x, y1), T(x, y2) -> y1 = y2.").unwrap();
        let start = inst(&[("T", &[1, 10]), ("T", &[1, 20])]);
        match chase_standard(start, &[e], &par(2)) {
            Err(ChaseError::Failure { dependency, .. }) => {
                assert_eq!(dependency.as_ref(), "e");
            }
            other => panic!("expected clash failure, got {other:?}"),
        }
    }

    #[test]
    fn denials_fail_deterministically() {
        let p = parse_program(
            "tgd a: S(x) -> T(x, x).\n\
             dep n: T(x, x) -> false.",
        )
        .unwrap();
        let res = chase_standard(inst(&[("S", &[1])]), &p.deps, &par(4));
        match res {
            Err(ChaseError::Failure { dependency, .. }) => {
                assert_eq!(dependency.as_ref(), "n");
            }
            other => panic!("expected denial failure, got {other:?}"),
        }
    }

    #[test]
    fn round_budget_is_honored() {
        let dep = parse_dependency("tgd m: R(x, y) -> R(y, z).").unwrap();
        let res = chase_standard(inst(&[("R", &[1, 2])]), &[dep], &par(2).with_max_rounds(20));
        assert!(matches!(
            res,
            Err(ChaseError::RoundLimit { rounds: 20, .. })
        ));
    }

    #[test]
    fn same_group_cascade_completes_within_a_sweep() {
        // Forward-declared chain: claims at their turn let the whole
        // chain cascade inside one sweep, like the sequential round.
        let p = parse_program(
            "tgd t0: L0(x) -> L1(x).\n\
             tgd t1: L1(x) -> L2(x).\n\
             tgd t2: L2(x) -> L3(x).",
        )
        .unwrap();
        let start = inst(&[("L0", &[1]), ("L0", &[2])]);
        let seq = chase_standard(start.clone(), &p.deps, &ChaseConfig::default()).unwrap();
        let parl = chase_standard(start, &p.deps, &par(2)).unwrap();
        assert_eq!(seq.instance.to_string(), parl.instance.to_string());
        assert_eq!(parl.instance.tuples("L3").count(), 2);
        // The cascade needs no extra sweeps beyond the sequential rounds,
        // and the barrier must not re-activate dependencies on tuples
        // their in-job claims already saw.
        assert_eq!(parl.stats.rounds, seq.stats.rounds);
        assert_eq!(parl.stats.delta_activations, seq.stats.delta_activations);
    }

    #[test]
    fn single_thread_parallel_mode_still_works() {
        let p = parse_program("tgd a: S(x) -> T(x).").unwrap();
        let res = chase_standard(inst(&[("S", &[5])]), &p.deps, &par(1)).unwrap();
        assert_eq!(res.instance.tuples("T").count(), 1);
    }
}
