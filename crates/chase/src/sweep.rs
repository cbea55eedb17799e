//! The sweep driver: the one loop every standard chase runs on.
//!
//! A chase run is a sequence of *sweeps* over a fixed dependency list. The
//! driver (`run_chase`) owns everything that is the same under every
//! [`SchedulerMode`]: the executability check and join-key registration,
//! the program compiled once into [`DepPlan`]s (the pool's workers share
//! them by reference; only relation tokens are resolved per activation),
//! the run state (`Run`), the `max_rounds` limit, round counting, the
//! interruption points, checkpoint capture and the final result. What
//! happens *inside* one sweep is the executor's business, and there are
//! three:
//!
//! * **inline** (`crate::scheduler::inline_sweep`, `Delta`): activates
//!   the worklist in declaration order against the live instance, flushing
//!   pending equality obligations before an atom-bearing dependency runs;
//! * **pool** (`crate::parallel::PoolExecutor`, `Parallel`): claims the
//!   worklist by conflict group, runs each group against a snapshot on the
//!   worker pool, and unifies / merges / routes at the sweep barrier,
//!   deferring where the inline executor flushes;
//! * **rescan** (`crate::standard::rescan_sweep`, `FullRescan`): the
//!   deliberately naive reference — every premise against the whole
//!   instance every sweep, no worklist, no deltas.
//!
//! The inline and pool executors share one activation body (`activate`:
//! claim → violations → denial check → satisfied-recheck → repair →
//! record), generic over a `RepairSink` — the live
//! `(Instance, NullMap, NullGenerator)` triple or a worker's shard view
//! with its obligation overlay. All three executors (and the exhaustive
//! ded chase) repair through the one `apply_disjunct`.
//!
//! ## Rounds, interruption, checkpoints
//!
//! Stated once, for every mode. A round is counted when its sweep starts;
//! the worklist executors additionally count the final empty round that
//! finds the worklist drained, the rescan reference its final no-progress
//! round. Budget, cancellation and the `sweep` fault are polled **before**
//! a sweep starts (that sweep is then not counted). Once started, a sweep
//! always completes — skipping an activation mid-sweep would change which
//! nulls later dependencies see — so a trip observed mid-sweep (per
//! activation, by a worker, or at the `subst` / `barrier` faults) is
//! reported by the executor in its `SweepEnd` and acted on here, at the
//! sweep boundary: at most one sweep of overshoot. A reached fixpoint
//! beats an interruption. The boundary is exactly the state a
//! [`Checkpoint`] captures — obligations substituted, every insert in the
//! master instance where the worklist's watermarks can see it, null cursor
//! past every allocated label — which is why any mode resumes any mode's
//! checkpoint.

use std::sync::Arc;
use std::time::Instant;

use grom_data::{DataError, Instance, NullGenerator, Tuple, Value};
use grom_engine::{Cell, Db, DepPlan, Scratch};
use grom_lang::{Dependency, Term};
use grom_trace::{ActivationKind, ActivationRecord, ChaseProfile, Recorder, StorageGauge};

use crate::checkpoint::{Checkpoint, ResumeState};
use crate::config::{Budget, ChaseConfig, InterruptReason, SchedulerMode};
use crate::nullmap::{NullMap, Unify};
use crate::parallel::PoolExecutor;
use crate::result::{ChaseError, ChaseResult, ChaseStats, Interrupted, FULL_RESCAN_MODE};
use crate::scheduler::{
    delta_violations, idempotent_repair, inline_sweep, Claim, Pending, Scheduler,
};
use crate::standard::{check_executable, collect_violations, rescan_sweep};

/// The state of one standard-chase run, threaded through the driver and
/// its executor.
pub(crate) struct Run<'a> {
    pub deps: &'a [Dependency],
    /// `deps` compiled, index-aligned: once per run, shared by reference
    /// with the pool's workers.
    pub plans: &'a [DepPlan<'a>],
    /// The coordinator's register file and scan buffers.
    pub scratch: Scratch,
    pub config: &'a ChaseConfig,
    /// The run budget, anchored at run start.
    pub budget: Budget,
    pub inst: Instance,
    pub nullmap: NullMap,
    pub nullgen: NullGenerator,
    pub sched: Scheduler,
    /// The run's one counter record.
    pub rec: Recorder,
    /// 1-based index of the sweep in flight.
    pub sweep: u64,
}

/// What an executor reports back from one completed sweep.
#[derive(Default)]
pub(crate) struct SweepEnd {
    /// A budget trip, cancellation or fault observed mid-sweep.
    pub tripped: Option<InterruptReason>,
    /// The sweep proved the fixpoint by itself (rescan: nothing repaired).
    pub fixpoint: bool,
    /// Evaluate-phase wall time when it is not the sum of the activation
    /// walls (pool: barrier-to-barrier).
    pub evaluate_ns: Option<u64>,
    /// Barrier-merge wall time (pool only).
    pub merge_ns: u64,
}

impl<'a> Run<'a> {
    fn new(
        state: ResumeState,
        deps: &'a [Dependency],
        plans: &'a [DepPlan<'a>],
        config: &'a ChaseConfig,
        mode: &str,
    ) -> Self {
        let names: Vec<String> = deps.iter().map(|d| d.name.to_string()).collect();
        let sched = Scheduler::with_pending(deps, &state.inst, &state.pending);
        Run {
            deps,
            plans,
            scratch: Scratch::default(),
            config,
            budget: config.budget.anchored(),
            inst: state.inst,
            nullmap: state.nullmap,
            nullgen: NullGenerator::starting_at(state.next_null),
            sched,
            rec: Recorder::new(&names, mode, state.rounds as u64, &config.trace),
            sweep: 0,
        }
    }

    /// The live repair sink over this run's instance, plus the
    /// coordinator's scratch.
    pub fn live(&mut self) -> (LiveSink<'_>, &mut Scratch) {
        let sink = LiveSink {
            inst: &mut self.inst,
            nullmap: &mut self.nullmap,
            nullgen: &mut self.nullgen,
        };
        (sink, &mut self.scratch)
    }

    /// Cooperative budget/cancellation check. Cancellation wins over
    /// budget exhaustion so a Ctrl-C is reported as such even when a cap
    /// tripped in the same activation.
    pub fn tripped(&self) -> Option<InterruptReason> {
        if self.config.cancel.is_cancelled() {
            return Some(InterruptReason::Cancelled);
        }
        self.budget.exceeded(self.rec.tuples_inserted() as usize)
    }

    /// Package a sweep-aligned interruption: everything the run produced
    /// plus the checkpoint, as the [`ChaseError::Interrupted`] every entry
    /// point returns.
    fn interrupted(mut self, reason: InterruptReason) -> ChaseError {
        let profile = finish(self.rec, &self.inst);
        let checkpoint = Checkpoint::capture(
            &profile.mode,
            profile.rounds as usize,
            self.nullgen.peek_next(),
            &self.inst,
            &mut self.nullmap,
            self.sched.pending_snapshot(&self.inst),
        );
        ChaseError::Interrupted(Box::new(Interrupted {
            reason,
            instance: self.inst,
            profile,
            checkpoint,
        }))
    }
}

/// Run the standard chase from `state` — fresh or restored — under
/// `config`'s scheduler mode.
pub(crate) fn run_chase(
    mut state: ResumeState,
    deps: &[Dependency],
    config: &ChaseConfig,
) -> Result<ChaseResult, ChaseError> {
    for dep in deps {
        check_executable(dep, false)?;
    }
    // Wire up the composite join-key indexes the static premise analysis
    // predicts, before the first sweep touches the instance. Relations the
    // chase has yet to create pick their keys up on first insert.
    crate::trigger::register_join_keys(&mut state.inst, deps);
    // The program is fixed for the whole run: compile it once.
    let plans: Vec<DepPlan<'_>> = deps.iter().map(DepPlan::compile).collect();
    let plans = plans.as_slice();
    match config.scheduler {
        SchedulerMode::Delta => {
            let run = Run::new(state, deps, plans, config, "delta");
            drive(run, inline_sweep)
        }
        SchedulerMode::FullRescan => {
            // The reference never claims from the worklist. Pinned
            // all-`Full`, the worklist reports work every round (the sweep
            // itself detects the fixpoint) and checkpoints as "rescan
            // everything", whatever a restored state carried.
            state.pending = vec![Pending::Full; deps.len()];
            let run = Run::new(state, deps, plans, config, FULL_RESCAN_MODE);
            drive(run, rescan_sweep)
        }
        SchedulerMode::Parallel { threads } => {
            let mut run = Run::new(state, deps, plans, config, &format!("parallel{threads}"));
            let pool = PoolExecutor::new(&mut run, threads);
            drive(run, |run| pool.sweep(run))
        }
    }
}

/// The sweep loop (see the module docs for the counting and interruption
/// rules it implements).
fn drive(
    mut run: Run<'_>,
    mut sweep: impl FnMut(&mut Run<'_>) -> Result<SweepEnd, ChaseError>,
) -> Result<ChaseResult, ChaseError> {
    loop {
        let rounds = run.rec.profile().rounds as usize;
        if rounds >= run.config.max_rounds {
            return Err(ChaseError::RoundLimit {
                rounds,
                profile: Box::new(finish(run.rec, &run.inst)),
            });
        }
        if !run.sched.has_work(&run.inst) {
            // The empty round that finds the worklist drained is counted.
            run.rec.round();
            break;
        }
        let mut tripped = run.tripped();
        if grom_fail::hit("sweep") {
            tripped.get_or_insert(InterruptReason::Fault);
        }
        if let Some(reason) = tripped {
            return Err(run.interrupted(reason));
        }

        run.sweep = run.rec.round();
        let end = sweep(&mut run)?;
        run.rec.end_sweep(run.sweep, end.evaluate_ns, end.merge_ns);
        if end.fixpoint {
            break;
        }
        if let Some(reason) = end.tripped {
            return Err(run.interrupted(reason));
        }
    }
    let profile = finish(run.rec, &run.inst);
    Ok(ChaseResult {
        stats: ChaseStats::from(&profile),
        profile,
        instance: run.inst,
    })
}

/// Close the recording with the storage gauges of the instance the run
/// hands back: which columns its probes ever bound is only known now.
fn finish(rec: Recorder, inst: &Instance) -> ChaseProfile {
    let mut profile = rec.finish();
    profile.storage = inst
        .storage_report()
        .into_iter()
        .map(|r| StorageGauge {
            relation: r.relation.to_string(),
            live_rows: r.live_rows as u64,
            tombstones: r.tombstones as u64,
            indexes: r
                .indexes
                .into_iter()
                .map(|(cols, entries)| (cols, entries as u64))
                .collect(),
            approx_bytes: r.approx_bytes as u64,
        })
        .collect();
    profile
}

/// Where a repair lands: the database it reads, plus the write half —
/// tuple inserts, equality enforcement, value resolution through pending
/// equalities, fresh nulls. Two implementations: [`LiveSink`] (the master
/// instance with the run-level union-find) and the pool workers' shard
/// sink (snapshot ∪ insertion buffer with an obligation overlay).
pub(crate) trait RepairSink {
    type Db: Db;

    fn db(&self) -> &Self::Db;

    /// Insert a conclusion tuple; `Ok(true)` iff it is new.
    fn insert(&mut self, relation: &Arc<str>, tuple: Tuple) -> Result<bool, DataError>;

    /// Is [`RepairSink::resolve`] currently the identity (no pending
    /// equalities at all)? The egd-free common case.
    fn clean(&self) -> bool;

    /// Resolve a value through the pending equalities.
    fn resolve(&mut self, value: &Value) -> Value;

    /// Enforce `left = right` on behalf of `dep`, counting obligations (and
    /// merges, where the sink itself unifies) in `rec`. Returns whether the
    /// stored instance now needs a substitution pass.
    fn equate(
        &mut self,
        dep: &Dependency,
        left: Value,
        right: Value,
        rec: &mut ActivationRecord,
    ) -> Result<bool, ChaseError>;

    fn fresh_null(&mut self) -> Value;

    /// Insert attempts rejected as duplicates so far.
    fn dedup_hits(&self) -> u64;
}

/// The live sink: repairs write straight into the instance, equalities
/// unify in the run-level [`NullMap`] (a constant clash fails on the spot;
/// the instance itself is rewritten later, by the executor).
pub(crate) struct LiveSink<'a> {
    pub inst: &'a mut Instance,
    pub nullmap: &'a mut NullMap,
    pub nullgen: &'a mut NullGenerator,
}

impl RepairSink for LiveSink<'_> {
    type Db = Instance;

    fn db(&self) -> &Instance {
        self.inst
    }

    fn insert(&mut self, relation: &Arc<str>, tuple: Tuple) -> Result<bool, DataError> {
        self.inst.insert(relation, tuple)
    }

    fn clean(&self) -> bool {
        self.nullmap.is_empty()
    }

    fn resolve(&mut self, value: &Value) -> Value {
        self.nullmap.resolve(value)
    }

    fn equate(
        &mut self,
        dep: &Dependency,
        left: Value,
        right: Value,
        rec: &mut ActivationRecord,
    ) -> Result<bool, ChaseError> {
        rec.obligations += 1;
        match self.nullmap.unify(&left, &right) {
            Unify::Noop => Ok(false),
            Unify::Merged => {
                rec.merges += 1;
                Ok(true)
            }
            Unify::Clash(a, b) => Err(ChaseError::clash(&dep.name, &a, &b)),
        }
    }

    fn fresh_null(&mut self) -> Value {
        self.nullgen.fresh()
    }

    fn dedup_hits(&self) -> u64 {
        0
    }
}

/// Load a stored premise match back into the register file, every value
/// resolved through the sink's pending equalities (matches go stale when
/// egds merge nulls after they were found). With a clean sink the
/// resolution is the identity and the values are copied as they are.
pub(crate) fn load_match(row: &[Option<Value>], sink: &mut impl RepairSink, scratch: &mut Scratch) {
    let regs = &mut scratch.regs_mut()[..row.len()];
    if sink.clean() {
        regs.clone_from_slice(row);
    } else {
        for (reg, value) in regs.iter_mut().zip(row) {
            *reg = value.as_ref().map(|v| sink.resolve(v));
        }
    }
}

/// Apply one disjunct to repair the premise match held by `scratch`'s
/// registers, counting what it does in `rec`. Returns `true` if the sink
/// merged nulls (the caller must re-normalize the instance).
pub(crate) fn apply_disjunct<S: RepairSink>(
    sink: &mut S,
    plan: &DepPlan<'_>,
    disjunct_idx: usize,
    scratch: &mut Scratch,
    rec: &mut ActivationRecord,
) -> Result<bool, ChaseError> {
    let dep = plan.dep;
    let source = &dep.disjuncts[disjunct_idx];
    let disjunct = &plan.disjuncts[disjunct_idx];

    // Comparisons over premise variables: if they do not hold for this
    // match, no repair can ever satisfy this disjunct.
    for (cmp, c) in disjunct.cmps.iter().zip(&source.cmps) {
        if !cmp.holds(scratch.regs()) {
            return Err(ChaseError::Failure {
                dependency: dep.name.clone(),
                detail: format!(
                    "disjunct comparison `{c}` cannot be satisfied at {}",
                    plan.bindings(scratch.regs())
                ),
            });
        }
    }

    let mut merged = false;
    for ((l, r), (lt, rt)) in disjunct.eqs.iter().zip(&source.eqs) {
        let unbound = |t: &Term| ChaseError::NotExecutable {
            dependency: dep.name.clone(),
            reason: format!("equality term `{t}` is not bound by the premise"),
        };
        let lv = l.eval(scratch.regs()).ok_or_else(|| unbound(lt))?.clone();
        let rv = r.eval(scratch.regs()).ok_or_else(|| unbound(rt))?.clone();
        merged |= sink.equate(dep, lv, rv, rec)?;
    }

    // Atoms: one fresh null per existential variable, shared across the
    // disjunct's atoms.
    let (regs, fresh) = scratch.repair(plan.fresh());
    let mut applied = false;
    for (relation, cells) in plan.rows(disjunct_idx) {
        let row: Vec<Value> = cells
            .map(|cell| match cell {
                Cell::Const(c) => c.clone(),
                Cell::Reg(r) => {
                    let bound = regs[r].as_ref();
                    sink.resolve(bound.expect("a premise match binds every premise register"))
                }
                Cell::Fresh(i) => fresh[i]
                    .get_or_insert_with(|| {
                        rec.nulls += 1;
                        sink.fresh_null()
                    })
                    .clone(),
            })
            .collect();
        if sink.insert(relation, row.into())? {
            rec.tuples += 1;
        }
        applied = true;
    }
    rec.applications += u64::from(applied);

    Ok(merged)
}

/// One completed activation: its profile record, and whether its repairs
/// left merges for the executor to substitute.
pub(crate) struct Activated {
    pub record: ActivationRecord,
    pub merged: bool,
}

/// The activation body shared by the inline and pool executors: evaluate
/// dependency `k`'s claimed work (full or delta-seeded), fail on a denial
/// match, and repair the violations that are still unsatisfied under the
/// pending equalities. `Ok(None)` for an idle claim. Equality repairs only
/// go through [`RepairSink::equate`] — the stored instance is never
/// rewritten here. What to do with a failure is the executor's part; the
/// inserted tuples need no routing — they sit past their readers'
/// watermarks.
pub(crate) fn activate<S: RepairSink>(
    sink: &mut S,
    plan: &DepPlan<'_>,
    k: usize,
    claim: Claim,
    scratch: &mut Scratch,
) -> Result<Option<Activated>, ChaseError> {
    let dep = plan.dep;
    let t0 = Instant::now();
    let dedup0 = sink.dedup_hits();
    // A denial fails on its first match; there is nothing to collect past it.
    let (kind, seeded, violations) = match claim {
        Claim::Idle => return Ok(None),
        Claim::Full => {
            let found = collect_violations(sink.db(), plan, dep.is_denial(), scratch);
            (ActivationKind::Full, 0, found)
        }
        Claim::Delta { since, seeded } => {
            let found = delta_violations(sink.db(), plan, &since, dep.is_denial(), scratch);
            (ActivationKind::Delta, seeded as u64, found)
        }
    };
    let mut record = ActivationRecord {
        dep: k,
        kind,
        seeded,
        violations: violations.len() as u64,
        ..Default::default()
    };
    if dep.is_denial() {
        if let Some(row) = violations.rows().next() {
            return Err(ChaseError::Failure {
                dependency: dep.name.clone(),
                detail: format!("denial premise matched at {}", plan.bindings(row)),
            });
        }
    }

    // Idempotent repairs (ground single-disjunct conclusions) skip the
    // recheck entirely: re-applying one is a dedup'd no-op, so the probe
    // would only re-derive what the insert decides anyway. Such a
    // dependency records no equalities, so a clean sink stays clean for
    // the whole batch.
    let direct = !violations.is_empty() && sink.clean() && idempotent_repair(dep);
    let mut merged = false;
    for row in violations.rows() {
        // Satisfied-under-pending-equalities recheck: earlier repairs in
        // this batch may already satisfy the match even though the stored
        // instance has not been rewritten yet.
        load_match(row, sink, scratch);
        if !direct && plan.satisfied(0, sink.db(), scratch) {
            continue;
        }
        merged |= apply_disjunct(sink, plan, 0, scratch, &mut record)?;
    }
    record.dedup_hits = sink.dedup_hits() - dedup0;
    record.wall_ns = t0.elapsed().as_nanos() as u64;
    Ok(Some(Activated { record, merged }))
}
