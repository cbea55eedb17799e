//! The restricted chase for standard dependencies (tgds, egds, denials).
//!
//! The chase repeatedly looks for *violations* — premise matches for which
//! the (single) disjunct is not already satisfied — and repairs them:
//!
//! * **tgd-style** disjuncts add the conclusion atoms, witnessing each
//!   existential variable with a fresh labeled null (the *restricted* chase:
//!   a violation is only repaired if no extension homomorphism already
//!   satisfies the conclusion, so the engine never bloats instances with
//!   redundant nulls);
//! * **egd-style** disjuncts unify values through a [`crate::NullMap`]; equating
//!   two distinct constants is a chase failure;
//! * **denials** (zero disjuncts) fail on any premise match;
//! * mixed disjuncts (atoms + equalities) combine both behaviours, and a
//!   disjunct whose comparisons do not hold under the match can never be
//!   repaired — also a failure. (These arise from greedy-ded scenarios.)
//!
//! For weakly-acyclic programs the result is a **universal solution** in the
//! sense of Fagin–Kolaitis–Miller–Popa; termination for arbitrary programs
//! is enforced by the round budget.
//!
//! This module holds the entry points and the full-rescan reference
//! executor; the loop they all run on is the sweep driver of
//! [`crate::sweep`].

use std::time::Instant;

use grom_data::Instance;
use grom_lang::Dependency;
use grom_trace::{ActivationKind, ActivationRecord};

use grom_engine::{Control, Db, DepPlan, Matches, Scratch};

use crate::checkpoint::ResumeState;
use crate::config::{ChaseConfig, InterruptReason};
use crate::result::{ChaseError, ChaseResult};
use crate::sweep::{apply_disjunct, load_match, run_chase, RepairSink, Run, SweepEnd};

/// Reject dependencies the standard chase cannot execute.
pub(crate) fn check_executable(dep: &Dependency, allow_deds: bool) -> Result<(), ChaseError> {
    if dep.has_negated_premise() {
        return Err(ChaseError::NotExecutable {
            dependency: dep.name.clone(),
            reason: "premise contains negated literals; run the rewriter first".into(),
        });
    }
    if !allow_deds && dep.disjuncts.len() > 1 {
        return Err(ChaseError::NotExecutable {
            dependency: dep.name.clone(),
            reason: "disjunctive conclusion requires the ded chase".into(),
        });
    }
    Ok(())
}

/// Collect the violating premise matches of `plan`'s dependency in `db`:
/// all of them, or just the first one.
pub(crate) fn collect_violations(
    db: &impl Db,
    plan: &DepPlan<'_>,
    stop_at_first: bool,
    scratch: &mut Scratch,
) -> Matches {
    let mut out = Matches::new(plan.width());
    let after_match = if stop_at_first {
        Control::Stop
    } else {
        Control::Continue
    };
    plan.violations(db, scratch, |regs| {
        out.push(regs);
        after_match
    });
    out
}

/// Run the standard chase over `start` with `deps`.
///
/// `start` is the working database: for data-exchange scenarios this is the
/// source instance (the chase adds target tuples into the same instance;
/// source and target relation names are disjoint by construction).
///
/// Runs on the sweep driver (`sweep.rs`) under
/// [`ChaseConfig::scheduler`]: the default delta-driven scheduler seeds
/// premise evaluation from the tuples inserted since each dependency was
/// last checked, the parallel executor runs the same worklist in
/// worker-pool sweeps over conflict-free dependency groups, the full-rescan
/// reference re-evaluates every premise against the whole instance each
/// round. All produce the same solutions (up to the usual renaming of
/// labeled nulls) and the same failure modes. A budget, cancellation or
/// fault stop is [`ChaseError::Interrupted`], carrying the instance-so-far
/// and a resumable checkpoint.
pub fn chase_standard(
    start: Instance,
    deps: &[Dependency],
    config: &ChaseConfig,
) -> Result<ChaseResult, ChaseError> {
    run_chase(ResumeState::fresh(start, deps), deps, config)
}

/// One round of the classical chase, the [`crate::SchedulerMode::FullRescan`]
/// executor: every dependency's premise is re-evaluated against the entire
/// instance, and a merging dependency is followed at once by its own
/// substitution pass. Deliberately naive and deliberately its own text —
/// no worklist, no deltas, no obligation batching, none of the shared
/// activation body's rechecks — because it is the oracle the batched
/// executors are compared against.
pub(crate) fn rescan_sweep(run: &mut Run<'_>) -> Result<SweepEnd, ChaseError> {
    let mut progressed = false;
    let mut tripped: Option<InterruptReason> = None;
    for (k, plan) in run.plans.iter().enumerate() {
        let dep = plan.dep;
        let t0 = Instant::now();
        let mut record = ActivationRecord {
            dep: k,
            kind: ActivationKind::Full,
            ..Default::default()
        };
        let mut any_merge = false;
        let found = collect_violations(&run.inst, plan, dep.is_denial(), &mut run.scratch);
        if dep.is_denial() {
            if let Some(row) = found.rows().next() {
                return Err(ChaseError::Failure {
                    dependency: dep.name.clone(),
                    detail: format!("denial premise matched at {}", plan.bindings(row)),
                });
            }
        } else {
            // `check_executable` guarantees exactly one disjunct here; a
            // trivially-true empty disjunct has no violations by definition.
            record.violations = found.len() as u64;
            let (mut sink, scratch) = run.live();
            for row in found.rows() {
                load_match(row, &mut sink, scratch);
                // Re-check: earlier repairs in this batch (or merges) may
                // have satisfied this match already. Note the instance may
                // still contain stale nulls mid-batch; that only makes this
                // check conservative (it may repair redundantly, and the
                // substitution below merges the duplicates).
                if plan.satisfied(0, sink.db(), scratch) {
                    continue;
                }
                any_merge |= apply_disjunct(&mut sink, plan, 0, scratch, &mut record)?;
                progressed = true;
            }
        }
        record.wall_ns = t0.elapsed().as_nanos() as u64;
        run.rec.activation(run.sweep, &record);
        if any_merge {
            let ts = Instant::now();
            let nullmap = &mut run.nullmap;
            let changed = run.inst.substitute_nulls(|id| nullmap.lookup(id));
            run.rec
                .substitution(run.sweep, 0, changed.len(), ts.elapsed().as_nanos() as u64);
            if grom_fail::hit("subst") {
                tripped.get_or_insert(InterruptReason::Fault);
            }
        }
        if tripped.is_none() {
            tripped = run.tripped();
        }
    }
    Ok(SweepEnd {
        tripped,
        fixpoint: !progressed,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerMode;
    use grom_data::{Tuple, Value};
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

    fn cfg() -> ChaseConfig {
        ChaseConfig::default()
    }

    #[test]
    fn copy_tgd() {
        let dep = parse_dependency("tgd m: S(x, y) -> T(x, y).").unwrap();
        let res = chase_standard(
            inst(&[("S", &[1, 2]), ("S", &[3, 4])]),
            std::slice::from_ref(&dep),
            &cfg(),
        )
        .unwrap();
        assert!(res
            .instance
            .contains_fact("T", &Tuple::new(vec![Value::int(1), Value::int(2)])));
        assert!(res
            .instance
            .contains_fact("T", &Tuple::new(vec![Value::int(3), Value::int(4)])));
        assert!(instance_satisfies(&res.instance, &[dep]).is_empty());
        assert_eq!(res.stats.tuples_inserted, 2);
        assert_eq!(res.stats.nulls_invented, 0);
    }

    #[test]
    fn existential_tgd_invents_nulls() {
        let dep = parse_dependency("tgd m: S(x) -> T(x, y), U(y).").unwrap();
        let res = chase_standard(inst(&[("S", &[1])]), std::slice::from_ref(&dep), &cfg()).unwrap();
        // One shared fresh null across both conclusion atoms.
        assert_eq!(res.stats.nulls_invented, 1);
        let t: Vec<_> = res.instance.tuples("T").collect();
        let u: Vec<_> = res.instance.tuples("U").collect();
        assert_eq!(t.len(), 1);
        assert_eq!(u.len(), 1);
        assert_eq!(t[0].get(1), u[0].get(0));
        assert!(t[0].get(1).unwrap().is_null());
        assert!(instance_satisfies(&res.instance, &[dep]).is_empty());
    }

    #[test]
    fn two_existentials_get_distinct_nulls() {
        // One fresh null per existential variable per trigger, shared by
        // the disjunct's atoms: T(x, a, b) with U(b, a), a ≠ b, and no null
        // reused across the two triggers.
        let dep = parse_dependency("tgd m: S(x) -> T(x, y, z), U(z, y).").unwrap();
        let modes = [
            SchedulerMode::Delta,
            SchedulerMode::FullRescan,
            SchedulerMode::Parallel { threads: 2 },
        ];
        for mode in modes {
            let start = inst(&[("S", &[1]), ("S", &[2])]);
            let deps = std::slice::from_ref(&dep);
            let res = chase_standard(start, deps, &cfg().with_scheduler(mode)).unwrap();
            let mut nulls = std::collections::BTreeSet::new();
            for t in res.instance.tuples("T") {
                let (a, b) = (t.get(1).unwrap(), t.get(2).unwrap());
                assert!(a.is_null() && b.is_null(), "{mode:?}: {t}");
                let u = Tuple::new(vec![b.clone(), a.clone()]);
                assert!(res.instance.contains_fact("U", &u), "{mode:?}: no U{u}");
                nulls.extend([a.clone(), b.clone()]);
            }
            assert_eq!(res.instance.tuples("T").count(), 2, "{mode:?}");
            assert_eq!(res.instance.tuples("U").count(), 2, "{mode:?}");
            assert_eq!(nulls.len(), 4, "{mode:?}: {}", res.instance);
        }
    }

    #[test]
    fn restricted_chase_is_idempotent() {
        let dep = parse_dependency("tgd m: S(x) -> T(x, y).").unwrap();
        let res = chase_standard(inst(&[("S", &[1])]), std::slice::from_ref(&dep), &cfg()).unwrap();
        let nulls_before = res.stats.nulls_invented;
        let res2 = chase_standard(res.instance, &[dep], &cfg()).unwrap();
        // Nothing new: the conclusion is already witnessed.
        assert_eq!(res2.stats.nulls_invented, 0);
        assert_eq!(res2.stats.tuples_inserted, 0);
        assert_eq!(nulls_before, 1);
    }

    #[test]
    fn egd_merges_null_with_constant() {
        // First tgd invents a null for y; then a second source tuple fixes
        // the value via the egd on T's key.
        let m = parse_dependency("tgd m: S(x) -> T(x, y).").unwrap();
        let k = parse_dependency("tgd k: S2(x, y) -> T(x, y).").unwrap();
        let e = parse_dependency("egd e: T(x, y1), T(x, y2) -> y1 = y2.").unwrap();
        let start = inst(&[("S", &[1]), ("S2", &[1, 42])]);
        let res = chase_standard(start, &[m.clone(), k.clone(), e.clone()], &cfg()).unwrap();
        let t: Vec<_> = res.instance.tuples("T").collect();
        assert_eq!(
            t.len(),
            1,
            "null tuple must merge with constant tuple: {t:?}"
        );
        assert_eq!(t[0].get(1), Some(&Value::int(42)));
        assert!(res.stats.egd_merges >= 1);
        assert!(instance_satisfies(&res.instance, &[m, k, e]).is_empty());
    }

    #[test]
    fn egd_clash_fails() {
        let e = parse_dependency("egd e: T(x, y1), T(x, y2) -> y1 = y2.").unwrap();
        let start = inst(&[("T", &[1, 10]), ("T", &[1, 20])]);
        match chase_standard(start, &[e], &cfg()) {
            Err(ChaseError::Failure { dependency, .. }) => {
                assert_eq!(dependency.as_ref(), "e");
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn egd_merges_two_nulls() {
        let m1 = parse_dependency("tgd a: S(x) -> T(x, y).").unwrap();
        let m2 = parse_dependency("tgd b: S(x) -> U(x, y).").unwrap();
        let e = parse_dependency("egd e: T(x, y1), U(x, y2) -> y1 = y2.").unwrap();
        let res = chase_standard(inst(&[("S", &[1])]), &[m1, m2, e.clone()], &cfg()).unwrap();
        let t: Vec<_> = res.instance.tuples("T").collect();
        let u: Vec<_> = res.instance.tuples("U").collect();
        assert_eq!(t[0].get(1), u[0].get(1));
        assert!(t[0].get(1).unwrap().is_null());
        assert!(instance_satisfies(&res.instance, [&e]).is_empty());
    }

    #[test]
    fn denial_fails_on_match() {
        let n = parse_dependency("dep n: T(x, x) -> false.").unwrap();
        let ok = chase_standard(inst(&[("T", &[1, 2])]), std::slice::from_ref(&n), &cfg());
        assert!(ok.is_ok());
        let bad = chase_standard(inst(&[("T", &[3, 3])]), &[n], &cfg());
        assert!(matches!(bad, Err(ChaseError::Failure { .. })));
    }

    #[test]
    fn denial_triggered_by_tgd_output() {
        // The tgd produces T(x, x) which the denial forbids.
        let m = parse_dependency("tgd m: S(x) -> T(x, x).").unwrap();
        let n = parse_dependency("dep n: T(x, x) -> false.").unwrap();
        let res = chase_standard(inst(&[("S", &[1])]), &[m, n], &cfg());
        assert!(matches!(res, Err(ChaseError::Failure { .. })));
    }

    #[test]
    fn foreign_key_chain_terminates() {
        // Dept(d) -> Emp(e, d); Emp(e, d) -> Dept(d): weakly acyclic pair.
        let p = parse_program(
            "tgd a: Dept(d) -> Emp(e, d).\n\
             tgd b: Emp(e, d) -> Dept(d).",
        )
        .unwrap();
        let res = chase_standard(inst(&[("Dept", &[1])]), &p.deps, &cfg()).unwrap();
        assert_eq!(res.instance.tuples("Emp").count(), 1);
        assert_eq!(res.instance.tuples("Dept").count(), 1);
    }

    #[test]
    fn non_terminating_program_hits_round_limit() {
        // R(x, y) -> R(y, z): each application invents a new null — the
        // classic non-weakly-acyclic example.
        let dep = parse_dependency("tgd m: R(x, y) -> R(y, z).").unwrap();
        let res = chase_standard(
            inst(&[("R", &[1, 2])]),
            &[dep],
            &ChaseConfig::default().with_max_rounds(20),
        );
        assert!(matches!(
            res,
            Err(ChaseError::RoundLimit { rounds: 20, .. })
        ));
    }

    #[test]
    fn negated_premise_rejected() {
        let dep = parse_dependency("dep m: S(x), not B(x) -> T(x).").unwrap();
        let res = chase_standard(inst(&[("S", &[1])]), &[dep], &cfg());
        assert!(matches!(res, Err(ChaseError::NotExecutable { .. })));
    }

    #[test]
    fn ded_rejected_by_standard_chase() {
        let dep = parse_dependency("ded d: S(x) -> T(x) | U(x).").unwrap();
        let res = chase_standard(inst(&[("S", &[1])]), &[dep], &cfg());
        assert!(matches!(res, Err(ChaseError::NotExecutable { .. })));
    }

    #[test]
    fn premise_comparisons_gate_matches() {
        let p = parse_program(
            "tgd lo: S(x, r), r < 2 -> Low(x).\n\
             tgd hi: S(x, r), r >= 4 -> High(x).",
        )
        .unwrap();
        let start = inst(&[("S", &[1, 1]), ("S", &[2, 3]), ("S", &[3, 5])]);
        let res = chase_standard(start, &p.deps, &cfg()).unwrap();
        let low: Vec<_> = res.instance.tuples("Low").collect();
        let high: Vec<_> = res.instance.tuples("High").collect();
        assert_eq!(low.len(), 1);
        assert_eq!(low[0].get(0), Some(&Value::int(1)));
        assert_eq!(high.len(), 1);
        assert_eq!(high[0].get(0), Some(&Value::int(3)));
    }

    #[test]
    fn mixed_disjunct_applies_atoms_and_equalities() {
        let dep = parse_dependency("dep d: S(x, y) -> T(x, z), x = y.").unwrap();
        // x = y holds only when the S tuple is diagonal; otherwise clash.
        let res =
            chase_standard(inst(&[("S", &[1, 1])]), std::slice::from_ref(&dep), &cfg()).unwrap();
        assert_eq!(res.instance.tuples("T").count(), 1);
        let res = chase_standard(inst(&[("S", &[1, 2])]), &[dep], &cfg());
        assert!(matches!(res, Err(ChaseError::Failure { .. })));
    }

    #[test]
    fn disjunct_comparison_violation_is_failure() {
        // Derived-scenario shape: conclusion requires y != 0 which is
        // unsatisfiable for the match (1, 0).
        let dep = parse_dependency("dep d: S(x, y) -> T(x), y != 0.").unwrap();
        let res = chase_standard(inst(&[("S", &[1, 0])]), &[dep], &cfg());
        assert!(matches!(res, Err(ChaseError::Failure { .. })));
    }

    #[test]
    fn chase_cascades_through_dependencies() {
        let p = parse_program(
            "tgd a: S(x) -> A(x).\n\
             tgd b: A(x) -> B(x).\n\
             tgd c: B(x) -> C(x).",
        )
        .unwrap();
        let res = chase_standard(inst(&[("S", &[7])]), &p.deps, &cfg()).unwrap();
        assert!(res
            .instance
            .contains_fact("C", &Tuple::new(vec![Value::int(7)])));
        // Cascade completes within few rounds.
        assert!(res.stats.rounds <= 4, "rounds = {}", res.stats.rounds);
    }

    #[test]
    fn egd_substitution_reaches_all_relations() {
        let m = parse_dependency("tgd m: S(x) -> T(x, y), U(y, x).").unwrap();
        let k = parse_dependency("tgd k: S2(x, y) -> T(x, y).").unwrap();
        let e = parse_dependency("egd e: T(x, a), T(x, b) -> a = b.").unwrap();
        let start = inst(&[("S", &[1]), ("S2", &[1, 9])]);
        let res = chase_standard(start, &[m, k, e], &cfg()).unwrap();
        // The null propagated into U must also have been replaced by 9.
        let u: Vec<_> = res.instance.tuples("U").collect();
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].get(0), Some(&Value::int(9)));
    }

    #[test]
    fn relations_created_mid_run_are_seen_by_later_activations() {
        // Only `Src` exists when the program is compiled. `c` is declared
        // first, so its first activation finds `Mid` absent; `b` then
        // creates it, and `c`'s next activation must read it. Within that
        // activation the repair of Mid(1, 10) creates `Out`, and the recheck
        // of Mid(1, 11) must already see Out(1, _) — one null per key, not
        // one per match. `d` joins two relations created along the way.
        let p = parse_program(
            "tgd c: Mid(x, y) -> Out(x, z).\n\
             tgd b: Src(x, y) -> Mid(x, y).\n\
             tgd d: Out(x, z), Mid(x, y) -> Fin(x, y).",
        )
        .unwrap();
        let start = inst(&[("Src", &[1, 10]), ("Src", &[1, 11]), ("Src", &[2, 20])]);
        let modes = [
            SchedulerMode::Delta,
            SchedulerMode::Parallel { threads: 2 },
            SchedulerMode::FullRescan,
        ];
        let mut renders = Vec::new();
        for mode in modes {
            let config = cfg().with_scheduler(mode);
            let res = chase_standard(start.clone(), &p.deps, &config).unwrap();
            assert_eq!(res.instance.tuples("Mid").count(), 3, "{mode:?}");
            assert_eq!(res.instance.tuples("Out").count(), 2, "{mode:?}");
            assert_eq!(res.stats.nulls_invented, 2, "{mode:?}");
            assert_eq!(res.instance.tuples("Fin").count(), 3, "{mode:?}");
            assert!(
                instance_satisfies(&res.instance, &p.deps).is_empty(),
                "{mode:?}"
            );
            renders.push(grom_data::canonical_render(&res.instance));
        }
        assert!(renders.windows(2).all(|w| w[0] == w[1]));
    }
}
