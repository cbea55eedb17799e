//! Chasing disjunctive embedded dependencies (§3 "Handling Complexity").
//!
//! Two strategies, mirroring the paper:
//!
//! * [`chase_greedy`] — the **greedy chase**: fix one disjunct per ded (a
//!   *scenario*), which turns the program into standard tgds/egds, and run
//!   the standard chase; on failure, backtrack to the next scenario.
//!   Disjuncts are tried cheapest-first (equalities before tuple-producing
//!   branches), which is what makes the strategy "often surprisingly quick"
//!   (§4). Sound but not complete: committing to one disjunct *per ded*
//!   cannot mix branches across different violations of the same ded.
//! * [`chase_exhaustive`] — the complete tree chase: at every ded violation
//!   fork one branch per disjunct; the successful leaves form the
//!   **universal model set** (Deutsch–Nash–Remmel), whose size may be
//!   exponential in the number of violations (2^k leaves for k independent
//!   violations of a binary ded; `tests/paper_claims.rs` pins the counts),
//!   and the reason GROM defaults to the greedy strategy.
//!
//! [`chase_greedy`] is the only scenario enumeration: a blind odometer over
//! the deds' disjunct orderings that learns nothing from a failed scenario
//! (`tests/paper_claims.rs` E5 pins what that costs as failing branches
//! get denser).
//!
//! Both strategies close instances under the *standard* dependencies by
//! delegating to [`chase_standard`], so every scenario run and every
//! tree-node closure is a run of the sweep driver ([`crate::sweep`]) under
//! the configured [`crate::config::SchedulerMode`].

use grom_data::{Instance, NullGenerator, Value};
use grom_lang::Dependency;
use grom_trace::{ActivationRecord, ChaseProfile, SearchProfile};

use grom_engine::{DepPlan, Scratch};

use crate::config::ChaseConfig;
use crate::nullmap::NullMap;
use crate::result::{ChaseError, ChaseResult, ChaseStats};
use crate::standard::{chase_standard, check_executable, collect_violations};
use crate::sweep::{apply_disjunct, load_match, LiveSink};

/// Anchor the campaign budget once, so every scenario / node closure the
/// campaign delegates to [`chase_standard`] shares one wall-clock deadline
/// ([`crate::Budget::anchored`] is idempotent — the inner runs re-anchor
/// to the same instant). Tuple/null caps remain per-standard-run: each
/// scenario starts from the same source instance, so a per-run cap is the
/// meaningful bound.
fn campaign_config(config: &ChaseConfig) -> ChaseConfig {
    ChaseConfig {
        budget: config.budget.anchored(),
        ..config.clone()
    }
}

/// Result of the exhaustive ded chase: the universal model set (one
/// instance per successful leaf; instances that differ only by null
/// renaming are not deduplicated) plus statistics.
#[derive(Debug, Clone)]
pub struct ExhaustiveResult {
    pub solutions: Vec<Instance>,
    /// Totalled from `profile`.
    pub stats: ChaseStats,
    /// Per-dependency profile folded across every node closure (merged by
    /// dependency name — see [`ChaseProfile::absorb`]), each fork's repair
    /// credited to the ded it repairs, and the tree in its search section.
    pub profile: ChaseProfile,
}

/// Split a dependency set into standard dependencies and deds.
fn split(deps: &[Dependency]) -> (Vec<Dependency>, Vec<Dependency>) {
    let (deds, standard): (Vec<_>, Vec<_>) = deps.iter().cloned().partition(Dependency::is_ded);
    (standard, deds)
}

/// Cost key for ordering a ded's disjuncts in the greedy search: equalities
/// first (no new tuples, likely to merge), then by how many tuples the
/// branch would create.
fn disjunct_cost(dep: &Dependency, i: usize) -> (usize, usize) {
    let d = &dep.disjuncts[i];
    (usize::from(!d.atoms.is_empty()), d.atoms.len())
}

/// The per-ded disjunct orderings used by the greedy search.
fn greedy_orders(deds: &[Dependency]) -> Vec<Vec<usize>> {
    deds.iter()
        .map(|dep| {
            let mut order: Vec<usize> = (0..dep.disjuncts.len()).collect();
            order.sort_by_key(|&i| disjunct_cost(dep, i));
            order
        })
        .collect()
}

/// Derive the standard dependency of scenario choice `choice[k]` for ded
/// `k`: same premise, only the chosen disjunct.
fn derive_scenario(deds: &[Dependency], choice: &[usize]) -> Vec<Dependency> {
    deds.iter()
        .zip(choice)
        .map(|(dep, &i)| Dependency {
            name: format!("{}#{}", dep.name, i).into(),
            premise: dep.premise.clone(),
            disjuncts: vec![dep.disjuncts[i].clone()],
        })
        .collect()
}

/// The greedy ded chase. `start` is the working database (source facts; the
/// chase adds target facts into it).
pub fn chase_greedy(
    start: Instance,
    deps: &[Dependency],
    config: &ChaseConfig,
) -> Result<ChaseResult, ChaseError> {
    for dep in deps {
        check_executable(dep, true)?;
    }
    let config = &campaign_config(config);
    let (standard, deds) = split(deps);
    if deds.is_empty() {
        return chase_standard(start, &standard, config);
    }

    let orders = greedy_orders(&deds);
    let mut search = SearchProfile::default();
    let exhausted = |search: SearchProfile| ChaseError::GreedyExhausted {
        scenarios_tried: search.scenarios_tried as usize,
        profile: Box::new(ChaseProfile {
            search,
            ..Default::default()
        }),
    };
    // Every scenario is the standard dependencies plus one derived
    // dependency per ded: one list, its tail rewritten per scenario.
    let standard_len = standard.len();
    let mut scenario_deps = standard;

    // Odometer over scenario space, in greedy (cheapest-first) order.
    let mut odometer = vec![0usize; deds.len()];
    loop {
        if search.scenarios_tried as usize >= config.max_scenarios {
            return Err(exhausted(search));
        }
        search.scenarios_tried += 1;

        let choice: Vec<usize> = odometer
            .iter()
            .enumerate()
            .map(|(k, &o)| orders[k][o])
            .collect();
        scenario_deps.truncate(standard_len);
        scenario_deps.extend(derive_scenario(&deds, &choice));

        match chase_standard(start.clone(), &scenario_deps, config) {
            Ok(mut result) => {
                result.profile.search = search;
                result.stats = ChaseStats::from(&result.profile);
                return Ok(result);
            }
            Err(ChaseError::Failure { .. }) => {
                search.scenarios_failed += 1;
            }
            Err(other) => return Err(other), // round limits etc. propagate
        }

        // Advance the odometer; when it wraps, the space is exhausted.
        let mut k = deds.len();
        loop {
            if k == 0 {
                return Err(exhausted(search));
            }
            k -= 1;
            odometer[k] += 1;
            if odometer[k] < orders[k].len() {
                break;
            }
            odometer[k] = 0;
        }
    }
}

/// Dispatch: the greedy chase when deds are present, the plain standard
/// chase otherwise. This is GROM's default execution path.
pub fn chase_with_deds(
    start: Instance,
    deps: &[Dependency],
    config: &ChaseConfig,
) -> Result<ChaseResult, ChaseError> {
    chase_greedy(start, deps, config)
}

/// Find the first ded violation in `inst`: `(ded index, premise match)`.
fn first_ded_violation(
    inst: &Instance,
    deds: &[DepPlan<'_>],
    scratch: &mut Scratch,
) -> Option<(usize, Vec<Option<Value>>)> {
    deds.iter().enumerate().find_map(|(k, plan)| {
        let found = collect_violations(inst, plan, true, scratch);
        let row = found.rows().next()?;
        Some((k, row.to_vec()))
    })
}

/// The exhaustive (complete) ded chase: computes the universal model set.
///
/// Every tree node first closes the instance under the *standard*
/// dependencies (a deterministic fixpoint — failures prune the branch),
/// then forks on the first remaining ded violation, one child per disjunct.
pub fn chase_exhaustive(
    start: Instance,
    deps: &[Dependency],
    config: &ChaseConfig,
) -> Result<ExhaustiveResult, ChaseError> {
    for dep in deps {
        check_executable(dep, true)?;
    }
    let config = &campaign_config(config);
    let (standard, deds) = split(deps);

    // The deds are checked at every node of the tree: compile them once.
    let ded_plans: Vec<DepPlan<'_>> = deds.iter().map(DepPlan::compile).collect();
    let mut scratch = Scratch::default();

    let mut profile = ChaseProfile::default();
    let mut solutions = Vec::new();
    let mut stack: Vec<Instance> = vec![start];

    while let Some(inst) = stack.pop() {
        profile.search.nodes_expanded += 1;
        let nodes = profile.search.nodes_expanded as usize;
        if nodes > config.max_nodes {
            return Err(ChaseError::NodeLimit { nodes });
        }

        // 1. Close under standard dependencies.
        let inst = match chase_standard(inst, &standard, config) {
            Ok(res) => {
                profile.absorb(&res.profile);
                res.instance
            }
            Err(ChaseError::Failure { .. }) => {
                profile.search.branches_failed += 1;
                continue;
            }
            Err(other) => return Err(other),
        };

        // 2. Fork on the first ded violation, if any.
        match first_ded_violation(&inst, &ded_plans, &mut scratch) {
            None => {
                profile.search.leaves += 1;
                solutions.push(inst);
            }
            Some((k, row)) => {
                let plan = &ded_plans[k];
                for i in 0..plan.disjuncts.len() {
                    let mut child = inst.clone();
                    let mut nullgen =
                        NullGenerator::starting_at(child.max_null_label().map_or(0, |l| l + 1));
                    let mut nullmap = NullMap::new();
                    let mut sink = LiveSink {
                        inst: &mut child,
                        nullmap: &mut nullmap,
                        nullgen: &mut nullgen,
                    };
                    load_match(&row, &mut sink, &mut scratch);
                    // A failed fork still counts what it did before failing.
                    let mut repairs = ActivationRecord::default();
                    let forked = apply_disjunct(&mut sink, plan, i, &mut scratch, &mut repairs);
                    profile.dep_mut(&plan.dep.name).add_repairs(&repairs);
                    match forked {
                        Ok(merged) => {
                            if merged {
                                child.substitute_nulls(|id| nullmap.lookup(id));
                                profile.substitution_passes += 1;
                            }
                            stack.push(child);
                        }
                        Err(ChaseError::Failure { .. }) => {
                            profile.search.branches_failed += 1;
                        }
                        Err(other) => return Err(other),
                    }
                }
            }
        }
    }

    if solutions.is_empty() {
        return Err(ChaseError::NoSolution {
            branches_failed: profile.search.branches_failed as usize,
        });
    }
    Ok(ExhaustiveResult {
        solutions,
        stats: ChaseStats::from(&profile),
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn greedy_without_deds_is_standard_chase() {
        let p = parse_program("tgd m: S(x) -> T(x).").unwrap();
        let res = chase_greedy(inst(&[("S", &[1])]), &p.deps, &cfg()).unwrap();
        assert_eq!(res.stats.scenarios_tried, 0);
        assert_eq!(res.instance.tuples("T").count(), 1);
    }

    #[test]
    fn greedy_solves_simple_ded() {
        let d = parse_dependency("ded d: P(x) -> Q(x) | R(x).").unwrap();
        let res = chase_greedy(
            inst(&[("P", &[1]), ("P", &[2])]),
            std::slice::from_ref(&d),
            &cfg(),
        )
        .unwrap();
        assert_eq!(res.stats.scenarios_tried, 1);
        assert!(instance_satisfies(&res.instance, &[d]).is_empty());
        // All matches committed to the same disjunct.
        assert_eq!(res.instance.tuples("Q").count(), 2);
        assert_eq!(res.instance.tuples("R").count(), 0);
    }

    #[test]
    fn greedy_prefers_equality_disjuncts() {
        // d0-like: merge ids rather than inventing rating tuples.
        let d = parse_dependency("ded d: P(p1, n), P(p2, n) -> R(r, p1) | p1 = p2 | R(r2, p2).")
            .unwrap();
        // Single product: equality disjunct trivially satisfiable.
        let res = chase_greedy(inst(&[("P", &[1, 7])]), std::slice::from_ref(&d), &cfg()).unwrap();
        assert_eq!(res.stats.scenarios_tried, 1);
        // The equality branch was chosen: no R tuples invented.
        assert_eq!(res.instance.tuples("R").count(), 0);
    }

    #[test]
    fn greedy_backtracks_on_failure() {
        // First (cheapest) scenario picks the equality disjunct, which
        // clashes for P(1,7), P(2,7); the second scenario succeeds.
        let d = parse_dependency("ded d: P(p1, n), P(p2, n) -> p1 = p2 | R(p1).").unwrap();
        let res = chase_greedy(
            inst(&[("P", &[1, 7]), ("P", &[2, 7])]),
            std::slice::from_ref(&d),
            &cfg(),
        )
        .unwrap();
        assert_eq!(res.stats.scenarios_tried, 2);
        assert_eq!(res.stats.scenarios_failed, 1);
        assert!(instance_satisfies(&res.instance, &[d]).is_empty());
        assert!(res.instance.tuples("R").count() >= 1);
    }

    #[test]
    fn greedy_exhausts_when_no_scenario_works() {
        // Both branches denied.
        let p = parse_program(
            "ded d: P(x) -> Q(x) | R(x).\n\
             dep nq: Q(x) -> false.\n\
             dep nr: R(x) -> false.",
        )
        .unwrap();
        let res = chase_greedy(inst(&[("P", &[1])]), &p.deps, &cfg());
        assert!(matches!(
            res,
            Err(ChaseError::GreedyExhausted {
                scenarios_tried: 2,
                ..
            })
        ));
    }

    #[test]
    fn greedy_scenario_cap_respected() {
        let p = parse_program(
            "ded d: P(x) -> Q(x) | R(x).\n\
             ded d2: P(x) -> Q2(x) | R2(x).\n\
             dep nq: Q(x) -> false.\n\
             dep nr: R(x) -> false.",
        )
        .unwrap();
        let res = chase_greedy(
            inst(&[("P", &[1])]),
            &p.deps,
            &ChaseConfig::default().with_max_scenarios(2),
        );
        assert!(matches!(
            res,
            Err(ChaseError::GreedyExhausted {
                scenarios_tried: 2,
                ..
            })
        ));
    }

    #[test]
    fn exhaustive_counts_leaves_exponentially() {
        // k independent violations of a 2-disjunct ded: 2^k leaves.
        let d = parse_dependency("ded d: P(x) -> Q(x) | R(x).").unwrap();
        for k in 1..=4 {
            let facts: Vec<(&str, Vec<i64>)> = (0..k).map(|i| ("P", vec![i as i64])).collect();
            let mut start = Instance::new();
            for (rel, vals) in &facts {
                start
                    .add(*rel, vals.iter().map(|&v| Value::int(v)).collect())
                    .unwrap();
            }
            let res = chase_exhaustive(start, std::slice::from_ref(&d), &cfg()).unwrap();
            assert_eq!(res.solutions.len(), 1 << k, "k = {k}");
            for sol in &res.solutions {
                assert!(instance_satisfies(sol, std::slice::from_ref(&d)).is_empty());
            }
        }
    }

    #[test]
    fn exhaustive_fork_invents_a_null_per_existential() {
        // The fork into the first disjunct invents two nulls, one per
        // existential variable: T(1, a, b) with U(b, a) and a ≠ b.
        let d = parse_dependency("ded d: S(x) -> T(x, y, z), U(z, y) | V(x).").unwrap();
        let res = chase_exhaustive(inst(&[("S", &[1])]), std::slice::from_ref(&d), &cfg()).unwrap();
        assert_eq!(res.solutions.len(), 2);
        let forked: Vec<&Instance> = res
            .solutions
            .iter()
            .filter(|sol| sol.tuples("T").count() > 0)
            .collect();
        assert_eq!(forked.len(), 1);
        let sol = forked[0];
        let t: Vec<_> = sol.tuples("T").collect();
        assert_eq!(t.len(), 1);
        let (a, b) = (t[0].get(1).unwrap(), t[0].get(2).unwrap());
        assert!(a.is_null() && b.is_null() && a != b, "{sol}");
        let u = Tuple::new(vec![b.clone(), a.clone()]);
        assert!(sol.contains_fact("U", &u), "{sol}");
        assert_eq!(sol.tuples("U").count(), 1);
    }

    #[test]
    fn exhaustive_mixes_branches_greedy_cannot() {
        // Q(1) is denied, Q(2) is fine: the only solutions route P(1)
        // through R. Greedy (one disjunct per ded) must pick R for both;
        // exhaustive finds the mixed leaf too.
        let p = parse_program(
            "ded d: P(x) -> Q(x) | R(x).\n\
             dep n: Q(1) -> false.",
        )
        .unwrap();
        let start = inst(&[("P", &[1]), ("P", &[2])]);
        let ex = chase_exhaustive(start.clone(), &p.deps, &cfg()).unwrap();
        // Leaves: P(1)->R and P(2)->Q or R: 2 solutions... plus branch
        // orderings; all must satisfy the program.
        assert!(ex.solutions.len() >= 2);
        for sol in &ex.solutions {
            assert!(instance_satisfies(sol, &p.deps).is_empty());
            assert_eq!(
                sol.tuples("Q")
                    .filter(|t| t.get(0) == Some(&Value::int(1)))
                    .count(),
                0
            );
        }
        // Greedy also succeeds (scenario R for all).
        let gr = chase_greedy(start, &p.deps, &cfg()).unwrap();
        assert!(instance_satisfies(&gr.instance, &p.deps).is_empty());
    }

    #[test]
    fn exhaustive_no_solution() {
        let p = parse_program(
            "ded d: P(x) -> Q(x) | R(x).\n\
             dep nq: Q(x) -> false.\n\
             dep nr: R(x) -> false.",
        )
        .unwrap();
        let res = chase_exhaustive(inst(&[("P", &[1])]), &p.deps, &cfg());
        assert!(matches!(res, Err(ChaseError::NoSolution { .. })));
    }

    #[test]
    fn exhaustive_node_cap() {
        let d = parse_dependency("ded d: P(x) -> Q(x) | R(x).").unwrap();
        let facts: Vec<(&str, &[i64])> = vec![];
        let mut start = inst(&facts);
        for i in 0..12 {
            start.add("P", vec![Value::int(i)]).unwrap();
        }
        let res = chase_exhaustive(start, &[d], &ChaseConfig::default().with_max_nodes(100));
        assert!(matches!(res, Err(ChaseError::NodeLimit { .. })));
    }

    #[test]
    fn greedy_success_implies_exhaustive_has_solutions() {
        let d = parse_dependency("ded d: P(p1, n), P(p2, n) -> p1 = p2 | R(p1) | R(p2).").unwrap();
        let start = inst(&[("P", &[1, 7]), ("P", &[2, 7]), ("P", &[3, 8])]);
        let greedy = chase_greedy(start.clone(), std::slice::from_ref(&d), &cfg()).unwrap();
        assert!(instance_satisfies(&greedy.instance, std::slice::from_ref(&d)).is_empty());
        let ex = chase_exhaustive(start, std::slice::from_ref(&d), &cfg()).unwrap();
        assert!(!ex.solutions.is_empty());
    }

    #[test]
    fn paper_d0_shape_end_to_end() {
        // d0: two distinct popular products sharing a name force either an
        // id merge (impossible on constants) or a 0-rating witness.
        let d = parse_dependency(
            "ded d0: TP(p1, n, s1), TP(p2, n, s2), p1 != p2 \
             -> p1 = p2 | TR(r, p1, 0) | TR(r2, p2, 0).",
        )
        .unwrap();
        let mut start = Instance::new();
        start
            .add("TP", vec![Value::int(1), Value::str("tv"), Value::int(10)])
            .unwrap();
        start
            .add("TP", vec![Value::int(2), Value::str("tv"), Value::int(20)])
            .unwrap();
        let res = chase_greedy(start, std::slice::from_ref(&d), &cfg()).unwrap();
        // p1 = p2 clashes, so a rating tuple must have been invented.
        assert!(res.stats.scenarios_failed >= 1);
        assert!(res.instance.tuples("TR").count() >= 1);
        assert!(instance_satisfies(&res.instance, &[d]).is_empty());
    }
}
