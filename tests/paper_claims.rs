//! The paper's §3–§4 quantitative claims (E2–E6) as exact counts.
//!
//! Each claim is a count the rewriter or the ded chase must reproduce — no
//! wall time, so the claims hold in a debug build on any machine. A
//! failure means a generator in `grom_bench::workloads`, the rewriter or
//! the ded chase changed what the paper says they do.

use grom::chase::{chase_exhaustive, chase_greedy};
use grom::prelude::*;
use grom::rewrite::{analyze, rewrite_program, RewriteOutput};
use grom_bench::workloads::{
    conjunctive_family, greedy_intricacy_workload, negation_family, restriction_pair,
    running_example_scenario, running_example_source, universal_model_workload,
    RunningExampleConfig, RUNNING_EXAMPLE,
};

/// `(outputs, deds, widest conclusion)` of a rewritten program.
fn shape(out: &RewriteOutput) -> (usize, usize, usize) {
    let widest = out.deps.iter().map(|d| d.disjuncts.len()).max();
    (out.deps.len(), out.deds().count(), widest.unwrap_or(0))
}

/// E2 — §3: conjunctive views are closed under unfolding. One output per
/// input (a tgd and an egd per view) whatever the body size, and no ded.
#[test]
fn e2_conjunctive_views_stay_in_the_tgd_egd_fragment() {
    for (n, b) in [(4, 2), (16, 2), (64, 2), (16, 4), (16, 8)] {
        let (views, deps) = conjunctive_family(n, b);
        let out = rewrite_program(&views, &deps, &RewriteOptions::default()).unwrap();
        assert_eq!(shape(&out), (2 * n, 0, 1), "views = {n}, body = {b}");
        assert_eq!(out.warnings.len(), 0, "views = {n}, body = {b}");
    }
}

/// E3 — §3: negation in views surfaces as deds (the `d0` pattern). Each
/// key egd over a view with `k` negated atoms becomes one ded of
/// `1 + 2k` disjuncts: the equality, plus a witness per negated atom per
/// side of the egd premise. (Each copy tgd into such a view also emits one
/// denial per negated atom, hence `2 + k` outputs per view.)
#[test]
fn e3_negated_views_become_deds_of_width_one_plus_two_k() {
    for (n, k) in [(8, 0), (8, 1), (8, 2), (8, 4), (32, 2)] {
        let (views, deps) = negation_family(n, k);
        let out = rewrite_program(&views, &deps, &RewriteOptions::default()).unwrap();
        let deds = if k > 0 { n } else { 0 };
        let want = ((2 + k) * n, deds, 1 + 2 * k);
        assert_eq!(shape(&out), want, "views = {n}, k = {k}");
    }
}

/// E4 — §3: the universal model set of `k` independent violations of a
/// binary ded has `2^k` members (a full binary tree of `2^(k+1) − 1`
/// nodes); the greedy chase answers from its first scenario.
#[test]
fn e4_universal_model_set_is_exponential_and_greedy_is_not() {
    for k in [2, 4, 6, 8] {
        let (deps, inst) = universal_model_workload(k);
        let ex = chase_exhaustive(inst.clone(), &deps, &ChaseConfig::default()).unwrap();
        assert_eq!(ex.solutions.len(), 1 << k, "k = {k}");
        assert_eq!(ex.stats.leaves, 1 << k, "k = {k}");
        assert_eq!(ex.stats.nodes_expanded, (1 << (k + 1)) - 1, "k = {k}");
        let greedy = chase_greedy(inst, &deps, &ChaseConfig::default()).unwrap();
        assert_eq!(greedy.stats.scenarios_tried, 1, "k = {k}");
        assert_eq!(greedy.stats.scenarios_failed, 0, "k = {k}");
    }
}

/// E5 — §4: "many of the generated scenarios fail … and new ones need to
/// be executed". Ten binary deds, a fraction of whose cheap branches is
/// denied: the blind odometer burns hundreds of scenarios before the one
/// that works (ROADMAP item 4 is the replacement).
#[test]
fn e5_greedy_scenarios_grow_with_failing_branch_density() {
    let tried_and_failed = |frac: f64| {
        let (deps, inst) = greedy_intricacy_workload(10, frac, 3);
        let stats = chase_greedy(inst, &deps, &ChaseConfig::default())
            .unwrap()
            .stats;
        (stats.scenarios_tried, stats.scenarios_failed)
    };
    assert_eq!(tried_and_failed(0.0), (1, 0));
    assert_eq!(tried_and_failed(0.2), (585, 584));
    assert_eq!(tried_and_failed(0.5), (619, 618));
    assert_eq!(tried_and_failed(0.8), (1019, 1018));
}

/// E6 — §4: the reformulation exercise. The perverse running example
/// (negation inside `PopularProduct`) rewrites to one ded and the analyzer
/// blames two views; trading the negation for a flag table leaves nothing
/// to blame. Both exchange the same source into a valid solution.
#[test]
fn e6_reformulating_the_perverse_views_removes_the_ded() {
    let (perverse, reformulated) = restriction_pair();
    let source = running_example_source(&RunningExampleConfig {
        products: 100,
        stores: 5,
        seed: 42,
    });
    for (name, sc, deds, problematic) in [
        ("perverse", &perverse, 1, 2),
        ("reformulated", &reformulated, 0, 0),
    ] {
        let deps: Vec<Dependency> = sc.all_dependencies().cloned().collect();
        let (report, out) = analyze(&sc.target_views, &deps, &RewriteOptions::default()).unwrap();
        assert_eq!(out.deds().count(), deds, "{name}");
        assert_eq!(report.problematic.len(), problematic, "{name}");
        assert_eq!(report.has_deds, deds > 0, "{name}");
        let res = sc.run(&source, &PipelineOptions::default()).unwrap();
        assert_eq!(res.validation.map(|v| v.ok), Some(true), "{name}");
    }
}

/// `grombench`'s `views_exchange` workload runs this text: an edit to it
/// silently changes what that workload measures and cuts its trajectory.
#[test]
fn running_example_text_is_what_the_ledger_measures() {
    let why = "RUNNING_EXAMPLE changed: grombench's `views_exchange` workload runs this \
               text, so its recorded numbers stop being comparable";
    assert_eq!(RUNNING_EXAMPLE.len(), 1429, "{why}");
    let out = running_example_scenario()
        .rewrite(&RewriteOptions::default())
        .unwrap();
    assert_eq!(shape(&out), (9, 1, 3), "{why}");
}
