//! Property tests for the delta-driven chase scheduler and the parallel
//! chase executor: on randomly generated **weakly acyclic** programs, the
//! delta scheduler, the parallel executor (at 2 and 4 threads) and the
//! classical full-rescan loop must produce identical instances —
//! relation by relation, up to the usual renaming of labeled nulls —
//! and agree on every failure mode.
//!
//! Comparison uses [`grom::data::canonical_render`], which relabels nulls
//! by iterated partition refinement on their occurrence structure, so
//! instances that differ only in null labels (the two schedulers repair
//! violations in different orders) render identically while structural
//! differences do not.

use proptest::prelude::*;

use grom::chase::{chase_standard, ChaseConfig, ChaseError, SchedulerMode};
use grom::data::canonical_render;
use grom::engine::instance_satisfies;
use grom::lang::{Atom, Dependency, Literal, Term};
use grom::prelude::{Instance, Value};

const RELS: [&str; 3] = ["R0", "R1", "R2"];
const VARS: [&str; 3] = ["x", "y", "z"];

fn atom(rel: usize, a: usize, b: usize) -> Atom {
    Atom::new(
        RELS[rel % 3],
        vec![Term::var(VARS[a % 3]), Term::var(VARS[b % 3])],
    )
}

/// A random tgd over binary relations; conclusion variables are premise
/// variables or the existential `w` (the same grammar as the
/// `property_chase` suite).
fn arb_tgd() -> impl Strategy<Value = Dependency> {
    (
        0usize..3,       // premise relation
        0usize..3,       // conclusion relation
        prop::bool::ANY, // second premise atom?
        0usize..4,       // conclusion arg 1 selector (3 = existential w)
        0usize..4,       // conclusion arg 2 selector
    )
        .prop_map(|(pr, cr, two, c1, c2)| {
            let mut premise = vec![Literal::Pos(atom(pr, 0, 1))];
            if two {
                premise.push(Literal::Pos(atom((pr + 1) % 3, 1, 2)));
            }
            let pick = |s: usize| {
                if s < 3 {
                    Term::var(VARS[s])
                } else {
                    Term::var("w")
                }
            };
            let conclusion = Atom::new(RELS[cr], vec![pick(c1), pick(c2)]);
            Dependency::tgd("t", premise, vec![conclusion])
        })
}

fn arb_egd() -> impl Strategy<Value = Dependency> {
    (0usize..3).prop_map(|r| {
        Dependency::egd(
            "e",
            vec![
                Literal::Pos(Atom::new(RELS[r], vec![Term::var("x"), Term::var("y")])),
                Literal::Pos(Atom::new(RELS[r], vec![Term::var("x"), Term::var("z")])),
            ],
            Term::var("y"),
            Term::var("z"),
        )
    })
}

/// A cross-relation egd `Ra(x, y), Rb(x, z) -> y = z`: the shape that
/// chains merges *across* relations, building the long union-find chains
/// sweep-level batching resolves in one pass.
fn arb_cross_egd() -> impl Strategy<Value = Dependency> {
    (0usize..3, 0usize..3).prop_map(|(a, b)| {
        Dependency::egd(
            "e",
            vec![
                Literal::Pos(Atom::new(RELS[a], vec![Term::var("x"), Term::var("y")])),
                Literal::Pos(Atom::new(RELS[b], vec![Term::var("x"), Term::var("z")])),
            ],
            Term::var("y"),
            Term::var("z"),
        )
    })
}

/// A tgd whose premise reads the *same* relation in several positions —
/// the multi-anchor overlap case the semi-naive old/new split changes
/// most. A premise match can use newly inserted tuples at two or three
/// positions at once; the split must enumerate it exactly once (anchored
/// at its first new position), where the pre-split evaluator enumerated it
/// once per anchor and deduplicated late.
fn arb_multi_anchor_tgd() -> impl Strategy<Value = Dependency> {
    (
        0usize..3,       // the repeated premise relation
        0usize..3,       // conclusion relation
        prop::bool::ANY, // third premise atom closing a triangle?
        0usize..4,       // conclusion arg 1 selector (3 = existential w)
        0usize..4,       // conclusion arg 2 selector
    )
        .prop_map(|(pr, cr, three, c1, c2)| {
            let mut premise = vec![Literal::Pos(atom(pr, 0, 1)), Literal::Pos(atom(pr, 1, 2))];
            if three {
                premise.push(Literal::Pos(atom(pr, 2, 0)));
            }
            let pick = |s: usize| {
                if s < 3 {
                    Term::var(VARS[s])
                } else {
                    Term::var("w")
                }
            };
            let conclusion = Atom::new(RELS[cr], vec![pick(c1), pick(c2)]);
            Dependency::tgd("m", premise, vec![conclusion])
        })
}

/// A program dominated by multi-anchor tgds (same relation read at 2–3
/// premise positions), mixed with ordinary tgds and egds so delta claims
/// interleave with full-rescan invalidations, rejection-sampled to the
/// weakly acyclic fragment.
fn arb_multi_anchor_program() -> impl Strategy<Value = Vec<Dependency>> {
    (
        prop::collection::vec(arb_multi_anchor_tgd(), 1..3),
        prop::collection::vec(arb_tgd(), 0..2),
        prop::collection::vec(arb_egd(), 0..2),
    )
        .prop_map(|(mut multi, mut tgds, mut egds)| {
            for (i, d) in multi.iter_mut().enumerate() {
                d.name = format!("m{i}").into();
            }
            for (i, d) in tgds.iter_mut().enumerate() {
                d.name = format!("t{i}").into();
            }
            for (i, e) in egds.iter_mut().enumerate() {
                e.name = format!("e{i}").into();
            }
            let mut deps = Vec::new();
            let mut tgds = tgds.into_iter();
            let mut egds = egds.into_iter();
            for m in multi {
                deps.push(m);
                deps.extend(tgds.next());
                deps.extend(egds.next());
            }
            deps.extend(tgds);
            deps.extend(egds);
            deps
        })
        .prop_filter("weakly acyclic", |deps| {
            grom::chase::is_weakly_acyclic(deps).weakly_acyclic
        })
}

/// A random program, rejection-sampled down to the weakly acyclic
/// fragment (where both schedulers are guaranteed to terminate).
fn arb_wa_program() -> impl Strategy<Value = Vec<Dependency>> {
    (
        prop::collection::vec(arb_tgd(), 1..4),
        prop::collection::vec(arb_egd(), 0..2),
    )
        .prop_map(|(mut tgds, mut egds)| {
            for (i, d) in tgds.iter_mut().enumerate() {
                d.name = format!("t{i}").into();
            }
            for (i, e) in egds.iter_mut().enumerate() {
                e.name = format!("e{i}").into();
            }
            // Interleave egds *between* tgds (not just as a tail): egds
            // are segment boundaries for the parallel executor, so this
            // exercises multi-segment sweeps — group-executable tgds on
            // both sides of a sequential egd position.
            let mut deps = Vec::new();
            let mut egds = egds.into_iter();
            for (i, t) in tgds.into_iter().enumerate() {
                deps.push(t);
                if i % 2 == 0 {
                    deps.extend(egds.next());
                }
            }
            deps.extend(egds);
            deps
        })
        .prop_filter("weakly acyclic", |deps| {
            grom::chase::is_weakly_acyclic(deps).weakly_acyclic
        })
}

/// An egd-rich random program: more egds than tgds, mixing same-relation
/// key egds with cross-relation ones, interleaved between the tgds so the
/// parallel executor sees eq-bearing dependencies at arbitrary positions.
/// Existential tgds guarantee labeled nulls for the egds to merge.
fn arb_egd_rich_program() -> impl Strategy<Value = Vec<Dependency>> {
    (
        prop::collection::vec(arb_tgd(), 1..3),
        prop::collection::vec(prop_oneof![arb_egd(), arb_cross_egd()], 1..5),
    )
        .prop_map(|(mut tgds, mut egds)| {
            for (i, d) in tgds.iter_mut().enumerate() {
                d.name = format!("t{i}").into();
            }
            for (i, e) in egds.iter_mut().enumerate() {
                e.name = format!("e{i}").into();
            }
            // Egds interleave with — and outnumber — the tgds, so most
            // sweeps carry several obligation-recording dependencies.
            let mut deps = Vec::new();
            let mut egds = egds.into_iter();
            for t in tgds {
                deps.extend(egds.next());
                deps.push(t);
            }
            deps.extend(egds);
            deps
        })
        .prop_filter("weakly acyclic", |deps| {
            grom::chase::is_weakly_acyclic(deps).weakly_acyclic
        })
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    prop::collection::vec((0usize..3, 0i64..3, 0i64..3), 0..8).prop_map(|facts| {
        let mut inst = Instance::new();
        for (r, a, b) in facts {
            inst.add(RELS[r], vec![Value::int(a), Value::int(b)])
                .unwrap();
        }
        inst
    })
}

fn cfg(mode: SchedulerMode) -> ChaseConfig {
    ChaseConfig::default()
        .with_max_rounds(80)
        .with_scheduler(mode)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole equivalence property: on weakly acyclic scenarios both
    /// schedulers terminate with identical instances relation by relation
    /// (canonicalized over null labels), or fail identically.
    #[test]
    fn delta_and_full_rescan_chase_agree_on_weakly_acyclic_programs(
        deps in arb_wa_program(),
        inst in arb_instance(),
    ) {
        let naive = chase_standard(
            inst.clone(), &deps, &cfg(SchedulerMode::FullRescan));
        let delta = chase_standard(inst, &deps, &cfg(SchedulerMode::Delta));

        match (naive, delta) {
            (Ok(n), Ok(d)) => {
                // Relation-by-relation identity up to null renaming.
                let n_rels: Vec<_> = n.instance.relation_names().cloned().collect();
                let d_rels: Vec<_> = d.instance.relation_names().cloned().collect();
                prop_assert_eq!(n_rels, d_rels, "relation sets differ");
                prop_assert_eq!(
                    canonical_render(&n.instance),
                    canonical_render(&d.instance),
                    "instances differ up to null renaming"
                );
                // Both are genuine solutions with consistent accounting.
                prop_assert!(instance_satisfies(&d.instance, &deps).is_empty());
                prop_assert_eq!(n.instance.len(), d.instance.len());
                prop_assert_eq!(n.stats.nulls_invented, d.stats.nulls_invented);
            }
            // Egd clashes must be seen by both schedulers (possibly
            // reported at different dependencies/rounds).
            (Err(ChaseError::Failure { .. }), Err(ChaseError::Failure { .. })) => {}
            (n, d) => {
                let n = n.map(|r| r.stats);
                let d = d.map(|r| r.stats);
                prop_assert!(false, "schedulers diverge: naive={n:?} delta={d:?}");
            }
        }
    }

    /// The parallel executor equivalence property: at 2 and 4 worker
    /// threads, the worker-pool sweeps must produce the same instances as
    /// the classical full-rescan loop (up to null renaming — workers
    /// allocate labels from disjoint strided ranges) and agree on every
    /// failure mode. Stats are not compared: sweep boundaries differ from
    /// round boundaries by design.
    #[test]
    fn parallel_and_full_rescan_chase_agree_on_weakly_acyclic_programs(
        deps in arb_wa_program(),
        inst in arb_instance(),
    ) {
        let naive = chase_standard(
            inst.clone(), &deps, &cfg(SchedulerMode::FullRescan));
        for threads in [2usize, 4] {
            let par = chase_standard(
                inst.clone(), &deps, &cfg(SchedulerMode::Parallel { threads }));
            match (&naive, par) {
                (Ok(n), Ok(p)) => {
                    let n_rels: Vec<_> = n.instance.relation_names().cloned().collect();
                    let p_rels: Vec<_> = p.instance.relation_names().cloned().collect();
                    prop_assert_eq!(n_rels, p_rels,
                        "relation sets differ at {} threads", threads);
                    prop_assert_eq!(
                        canonical_render(&n.instance),
                        canonical_render(&p.instance),
                        "instances differ up to null renaming at {} threads", threads
                    );
                    prop_assert!(instance_satisfies(&p.instance, &deps).is_empty());
                    prop_assert_eq!(n.instance.len(), p.instance.len());
                }
                (Err(ChaseError::Failure { .. }), Err(ChaseError::Failure { .. })) => {}
                (n, p) => {
                    let n = n.as_ref().map(|r| r.stats.clone());
                    let p = p.map(|r| r.stats);
                    prop_assert!(false,
                        "schedulers diverge at {threads} threads: naive={n:?} parallel={p:?}");
                }
            }
        }
    }

    /// The egd-batching equivalence property: on egd-rich weakly acyclic
    /// programs (several same- and cross-relation egds per tgd, so sweeps
    /// routinely batch obligations from multiple dependencies into one
    /// substitution pass), the batched sequential scheduler and the
    /// parallel executor at 2 and 4 threads must produce the same
    /// instances as the per-dependency-substituting full-rescan reference,
    /// up to null renaming, and agree on every failure mode.
    #[test]
    fn egd_rich_programs_agree_across_schedulers(
        deps in arb_egd_rich_program(),
        inst in arb_instance(),
    ) {
        let naive = chase_standard(
            inst.clone(), &deps, &cfg(SchedulerMode::FullRescan));
        let modes = [
            SchedulerMode::Delta,
            SchedulerMode::Parallel { threads: 2 },
            SchedulerMode::Parallel { threads: 4 },
        ];
        for mode in modes {
            let batched = chase_standard(inst.clone(), &deps, &cfg(mode));
            match (&naive, batched) {
                (Ok(n), Ok(b)) => {
                    prop_assert_eq!(
                        canonical_render(&n.instance),
                        canonical_render(&b.instance),
                        "instances differ up to null renaming under {:?}", mode
                    );
                    prop_assert!(instance_satisfies(&b.instance, &deps).is_empty());
                    prop_assert_eq!(n.instance.len(), b.instance.len());
                    // Batching invariant: never more substitution passes
                    // than merge-recording sweeps; with no merges, none.
                    if b.stats.egd_merges == 0 {
                        prop_assert_eq!(b.stats.substitution_passes, 0);
                    } else {
                        prop_assert!(
                            b.stats.substitution_passes <= b.stats.egd_merges,
                            "at most one pass per merge: passes={} merges={}",
                            b.stats.substitution_passes, b.stats.egd_merges
                        );
                    }
                }
                // Constant clashes must be seen by both schedulers
                // (possibly at different dependencies/sweeps).
                (Err(ChaseError::Failure { .. }), Err(ChaseError::Failure { .. })) => {}
                (n, b) => {
                    let n = n.as_ref().map(|r| r.stats.clone());
                    let b = b.map(|r| r.stats);
                    prop_assert!(false,
                        "schedulers diverge under {mode:?}: naive={n:?} batched={b:?}");
                }
            }
        }
    }

    /// Generator-backed equivalence: scenarios from the `grom-scenarios`
    /// primitive composer (copy chains, fusions, vertical partitions,
    /// denormalizations, entity-resolution egd cascades — far richer
    /// structure than the local random-tgd grammar above) must chase to
    /// the same canonical rendering under every scheduler mode. One u64
    /// is the whole strategy: `random_spec` fans it out into a valid
    /// spec, so the vendored shim's 6-tuple limit never binds.
    #[test]
    fn generated_scenarios_agree_across_all_scheduler_modes(
        spec_seed in any::<u64>(),
    ) {
        let spec = grom::scenarios::random_spec(spec_seed, 2);
        let g = grom::scenarios::generate(&spec);
        let (deps, inst) = g.parts().expect("generated scenario parses");
        prop_assert!(
            grom::chase::is_weakly_acyclic(&deps).weakly_acyclic,
            "generator must stay in the weakly acyclic fragment: {spec}"
        );
        let divergence = grom::scenarios::divergence(&deps, &inst, &ChaseConfig::default());
        prop_assert!(
            divergence.is_none(),
            "spec `{}` diverges: {}", spec, divergence.unwrap()
        );
    }

    /// The multi-anchor equivalence property: on programs whose premises
    /// read the same relation in several positions, the semi-naive delta
    /// scheduler and the parallel executor at 2 and 4 threads must agree
    /// with the full-rescan reference up to null renaming. Debug builds
    /// additionally assert (inside `delta_violations`) that no premise
    /// match is enumerated at more than one anchor position — this suite
    /// is the property-level exercise of that assertion.
    #[test]
    fn multi_anchor_programs_agree_across_schedulers(
        deps in arb_multi_anchor_program(),
        inst in arb_instance(),
    ) {
        let naive = chase_standard(
            inst.clone(), &deps, &cfg(SchedulerMode::FullRescan));
        let modes = [
            SchedulerMode::Delta,
            SchedulerMode::Parallel { threads: 2 },
            SchedulerMode::Parallel { threads: 4 },
        ];
        for mode in modes {
            let semi = chase_standard(inst.clone(), &deps, &cfg(mode));
            match (&naive, semi) {
                (Ok(n), Ok(s)) => {
                    prop_assert_eq!(
                        canonical_render(&n.instance),
                        canonical_render(&s.instance),
                        "instances differ up to null renaming under {:?}", mode
                    );
                    prop_assert!(instance_satisfies(&s.instance, &deps).is_empty());
                    prop_assert_eq!(n.instance.len(), s.instance.len());
                }
                (Err(ChaseError::Failure { .. }), Err(ChaseError::Failure { .. })) => {}
                (n, s) => {
                    let n = n.as_ref().map(|r| r.stats.clone());
                    let s = s.map(|r| r.stats);
                    prop_assert!(false,
                        "schedulers diverge under {mode:?}: naive={n:?} semi={s:?}");
                }
            }
        }
    }

    /// The delta scheduler respects the round budget exactly like the
    /// classical loop on non-terminating programs.
    #[test]
    fn delta_scheduler_honors_round_limit(
        seed_y in 0i64..3,
    ) {
        let dep = grom::lang::parser::parse_dependency("tgd m: R(x, y) -> R(y, z).").unwrap();
        let mut inst = Instance::new();
        // Off-diagonal seed: R(1, y) with y != 1, so every application
        // invents a fresh null and the program never terminates.
        inst.add("R", vec![Value::int(1), Value::int(seed_y + 2)]).unwrap();
        let res = chase_standard(
            inst,
            std::slice::from_ref(&dep),
            &ChaseConfig::default().with_max_rounds(25),
        );
        prop_assert!(matches!(res, Err(ChaseError::RoundLimit { rounds: 25, .. })));
    }
}
