//! Property-based tests for the chase engine: whenever a chase run
//! succeeds, the result satisfies every dependency; the restricted chase is
//! idempotent; the exhaustive ded chase returns only genuine solutions and
//! agrees with the greedy strategy on satisfiability in one direction
//! (greedy success ⇒ solutions exist).

use proptest::prelude::*;

use grom::chase::{chase_exhaustive, chase_greedy, chase_standard, ChaseConfig, ChaseError};
use grom::engine::instance_satisfies;
use grom::lang::{Atom, Dependency, Disjunct, Literal, Term};
use grom::prelude::{ChaseStats, Instance, Value};

const RELS: [&str; 3] = ["R0", "R1", "R2"];
const VARS: [&str; 3] = ["x", "y", "z"];

fn atom(rel: usize, a: usize, b: usize) -> Atom {
    Atom::new(
        RELS[rel % 3],
        vec![Term::var(VARS[a % 3]), Term::var(VARS[b % 3])],
    )
}

/// A random tgd over binary relations; conclusion variables are premise
/// variables or the existential `w`.
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

fn arb_program() -> impl Strategy<Value = Vec<Dependency>> {
    (
        prop::collection::vec(arb_tgd(), 1..4),
        prop::collection::vec(arb_egd(), 0..2),
    )
        .prop_map(|(mut tgds, egds)| {
            for (i, d) in tgds.iter_mut().enumerate() {
                d.name = format!("t{i}").into();
            }
            let mut deps = tgds;
            for (i, mut e) in egds.into_iter().enumerate() {
                e.name = format!("e{i}").into();
                deps.push(e);
            }
            deps
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

/// A tight config: random programs may be non-terminating; RoundLimit runs
/// are discarded by the properties below.
fn cfg() -> ChaseConfig {
    ChaseConfig::default().with_max_rounds(60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn successful_chase_satisfies_all_dependencies(
        deps in arb_program(),
        inst in arb_instance(),
    ) {
        match chase_standard(inst, &deps, &cfg()) {
            Ok(res) => {
                let violations = instance_satisfies(&res.instance, &deps);
                prop_assert!(
                    violations.is_empty(),
                    "dep {} violated after successful chase", violations[0].dependency
                );
            }
            Err(ChaseError::Failure { .. }) | Err(ChaseError::RoundLimit { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected chase error: {other}"),
        }
    }

    #[test]
    fn restricted_chase_is_idempotent(
        deps in arb_program(),
        inst in arb_instance(),
    ) {
        if let Ok(res) = chase_standard(inst, &deps, &cfg()) {
            let size = res.instance.len();
            let again = chase_standard(res.instance, &deps, &cfg())
                .expect("re-chasing a solution cannot fail");
            prop_assert_eq!(again.instance.len(), size);
            prop_assert_eq!(again.stats.tuples_inserted, 0);
            prop_assert_eq!(again.stats.nulls_invented, 0);
        }
    }

    #[test]
    fn chase_preserves_source_facts(
        deps in arb_program(),
        inst in arb_instance(),
    ) {
        let originals: Vec<_> = inst.facts().collect();
        if let Ok(res) = chase_standard(inst, &deps, &cfg()) {
            for f in originals {
                // Source facts are all-constant, so egd null substitution
                // never rewrites them.
                prop_assert!(
                    res.instance.contains_fact(&f.relation, &f.tuple),
                    "lost source fact {f}"
                );
            }
        }
    }
}

/// A random binary ded `R_i(x, y) → R_j(x, y) ∨ R_k(x, y)`.
fn arb_ded() -> impl Strategy<Value = Dependency> {
    (0usize..3, 0usize..3, 0usize..3).prop_map(|(p, a, b)| {
        Dependency::new(
            "d",
            vec![Literal::Pos(atom(p, 0, 1))],
            vec![
                Disjunct::atoms(vec![atom(a, 0, 1)]),
                Disjunct::atoms(vec![atom(b, 0, 1)]),
            ],
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exhaustive_leaves_are_solutions_and_greedy_agrees(
        ded in arb_ded(),
        tgds in prop::collection::vec(arb_tgd(), 0..2),
        inst in arb_instance(),
    ) {
        let mut deps = vec![ded];
        for (i, mut t) in tgds.into_iter().enumerate() {
            t.name = format!("t{i}").into();
            deps.push(t);
        }
        let cfg = ChaseConfig::default()
            .with_max_rounds(60)
            .with_max_nodes(1_000);

        let greedy = chase_greedy(inst.clone(), &deps, &cfg);
        let exhaustive = chase_exhaustive(inst, &deps, &cfg);

        match (&greedy, &exhaustive) {
            (Ok(g), Ok(ex)) => {
                prop_assert!(instance_satisfies(&g.instance, &deps).is_empty());
                for sol in &ex.solutions {
                    prop_assert!(instance_satisfies(sol, &deps).is_empty());
                }
            }
            // Greedy success must imply exhaustive success (soundness of
            // the greedy strategy wrt the complete semantics).
            (Ok(_), Err(ChaseError::NoSolution { .. })) => {
                prop_assert!(false, "greedy found a solution but exhaustive found none");
            }
            // Resource limits and genuine unsatisfiability are acceptable.
            _ => {}
        }
    }

    /// Generator-backed soundness: every scenario the `grom-scenarios`
    /// composer emits chases successfully under the default config, and
    /// the solution satisfies all of its dependencies — including the
    /// egd cascades whose merges the local grammar above rarely builds.
    #[test]
    fn generated_scenarios_chase_to_genuine_solutions(
        spec_seed in any::<u64>(),
    ) {
        let spec = grom::scenarios::random_spec(spec_seed, 2);
        let g = grom::scenarios::generate(&spec);
        let (deps, inst) = g.parts().expect("generated scenario parses");
        let res = chase_standard(inst, &deps, &ChaseConfig::default())
            .expect("generated scenarios chase cleanly by construction");
        let violations = instance_satisfies(&res.instance, &deps);
        prop_assert!(
            violations.is_empty(),
            "dep {} violated on spec `{}`", violations[0].dependency, spec
        );
    }

    #[test]
    fn chase_stats_are_consistent(
        tgds in prop::collection::vec(arb_tgd(), 1..4),
        inst in arb_instance(),
    ) {
        // Tgds only: egd merges can collapse tuples, which would break the
        // exact growth accounting below.
        let mut deps = tgds;
        for (i, d) in deps.iter_mut().enumerate() {
            d.name = format!("t{i}").into();
        }
        if let Ok(res) = chase_standard(inst.clone(), &deps, &cfg()) {
            let ChaseStats { rounds, tuples_inserted, .. } = res.stats;
            // At least one round ran; the instance grew by exactly the
            // inserted count.
            prop_assert!(rounds >= 1);
            prop_assert_eq!(res.instance.len(), inst.len() + tuples_inserted);
        }
    }
}
