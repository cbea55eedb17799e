//! The repository's headline property: **soundness of the rewriting**.
//!
//! The paper's contract (§3): whenever the rewritten program admits a
//! universal solution `J_T` over `I_S`, then `Υ_T(J_T)` is a solution of
//! the original source-to-semantic mapping. We test it on randomly
//! generated semantic scenarios — views in Datalog with negation (including
//! unions and views over views), random classification tgds with
//! comparisons, optional key egds — and random source instances:
//!
//! * pipeline succeeds ⇒ the validator certifies the original mapping;
//! * pipeline succeeds ⇒ the chased instance satisfies the *rewritten*
//!   program too (internal consistency);
//! * failures are allowed (sound-but-incomplete), but only as chase
//!   failures / scenario exhaustion — never as internal errors.

use proptest::prelude::*;

use grom::prelude::*;

/// A random view body literal over the fixed target base schema
/// `B0(x: int, y: int)`, `B1(x: int, y: int)`, `B2(x: int)`.
#[derive(Debug, Clone)]
enum BodyLit {
    /// `B{i}(x, _fresh)` — binds the head variable.
    PosBinary(usize),
    /// `B2(x)`.
    PosUnary,
    /// `not B{i}(x, w)` with `w` local to the negation.
    NegBinary(usize),
    /// `not B2(x)`.
    NegUnary,
    /// `not V{j}(x)` — negation of an earlier view (the v3 pattern).
    NegView(usize),
    /// `V{j}(x)` — positive reference to an earlier view.
    PosView(usize),
}

#[derive(Debug, Clone)]
struct ViewSpec {
    /// Each inner vec is one union rule; every rule implicitly starts with
    /// a positive binder `B{anchor}(x, y{k})`.
    rules: Vec<(usize, Vec<BodyLit>)>,
}

fn arb_body_lit(view_idx: usize) -> impl Strategy<Value = BodyLit> {
    let mut options: Vec<BoxedStrategy<BodyLit>> = vec![
        (0usize..2).prop_map(BodyLit::PosBinary).boxed(),
        Just(BodyLit::PosUnary).boxed(),
        (0usize..2).prop_map(BodyLit::NegBinary).boxed(),
        Just(BodyLit::NegUnary).boxed(),
    ];
    if view_idx > 0 {
        options.push((0..view_idx).prop_map(BodyLit::NegView).boxed());
        options.push((0..view_idx).prop_map(BodyLit::PosView).boxed());
    }
    proptest::strategy::Union::new(options)
}

fn arb_view(view_idx: usize) -> impl Strategy<Value = ViewSpec> {
    prop::collection::vec(
        (
            0usize..2,
            prop::collection::vec(arb_body_lit(view_idx), 0..2),
        ),
        1..3, // 1 or 2 union rules
    )
    .prop_map(|rules| ViewSpec { rules })
}

#[derive(Debug, Clone)]
struct ScenarioSpec {
    views: Vec<ViewSpec>,
    /// One tgd per view with a rating threshold: `S(a, r), r >= t -> V{i}(a)`.
    thresholds: Vec<i64>,
    /// Add the key egd `V{0}(a1), V{0}(a2) -> a1 = a2`?
    key_egd: bool,
    /// Source facts `S(a, r)`.
    facts: Vec<(i64, i64)>,
}

fn arb_scenario() -> impl Strategy<Value = ScenarioSpec> {
    (1usize..4)
        .prop_flat_map(|n_views| {
            let views: Vec<_> = (0..n_views).map(arb_view).collect();
            (
                views,
                prop::collection::vec(0i64..4, n_views..=n_views),
                prop::bool::ANY,
                prop::collection::vec((0i64..3, 0i64..5), 0..5),
            )
        })
        .prop_map(|(views, thresholds, key_egd, facts)| ScenarioSpec {
            views,
            thresholds,
            key_egd,
            facts,
        })
}

fn render(spec: &ScenarioSpec) -> String {
    let mut text = String::from(
        "schema source { S(a: int, r: int); }\n\
         schema target { B0(x: int, y: int); B1(x: int, y: int); B2(x: int); }\n",
    );
    for (i, view) in spec.views.iter().enumerate() {
        for (anchor, lits) in &view.rules {
            text.push_str(&format!("view V{i}(x) <- B{anchor}(x, yb)"));
            for (k, lit) in lits.iter().enumerate() {
                match lit {
                    BodyLit::PosBinary(b) => text.push_str(&format!(", B{b}(x, p{k})")),
                    BodyLit::PosUnary => text.push_str(", B2(x)"),
                    BodyLit::NegBinary(b) => text.push_str(&format!(", not B{b}(x, w{k})")),
                    BodyLit::NegUnary => text.push_str(", not B2(x)"),
                    BodyLit::NegView(j) => text.push_str(&format!(", not V{j}(x)")),
                    BodyLit::PosView(j) => text.push_str(&format!(", V{j}(x)")),
                }
            }
            text.push_str(".\n");
        }
    }
    for (i, t) in spec.thresholds.iter().enumerate() {
        text.push_str(&format!("tgd m{i}: S(a, r), r >= {t} -> V{i}(a).\n"));
    }
    if spec.key_egd {
        text.push_str("egd k0: V0(a1), V0(a2) -> a1 = a2.\n");
    }
    text
}

fn source_of(spec: &ScenarioSpec) -> Instance {
    let mut inst = Instance::new();
    for &(a, r) in &spec.facts {
        inst.add("S", vec![Value::int(a), Value::int(r)]).unwrap();
    }
    inst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rewriting_is_sound_on_random_semantic_scenarios(spec in arb_scenario()) {
        let text = render(&spec);
        let program = Program::parse(&text)
            .unwrap_or_else(|e| panic!("generated program must parse: {e}\n{text}"));
        // Generated views can be recursive only through the V{j<i} indexing
        // discipline, so from_program must succeed.
        let scenario = MappingScenario::from_program(&program)
            .unwrap_or_else(|e| panic!("generated scenario must be well-formed: {e}\n{text}"));
        let source = source_of(&spec);

        let options = PipelineOptions {
            chase: ChaseConfig::default()
                .with_max_rounds(60)
                .with_max_scenarios(64),
            ..Default::default()
        };
        match scenario.run(&source, &options) {
            Ok(result) => {
                // THE soundness contract.
                let validation = result.validation.expect("validation requested");
                prop_assert!(
                    validation.ok,
                    "sound rewriting violated!\nscenario:\n{text}\nsource:\n{source}\
                     \ntarget:\n{target}\nreport: {validation}",
                    target = result.target,
                );
                // Internal consistency: the chased working database also
                // satisfies every rewritten dependency.
                let mut working = source.clone();
                working.absorb(&result.target).unwrap();
                working.absorb(&result.source_view_extents).unwrap();
                let violations = grom::engine::instance_satisfies(&working, &result.rewritten.deps);
                prop_assert!(
                    violations.is_empty(),
                    "rewritten dep {} unsatisfied\n{text}", violations[0].dependency
                );
            }
            // Sound-but-incomplete: the rewritten program may fail even
            // when the original has solutions; that is the documented
            // contract. Resource limits are likewise acceptable.
            Err(PipelineError::Chase(_)) => {} // incl. round/scenario budgets
            // Very deep unions can exceed the expansion budget — an
            // explicit, sound error.
            Err(PipelineError::Rewrite(grom::rewrite::RewriteError::TooComplex { .. })) => {}
            Err(other) => {
                prop_assert!(false, "unexpected pipeline error: {other}\n{text}");
            }
        }
    }

    #[test]
    fn rewriting_is_deterministic_on_random_scenarios(spec in arb_scenario()) {
        let text = render(&spec);
        let program = Program::parse(&text).unwrap();
        let scenario = MappingScenario::from_program(&program).unwrap();
        let a = scenario.rewrite(&RewriteOptions::default());
        let b = scenario.rewrite(&RewriteOptions::default());
        match (a, b) {
            (Ok(a), Ok(b)) => {
                let fmt = |o: &RewriteOutput| {
                    o.deps.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
                };
                prop_assert_eq!(fmt(&a), fmt(&b));
            }
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "nondeterministic rewrite outcome"),
        }
    }

    #[test]
    fn analyzer_prediction_is_conservative(spec in arb_scenario()) {
        // predicts_deds == false for every dependency must imply a
        // ded-free rewriting of the whole program.
        let text = render(&spec);
        let program = Program::parse(&text).unwrap();
        let scenario = MappingScenario::from_program(&program).unwrap();
        let deps: Vec<Dependency> = scenario.all_dependencies().cloned().collect();
        let any_predicted = deps
            .iter()
            .any(|d| grom::rewrite::analysis::predicts_deds(&scenario.target_views, d));
        if let Ok(out) = scenario.rewrite(&RewriteOptions::default()) {
            if !any_predicted {
                prop_assert!(
                    out.is_ded_free(),
                    "analyzer said no deds but rewriting produced some\n{text}"
                );
            }
        }
    }
}
