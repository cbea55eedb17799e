//! Failure-injection and diagnostics tests: malformed scenarios must fail
//! with actionable errors, never panic; budgets must be enforced; warnings
//! and provenance must point at the right objects.

use grom::prelude::*;

#[test]
fn parse_errors_carry_positions() {
    for (text, expect) in [
        ("view V(x <- A(x).", "expected"),
        ("tgd m: -> T(x).", "expected"),
        ("fact S(x).", "ground"),
        ("schema s { R(a: floating); }", "unknown column type"),
    ] {
        let err = Program::parse(text).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(expect),
            "error for `{text}` should mention `{expect}`, got: {msg}"
        );
    }
}

#[test]
fn recursive_views_rejected_before_running() {
    // A view set is resolved when the program has been read: the parse
    // reports it.
    let err = Program::parse(
        r#"
        schema source { S(x: int); }
        schema target { T(x: int); }
        view V(x) <- W(x).
        view W(x) <- T(x), not V(x).
        tgd m: S(x) -> V(x).
        "#,
    )
    .unwrap_err();
    assert_eq!(
        err.to_string(),
        "view definitions are recursive: V -> W -> V"
    );
}

#[test]
fn unsafe_view_rejected_with_variable_name() {
    let err = Program::parse(
        r#"
        schema source { S(x: int); }
        schema target { T(x: int); }
        view V(x, ghost) <- T(x).
        tgd m: S(x) -> T(x).
        "#,
    )
    .unwrap_err();
    assert_eq!(
        err.to_string(),
        "unsafe view rule for `V`: head variable `ghost` does not occur in any positive body atom"
    );
}

#[test]
fn rewrite_budget_is_enforced_not_truncated() {
    // 20 union rules used three times: 8000 premise alternatives > budget.
    let mut text = String::from("schema source { S(x: int); }\nschema target {\n");
    for i in 0..20 {
        text.push_str(&format!("  A{i}(x: int);\n"));
    }
    text.push_str("  Out(x: int, y: int, z: int);\n}\n");
    for i in 0..20 {
        text.push_str(&format!("view V(x) <- A{i}(x).\n"));
    }
    text.push_str("view VOut(x, y, z) <- Out(x, y, z).\n");
    text.push_str("dep m: V(x), V(y), V(z) -> VOut(x, y, z).\n");
    let prog = Program::parse(&text).unwrap();
    let sc = MappingScenario::from_program(&prog).unwrap();
    let err = sc.rewrite(&RewriteOptions::default()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("budget"), "{msg}");

    // Raising the budget makes it pass — 8000 output dependencies.
    let out = sc
        .rewrite(&RewriteOptions {
            max_alternatives: 10_000,
        })
        .unwrap();
    assert_eq!(out.deps.len(), 8_000);
}

#[test]
fn provenance_maps_every_output_to_its_input() {
    let prog = Program::parse(
        r#"
        schema source { S_P(id: int, r: int); }
        schema target { T_P(id: int); T_R(id: int, v: int); }
        view Good(x) <- T_P(x), not T_R(x, 0).
        tgd m_hi: S_P(x, r), r >= 4 -> Good(x).
        egd key: Good(x), Good(y) -> x = y.
        "#,
    )
    .unwrap();
    let sc = MappingScenario::from_program(&prog).unwrap();
    let out = sc.rewrite(&RewriteOptions::default()).unwrap();
    for dep in &out.deps {
        let input = &out.provenance[&dep.name];
        assert!(
            ["m_hi", "key"].contains(&input.as_ref()),
            "unexpected provenance {input} for {}",
            dep.name
        );
    }
    // The ded produced from the key egd blames the Good view.
    let ded = out
        .deds()
        .next()
        .expect("key egd over negated view gives a ded");
    assert!(out.ded_causes[&ded.name]
        .iter()
        .any(|c| c.as_ref() == "Good"));
}

#[test]
fn chase_failure_message_names_the_dependency() {
    let prog = Program::parse(
        r#"
        schema source { S(x: int, y: int); }
        schema target { T(x: int, y: int); }
        view V(x, y) <- T(x, y).
        tgd m: S(x, y) -> V(x, y).
        egd funky: V(x, a), V(x, b) -> a = b.
        "#,
    )
    .unwrap();
    let sc = MappingScenario::from_program(&prog).unwrap();
    let mut source = Instance::new();
    source
        .add("S", vec![Value::int(1), Value::int(10)])
        .unwrap();
    source
        .add("S", vec![Value::int(1), Value::int(20)])
        .unwrap();
    let err = sc.run(&source, &PipelineOptions::default()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("funky"), "{msg}");
    assert!(msg.contains("10") && msg.contains("20"), "{msg}");
}

#[test]
fn validation_report_names_violated_dependencies() {
    let prog = Program::parse(
        r#"
        schema source { S(x: int); }
        schema target { T(x: int); }
        view V(x) <- T(x).
        tgd copy_all: S(x) -> V(x).
        "#,
    )
    .unwrap();
    let sc = MappingScenario::from_program(&prog).unwrap();
    let mut source = Instance::new();
    source.add("S", vec![Value::int(1)]).unwrap();
    // Hand the validator an (empty) wrong target.
    let report = validate_solution(&sc, &source, &Instance::new()).unwrap();
    assert!(!report.ok);
    assert!(report.violations[0].contains("copy_all"));
    assert!(report.to_string().contains("INVALID"));
}

#[test]
fn wa_warning_surfaces_for_non_terminating_programs() {
    // An FK cycle that creates fresh nulls forever: the analysis flags it,
    // and the chase stops at the round budget instead of spinning.
    let prog = Program::parse(
        r#"
        schema source { S(x: int); }
        schema target { A(x: int, y: int); }
        view VA(x, y) <- A(x, y).
        tgd seed: S(x) -> VA(x, y).
        dep spin: VA(x, y) -> VA(y, z).
        "#,
    )
    .unwrap();
    let sc = MappingScenario::from_program(&prog).unwrap();
    let rewritten = sc.rewrite(&RewriteOptions::default()).unwrap();
    let report = grom::chase::is_weakly_acyclic(&rewritten.deps);
    assert!(!report.weakly_acyclic);

    let mut source = Instance::new();
    source.add("S", vec![Value::int(1)]).unwrap();
    let opts = PipelineOptions {
        chase: ChaseConfig::default().with_max_rounds(25),
        ..Default::default()
    };
    let err = sc.run(&source, &opts).unwrap_err();
    assert!(err.to_string().contains("25 rounds"), "{err}");
}

#[test]
fn instance_io_round_trips_chase_output() {
    // Save a chased target (with nulls) and reload it: the validator must
    // accept the reloaded instance exactly like the original.
    let prog = Program::parse(
        r#"
        schema source { S(x: int); }
        schema target { T(x: int, y: int); }
        view V(x) <- T(x, y).
        tgd m: S(x) -> V(x).
        "#,
    )
    .unwrap();
    let sc = MappingScenario::from_program(&prog).unwrap();
    let mut source = Instance::new();
    source.add("S", vec![Value::int(1)]).unwrap();
    let res = sc.run(&source, &PipelineOptions::default()).unwrap();

    let text = grom::data::write_instance(&res.target);
    let reloaded = grom::data::read_instance(&text).unwrap();
    assert_eq!(reloaded.len(), res.target.len());
    let report = validate_solution(&sc, &source, &reloaded).unwrap();
    assert!(report.ok);
}
