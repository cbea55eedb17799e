//! Cross-crate integration tests over a spread of mapping scenarios:
//! foreign keys as target tgds over views, union views end to end,
//! source-side semantic schemas, denial constraints, and failure modes.

use grom::prelude::*;

fn run_text(text: &str, facts: &[(&str, Vec<Value>)]) -> Result<ExchangeResult, PipelineError> {
    let prog = Program::parse(text).expect("scenario parses");
    let sc = MappingScenario::from_program(&prog).expect("scenario well-formed");
    let mut source = Instance::new();
    for (rel, vals) in facts {
        source.add(*rel, vals.clone()).unwrap();
    }
    sc.run(&source, &PipelineOptions::default())
}

fn ints(vals: &[i64]) -> Vec<Value> {
    vals.iter().map(|&v| Value::int(v)).collect()
}

#[test]
fn foreign_key_as_target_tgd_over_views() {
    // The paper's footnote 1: foreign-key constraints are handled too —
    // here as a target tgd between views: every Order must have its
    // Customer row, invented by the chase if the mapping did not create it.
    let res = run_text(
        r#"
        schema source { S_Order(id: int, cust: int); }
        schema target {
            T_Order(id: int, cust: int);
            T_Customer(id: int, name: string);
        }
        view Order(id, c) <- T_Order(id, c).
        view Customer(c) <- T_Customer(c, name).
        tgd m: S_Order(i, c) -> Order(i, c).
        dep fk: Order(i, c) -> Customer(c).
        "#,
        &[("S_Order", ints(&[1, 10])), ("S_Order", ints(&[2, 20]))],
    )
    .unwrap();
    assert_eq!(res.target.tuples("T_Order").count(), 2);
    // The FK invented customer rows (name is a labeled null).
    let custs: Vec<&Tuple> = res.target.tuples("T_Customer").collect();
    assert_eq!(custs.len(), 2);
    for c in &custs {
        assert!(c.get(1).unwrap().is_null());
    }
    assert!(res.validation.unwrap().ok);
}

#[test]
fn union_view_conclusion_runs_through_greedy_chase() {
    // Writing to a union view gives the chase a genuine choice (a ded);
    // greedy picks one branch and the result must still validate.
    let res = run_text(
        r#"
        schema source { S(x: int); }
        schema target { A(x: int); B(x: int); }
        view V(x) <- A(x).
        view V(x) <- B(x).
        tgd m: S(x) -> V(x).
        "#,
        &[("S", ints(&[1])), ("S", ints(&[2]))],
    )
    .unwrap();
    assert!(!res.rewritten.is_ded_free());
    assert!(res.chase_stats.scenarios_tried >= 1);
    assert!(res.validation.unwrap().ok);
    // One of the branches carries both tuples.
    let total = res.target.tuples("A").count() + res.target.tuples("B").count();
    assert_eq!(total, 2);
}

#[test]
fn union_view_with_denied_branch_backtracks() {
    // The A-branch is denied, so the greedy chase must fall over to B.
    let res = run_text(
        r#"
        schema source { S(x: int); }
        schema target { A(x: int); B(x: int); }
        view V(x) <- A(x).
        view V(x) <- B(x).
        view Forbidden(x) <- A(x).
        tgd m: S(x) -> V(x).
        dep no_a: Forbidden(x) -> false.
        "#,
        &[("S", ints(&[1]))],
    )
    .unwrap();
    assert_eq!(res.target.tuples("A").count(), 0);
    assert_eq!(res.target.tuples("B").count(), 1);
    assert!(res.chase_stats.scenarios_failed >= 1);
    assert!(res.validation.unwrap().ok);
}

#[test]
fn source_and_target_semantic_schemas_together() {
    // The general variant of §3: views on both sides. Source views are
    // materialized (composition reduction), target views are rewritten.
    let res = run_text(
        r#"
        schema source { S_Emp(name: string, dept: string, salary: int); }
        schema target { T_Person(name: string); T_Member(name: string, dept: string); }
        view WellPaid(n, d) <- S_Emp(n, d, s), s >= 100.
        view Member(n, d) <- T_Person(n), T_Member(n, d).
        tgd m: WellPaid(n, d) -> Member(n, d).
        "#,
        &[
            (
                "S_Emp",
                vec![Value::str("ann"), Value::str("db"), Value::int(200)],
            ),
            (
                "S_Emp",
                vec![Value::str("bob"), Value::str("ai"), Value::int(50)],
            ),
        ],
    )
    .unwrap();
    assert_eq!(res.source_view_extents.tuples("WellPaid").count(), 1);
    assert_eq!(res.target.tuples("T_Person").count(), 1);
    assert_eq!(res.target.tuples("T_Member").count(), 1);
    assert!(res.validation.unwrap().ok);
}

#[test]
fn negated_view_on_source_side_materializes() {
    // Negation in *source* views costs nothing: they are materialized, not
    // rewritten (the asymmetric trade-off the architecture exploits).
    let res = run_text(
        r#"
        schema source { S_A(x: int); S_Block(x: int); }
        schema target { T(x: int); }
        view Allowed(x) <- S_A(x), not S_Block(x).
        tgd m: Allowed(x) -> T(x).
        "#,
        &[
            ("S_A", ints(&[1])),
            ("S_A", ints(&[2])),
            ("S_Block", ints(&[2])),
        ],
    )
    .unwrap();
    assert!(res.rewritten.is_ded_free());
    let t: Vec<&Tuple> = res.target.tuples("T").collect();
    assert_eq!(t.len(), 1);
    assert_eq!(t[0].get(0), Some(&Value::int(1)));
    assert!(res.validation.unwrap().ok);
}

#[test]
fn target_key_merges_invented_nulls() {
    let res = run_text(
        r#"
        schema source { S(x: int); S_Val(x: int, v: int); }
        schema target { T(x: int, v: int); }
        view V(x, v) <- T(x, v).
        tgd a: S(x) -> T(x, v).
        tgd b: S_Val(x, v) -> V(x, v).
        egd key: V(x, v1), V(x, v2) -> v1 = v2.
        "#,
        &[("S", ints(&[1])), ("S_Val", ints(&[1, 42]))],
    )
    .unwrap();
    let t: Vec<&Tuple> = res.target.tuples("T").collect();
    assert_eq!(t.len(), 1);
    assert_eq!(t[0].get(1), Some(&Value::int(42)));
    assert!(res.chase_stats.egd_merges >= 1);
    assert!(res.validation.unwrap().ok);
}

#[test]
fn denial_constraint_blocks_bad_exchanges() {
    let text = r#"
        schema source { S(x: int, y: int); }
        schema target { T(x: int, y: int); }
        view V(x, y) <- T(x, y).
        tgd m: S(x, y) -> V(x, y).
        dep no_diag: V(x, x) -> false.
    "#;
    // Off-diagonal data: fine.
    assert!(run_text(text, &[("S", ints(&[1, 2]))]).is_ok());
    // Diagonal data: the denial fires.
    let res = run_text(text, &[("S", ints(&[3, 3]))]);
    assert!(matches!(res, Err(PipelineError::Chase(_))));
}

#[test]
fn comparisons_partition_without_overlap() {
    let res = run_text(
        r#"
        schema source { S(x: int, r: int); }
        schema target { Lo(x: int); Mid(x: int); Hi(x: int); }
        view VLo(x) <- Lo(x).
        view VMid(x) <- Mid(x).
        view VHi(x) <- Hi(x).
        tgd lo: S(x, r), r < 10 -> VLo(x).
        tgd mid: S(x, r), r >= 10, r < 100 -> VMid(x).
        tgd hi: S(x, r), r >= 100 -> VHi(x).
        "#,
        &[
            ("S", ints(&[1, 5])),
            ("S", ints(&[2, 50])),
            ("S", ints(&[3, 500])),
            ("S", ints(&[4, 10])),
        ],
    )
    .unwrap();
    assert_eq!(res.target.tuples("Lo").count(), 1);
    assert_eq!(res.target.tuples("Mid").count(), 2);
    assert_eq!(res.target.tuples("Hi").count(), 1);
    assert!(res.validation.unwrap().ok);
}

#[test]
fn string_constants_flow_through() {
    let res = run_text(
        r#"
        schema source { S(name: string, kind: string); }
        schema target { T(name: string, tag: string); }
        view Widget(n) <- T(n, "widget").
        tgd m: S(n, "w") -> Widget(n).
        "#,
        &[
            ("S", vec![Value::str("a"), Value::str("w")]),
            ("S", vec![Value::str("b"), Value::str("gadget")]),
        ],
    )
    .unwrap();
    let t: Vec<&Tuple> = res.target.tuples("T").collect();
    assert_eq!(t.len(), 1);
    assert_eq!(t[0].get(0), Some(&Value::str("a")));
    assert_eq!(t[0].get(1), Some(&Value::str("widget")));
    assert!(res.validation.unwrap().ok);
}

#[test]
fn deep_view_chains_unfold_fully() {
    let res = run_text(
        r#"
        schema source { S(x: int); }
        schema target { Base(x: int, y: int); }
        view L1(x) <- Base(x, y).
        view L2(x) <- L1(x).
        view L3(x) <- L2(x).
        view L4(x) <- L3(x).
        tgd m: S(x) -> L4(x).
        "#,
        &[("S", ints(&[9]))],
    )
    .unwrap();
    let t: Vec<&Tuple> = res.target.tuples("Base").collect();
    assert_eq!(t.len(), 1);
    assert_eq!(t[0].get(0), Some(&Value::int(9)));
    assert!(res.validation.unwrap().ok);
}

#[test]
fn empty_mappings_produce_empty_target() {
    let res = run_text(
        r#"
        schema source { S(x: int); }
        schema target { T(x: int); }
        view V(x) <- T(x).
        egd e: V(x), V(y) -> x = y.
        "#,
        &[("S", ints(&[1]))],
    )
    .unwrap();
    assert!(res.target.is_empty());
    assert!(res.validation.unwrap().ok);
}

#[test]
fn exhaustive_and_greedy_agree_on_satisfiability() {
    // For the union-view scenario, run the rewritten program under both
    // ded strategies and check both find solutions satisfying the program.
    let prog = Program::parse(
        r#"
        schema source { S(x: int); }
        schema target { A(x: int); B(x: int); }
        view V(x) <- A(x).
        view V(x) <- B(x).
        tgd m: S(x) -> V(x).
        "#,
    )
    .unwrap();
    let sc = MappingScenario::from_program(&prog).unwrap();
    let rewritten = sc.rewrite(&RewriteOptions::default()).unwrap();

    let mut source = Instance::new();
    source.add("S", ints(&[1])).unwrap();
    source.add("S", ints(&[2])).unwrap();

    let greedy =
        grom::chase::chase_greedy(source.clone(), &rewritten.deps, &ChaseConfig::default())
            .unwrap();
    let exhaustive =
        grom::chase::chase_exhaustive(source, &rewritten.deps, &ChaseConfig::default()).unwrap();
    // 2 facts × 2 branches = 4 leaves; greedy commits to one branch.
    assert_eq!(exhaustive.solutions.len(), 4);
    for sol in &exhaustive.solutions {
        assert!(grom::engine::instance_satisfies(sol, &rewritten.deps).is_empty());
    }
    assert!(grom::engine::instance_satisfies(&greedy.instance, &rewritten.deps).is_empty());
}
