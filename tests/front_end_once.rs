//! The front end resolves a view set once, and what it emits does not move.
//!
//! `tests/golden/rewrite_text.txt` holds everything `grom rewrite` prints —
//! the dependencies with their class tags, the warnings, the
//! `ded … caused by` lines — for the paper's running example, one
//! `rewrite_wide` ladder and a scenario built to hit every
//! [`RewriteWarning`] class, a union view on each side of an arrow, a head
//! constant and a repeated head variable. It was recorded at the commit
//! before `ViewSet` became valid by construction and the rewriter lost its
//! second unfolded form, and must stay byte-identical. Re-record it only
//! for an intended change of the rewriter's output, with the reason written
//! down:
//!
//! ```text
//! cargo test --test front_end_once -- --ignored --nocapture print_golden \
//!     | grep -v '^running \|^test \|^$' > tests/golden/rewrite_text.txt
//! ```
//!
//! The materialization orders below are pinned the same way: the order is
//! observable (it is the order `Υ(I)` is computed in and the key order of
//! the per-view counts), so the stored order must be element for element
//! what the recursive sort returned.
//!
//! The two depth tests run on deliberately small stacks: nothing between
//! `Program::parse` and `MappingScenario::run` may recurse per view, and the
//! one place that still does — the rewriter's unfolding — must refuse a view
//! nested too deep for it with an error, never a signal.

use std::fmt::Write as _;
use std::process::Command;

use grom::prelude::*;
use grom::rewrite::{RewriteError, RewriteWarning};

const GOLDEN: &str = include_str!("golden/rewrite_text.txt");

/// One ladder of `grombench`'s `rewrite_wide` workload.
const LADDER: &str = r#"
    schema source { S_P0(id: int, name: string, rating: int); }
    schema target {
        T_P0(id: int, name: string, store: int);
        T_R0(id: int, product: int, thumbsUp: int);
    }
    view Popular0(pid, name) <- T_P0(pid, name, store), not T_R0(rid, pid, 0).
    view Avg0(pid, name) <- T_P0(pid, name, store), T_R0(rid, pid, 1), not Popular0(pid, name).
    view Unpopular0(pid, name) <- T_P0(pid, name, store), not Avg0(pid, name), not Popular0(pid, name).
    tgd m0_0: S_P0(pid, name, rating), rating < 2 -> Unpopular0(pid, name).
    tgd m1_0: S_P0(pid, name, rating), rating >= 2, rating < 4 -> Avg0(pid, name).
    tgd m2_0: S_P0(pid, name, rating), rating >= 4 -> Popular0(pid, name).
    egd e0: Popular0(id1, n), Popular0(id2, n) -> id1 = id2.
"#;

/// Every warning class, a union view in a premise and in a conclusion, a
/// head constant, a repeated head variable, a source-side (materialized,
/// never unfolded) union view.
const EVERYTHING: &str = r#"
    schema source { S(x: int, y: int); S2(x: int); }
    schema target {
        A(x: int, y: int); B(x: int); C(x: int); Price(x: int, p: int);
    }
    view SU(x) <- S2(x).
    view SU(x) <- S(x, y).
    view U(x) <- B(x).
    view U(x) <- C(x), not B(x).
    view Pop(x) <- A(x, y), not B(x).
    view Avg(x) <- A(x, y), C(x), not Pop(x).
    view Unpop(x) <- A(x, y), not Avg(x), not Pop(x).
    view Sh(x) <- A(x, z), not B(z).
    view Cheap(x) <- Price(x, p), p < 10.
    view Flag(x, 1) <- B(x).
    view Diag(x, x) <- C(x).
    view Never(x) <- A(x, y), y = 1, y = 2.
    tgd m_unpop: S(x, y), y < 2 -> Unpop(x).
    tgd m_cheap: S2(x) -> Cheap(x).
    tgd m_sh: S2(x) -> Sh(x).
    tgd m_u: S2(x) -> U(x).
    tgd m_never: S2(x) -> Never(x).
    tgd m_flag: S(x, y) -> Flag(x, y).
    tgd m_diag: S(x, y) -> Diag(x, y).
    tgd m_su: SU(x) -> B(x).
    dep c_u: U(x), Flag(x, w), A(x, w) -> Diag(x, w).
    egd k_pop: Pop(x), A(x, y), A(x, z) -> y = z.
"#;

fn scenario(text: &str) -> MappingScenario {
    let prog = Program::parse(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    MappingScenario::from_program(&prog).unwrap_or_else(|e| panic!("{e}\n{text}"))
}

/// What `grom rewrite` prints for `text`: stdout, then stderr.
fn rewrite_text(text: &str) -> String {
    let out = scenario(text).rewrite(&RewriteOptions::default()).unwrap();
    let mut s = String::new();
    for dep in &out.deps {
        let _ = writeln!(s, "[{}] {}", dep.class(), dep);
    }
    if !out.warnings.is_empty() {
        s.push_str("warnings (sound strengthenings):\n");
        for w in &out.warnings {
            let _ = writeln!(s, "  {w}");
        }
    }
    for (name, causes) in &out.ded_causes {
        let causes: Vec<String> = causes.iter().map(|c| c.to_string()).collect();
        let _ = writeln!(s, "ded `{name}` caused by: {}", causes.join(", "));
    }
    s
}

fn render_all() -> String {
    let mut s = String::new();
    for (name, text) in [
        ("running_example", grom_bench::workloads::RUNNING_EXAMPLE),
        ("rewrite_wide_ladder", LADDER),
        ("everything", EVERYTHING),
    ] {
        let _ = writeln!(s, "== {name}");
        s.push_str(&rewrite_text(text));
    }
    s
}

#[test]
fn rewrite_text_matches_the_recorded_golden() {
    let actual = render_all();
    for (n, (a, g)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(a, g, "first difference at golden line {}", n + 1);
    }
    assert_eq!(actual.lines().count(), GOLDEN.lines().count());
}

#[test]
#[ignore = "prints the golden rendering for re-recording"]
fn print_golden() {
    print!("{}", render_all());
}

#[test]
fn the_everything_scenario_hits_every_warning_class() {
    let out = scenario(EVERYTHING)
        .rewrite(&RewriteOptions::default())
        .unwrap();
    let has = |pred: fn(&RewriteWarning) -> bool| out.warnings.iter().any(pred);
    assert!(has(|w| matches!(
        w,
        RewriteWarning::DroppedNestedNegation { .. }
    )));
    assert!(has(|w| matches!(
        w,
        RewriteWarning::DroppedExistentialComparison { .. }
    )));
    assert!(has(|w| matches!(
        w,
        RewriteWarning::SharedExistentialStrengthened { .. }
    )));
    assert!(has(|w| matches!(
        w,
        RewriteWarning::UnionNegationStrengthened { .. }
    )));
    assert!(has(|w| matches!(
        w,
        RewriteWarning::UnsatisfiableAlternative { .. }
    )));
    assert!(!out.is_ded_free());
}

fn order_of(text: &str) -> Vec<String> {
    let views = Program::parse(text).unwrap().views;
    let order = views.materialization_order();
    order.iter().map(|v| v.to_string()).collect()
}

#[test]
fn materialization_orders_are_the_recorded_ones() {
    // The paper's six views.
    let paper = scenario(grom_bench::workloads::RUNNING_EXAMPLE);
    let order: Vec<&str> = paper
        .target_views
        .materialization_order()
        .iter()
        .map(|v| v.as_ref())
        .collect();
    assert_eq!(
        order,
        [
            "PopularProduct",
            "AvgProduct",
            "Product",
            "SoldAt",
            "Store",
            "UnpopularProduct"
        ]
    );
    // A diamond declared top-down: D over B and C, both over A.
    assert_eq!(
        order_of(
            "view D(x) <- C(x), B(x).\nview C(x) <- A(x).\n\
             view B(x) <- A(x).\nview A(x) <- Base(x)."
        ),
        ["A", "B", "C", "D"]
    );
    // A chain declared deepest-last, with names that sort against it.
    assert_eq!(
        order_of(
            "view V9(x) <- Base(x).\nview V5(x) <- V9(x).\n\
             view V7(x) <- V5(x).\nview V1(x) <- V7(x)."
        ),
        ["V9", "V5", "V7", "V1"]
    );
    // Children are visited per rule, positive predicates by name and then
    // negated ones by name — not in body order.
    assert_eq!(
        order_of(
            "view M(x) <- Q(x), not P(x), N(x).\nview M(x) <- L(x).\n\
             view L(x) <- E(x).\nview N(x) <- E(x).\nview P(x) <- E(x).\nview Q(x) <- E(x)."
        ),
        ["L", "N", "Q", "P", "M"]
    );
}

/// `n` views `V0(x) <- base(x)`, `V{k}(x) <- V{k-1}(x)` and one mapping
/// through the deepest of them.
fn chain(n: usize, source_side: bool) -> String {
    let mut text = String::from("schema source { S(x: int); }\nschema target { T(x: int); }\n");
    let base = if source_side { "S" } else { "T" };
    let _ = writeln!(text, "view V0(x) <- {base}(x).");
    for k in 1..n {
        let _ = writeln!(text, "view V{k}(x) <- V{}(x).", k - 1);
    }
    let top = n - 1;
    if source_side {
        let _ = writeln!(text, "tgd m: V{top}(x) -> T(x).");
    } else {
        let _ = writeln!(text, "tgd m: S(x) -> V{top}(x).");
    }
    text
}

fn on_small_stack<T: Send + 'static>(bytes: usize, f: impl FnOnce() -> T + Send + 'static) -> T {
    let thread = std::thread::Builder::new().stack_size(bytes).spawn(f);
    thread
        .expect("spawn")
        .join()
        .expect("no panic, no overflow")
}

#[test]
fn a_20_000_deep_source_chain_runs_end_to_end_on_a_256_kib_stack() {
    let target = on_small_stack(256 * 1024, || {
        let sc = scenario(&chain(20_000, true));
        assert_eq!(sc.source_views.len(), 20_000);
        let mut source = Instance::new();
        source.add("S", vec![Value::int(7)]).unwrap();
        let result = sc.run(&source, &PipelineOptions::default()).unwrap();
        assert!(result.validation.unwrap().ok);
        assert_eq!(result.source_view_counts["V19999"], 1);
        result.target
    });
    assert_eq!(target.tuples("T").count(), 1);
}

#[test]
fn a_20_000_deep_target_chain_is_an_error_not_a_signal() {
    let err = on_small_stack(256 * 1024, || {
        let sc = scenario(&chain(20_000, false));
        assert_eq!(sc.target_views.nesting_depth("V19999"), Some(19_999));
        sc.rewrite(&RewriteOptions::default()).unwrap_err()
    });
    match err {
        PipelineError::Rewrite(RewriteError::TooDeep { view, depth, limit }) => {
            assert_eq!((view.as_ref(), depth), ("V19999", 19_999));
            assert_eq!(limit, grom::rewrite::MAX_VIEW_NESTING);
        }
        other => panic!("expected TooDeep, got {other}"),
    }
}

#[test]
fn views_nested_to_the_limit_rewrite_on_the_default_test_stack() {
    // Rust's test threads get 2 MiB; the limit was chosen so that the
    // deepest accepted chain — positive or through negation — unfolds there
    // in a debug build.
    let limit = grom::rewrite::MAX_VIEW_NESTING;
    let out = scenario(&chain(limit + 1, false))
        .rewrite(&RewriteOptions::default())
        .unwrap();
    assert_eq!(out.deps[0].to_string(), "dep m: S(x) -> T(x).");

    let mut text = String::from("schema source { S(x: int); }\nschema target { T(x: int); }\n");
    text.push_str("view N0(x) <- T(x).\n");
    for k in 1..=limit {
        let _ = writeln!(text, "view N{k}(x) <- T(x), not N{}(x).", k - 1);
    }
    let _ = writeln!(text, "tgd m: S(x) -> N{limit}(x).");
    let out = scenario(&text).rewrite(&RewriteOptions::default()).unwrap();
    assert!(out.deps.iter().any(|d| d.name.as_ref() == "m"));
}

#[test]
fn grom_rewrite_on_a_too_deep_chain_exits_1_with_a_message() {
    let path = std::env::temp_dir().join(format!("grom_too_deep_{}.grom", std::process::id()));
    std::fs::write(&path, chain(20_000, false)).unwrap();
    let output = Command::new(env!("CARGO"))
        .args(["run", "--quiet", "-p", "grom-core", "--bin", "grom"])
        .args(cfg!(not(debug_assertions)).then_some("--release"))
        .args(["--", "rewrite"])
        .arg(&path)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn cargo");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("V19999") && stderr.contains("nested"),
        "{stderr}"
    );
}
