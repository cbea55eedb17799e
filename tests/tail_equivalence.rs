//! The post-chase tail of `MappingScenario::run` — split the chased instance,
//! minimize, validate while interned, un-intern in place — against the
//! recipe it replaced, replayed here from public pieces: chase →
//! `extract_target(&chased)` (a string-valued copy) → `core_minimize` →
//! `validate_solution` over plain strings. Same bytes, same certificate, and
//! no `Value::Sym` in what the caller gets back.

use grom::chase::{chase_with_deds, core_minimize, ChaseConfig, SchedulerMode};
use grom::data::{canonical_render, read_instance, SymbolTable};
use grom::engine::materialize_views;
use grom::prelude::*;
use grom::{intern_dependencies, ValidationReport};
use grom_bench::workloads::{restriction_pair, running_example_scenario};

fn scenario(text: &str) -> MappingScenario {
    MappingScenario::from_program(&Program::parse(text).expect("scenario parses"))
        .expect("scenario is well-formed")
}

fn options(core: bool) -> PipelineOptions {
    PipelineOptions {
        // Pinned: the default reads GROM_THREADS, and null labels (so
        // `to_string()`) depend on the scheduler.
        chase: ChaseConfig::default().with_scheduler(SchedulerMode::Delta),
        core_minimize: core,
        ..Default::default()
    }
}

/// What `run` did before the tail was rebuilt, step for step. Also returns
/// the symbol table's snapshot after the chase input was interned.
fn old_recipe(
    sc: &MappingScenario,
    source: &Instance,
    core: bool,
) -> (Instance, ValidationReport, Vec<String>) {
    let extents = materialize_views(&sc.source_views, source).unwrap();
    let mut working = source.clone();
    working.absorb(&extents).unwrap();
    let rewritten = sc.rewrite(&RewriteOptions::default()).unwrap();
    let mut table = SymbolTable::new();
    let interned = working.intern_strings(&mut table);
    let deps = intern_dependencies(&rewritten.deps, &mut table);
    let chased = chase_with_deds(interned, &deps, &options(core).chase).unwrap();
    let mut target = sc.extract_target(&chased.instance).unwrap();
    if core {
        core_minimize(&mut target);
    }
    let report = validate_solution(sc, source, &target).unwrap();
    let snapshot = table.snapshot().iter().map(|s| s.to_string()).collect();
    (target, report, snapshot)
}

fn has_sym(inst: &Instance) -> bool {
    inst.facts()
        .any(|f| f.tuple.values().iter().any(|v| matches!(v, Value::Sym(_))))
}

/// `run` and the old recipe agree on everything a caller can see.
fn assert_tail_equivalent(name: &str, sc: &MappingScenario, source: &Instance) {
    for core in [false, true] {
        let what = format!("{name}, core_minimize={core}");
        let new = sc.run(source, &options(core)).unwrap();
        let (old_target, old_report, _) = old_recipe(sc, source, core);
        assert!(
            !new.target.is_empty(),
            "{what}: empty target proves nothing"
        );
        assert_eq!(new.target.to_string(), old_target.to_string(), "{what}");
        assert_eq!(
            canonical_render(&new.target),
            canonical_render(&old_target),
            "{what}"
        );
        assert_eq!(
            new.target.relation_names().collect::<Vec<_>>(),
            old_target.relation_names().collect::<Vec<_>>(),
            "{what}"
        );
        let report = new.validation.expect("validation is on by default");
        assert_eq!(report.ok, old_report.ok, "{what}");
        assert_eq!(report.violations, old_report.violations, "{what}");
        assert_eq!(report.checked, old_report.checked, "{what}");
        assert!(report.ok, "{what}: {report}");
        assert!(!has_sym(&new.target), "{what}: a Sym reached the caller");
        // The un-interned target is an ordinary instance: it validates the
        // ordinary way, and probes by string find their rows.
        assert!(validate_solution(sc, source, &new.target).unwrap().ok);
        for fact in new.target.facts() {
            assert!(new.target.contains_fact(&fact.relation, &fact.tuple));
            let rel = new.target.relation(&fact.relation).unwrap();
            let first: Vec<Option<Value>> = std::iter::once(fact.tuple.get(0).cloned())
                .chain(std::iter::repeat_n(None, fact.tuple.arity() - 1))
                .collect();
            assert!(rel.scan(&first).contains(&&fact.tuple), "{what}: {fact}");
        }
    }
}

fn running_example_source() -> Instance {
    read_instance(
        r#"
        S_Product(1, "tv", "acme", 5).
        S_Product(2, "radio", "acme", 3).
        S_Product(3, "fridge", "bestbuy", 1).
        S_Product(4, "say \"hi\"", "back\\slash", 0).
        S_Store("acme", "rome").
        S_Store("bestbuy", "milan").
        S_Store("back\\slash", "zürich").
        "#,
    )
    .unwrap()
}

#[test]
fn running_example() {
    assert_tail_equivalent(
        "running example",
        &running_example_scenario(),
        &running_example_source(),
    );
}

#[test]
fn restriction_pair_both_sides() {
    let (perverse, reformulated) = restriction_pair();
    assert_tail_equivalent("perverse", &perverse, &running_example_source());
    assert_tail_equivalent("reformulated", &reformulated, &running_example_source());
}

/// One scenario per `grom_scenarios::Mix` primitive, its value columns
/// turned into strings (the generator's are all `int`).
const MIX_WITH_STRINGS: [(&str, &str, &str); 5] = [
    (
        "copy",
        r#"
        schema source { S_Cp(k: int, v: string); }
        schema target { T_Cp_1(k: int, v: string); T_Cp_2(k: int, v: string); }
        tgd cp_1: T_Cp_1(k, v) -> T_Cp_2(k, v).
        tgd cp_0: S_Cp(k, v) -> T_Cp_1(k, v).
        egd cpk: T_Cp_2(k, v1), T_Cp_2(k, v2) -> v1 = v2.
        "#,
        r#"
        S_Cp(0, "prefix/shared/a").
        S_Cp(1, "prefix/shared/b").
        S_Cp(2, "prefix/shared/a").
        S_Cp(3, "").
        "#,
    ),
    (
        "fusion",
        r#"
        schema source { S_Fu(a: string, b: string); }
        schema target { T_Fu(a: string, b: string); }
        tgd fu: S_Fu(x, y), S_Fu(y, z) -> T_Fu(x, z).
        egd fuk: T_Fu(x, y1), T_Fu(x, y2) -> y1 = y2.
        "#,
        r#"
        S_Fu("n0", "n1").
        S_Fu("n1", "n4").
        S_Fu("n2", "n3").
        S_Fu("n3", "n0").
        S_Fu("n4", "n2").
        "#,
    ),
    (
        "vpart",
        r#"
        schema source { S_Vp(id: string, a: string, b: string); }
        schema target {
            T_VpK(id: string, k: int); T_VpA(k: int, a: string); T_VpB(k: int, b: string);
        }
        tgd vp: S_Vp(id, a, b) -> T_VpK(id, k), T_VpA(k, a), T_VpB(k, b).
        egd vpk: T_VpK(id, k1), T_VpK(id, k2) -> k1 = k2.
        egd vpa: T_VpA(k1, a), T_VpA(k2, a) -> k1 = k2.
        "#,
        r#"
        S_Vp("i0", "red", "x").
        S_Vp("i1", "blue", "y").
        S_Vp("i0", "green", "z").
        S_Vp("i2", "red", "w").
        S_Vp("i3", "teal", "x").
        S_Vp("i1", "teal", "v").
        "#,
    ),
    (
        "denorm",
        r#"
        schema source { S_DnA(id: int, f: string); S_DnB(f: string, g: string); }
        schema target { T_Dn(id: int, f: string, g: string); }
        tgd dn: S_DnA(id, f), S_DnB(f, g) -> T_Dn(id, f, g).
        egd dnk: T_Dn(id, f1, g1), T_Dn(id, f2, g2) -> f1 = f2.
        "#,
        r#"
        S_DnA(0, "f0").
        S_DnA(1, "f1").
        S_DnA(2, "f0").
        S_DnA(3, "f2").
        S_DnB("f0", "g'0").
        S_DnB("f1", "g1").
        S_DnB("f2", "g'0").
        "#,
    ),
    (
        "er",
        r#"
        schema source { S_Er(x: string); S_ErS(x: string, y: string); }
        schema target { T_Rep(x: string, r: int); T_Out(x: string, r: int); }
        tgd er: S_Er(x) -> T_Rep(x, r).
        tgd erp: T_Rep(x, r) -> T_Out(x, r).
        egd ere: S_ErS(x, y), T_Rep(x, r1), T_Rep(y, r2) -> r1 = r2.
        "#,
        r#"
        S_Er("ann").
        S_Er("anne").
        S_Er("bob").
        S_Er("rob").
        S_Er("bobby").
        S_Er("cy").
        S_ErS("ann", "anne").
        S_ErS("bob", "rob").
        S_ErS("rob", "bobby").
        S_ErS("bob", "bobby").
        "#,
    ),
];

#[test]
fn every_mix_primitive_with_string_columns() {
    for (name, program, facts) in MIX_WITH_STRINGS {
        assert_tail_equivalent(name, &scenario(program), &read_instance(facts).unwrap());
    }
}

/// Egd merges rewrite stored rows and leave tombstones behind in the
/// chased relations; the in-place pass has to compact them away. Views with
/// a string constant on both sides, so the scenario's own dependencies and
/// view rules really are interned.
#[test]
fn egd_merges_leave_tombstones_and_views_hold_string_constants() {
    let sc = scenario(
        r#"
        schema source { S_Emp(name: string, dept: string, site: string); }
        schema target {
            T_Emp(name: string, dept: int);
            T_Dept(id: int, label: string, site: string);
        }
        view Staff(n, d) <- S_Emp(n, d, s), s != "remote".
        view Placed(n, label) <- T_Emp(n, d), T_Dept(d, label, site), site != "nowhere".
        view Hq(label) <- T_Dept(d, label, "rome").
        tgd place: Staff(n, d) -> T_Emp(n, k), T_Dept(k, d, "rome").
        tgd hq: Staff(n, "db") -> Hq("db").
        egd one_id: T_Dept(k1, label, s1), T_Dept(k2, label, s2) -> k1 = k2.
        "#,
    );
    let mut facts = String::new();
    for i in 0..120 {
        let site = if i % 10 == 0 { "remote" } else { "rome" };
        facts.push_str(&format!(
            "S_Emp(\"emp_{i}\", \"{}\", \"{site}\").\n",
            ["db", "ml", "os"][i % 3]
        ));
    }
    let source = read_instance(&facts).unwrap();
    let result = sc.run(&source, &options(false)).unwrap();
    assert!(result.chase_stats.egd_merges > 0);
    assert_eq!(result.target.tuples("T_Dept").count(), 3);
    assert!(result
        .target
        .storage_report()
        .iter()
        .all(|r| r.tombstones == 0));
    assert_tail_equivalent("egd merges", &sc, &source);
}

/// Interning source ∪ source extents straight into the chase input assigns
/// the symbol ids that clone + absorb + `intern_strings` assigned: relations
/// in name order across both — a view name may sort before a relation's.
#[test]
fn first_intern_order_is_kept() {
    // No source views: the pinned list is what the parent commit interned.
    let sc = running_example_scenario();
    let source = running_example_source();
    let rewritten = sc.rewrite(&RewriteOptions::default()).unwrap();
    let mut table = SymbolTable::new();
    let _ = Instance::interned(&[&source, &Instance::new()], &mut table);
    let _ = intern_dependencies(&rewritten.deps, &mut table);
    let snapshot: Vec<String> = table.snapshot().iter().map(|s| s.to_string()).collect();
    assert_eq!(
        snapshot,
        [
            "tv",
            "acme",
            "radio",
            "fridge",
            "bestbuy",
            "say \"hi\"",
            "back\\slash",
            "rome",
            "milan",
            "zürich"
        ]
    );
    assert_eq!(snapshot, old_recipe(&sc, &source, false).2);

    // A source view (`Active`) that sorts before the relation it reads
    // (`S_Emp`): its extent is interned first, as the union's would be.
    let sc = scenario(
        r#"
        schema source { S_Emp(name: string, dept: string); }
        schema target { T_Emp(name: string); }
        view Active(d, n) <- S_Emp(n, d), d != "none".
        tgd m: Active(d, n) -> T_Emp(n).
        "#,
    );
    let source = read_instance(
        "S_Emp(\"zed\", \"none\").\nS_Emp(\"ann\", \"db\").\nS_Emp(\"bob\", \"ml\").",
    )
    .unwrap();
    let extents = materialize_views(&sc.source_views, &source).unwrap();
    let rewritten = sc.rewrite(&RewriteOptions::default()).unwrap();
    let mut table = SymbolTable::new();
    let interned = Instance::interned(&[&source, &extents], &mut table);
    let _ = intern_dependencies(&rewritten.deps, &mut table);
    let snapshot: Vec<String> = table.snapshot().iter().map(|s| s.to_string()).collect();
    assert_eq!(snapshot, ["db", "ann", "ml", "bob", "zed", "none"]);
    assert_eq!(snapshot, old_recipe(&sc, &source, false).2);
    let mut union = source.clone();
    union.absorb(&extents).unwrap();
    assert_eq!(
        interned.to_string(),
        union.intern_strings(&mut SymbolTable::new()).to_string()
    );
}

/// The one input on which the run's certificate and `validate_solution`
/// part ways (see `crates/core/src/validate.rs`): a labeled null *in the
/// source* that a target egd merges. The chase substitutes it everywhere,
/// so the run validates against the chased source.
#[test]
fn a_source_null_merged_by_a_target_egd() {
    let sc = scenario(
        r#"
        schema source { S(x: int, y: string); }
        schema target { T(x: int, y: string); }
        tgd copy: S(x, y) -> T(x, y).
        egd key: T(x, a), T(x, b) -> a = b.
        "#,
    );
    let source = read_instance("S(1, N5).\nS(1, \"seven\").\nS(2, \"two\").").unwrap();
    let result = sc.run(&source, &options(false)).unwrap();
    assert_eq!(
        result.target.to_string(),
        "T(1, \"seven\")\nT(2, \"two\")\n"
    );
    let report = result.validation.unwrap();
    assert!(report.ok, "{report}");
    assert_eq!(report.checked, 2);
    // The caller's source still says S(1, N5), and T(1, N5) is gone.
    let unchased = validate_solution(&sc, &source, &result.target).unwrap();
    assert!(!unchased.ok);
    assert_eq!(unchased.violations.len(), 1);
    assert!(unchased.violations[0].starts_with("dependency `copy` violated"));
}
