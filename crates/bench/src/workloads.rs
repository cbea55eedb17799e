//! Deterministic workload generators: the paper's running example, the
//! families behind its §3–§4 quantitative claims (E2–E6, asserted as exact
//! counts in `tests/paper_claims.rs`) and the delta-scheduling chain that
//! `calibration_ms` chases.

use grom::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's §2 running example, verbatim (modulo `S-`/`T-` → `S_`/`T_`
/// and quoted rating constants → ints).
pub const RUNNING_EXAMPLE: &str = r#"
    schema source {
        S_Product(id: int, name: string, store: string, rating: int);
        S_Store(name: string, location: string);
    }
    schema target {
        T_Product(id: int, name: string, store: int);
        T_Store(id: int, name: string, address: string, phone: string);
        T_Rating(id: int, product: int, thumbsUp: int);
    }

    view Product(id, name) <- T_Product(id, name, store).
    view PopularProduct(pid, name) <-
        T_Product(pid, name, store), not T_Rating(rid, pid, 0).
    view AvgProduct(pid, name) <-
        T_Product(pid, name, store), T_Rating(rid, pid, 1),
        not PopularProduct(pid, name).
    view UnpopularProduct(pid, name) <-
        T_Product(pid, name, store),
        not AvgProduct(pid, name), not PopularProduct(pid, name).
    view SoldAt(pid, stid) <- T_Product(pid, pname, stid).
    view Store(id, name, addr) <- T_Store(id, name, addr, phone).

    tgd m0: S_Product(pid, name, store, rating), rating < 2
        -> UnpopularProduct(pid, name).
    tgd m1: S_Product(pid, name, store, rating), rating >= 2, rating < 4
        -> AvgProduct(pid, name).
    tgd m2: S_Product(pid, name, store, rating), rating >= 4
        -> PopularProduct(pid, name).
    tgd m3: S_Product(pid, name, store, rating), S_Store(store, location)
        -> SoldAt(pid, sid), Store(sid, store, location).

    egd e0: PopularProduct(id1, n), PopularProduct(id2, n) -> id1 = id2.
"#;

/// Parse the running-example scenario.
pub fn running_example_scenario() -> MappingScenario {
    let prog = Program::parse(RUNNING_EXAMPLE).expect("running example parses");
    MappingScenario::from_program(&prog).expect("running example is well-formed")
}

/// Parameters for the running-example source generator.
#[derive(Debug, Clone)]
pub struct RunningExampleConfig {
    pub products: usize,
    pub stores: usize,
    pub seed: u64,
}

impl Default for RunningExampleConfig {
    fn default() -> Self {
        Self {
            products: 1_000,
            stores: 20,
            seed: 42,
        }
    }
}

/// Generate a source instance for the running example. Product names are
/// unique (the key egd `e0` is satisfiable), ratings uniform in `0..=5`, so
/// all three classification mappings fire.
pub fn running_example_source(cfg: &RunningExampleConfig) -> Instance {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut inst = Instance::new();
    for s in 0..cfg.stores {
        inst.add(
            "S_Store",
            vec![
                Value::str(format!("store_{s}")),
                Value::str(format!("city_{}", s % 7)),
            ],
        )
        .expect("fresh relation");
    }
    for p in 0..cfg.products {
        let rating: i64 = rng.gen_range(0..=5);
        let store = rng.gen_range(0..cfg.stores.max(1));
        inst.add(
            "S_Product",
            vec![
                Value::int(p as i64),
                Value::str(format!("product_{p}")),
                Value::str(format!("store_{store}")),
                Value::int(rating),
            ],
        )
        .expect("fresh relation");
    }
    inst
}

/// E2: a family of conjunctive (negation-free) views plus tgds and egds
/// over them. Rewriting must stay in the tgd/egd fragment (the classical
/// closure under conjunctive-view unfolding).
///
/// Each view `V_i(x0, x_b)` is a chain join of `body_size` base atoms; each
/// gets one copy tgd from `Src_i` and one key egd.
pub fn conjunctive_family(n_views: usize, body_size: usize) -> (ViewSet, Vec<Dependency>) {
    let mut text = String::new();
    for i in 0..n_views {
        text.push_str(&format!("view V{i}(x0, x{body_size}) <- "));
        for b in 0..body_size {
            if b > 0 {
                text.push_str(", ");
            }
            text.push_str(&format!("R{i}_{b}(x{b}, x{})", b + 1));
        }
        text.push_str(".\n");
        text.push_str(&format!("tgd m{i}: Src{i}(a, b) -> V{i}(a, b).\n"));
        text.push_str(&format!("egd e{i}: V{i}(a1, b), V{i}(a2, b) -> a1 = a2.\n"));
    }
    let prog = Program::parse(&text).expect("generated conjunctive family parses");
    (prog.views, prog.deps)
}

/// E3: views with `negated_per_view` negated base atoms each, plus a key
/// egd per view. Every negated atom in the view body surfaces as ded
/// disjuncts when the egd premise is unfolded (the `d0` pattern of the
/// paper, parameterized).
pub fn negation_family(n_views: usize, negated_per_view: usize) -> (ViewSet, Vec<Dependency>) {
    let mut text = String::new();
    for i in 0..n_views {
        text.push_str(&format!("view W{i}(x, n) <- Base{i}(x, n)"));
        for k in 0..negated_per_view {
            text.push_str(&format!(", not Neg{i}_{k}(x)"));
        }
        text.push_str(".\n");
        text.push_str(&format!("tgd m{i}: Src{i}(a, b) -> W{i}(a, b).\n"));
        text.push_str(&format!("egd e{i}: W{i}(a1, n), W{i}(a2, n) -> a1 = a2.\n"));
    }
    let prog = Program::parse(&text).expect("generated negation family parses");
    (prog.views, prog.deps)
}

/// E4: the universal-model-set blow-up: one binary ded `P(x) → Q(x) ∨ R(x)`
/// over `k` independent `P` facts. The exhaustive chase produces `2^k`
/// leaves; the greedy chase needs a single scenario.
pub fn universal_model_workload(k: usize) -> (Vec<Dependency>, Instance) {
    let prog = Program::parse("ded d: P(x) -> Q(x) | R(x).").expect("parses");
    let mut inst = Instance::new();
    for i in 0..k {
        inst.add("P", vec![Value::int(i as i64)]).expect("fresh");
    }
    (prog.deps, inst)
}

/// E5: greedy-chase intricacy. `k` independent binary deds
/// `P_i(x) → A_i(x) ∨ B_i(x)`; a `denied_frac` fraction of the `A_i`
/// branches is forbidden by denial constraints. The greedy search starts
/// from the all-`A` scenario, so the number of scenarios it burns grows
/// with the density of denied branches — the paper's "many of the generated
/// scenarios fail … and new ones need to be executed".
pub fn greedy_intricacy_workload(
    k_deds: usize,
    denied_frac: f64,
    seed: u64,
) -> (Vec<Dependency>, Instance) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = String::new();
    let denied: Vec<bool> = (0..k_deds).map(|_| rng.gen_bool(denied_frac)).collect();
    for (i, &d) in denied.iter().enumerate() {
        text.push_str(&format!("ded d{i}: P{i}(x) -> A{i}(x) | B{i}(x).\n"));
        if d {
            text.push_str(&format!("dep n{i}: A{i}(x) -> false.\n"));
        }
    }
    let prog = Program::parse(&text).expect("generated intricacy workload parses");
    let mut inst = Instance::new();
    for i in 0..k_deds {
        inst.add(format!("P{i}"), vec![Value::int(1)])
            .expect("fresh");
    }
    (prog.deps, inst)
}

/// The delta-scheduling separation workload — a chain of copy tgds
/// `L0 → L1 → … → L_depth` over `width` base tuples, with the dependencies
/// *declared in reverse order* (`t_{depth-1}` first).
///
/// The reverse declaration order makes the classical round-based chase
/// propagate exactly one level per round, re-scanning every populated
/// premise each time — Θ(depth² · width) work — while the delta scheduler
/// routes each level's insertions straight to the one dependency that
/// reads them — Θ(depth · width). The chain copies constants (no
/// existentials), so both schedulers produce byte-identical instances.
pub fn delta_scaling_workload(depth: usize, width: usize) -> (Vec<Dependency>, Instance) {
    let mut text = String::new();
    for i in (0..depth).rev() {
        text.push_str(&format!("tgd t{i}: L{i}(x, y) -> L{}(x, y).\n", i + 1));
    }
    let prog = Program::parse(&text).expect("generated delta-scaling workload parses");
    let mut inst = Instance::new();
    for r in 0..width {
        inst.add("L0", vec![Value::int(r as i64), Value::int((r % 7) as i64)])
            .expect("fresh relation");
    }
    (prog.deps, inst)
}

/// E6: the §4 reformulation exercise. Returns `(perverse, reformulated)`:
/// the perverse scenario is the paper's running example (negation inside
/// `PopularProduct` forces the ded `d0`); the reformulated one replaces the
/// negation by an explicit positive flag table `T_NoZero`, trading a
/// physical-schema extension for a ded-free rewriting — exactly the
/// designer move the demo teaches.
pub fn restriction_pair() -> (MappingScenario, MappingScenario) {
    let perverse = running_example_scenario();
    let reformulated_text = r#"
        schema source {
            S_Product(id: int, name: string, store: string, rating: int);
            S_Store(name: string, location: string);
        }
        schema target {
            T_Product(id: int, name: string, store: int);
            T_Store(id: int, name: string, address: string, phone: string);
            T_Rating(id: int, product: int, thumbsUp: int);
            T_NoZero(product: int);
        }

        view Product(id, name) <- T_Product(id, name, store).
        view PopularProduct(pid, name) <-
            T_Product(pid, name, store), T_NoZero(pid).
        view SoldAt(pid, stid) <- T_Product(pid, pname, stid).
        view Store(id, name, addr) <- T_Store(id, name, addr, phone).

        tgd m2: S_Product(pid, name, store, rating), rating >= 4
            -> PopularProduct(pid, name).
        tgd m3: S_Product(pid, name, store, rating), S_Store(store, location)
            -> SoldAt(pid, sid), Store(sid, store, location).

        egd e0: PopularProduct(id1, n), PopularProduct(id2, n) -> id1 = id2.
    "#;
    let prog = Program::parse(reformulated_text).expect("reformulated scenario parses");
    let reformulated =
        MappingScenario::from_program(&prog).expect("reformulated scenario is well-formed");
    (perverse, reformulated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom::chase::{chase_standard, SchedulerMode};

    fn rescan() -> ChaseConfig {
        ChaseConfig::default().with_scheduler(SchedulerMode::FullRescan)
    }

    #[test]
    fn running_example_generator_is_deterministic() {
        let cfg = RunningExampleConfig {
            products: 50,
            stores: 5,
            seed: 7,
        };
        let a = running_example_source(&cfg);
        let b = running_example_source(&cfg);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.tuples("S_Product").count(), 50);
        assert_eq!(a.tuples("S_Store").count(), 5);
    }

    #[test]
    fn running_example_pipeline_small() {
        let sc = running_example_scenario();
        let src = running_example_source(&RunningExampleConfig {
            products: 30,
            stores: 3,
            seed: 1,
        });
        let res = sc.run(&src, &PipelineOptions::default()).unwrap();
        assert!(res.validation.unwrap().ok);
        assert!(res.chase_stats.scenarios_tried >= 1);
    }

    #[test]
    fn delta_scaling_workload_separates_schedulers() {
        let (deps, inst) = delta_scaling_workload(6, 20);
        assert_eq!(deps.len(), 6);
        let delta = chase_standard(inst.clone(), &deps, &ChaseConfig::default()).unwrap();
        let naive = chase_standard(inst, &deps, &rescan()).unwrap();
        // Identical results, byte for byte (no nulls in this workload).
        assert_eq!(delta.instance.to_string(), naive.instance.to_string());
        assert_eq!(delta.instance.len(), 7 * 20);
        // The naive loop propagates one level per round and rescans every
        // dependency each time; the delta scheduler activates each
        // dependency's premise on its level's delta exactly once.
        assert!(delta.stats.delta_activations >= 5);
        assert!(naive.stats.full_rescans == 0 && naive.stats.delta_activations == 0);
        assert!(delta.stats.rounds >= 6);
    }
}
