//! The five workloads: seeded text generators plus the closed-form
//! expectations their outputs are checked against.
//!
//! A generator returns *text only* — a scenario in the `.grom` language
//! and a fact-per-line source file — so the program under test never sees
//! the seed. Sizes never depend on the seed (the seed moves values, store
//! choices, cluster membership and line order), so expected cardinalities
//! are functions of the size constants alone and timings are comparable
//! across seeds.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use grom::data::Instance;

/// SplitMix64: the benchmark's own generator, so inputs depend on nothing
/// but `--seed` and this file.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ViewsExchange,
    JoinCompose,
    CopyFanout,
    EgdResolve,
    RewriteWide,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ViewsExchange,
        Workload::JoinCompose,
        Workload::CopyFanout,
        Workload::EgdResolve,
        Workload::RewriteWide,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ViewsExchange => "views_exchange",
            Workload::JoinCompose => "join_compose",
            Workload::CopyFanout => "copy_fanout",
            Workload::EgdResolve => "egd_resolve",
            Workload::RewriteWide => "rewrite_wide",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Every workload constant. `FULL` is frozen (tuning changes these numbers
/// and nothing else); `SMOKE` is the toy tier the tests and `--smoke` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sizes {
    pub ve_products: usize,
    pub ve_stores: usize,
    pub jc_width: usize,
    pub jc_levels: usize,
    pub jc_chords: usize,
    pub cf_rows: usize,
    pub cf_depth: usize,
    pub cf_keys: usize,
    pub er_clusters: usize,
    pub er_chain: usize,
    pub er_egds: usize,
    pub rw_ladders: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        ve_products: 1_800,
        ve_stores: 20,
        jc_width: 3_000,
        jc_levels: 6,
        jc_chords: 750,
        cf_rows: 1_300,
        cf_depth: 16,
        cf_keys: 50,
        er_clusters: 550,
        er_chain: 12,
        er_egds: 8,
        rw_ladders: 280,
    };

    pub const SMOKE: Sizes = Sizes {
        ve_products: 30,
        ve_stores: 4,
        jc_width: 40,
        jc_levels: 3,
        jc_chords: 10,
        cf_rows: 12,
        cf_depth: 4,
        cf_keys: 3,
        er_clusters: 5,
        er_chain: 4,
        er_egds: 3,
        rw_ladders: 4,
    };

    /// The constants one workload reads, for the result file.
    pub fn of(&self, workload: Workload) -> Vec<(&'static str, usize)> {
        match workload {
            Workload::ViewsExchange => {
                vec![("products", self.ve_products), ("stores", self.ve_stores)]
            }
            Workload::JoinCompose => vec![
                ("width", self.jc_width),
                ("levels", self.jc_levels),
                ("chords", self.jc_chords),
            ],
            Workload::CopyFanout => vec![
                ("rows", self.cf_rows),
                ("depth", self.cf_depth),
                ("keys", self.cf_keys),
            ],
            Workload::EgdResolve => vec![
                ("clusters", self.er_clusters),
                ("chain", self.er_chain),
                ("egds", self.er_egds),
            ],
            Workload::RewriteWide => vec![("ladders", self.rw_ladders)],
        }
    }
}

/// What a correct target looks like, computed from the size constants and
/// never from the program under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Exact tuple count of every target relation, zero counts included;
    /// a target relation not listed here must not exist.
    pub cardinalities: Vec<(String, usize)>,
    /// `(relation, n)`: the relation must mention exactly `n` distinct
    /// labeled nulls (entity resolution: one representative per cluster).
    pub distinct_nulls: Option<(String, usize)>,
}

impl Expected {
    pub fn total_tuples(&self) -> usize {
        self.cardinalities.iter().map(|(_, n)| n).sum()
    }

    /// Compare a target instance against the expectation; the error names
    /// the first differing relation.
    pub fn check(&self, target: &Instance) -> Result<(), String> {
        for (rel, want) in &self.cardinalities {
            let got = target.relation(rel).map_or(0, |r| r.len());
            if got != *want {
                return Err(format!("relation `{rel}`: {got} tuples, expected {want}"));
            }
        }
        if target.len() != self.total_tuples() {
            let known: BTreeSet<&str> = self.cardinalities.iter().map(|(r, _)| &**r).collect();
            let extra = target
                .relation_names()
                .find(|n| !known.contains(&***n))
                .map_or_else(|| "?".to_string(), |n| n.to_string());
            return Err(format!("unexpected target relation `{extra}`"));
        }
        if let Some((rel, want)) = &self.distinct_nulls {
            let nulls: BTreeSet<_> = target.tuples(rel).flat_map(|t| t.nulls()).collect();
            if nulls.len() != *want {
                return Err(format!(
                    "relation `{rel}`: {} distinct nulls, expected {want}",
                    nulls.len()
                ));
            }
        }
        Ok(())
    }
}

/// One workload's generated inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    pub scenario: String,
    pub facts: String,
    pub expected: Expected,
}

pub fn generate(workload: Workload, sizes: &Sizes, seed: u64) -> Inputs {
    // One stream per workload, so adding a workload never shifts another's
    // inputs.
    let mut rng = Rng::new(seed ^ (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    match workload {
        Workload::ViewsExchange => views_exchange(sizes, &mut rng),
        Workload::JoinCompose => join_compose(sizes, &mut rng),
        Workload::CopyFanout => copy_fanout(sizes, &mut rng),
        Workload::EgdResolve => egd_resolve(sizes, &mut rng),
        Workload::RewriteWide => rewrite_wide(sizes, &mut rng),
    }
}

/// How many `i` in `0..n` have `i % 6` in `lo..hi`: the size of a rating
/// band when ratings are a shuffle of `0, 1, …, 5, 0, 1, …`.
fn band(n: usize, lo: usize, hi: usize) -> usize {
    (lo..hi).map(|r| n / 6 + usize::from(r < n % 6)).sum()
}

/// Ratings `i % 6` in seeded order: band sizes are exact, positions random.
fn shuffled_ratings(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut ratings: Vec<usize> = (0..n).map(|i| i % 6).collect();
    rng.shuffle(&mut ratings);
    ratings
}

fn join_shuffled(mut lines: Vec<String>, rng: &mut Rng) -> String {
    rng.shuffle(&mut lines);
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

/// The paper's §2 running example, verbatim; ratings are an exact sixth
/// each of 0–5, so a third of the products lands in each of the three
/// classification views.
fn views_exchange(sizes: &Sizes, rng: &mut Rng) -> Inputs {
    let (products, stores) = (sizes.ve_products, sizes.ve_stores);
    let ratings = shuffled_ratings(products, rng);
    let mut lines = Vec::with_capacity(products + stores);
    for s in 0..stores {
        lines.push(format!("S_Store(\"store_{s}\", \"city_{}\").", s % 7));
    }
    for (p, rating) in ratings.iter().enumerate() {
        let store = rng.below(stores);
        lines.push(format!(
            "S_Product({p}, \"product_{p}\", \"store_{store}\", {rating})."
        ));
    }
    // Restricted chase, declaration order m0..m3: each product gets one
    // T_Product row from its classification mapping and a second one (with
    // a fresh store id) from the SoldAt unfolding, whose Store atom also
    // invents one T_Store row per product. "Not popular" needs a
    // thumbsUp=0 witness, so unpopular products (rating < 2) get one
    // T_Rating row, average ones (2..4) that one and a thumbsUp=1 witness,
    // popular ones none.
    let expected = Expected {
        cardinalities: vec![
            ("T_Product".into(), 2 * products),
            (
                "T_Rating".into(),
                band(products, 0, 2) + 2 * band(products, 2, 4),
            ),
            ("T_Store".into(), products),
        ],
        distinct_nulls: None,
    };
    Inputs {
        scenario: grom_bench::workloads::RUNNING_EXAMPLE.to_string(),
        facts: join_shuffled(lines, rng),
        expected,
    }
}

/// A source view with a negated atom feeding a reverse-declared
/// composition chain over a path graph. Blocked chord edges `(v, v+3)`
/// give the negation real work; the view removes every one of them, so
/// `E0` is exactly the path and level `k` holds the stride-`2^k` hops.
fn join_compose(sizes: &Sizes, rng: &mut Rng) -> Inputs {
    let (width, levels, chords) = (sizes.jc_width, sizes.jc_levels, sizes.jc_chords);
    let mut scenario = String::from(
        "schema source { S_Edge(x: int, y: int); S_Blocked(x: int, y: int); }\nschema target {\n",
    );
    for i in 1..=levels {
        let _ = writeln!(scenario, "    E{i}(x: int, y: int);");
    }
    scenario.push_str("}\nview E0(x, y) <- S_Edge(x, y), not S_Blocked(x, y).\n");
    for i in (0..levels).rev() {
        let _ = writeln!(
            scenario,
            "tgd c{i}: E{i}(x, y), E{i}(y, z) -> E{}(x, z).",
            i + 1
        );
    }

    let mut lines: Vec<String> = (0..width)
        .map(|v| format!("S_Edge({v}, {}).", v + 1))
        .collect();
    let mut starts: Vec<usize> = (0..width).collect();
    rng.shuffle(&mut starts);
    for &v in starts.iter().take(chords) {
        lines.push(format!("S_Edge({v}, {}).", v + 3));
        lines.push(format!("S_Blocked({v}, {}).", v + 3));
    }
    let expected = Expected {
        cardinalities: (1..=levels)
            .map(|k| (format!("E{k}"), (width + 1).saturating_sub(1 << k)))
            .collect(),
        distinct_nulls: None,
    };
    Inputs {
        scenario,
        facts: join_shuffled(lines, rng),
        expected,
    }
}

/// A reverse-declared copy chain with single-atom premises over rows that
/// carry two long shared-prefix strings: inserts, dedup, delta routing,
/// interning, target extraction and rendering, and almost no joining.
fn copy_fanout(sizes: &Sizes, rng: &mut Rng) -> Inputs {
    let (rows, depth, keys) = (sizes.cf_rows, sizes.cf_depth, sizes.cf_keys);
    const COLS: &str = "(id: string, part: string, n: int)";
    let mut scenario = format!("schema source {{ S_L0{COLS}; }}\nschema target {{\n");
    for i in 1..=depth {
        let _ = writeln!(scenario, "    L{i}{COLS};");
    }
    scenario.push_str("}\n");
    for i in (0..depth).rev() {
        let from = if i == 0 {
            "S_L0".to_string()
        } else {
            format!("L{i}")
        };
        let _ = writeln!(
            scenario,
            "tgd t{i}: {from}(a, b, c) -> L{}(a, b, c).",
            i + 1
        );
    }
    let lines = (0..rows)
        .map(|r| {
            format!(
                "S_L0(\"customer_record_identifier_with_shared_prefix_{r:08}\", \
                 \"warehouse_partition_key_with_shared_prefix_{:06}\", {}).",
                rng.below(keys),
                rng.below(7)
            )
        })
        .collect();
    let expected = Expected {
        cardinalities: (1..=depth).map(|i| (format!("L{i}"), rows)).collect(),
        distinct_nulls: None,
    };
    Inputs {
        scenario,
        facts: join_shuffled(lines, rng),
        expected,
    }
}

/// Entity resolution through the whole pipeline: one invented null per
/// record, egds merging them along chains of `S_Same{j}` edges, a probe
/// tgd copying the representatives out. Record ids are shuffled so cluster
/// membership depends on the seed; cluster count and size do not.
fn egd_resolve(sizes: &Sizes, rng: &mut Rng) -> Inputs {
    let (clusters, chain, egds) = (sizes.er_clusters, sizes.er_chain, sizes.er_egds);
    let mut scenario = String::from("schema source {\n    S_Rec(x: int);\n");
    for j in 0..egds {
        let _ = writeln!(scenario, "    S_Same{j}(x: int, y: int);");
    }
    scenario.push_str("}\nschema target { Rep(x: int, r: int); Out(x: int, r: int); }\n");
    scenario.push_str("tgd probe: Rep(x, r) -> Out(x, r).\ntgd rep: S_Rec(x) -> Rep(x, R).\n");
    for j in 0..egds {
        let _ = writeln!(
            scenario,
            "egd e{j}: S_Same{j}(x, y), Rep(x, r1), Rep(y, r2) -> r1 = r2."
        );
    }

    let records = clusters * chain;
    let mut ids: Vec<usize> = (0..records).collect();
    rng.shuffle(&mut ids);
    let mut lines: Vec<String> = (0..records).map(|x| format!("S_Rec({x}).")).collect();
    for cluster in ids.chunks(chain) {
        for (i, pair) in cluster.windows(2).enumerate() {
            lines.push(format!("S_Same{}({}, {}).", i % egds, pair[0], pair[1]));
        }
    }
    let expected = Expected {
        cardinalities: vec![("Out".into(), records), ("Rep".into(), records)],
        distinct_nulls: Some(("Rep".into(), clusters)),
    };
    Inputs {
        scenario,
        facts: join_shuffled(lines, rng),
        expected,
    }
}

/// The designer loop: many renamed copies of the running example's view
/// ladder (three-level nested negation, one key egd each) over one source
/// product per ladder — a large program and a tiny instance.
fn rewrite_wide(sizes: &Sizes, rng: &mut Rng) -> Inputs {
    let ladders = sizes.rw_ladders;
    let ratings = shuffled_ratings(ladders, rng);
    let mut scenario = String::from("schema source {\n");
    for i in 0..ladders {
        let _ = writeln!(scenario, "    S_P{i}(id: int, name: string, rating: int);");
    }
    scenario.push_str("}\nschema target {\n");
    for i in 0..ladders {
        let _ = writeln!(
            scenario,
            "    T_P{i}(id: int, name: string, store: int);\n    \
             T_R{i}(id: int, product: int, thumbsUp: int);"
        );
    }
    scenario.push_str("}\n");
    for i in 0..ladders {
        let _ = write!(
            scenario,
            "view Popular{i}(pid, name) <- T_P{i}(pid, name, store), not T_R{i}(rid, pid, 0).\n\
             view Avg{i}(pid, name) <- T_P{i}(pid, name, store), T_R{i}(rid, pid, 1), \
             not Popular{i}(pid, name).\n\
             view Unpopular{i}(pid, name) <- T_P{i}(pid, name, store), \
             not Avg{i}(pid, name), not Popular{i}(pid, name).\n\
             tgd m0_{i}: S_P{i}(pid, name, rating), rating < 2 -> Unpopular{i}(pid, name).\n\
             tgd m1_{i}: S_P{i}(pid, name, rating), rating >= 2, rating < 4 -> Avg{i}(pid, name).\n\
             tgd m2_{i}: S_P{i}(pid, name, rating), rating >= 4 -> Popular{i}(pid, name).\n\
             egd e{i}: Popular{i}(id1, n), Popular{i}(id2, n) -> id1 = id2.\n"
        );
    }
    let lines = ratings
        .iter()
        .enumerate()
        .map(|(i, rating)| format!("S_P{i}({i}, \"product_{i}\", {rating})."))
        .collect();
    // One T_P row per ladder; thumbsUp witnesses as in `views_exchange`:
    // one for an unpopular product, two for an average one, none for a
    // popular one.
    let mut cardinalities = Vec::with_capacity(2 * ladders);
    for (i, &rating) in ratings.iter().enumerate() {
        cardinalities.push((format!("T_P{i}"), 1));
        cardinalities.push((format!("T_R{i}"), [1, 1, 2, 2, 0, 0][rating]));
    }
    Inputs {
        scenario,
        facts: join_shuffled(lines, rng),
        expected: Expected {
            cardinalities,
            distinct_nulls: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let a = generate(w, &Sizes::SMOKE, 42);
            let b = generate(w, &Sizes::SMOKE, 42);
            let c = generate(w, &Sizes::SMOKE, 7);
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a.facts, c.facts, "{}", w.name());
            // Sizes never depend on the seed.
            assert_eq!(
                a.expected.total_tuples(),
                c.expected.total_tuples(),
                "{}",
                w.name()
            );
            assert_eq!(a.facts.lines().count(), c.facts.lines().count());
        }
    }

    #[test]
    fn band_sizes_partition_the_products() {
        for n in [0, 1, 5, 6, 7, 30, 1_501] {
            assert_eq!(band(n, 0, 2) + band(n, 2, 4) + band(n, 4, 6), n);
            let ratings = shuffled_ratings(n, &mut Rng::new(3));
            assert_eq!(ratings.iter().filter(|&&r| r < 4).count(), band(n, 0, 4));
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
