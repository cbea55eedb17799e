//! Storage oracle: a relation under random interleavings of insert,
//! duplicate insert, null substitution and forced compaction must answer
//! every probe — every bound-column mask under every [`Span`] — exactly as
//! a brute-force filter over `Relation::iter()` does: same tuples, same
//! order. `iter()` itself is held against a plain `Vec<Tuple>` model of the
//! substitution semantics.
//!
//! Indexes are built by the first probe that binds them, so *when* a
//! relation is first probed is part of its state. Three copies are checked:
//! one probed in the middle of the interleaving (its indexes are maintained
//! through the later writes), a clone taken before any index existed and
//! fed the same later writes (everything is built by the final check), and
//! a clone taken after (it inherits built indexes and then diverges).
//!
//! A fourth copy lives interned — the same writes with every string a
//! `Value::Sym` — and ends the way the pipeline ends a chased instance:
//! split off by moving the relation whole, un-interned in place, and then
//! held against the same plain-string model.

use std::collections::HashMap;
use std::sync::Barrier;

use proptest::prelude::*;

use grom_data::{Instance, NullId, Relation, Span, SymbolTable, Tuple, Value};

const ARITY: usize = 3;

/// Selectors below `SMALL` are a small value domain so that patterns hit,
/// rows collide and substitutions merge: ints 0..=3, two strings, labeled
/// nulls 0..=2. Every selector from `SMALL` up is an int of its own: the
/// wide domain, in which most keys are held by one row.
fn val(sel: usize) -> Value {
    match sel {
        s @ 0..=3 => Value::int(s as i64),
        4 => Value::str("a"),
        5 => Value::str("b"),
        s @ 6..=8 => Value::null(s as u64 - 6),
        s => Value::int(s as i64),
    }
}

const SMALL: usize = 9;

/// Selectors for the wide columns: a collision between two of a case's 40
/// rows is rare, so index buckets mostly hold one row each.
const WIDE: usize = 1 << 16;

fn row(sels: &[usize; ARITY]) -> Tuple {
    Tuple::new(sels.iter().map(|&s| val(s)).collect())
}

/// One write, decoded from `(kind, selectors)`.
#[derive(Debug, Clone)]
enum Write {
    Insert(Tuple),
    /// Re-insert the live row at this index (modulo the length).
    Duplicate(usize),
    Substitute(HashMap<NullId, Value>),
    /// Enough tombstones to cross the compaction threshold.
    Compact,
}

/// Labels the compaction burst uses; the domain of `val` stays below them.
const BURST: std::ops::Range<u64> = 1_000..1_080;

fn decode(kind: usize, sels: &[usize; ARITY]) -> Option<Write> {
    Some(match kind {
        0..=3 => Write::Insert(row(sels)),
        4 => Write::Duplicate(sels[0]),
        5 => {
            // A fully resolved map: the target is never itself mapped.
            let target = val(sels[2]);
            let map: HashMap<NullId, Value> = [sels[0], sels[1]]
                .iter()
                .map(|&s| NullId(s as u64 % 3))
                .filter(|&n| target != Value::Null(n))
                .map(|n| (n, target.clone()))
                .collect();
            Write::Substitute(map)
        }
        6 => Write::Compact,
        _ => return None, // a probe, which is the caller's to run
    })
}

/// The model: live tuples in insertion order, substitution as specified —
/// affected rows leave, are rewritten, and re-enter in their old order
/// unless they now equal a row that is present.
fn apply_model(model: &mut Vec<Tuple>, write: &Write) {
    match write {
        Write::Insert(t) => {
            if !model.contains(t) {
                model.push(t.clone());
            }
        }
        Write::Duplicate(_) => {}
        Write::Substitute(map) => {
            let (hit, keep): (Vec<Tuple>, Vec<Tuple>) = std::mem::take(model)
                .into_iter()
                .partition(|t| t.nulls().any(|n| map.contains_key(&n)));
            *model = keep;
            for t in hit {
                let (t, _) = t.substitute_nulls(|n| map.get(&n).cloned());
                if !model.contains(&t) {
                    model.push(t);
                }
            }
        }
        Write::Compact => {
            apply_model(model, &Write::Insert(row(&[0, 0, 0])));
        }
    }
}

fn apply(inst: &mut Instance, write: &Write) {
    match write {
        Write::Insert(t) => {
            let fresh = !inst.contains_fact("R", t);
            assert_eq!(inst.add("R", t.values().to_vec()).unwrap(), fresh);
        }
        Write::Duplicate(k) => {
            let Some(rel) = inst.relation("R").filter(|r| !r.is_empty()) else {
                return;
            };
            let t = rel.iter().nth(k % rel.len()).unwrap().clone();
            assert!(!inst.add("R", t.values().to_vec()).unwrap());
        }
        Write::Substitute(map) => {
            inst.substitute_nulls_batch(map);
        }
        Write::Compact => {
            // 80 rows that all fold onto (0, 0, 0): 79 or 80 tombstones,
            // more than the live rows a case's writes can pile up.
            for n in BURST {
                inst.add("R", vec![Value::null(n), val(0), val(0)]).unwrap();
            }
            let map: HashMap<NullId, Value> = BURST.map(|n| (NullId(n), val(0))).collect();
            inst.substitute_nulls_batch(&map);
            let report = inst.storage_report();
            let r = report.iter().find(|r| r.relation.as_ref() == "R").unwrap();
            assert!(r.live_rows < 64, "the burst must outweigh the live rows");
            assert_eq!(r.tombstones, 0, "burst did not compact: {r:?}");
        }
    }
}

/// `source`'s values at the columns whose bit is set in `mask`.
fn masked(source: &Tuple, mask: usize) -> Vec<Option<Value>> {
    (0..ARITY)
        .map(|c| (mask >> c & 1 == 1).then(|| source.values()[c].clone()))
        .collect()
}

fn matches(t: &Tuple, pattern: &[Option<Value>]) -> bool {
    pattern
        .iter()
        .zip(t.values())
        .all(|(want, v)| want.as_ref().is_none_or(|w| w == v))
}

fn collect<'a>(rel: &'a Relation, pattern: &[Option<Value>], span: Span) -> Vec<&'a Tuple> {
    let mut out = Vec::new();
    assert!(rel.scan_each_v(pattern, span, &mut |t| {
        out.push(t);
        true
    }));
    out
}

/// Hold every access path of `rel` against the brute-force filter over
/// `rel.iter()`, for `pattern` under every span the cuts in `cuts` define.
fn check_pattern(rel: &Relation, pattern: &[Option<Value>], cuts: &[usize]) {
    let live: Vec<&Tuple> = rel.iter().collect();
    let fully_bound = pattern.iter().all(Option::is_some);
    let mut spans = vec![(Span::All, &live[..])];
    for &n in cuts {
        // The last `n` live rows are the new half.
        let c = rel.cursor_before_last(n);
        let split = live.len() - n.min(live.len());
        spans.push((Span::Below(c), &live[..split]));
        spans.push((Span::AtLeast(c), &live[split..]));
    }
    for (span, half) in spans {
        let expect: Vec<&Tuple> = half
            .iter()
            .copied()
            .filter(|t| matches(t, pattern))
            .collect();
        let got = collect(rel, pattern, span);
        assert_eq!(got, expect, "scan of {pattern:?} under {span:?}");
        let estimate = rel.estimate_v(pattern, span);
        if fully_bound {
            assert_eq!(estimate, expect.len(), "{pattern:?} under {span:?}");
        } else {
            assert!(
                estimate >= expect.len(),
                "estimate {estimate} < {} for {pattern:?} under {span:?}",
                expect.len()
            );
        }
        // An early stop sees the first match and reports the stop.
        let mut first = None;
        let completed = rel.scan_each_v(pattern, span, &mut |t| {
            first = Some(t);
            false
        });
        assert_eq!(first, expect.first().copied());
        assert_eq!(completed, expect.is_empty());
        if span == Span::All {
            assert_eq!(rel.any_match(pattern), !expect.is_empty());
            assert_eq!(rel.scan(pattern), expect);
            assert_eq!(rel.estimate(pattern), estimate);
        }
    }
}

/// Every mask × every span, with the pattern values drawn from every live
/// row (hits) and from a row that is absent (misses, and partial hits).
fn check_all(rel: &Relation, model: &[Tuple]) {
    let live: Vec<Tuple> = rel.iter().cloned().collect();
    assert_eq!(live, model, "iter() diverges from the model");
    assert_eq!(rel.len(), model.len());
    let len = live.len();
    let cuts = [0, 1, len / 2, len.saturating_sub(1), len, len + 1];
    let absent = Tuple::new(vec![val(5), val(1), Value::null(77)]);
    assert!(!rel.contains(&absent));
    for source in live.iter().chain([&absent]) {
        assert_eq!(rel.contains(source), !std::ptr::eq(source, &absent));
        for mask in 0..1usize << ARITY {
            check_pattern(rel, &masked(source, mask), &cuts);
        }
    }
}

fn intern_value(v: &Value, table: &mut SymbolTable) -> Value {
    match v {
        Value::Str(s) => Value::Sym(table.intern(s)),
        other => other.clone(),
    }
}

fn intern_tuple(t: &Tuple, table: &mut SymbolTable) -> Tuple {
    Tuple::new(t.values().iter().map(|v| intern_value(v, table)).collect())
}

/// `write` as the interned copy receives it.
fn intern_write(write: &Write, table: &mut SymbolTable) -> Write {
    match write {
        Write::Insert(t) => Write::Insert(intern_tuple(t, table)),
        Write::Substitute(map) => Write::Substitute(
            map.iter()
                .map(|(n, v)| (*n, intern_value(v, table)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// The pipeline's tail on an interned instance that holds `R` (the twin of
/// `model`, with whatever tombstones and built indexes its history left)
/// beside another relation: split, un-intern in place, and every access
/// path answers as the plain-string model says.
fn check_split_and_unintern(interned: Instance, model: &[Tuple]) {
    let keys = |inst: &Instance| -> Vec<Vec<usize>> {
        let specs = inst.relation("R").unwrap().key_specs();
        specs.map(<[usize]>::to_vec).collect()
    };
    let (built, registered) = (indexes_built(&interned), keys(&interned));
    let (mut r, rest) = interned.partition(|name| name == "R");
    let names =
        |inst: &Instance| -> Vec<String> { inst.relation_names().map(|n| n.to_string()).collect() };
    assert_eq!(
        (names(&r), names(&rest)),
        (vec!["R".into()], vec!["Other".into()])
    );
    assert_eq!(rest.len(), 1);
    // Moved, not rebuilt: what some probe had built came along.
    assert_eq!(indexes_built(&r), built);

    r.unintern();
    let report = r.storage_report();
    assert_eq!(report.len(), 1);
    assert_eq!(report[0].live_rows, model.len());
    assert_eq!(report[0].tombstones, 0);
    assert_eq!(report[0].indexes, vec![], "no index until the first probe");
    assert_eq!(keys(&r), registered);
    let rel = r.relation("R").unwrap();
    assert!(rel
        .iter()
        .all(|t| !t.values().iter().any(|v| matches!(v, Value::Sym(_)))));
    // `contains`, every bound-column mask (string columns among them)
    // under every span, `any_match`, estimates — and the first partly
    // bound probe rebuilds what it binds.
    check_all(rel, model);
    assert!(model.is_empty() || indexes_built(&r) >= ARITY);
}

fn indexes_built(inst: &Instance) -> usize {
    inst.storage_report().iter().map(|r| r.indexes.len()).sum()
}

/// Writes and probes over selectors `0..wide` in columns 0 and 1 and the
/// small domain in column 2, which carries the nulls substitution maps.
fn arb_ops(wide: usize) -> impl Strategy<Value = Vec<(usize, [usize; ARITY])>> {
    let sels = (0usize..wide, 0usize..wide, 0usize..SMALL).prop_map(|(a, b, c)| [a, b, c]);
    prop::collection::vec((0usize..8, sels), 0..40)
}

/// One case: `ops` against the three copies; the composite keys are
/// registered before the relation exists or after the last write.
fn run_case(ops: &[(usize, [usize; ARITY])], eager_keys: bool) {
    let keys: [&[usize]; 3] = [&[0, 1], &[1, 2], &[0, 1, 2]];
    let mut probed = Instance::new();
    if eager_keys {
        for cols in keys {
            probed.register_key("R", cols);
        }
    }
    // The never-probed twin: a clone taken before the first probe,
    // which then receives the same writes.
    let mut cold: Option<Instance> = None;
    // The interned twin: the same history, strings as symbols.
    let mut table = SymbolTable::new();
    let mut interned = probed.clone();
    let mut model: Vec<Tuple> = Vec::new();
    for (kind, sels) in ops {
        match decode(*kind, sels) {
            Some(write) => {
                apply(&mut probed, &write);
                if let Some(cold) = &mut cold {
                    apply(cold, &write);
                }
                apply(&mut interned, &intern_write(&write, &mut table));
                apply_model(&mut model, &write);
            }
            None => {
                cold.get_or_insert_with(|| probed.clone());
                // One mask only, so that some indexes exist and others
                // do not while the later writes land.
                let pattern = masked(&row(sels), sels[0] % (1 << ARITY));
                if let Some(rel) = probed.relation("R") {
                    check_pattern(rel, &pattern, &[0, 1, rel.len()]);
                }
                if let Some(rel) = interned.relation("R") {
                    let pattern: Vec<Option<Value>> = pattern
                        .iter()
                        .map(|v| v.as_ref().map(|v| intern_value(v, &mut table)))
                        .collect();
                    check_pattern(rel, &pattern, &[0, 1, rel.len()]);
                }
            }
        }
    }
    if !eager_keys {
        for cols in keys {
            probed.register_key("R", cols);
        }
    }
    let mut cold = cold.unwrap_or_else(|| probed.clone());
    assert_eq!(indexes_built(&cold), 0);
    let Some(rel) = probed.relation("R") else {
        assert!(model.is_empty());
        return;
    };
    check_all(rel, &model);
    // Giving the built indexes back, or copying without them, changes no
    // answer; `probed` keeps its own.
    let mut forgotten = probed.clone();
    forgotten.forget_indexes();
    let cold_copy = probed.restricted(|name| name == "R");
    for cold in [&forgotten, &cold_copy] {
        assert_eq!(indexes_built(cold), 0);
        check_all(cold.relation("R").unwrap(), &model);
    }
    assert!(probed.restricted(|name| name != "R").is_empty());
    if !eager_keys {
        interned.register_key("R", &[0, 1]);
    }
    let other = intern_value(&Value::str("a"), &mut table);
    interned.add("Other", vec![other]).unwrap();
    check_split_and_unintern(interned, &model);

    // A clone taken now inherits the built indexes...
    let mut warm = probed.clone();
    assert_eq!(indexes_built(&warm), indexes_built(&probed));
    assert!(indexes_built(&warm) >= ARITY);
    // ...and both clones diverge from the original without touching it.
    let more = [
        Write::Insert(row(&[6, 1, 7])),
        Write::Insert(row(&[7, 7, 4])),
        Write::Substitute(
            [(NullId(0), val(1)), (NullId(1), val(8))]
                .into_iter()
                .collect(),
        ),
        Write::Compact,
        Write::Insert(row(&[8, 2, 2])),
    ];
    let mut later = model.clone();
    for write in &more {
        apply(&mut warm, write);
        apply(&mut cold, write);
        apply_model(&mut later, write);
    }
    assert_eq!(indexes_built(&cold), 0);
    check_all(warm.relation("R").unwrap(), &later);
    check_all(cold.relation("R").unwrap(), &later);
    check_all(probed.relation("R").unwrap(), &model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_access_path_agrees_with_the_brute_force_filter(
        ops in arb_ops(SMALL),
        eager_keys in prop::bool::ANY,
    ) {
        run_case(&ops, eager_keys);
    }

    /// Mostly unique keys: buckets that hold one row inline, and their
    /// growth into lists, under every cut, substitution and compaction.
    #[test]
    fn every_access_path_agrees_over_mostly_unique_keys(
        ops in arb_ops(WIDE),
        eager_keys in prop::bool::ANY,
    ) {
        run_case(&ops, eager_keys);
    }
}

/// The shape the egd chase leaves behind, spelled out: a probed, interned
/// relation in which `substitute_nulls_batch` merged rows and left
/// tombstones (too few to trigger compaction).
#[test]
fn split_and_unintern_after_a_substitution_left_tombstones() {
    let mut table = SymbolTable::new();
    let mut interned = Instance::new();
    interned.register_key("R", &[0, 1]);
    let mut model = Vec::new();
    let writes = [
        Write::Insert(row(&[4, 6, 0])), // ("a", N0, 0)
        Write::Insert(row(&[4, 1, 0])), // ("a", 1, 0): N0 := 1 merges into it
        Write::Insert(row(&[5, 7, 4])), // ("b", N1, "a")
        Write::Insert(row(&[5, 5, 8])), // ("b", "b", N2)
        Write::Insert(row(&[2, 2, 2])),
    ];
    for write in &writes {
        apply(&mut interned, &intern_write(write, &mut table));
        apply_model(&mut model, write);
    }
    let a = intern_value(&val(4), &mut table);
    assert_eq!(
        interned
            .relation("R")
            .unwrap()
            .scan(&[Some(a), None, None])
            .len(),
        2
    );
    let merge = Write::Substitute(
        [(NullId(0), val(1)), (NullId(1), val(5))]
            .into_iter()
            .collect(),
    );
    apply(&mut interned, &intern_write(&merge, &mut table));
    apply_model(&mut model, &merge);
    let report = interned.storage_report();
    assert_eq!((report[0].live_rows, report[0].tombstones), (4, 2));
    assert_eq!(report[0].indexes, vec![(vec![0], 6)]);
    let other = intern_value(&val(5), &mut table);
    interned.add("Other", vec![other]).unwrap();
    check_split_and_unintern(interned, &model);
}

/// The pool executor's workers read one snapshot through `&Instance`: two
/// threads that first-probe the same column at the same moment must both
/// get the oracle's answer, and the index must exist once afterwards.
#[test]
fn concurrent_first_probes_of_one_column_agree() {
    for round in 0..20 {
        let mut inst = Instance::new();
        for i in 0..500i64 {
            inst.add(
                "R",
                vec![Value::int(i % 7), Value::int(i), Value::int(round)],
            )
            .unwrap();
        }
        assert_eq!(indexes_built(&inst), 0);
        let shared = &inst;
        let rel = shared.relation("R").unwrap();
        let expect: Vec<&Tuple> = rel
            .iter()
            .filter(|t| t.get(0) == Some(&Value::int(3)))
            .collect();
        let barrier = Barrier::new(2);
        let pattern = [Some(Value::int(3)), None, None];
        let answers: Vec<(Vec<&Tuple>, usize)> = std::thread::scope(|s| {
            let probe = || {
                let rel = shared.relation("R").unwrap();
                barrier.wait();
                (rel.scan(&pattern), rel.estimate(&pattern))
            };
            let handles = [s.spawn(probe), s.spawn(probe)];
            handles.map(|h| h.join().expect("prober panicked")).into()
        });
        for (hits, estimate) in answers {
            assert_eq!(hits, expect);
            assert_eq!(estimate, expect.len());
        }
        let report = inst.storage_report();
        assert_eq!(report[0].indexes, vec![(vec![0], 500)]);
    }
}
