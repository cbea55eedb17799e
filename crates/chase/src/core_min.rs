//! Core computation for universal solutions.
//!
//! The restricted chase produces universal solutions that may contain
//! redundant labeled nulls: in the paper's running example, the `SoldAt`
//! unfolding re-derives a `T_Product(pid, N_name, N_sid)` tuple alongside
//! the real `T_Product(pid, "tv", N_store)` one. The **core** (Fagin,
//! Kolaitis, Popa — *Data Exchange: Getting to the Core*) is the smallest
//! universal solution, unique up to isomorphism, obtained by folding the
//! instance into itself with an endomorphism that eliminates such
//! redundancy.
//!
//! This module implements greedy *tuple-level* folding: for every tuple
//! containing nulls, look for a sibling tuple in the same relation that it
//! maps onto (a consistent simultaneous substitution of its nulls); the
//! fold is valid when the substitution also maps every *other* occurrence
//! of those nulls onto existing facts. Repeat to fixpoint. Exact core
//! computation is NP-hard in general; this greedy pass is the standard
//! polynomial heuristic and is exact for the block-shaped redundancy the
//! restricted chase produces in source-to-target scenarios.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use grom_data::{Instance, NullId, Tuple, Value};

/// Statistics from a core-minimization run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Nulls folded onto other values.
    pub nulls_folded: usize,
    /// Tuples removed by the folding.
    pub tuples_removed: usize,
    /// Fold rounds (each round finds and applies one fold).
    pub rounds: usize,
}

/// All facts each null occurs in.
fn null_occurrences(inst: &Instance) -> BTreeMap<NullId, Vec<(Arc<str>, Tuple)>> {
    let mut out: BTreeMap<NullId, Vec<_>> = BTreeMap::new();
    for fact in inst.facts() {
        for n in fact.tuple.nulls() {
            out.entry(n)
                .or_default()
                .push((fact.relation.clone(), fact.tuple.clone()));
        }
    }
    out
}

/// Try to map `tuple` onto `candidate` (same relation, same arity):
/// constants must agree, and each null of `tuple` maps to the value at the
/// same position of `candidate`, consistently across positions. Returns
/// the substitution restricted to non-identity entries, or `None`.
fn tuple_mapping(tuple: &Tuple, candidate: &Tuple) -> Option<BTreeMap<NullId, Value>> {
    let mut subst: BTreeMap<NullId, Value> = BTreeMap::new();
    for (a, b) in tuple.values().iter().zip(candidate.values()) {
        match a.as_null() {
            None => {
                if a != b {
                    return None; // constant mismatch
                }
            }
            Some(n) => match subst.get(&n) {
                Some(prev) if prev != b => return None, // inconsistent
                Some(_) => {}
                None => {
                    subst.insert(n, b.clone());
                }
            },
        }
    }
    // Drop identity entries; an all-identity mapping folds nothing.
    subst.retain(|n, v| v.as_null() != Some(*n));
    if subst.is_empty() {
        None
    } else {
        Some(subst)
    }
}

/// Is the fold `subst` valid instance-wide? Every occurrence of every
/// mapped null, rewritten under `subst`, must already exist in `inst`.
fn fold_is_valid(
    inst: &Instance,
    occurrences: &BTreeMap<NullId, Vec<(Arc<str>, Tuple)>>,
    subst: &BTreeMap<NullId, Value>,
) -> bool {
    for n in subst.keys() {
        let Some(occs) = occurrences.get(n) else {
            continue;
        };
        for (rel, t) in occs {
            let (image, _) = t.substitute_nulls(|id| subst.get(&id).cloned());
            if !inst.contains_fact(rel, &image) {
                return false;
            }
        }
    }
    true
}

/// Find one applicable fold, if any.
fn find_fold(
    inst: &Instance,
    occurrences: &BTreeMap<NullId, Vec<(Arc<str>, Tuple)>>,
) -> Option<BTreeMap<NullId, Value>> {
    for rel_name in inst.relation_names() {
        let rel = inst.relation(rel_name).expect("name from iterator");
        for tuple in rel.iter() {
            if !tuple.has_nulls() {
                continue;
            }
            // Candidate images: tuples agreeing with `tuple` on some
            // constant column (or any tuple when fully null). Scanning the
            // whole relation is fine at core-minimization scale; use the
            // most selective constant column when available.
            let pattern: Vec<Option<Value>> = tuple
                .values()
                .iter()
                .map(|v| v.is_constant().then(|| v.clone()))
                .collect();
            for candidate in rel.scan(&pattern) {
                if candidate == tuple {
                    continue;
                }
                if let Some(subst) = tuple_mapping(tuple, candidate) {
                    if fold_is_valid(inst, occurrences, &subst) {
                        return Some(subst);
                    }
                }
            }
        }
    }
    None
}

/// Incrementally repair the occurrence index after a fold, using the
/// changed-relation report of [`Instance::substitute_nulls`] — the same
/// delta bookkeeping the chase scheduler runs on. Occurrences in untouched
/// relations are still valid verbatim; only the rewritten relations are
/// rescanned, and the folded nulls disappear outright.
fn refresh_occurrences(
    occurrences: &mut BTreeMap<NullId, Vec<(Arc<str>, Tuple)>>,
    inst: &Instance,
    changed: &[Arc<str>],
    subst: &BTreeMap<NullId, Value>,
) {
    let changed_set: BTreeSet<&str> = changed.iter().map(AsRef::as_ref).collect();
    occurrences.retain(|n, entries| {
        if subst.contains_key(n) {
            return false; // folded away
        }
        entries.retain(|(rel, _)| !changed_set.contains(rel.as_ref()));
        true
    });
    for name in changed {
        let Some(rel) = inst.relation(name) else {
            continue;
        };
        for tuple in rel.iter() {
            for n in tuple.nulls() {
                occurrences
                    .entry(n)
                    .or_default()
                    .push((name.clone(), tuple.clone()));
            }
        }
    }
}

/// Greedily minimize `inst` towards its core. The instance is modified in
/// place; statistics are returned.
pub fn core_minimize(inst: &mut Instance) -> CoreStats {
    let mut folded = CoreStats::default();
    let mut occurrences = null_occurrences(inst);
    loop {
        folded.rounds += 1;
        match find_fold(inst, &occurrences) {
            None => break,
            Some(subst) => {
                let before = inst.len();
                let changed = inst.substitute_nulls(|id| subst.get(&id).cloned());
                folded.nulls_folded += subst.len();
                folded.tuples_removed += before - inst.len();
                refresh_occurrences(&mut occurrences, inst, &changed, &subst);
            }
        }
    }
    folded
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Value {
        Value::int(i)
    }

    #[test]
    fn redundant_null_tuple_folds_onto_constant_tuple() {
        // T(1, N0) is subsumed by T(1, 5): the core drops it.
        let mut inst = Instance::new();
        inst.add("T", vec![v(1), Value::null(0)]).unwrap();
        inst.add("T", vec![v(1), v(5)]).unwrap();
        let stats = core_minimize(&mut inst);
        assert_eq!(stats.nulls_folded, 1);
        assert_eq!(inst.len(), 1);
        assert!(inst.contains_fact("T", &Tuple::new(vec![v(1), v(5)])));
    }

    #[test]
    fn non_redundant_null_survives() {
        // T(1, N0) has no image (the only sibling disagrees on column 0).
        let mut inst = Instance::new();
        inst.add("T", vec![v(1), Value::null(0)]).unwrap();
        inst.add("T", vec![v(2), v(5)]).unwrap();
        let stats = core_minimize(&mut inst);
        assert_eq!(stats.nulls_folded, 0);
        assert_eq!(inst.len(), 2);
    }

    #[test]
    fn null_folds_onto_null_when_blocks_align() {
        // T(1, N0) and T(1, N1) are isomorphic duplicates: one folds onto
        // the other.
        let mut inst = Instance::new();
        inst.add("T", vec![v(1), Value::null(0)]).unwrap();
        inst.add("T", vec![v(1), Value::null(1)]).unwrap();
        let stats = core_minimize(&mut inst);
        assert_eq!(stats.nulls_folded, 1);
        assert_eq!(inst.len(), 1);
    }

    #[test]
    fn linked_nulls_fold_together_or_not_at_all() {
        // R(1, N0), S(N0, 2) vs R(1, 7), S(7, 2): N0 folds onto 7 because
        // *both* its occurrences have images.
        let mut inst = Instance::new();
        inst.add("R", vec![v(1), Value::null(0)]).unwrap();
        inst.add("S", vec![Value::null(0), v(2)]).unwrap();
        inst.add("R", vec![v(1), v(7)]).unwrap();
        inst.add("S", vec![v(7), v(2)]).unwrap();
        let stats = core_minimize(&mut inst);
        assert_eq!(stats.nulls_folded, 1);
        assert_eq!(inst.len(), 2);

        // Same shape but the S-image is missing: no fold.
        let mut inst = Instance::new();
        inst.add("R", vec![v(1), Value::null(0)]).unwrap();
        inst.add("S", vec![Value::null(0), v(2)]).unwrap();
        inst.add("R", vec![v(1), v(7)]).unwrap();
        let stats = core_minimize(&mut inst);
        assert_eq!(stats.nulls_folded, 0);
        assert_eq!(inst.len(), 3);
    }

    #[test]
    fn chain_of_folds_terminates() {
        let mut inst = Instance::new();
        for label in 0..3 {
            inst.add("T", vec![v(1), Value::null(label)]).unwrap();
        }
        let stats = core_minimize(&mut inst);
        assert_eq!(stats.nulls_folded, 2);
        assert_eq!(inst.len(), 1);
    }

    #[test]
    fn constants_only_instance_is_untouched() {
        let mut inst = Instance::new();
        inst.add("T", vec![v(1), v(2)]).unwrap();
        inst.add("T", vec![v(3), v(4)]).unwrap();
        let stats = core_minimize(&mut inst);
        assert_eq!(stats.nulls_folded, 0);
        assert_eq!(stats.rounds, 1);
        assert_eq!(inst.len(), 2);
    }

    #[test]
    fn partially_informative_tuples_fold_simultaneously() {
        // The m3 pattern from the running example: TP(1, N0, N1) maps onto
        // TP(1, "tv", N2) via the simultaneous fold {N0 → "tv", N1 → N2}.
        let mut inst = Instance::new();
        inst.add("TP", vec![v(1), Value::null(0), Value::null(1)])
            .unwrap();
        inst.add("TP", vec![v(1), Value::str("tv"), Value::null(2)])
            .unwrap();
        let stats = core_minimize(&mut inst);
        assert_eq!(stats.nulls_folded, 2);
        assert_eq!(inst.len(), 1);
        let remaining: Vec<_> = inst.tuples("TP").collect();
        assert_eq!(remaining[0].get(1), Some(&Value::str("tv")));
    }

    #[test]
    fn inconsistent_mapping_rejected() {
        // T(N0, N0) cannot map onto T(1, 2): the repeated null would need
        // two images.
        let mut inst = Instance::new();
        inst.add("T", vec![Value::null(0), Value::null(0)]).unwrap();
        inst.add("T", vec![v(1), v(2)]).unwrap();
        let stats = core_minimize(&mut inst);
        assert_eq!(stats.nulls_folded, 0);
        assert_eq!(inst.len(), 2);
        // But T(N0, N0) maps fine onto a diagonal tuple.
        inst.add("T", vec![v(3), v(3)]).unwrap();
        let stats = core_minimize(&mut inst);
        assert_eq!(stats.nulls_folded, 1);
        assert_eq!(inst.len(), 2);
    }

    #[test]
    fn incremental_occurrence_refresh_matches_full_recompute() {
        let mut inst = Instance::new();
        inst.add("R", vec![v(1), Value::null(0)]).unwrap();
        inst.add("S", vec![Value::null(0), Value::null(1)]).unwrap();
        inst.add("T", vec![Value::null(2)]).unwrap();
        let mut occ = null_occurrences(&inst);
        let subst: BTreeMap<NullId, Value> = [(NullId(0), v(7))].into();
        let changed = inst.substitute_nulls(|id| subst.get(&id).cloned());
        refresh_occurrences(&mut occ, &inst, &changed, &subst);
        let full = null_occurrences(&inst);
        // Same keys and same occurrence multisets (order may differ).
        assert_eq!(
            occ.keys().collect::<Vec<_>>(),
            full.keys().collect::<Vec<_>>()
        );
        for (n, entries) in &full {
            let mut a = occ[n].clone();
            let mut b = entries.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "occurrences of {n:?}");
        }
    }

    #[test]
    fn fold_may_cascade_through_shared_nulls() {
        // U(N0), U(5), V(N0, N1), V(5, N2):
        // σ = {N0 → 5} validates because V(5, N1)… does not exist — so the
        // U-driven fold fails; the V-driven fold {N0 → 5, N1 → N2}
        // validates U(N0) → U(5) ✓ and V → V ✓.
        let mut inst = Instance::new();
        inst.add("U", vec![Value::null(0)]).unwrap();
        inst.add("U", vec![v(5)]).unwrap();
        inst.add("V", vec![Value::null(0), Value::null(1)]).unwrap();
        inst.add("V", vec![v(5), Value::null(2)]).unwrap();
        let stats = core_minimize(&mut inst);
        assert_eq!(stats.nulls_folded, 2);
        assert_eq!(inst.len(), 2);
    }
}
