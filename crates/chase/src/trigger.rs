//! Static trigger indexing for the delta-driven chase scheduler.
//!
//! The premise of a dependency can only gain new matches when a relation it
//! reads gains new tuples. The [`TriggerIndex`] precomputes, for every
//! relation name appearing in a positive premise literal, the set of
//! dependencies it *triggers* — so the scheduler can route per-relation
//! deltas straight to the dependencies that might care, instead of
//! re-evaluating every premise against the whole instance each round.
//!
//! Negated premise literals are deliberately excluded: the executable
//! fragment the chase accepts has no premise negation (the rewriter
//! eliminates it first; see [`crate::chase_standard`]), and negation is
//! anti-monotone anyway — new tuples can only *remove* matches, never
//! create violations through a negated literal.

use std::collections::HashMap;
use std::sync::Arc;

use grom_data::Instance;
use grom_lang::{Atom, Dependency, Literal, Term, Var};

/// Relation name → indices of the dependencies whose premise mentions it
/// positively.
#[derive(Debug, Clone, Default)]
pub struct TriggerIndex {
    by_relation: HashMap<Arc<str>, Vec<usize>>,
}

impl TriggerIndex {
    /// Build the index for `deps`; dependency `k` is triggered by every
    /// relation named in a positive literal of `deps[k].premise`.
    pub fn build(deps: &[Dependency]) -> Self {
        let mut by_relation: HashMap<Arc<str>, Vec<usize>> = HashMap::new();
        for (k, dep) in deps.iter().enumerate() {
            for lit in &dep.premise {
                if let Literal::Pos(a) = lit {
                    let slot = by_relation.entry(a.predicate.clone()).or_default();
                    // Premises may mention a relation twice (self-joins);
                    // one trigger entry suffices.
                    if slot.last() != Some(&k) {
                        slot.push(k);
                    }
                }
            }
        }
        Self { by_relation }
    }

    /// The dependencies triggered by new tuples in `relation`, in
    /// dependency order (possibly empty).
    pub fn triggered_by(&self, relation: &str) -> &[usize] {
        self.by_relation
            .get(relation)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of distinct triggering relations.
    pub fn relation_count(&self) -> usize {
        self.by_relation.len()
    }
}

/// The composite join-key position sets each relation will be probed on
/// when chasing `deps`, derived from the same static premise analysis the
/// trigger index performs: `(relation, columns)` pairs, sorted and without
/// duplicates — the order [`register_join_keys`] registers them in.
///
/// For a premise atom, a position is a *probe key* when its term is a
/// constant or a variable shared with another premise literal — exactly the
/// positions the evaluator's scan patterns bind when that atom is joined
/// last. For a disjunct (conclusion) atom, the probe keys are constants and
/// universal variables: satisfaction checks scan conclusions with premise
/// bindings seeded. Only sets of ≥ 2 positions are reported: a single
/// column needs no registration (its index is built by the first probe
/// that binds it), and a set of *all* of a relation's columns, though
/// reported here, is dropped by [`Instance::register_key`] — the
/// membership table answers fully bound probes.
pub fn join_keys(deps: &[Dependency]) -> Vec<(&str, Vec<usize>)> {
    let mut out = Vec::new();
    // Per dependency: each premise variable with the number of premise
    // atoms it occurs in — 0 for one that only comparisons mention:
    // universal, but joining nothing.
    let mut occurs: Vec<(&Var, usize)> = Vec::new();
    let mut in_literal: Vec<&Var> = Vec::new();
    for dep in deps {
        occurs.clear();
        for lit in &dep.premise {
            in_literal.clear();
            for t in lit.terms() {
                if let Term::Var(v) = t {
                    if !in_literal.contains(&v) {
                        in_literal.push(v);
                    }
                }
            }
            let weight = usize::from(lit.atom().is_some());
            for &v in &in_literal {
                match occurs.iter_mut().find(|(w, _)| *w == v) {
                    Some((_, n)) => *n += weight,
                    None => occurs.push((v, weight)),
                }
            }
        }
        let joins = |v: &Var| occurs.iter().any(|&(w, n)| w == v && n >= 2);
        let universal = |v: &Var| occurs.iter().any(|&(w, _)| w == v);
        for a in dep.premise.iter().filter_map(Literal::atom) {
            push_key(&mut out, a, joins);
        }
        for a in dep.disjuncts.iter().flat_map(|d| &d.atoms) {
            push_key(&mut out, a, universal);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Add `atom`'s probe key — its constant positions and those holding a
/// `keyed` variable — when it spans at least two columns.
fn push_key<'a>(
    out: &mut Vec<(&'a str, Vec<usize>)>,
    atom: &'a Atom,
    keyed: impl Fn(&Var) -> bool,
) {
    let cols: Vec<usize> = atom
        .args
        .iter()
        .enumerate()
        .filter(|(_, t)| match t {
            Term::Const(_) => true,
            Term::Var(v) => keyed(v),
        })
        .map(|(i, _)| i)
        .collect();
    if cols.len() >= 2 {
        out.push((&atom.predicate, cols));
    }
}

/// Register the [`join_keys`] of `deps` as composite-key indexes on `inst`.
/// Relations that do not exist yet remember the registration and apply it
/// when first created (see [`Instance::register_key`]); a registered key is
/// built by the first probe that binds its columns. The chase dispatcher
/// calls this once per run, before the first sweep.
pub fn register_join_keys(inst: &mut Instance, deps: &[Dependency]) {
    for (rel, cols) in join_keys(deps) {
        inst.register_key(rel, &cols);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_lang::parser::parse_program;

    #[test]
    fn premise_relations_trigger_their_dependencies() {
        let p = parse_program(
            "tgd a: S(x), R(x, y) -> T(x).\n\
             tgd b: R(x, y) -> U(y).\n\
             egd e: T(x), U(x) -> x = x.",
        )
        .unwrap();
        let ix = TriggerIndex::build(&p.deps);
        assert_eq!(ix.triggered_by("S"), &[0]);
        assert_eq!(ix.triggered_by("R"), &[0, 1]);
        assert_eq!(ix.triggered_by("T"), &[2]);
        assert_eq!(ix.triggered_by("U"), &[2]);
        // Conclusion-only relations trigger nothing.
        assert!(ix.triggered_by("Absent").is_empty());
        assert_eq!(ix.relation_count(), 4);
    }

    #[test]
    fn self_joins_register_once() {
        let p = parse_program("egd e: T(x, a), T(x, b) -> a = b.").unwrap();
        let ix = TriggerIndex::build(&p.deps);
        assert_eq!(ix.triggered_by("T"), &[0]);
    }

    #[test]
    fn join_keys_cover_shared_vars_and_conclusions() {
        let p = parse_program(
            "tgd a: R(x, y), S(y, x) -> T(x, y).\n\
             tgd b: U(x, x, z) -> V(z).",
        )
        .unwrap();
        let keys = join_keys(&p.deps);
        // R and S join on both columns (x and y are each shared); the
        // conclusion T is probed with both universal vars bound. U's
        // repeated variable counts as one literal: x occurs in one literal
        // only, z too — no multi-column key, and V is unary.
        assert_eq!(
            keys,
            [("R", vec![0, 1]), ("S", vec![0, 1]), ("T", vec![0, 1])]
        );
    }

    #[test]
    fn register_join_keys_installs_indexes_eagerly_and_lazily() {
        let p = parse_program("tgd a: R(x, y, u), S(y, x) -> T(x, y, z).").unwrap();
        let mut inst = Instance::new();
        inst.add("R", vec![1.into(), 2.into(), 3.into()]).unwrap();
        inst.add("S", vec![2.into(), 1.into()]).unwrap();
        register_join_keys(&mut inst, &p.deps);
        assert!(inst.relation("R").unwrap().key_specs().any(|k| k == [0, 1]));
        // S's join key is all of its columns: the membership table's job.
        assert_eq!(inst.relation("S").unwrap().key_specs().count(), 0);
        // T does not exist yet; registering again (and a second key for it)
        // queues each key once, and they appear when T is created.
        register_join_keys(&mut inst, &p.deps);
        inst.register_key("T", &[1, 2]);
        inst.register_key("T", &[2, 1]);
        inst.add("T", vec![1.into(), 2.into(), 3.into()]).unwrap();
        let t_keys: Vec<&[usize]> = inst.relation("T").unwrap().key_specs().collect();
        assert_eq!(t_keys, [&[0, 1][..], &[1, 2][..]]);
    }
}
