//! Conflict-free dependency partitioning for the parallel chase executor.
//!
//! Two dependencies **conflict** when one's conclusion relations intersect
//! the other's premise or conclusion relations: running them concurrently
//! could hide a premise match (writer vs reader) or interleave writes into
//! the same relation (writer vs writer). The [`Partition`] groups
//! dependencies into the connected components of the conflict relation —
//! within a group execution must stay in declaration order, across groups
//! there is no interaction at all, so each group can run on its own worker
//! against a shared snapshot.
//!
//! Dependencies whose conclusion contains an *equality* (egds and mixed
//! tgd+egds) participate like every other dependency. Their equality
//! repairs do **not** write the instance from a worker: workers only
//! *collect* obligations against a read-only snapshot of the
//! [`NullMap`](crate::nullmap::NullMap), and the coordinator performs the
//! one unbounded write — the combined null substitution — at the sweep
//! barrier, after every worker has finished. Within a sweep an egd is
//! therefore a pure *reader*: it conflicts with writers of its premise
//! relations (so it observes same-sweep insertions of its own group, like
//! the sequential round), while egds over relations nobody writes — and
//! its conclusion-equality "write set", which only exists at the barrier —
//! glue nothing. Egds no longer split sweeps into sequential segments.
//!
//! The premise side of the conflict test reuses the [`TriggerIndex`]: a
//! dependency reads exactly the relations that trigger it.

use std::collections::BTreeMap;
use std::sync::Arc;

use grom_lang::Dependency;

use crate::trigger::TriggerIndex;

/// The static partition of a dependency set into conflict-free groups.
#[derive(Debug, Clone)]
pub struct Partition {
    /// `group_of[k]` — the group of dependency `k`. Every dependency is
    /// group-executable; equality conclusions are collected as obligations
    /// and resolved by the coordinator at the sweep barrier.
    group_of: Vec<usize>,
}

impl Partition {
    /// Partition `deps` using `triggers` (built over the same slice) for
    /// the premise-reader half of the conflict test.
    pub fn build(deps: &[Dependency], triggers: &TriggerIndex) -> Self {
        let n = deps.len();
        let mut uf = UnionFind::new(n);

        // Writer of each relation seen so far: writer/writer conflicts.
        let mut concluded_by: BTreeMap<Arc<str>, usize> = BTreeMap::new();
        for (k, dep) in deps.iter().enumerate() {
            for disjunct in &dep.disjuncts {
                for atom in &disjunct.atoms {
                    let rel = &atom.predicate;
                    // Writer vs writer on the same relation.
                    match concluded_by.get(rel) {
                        Some(&other) => uf.union(k, other),
                        None => {
                            concluded_by.insert(rel.clone(), k);
                        }
                    }
                    // Writer vs reader: everything triggered by `rel`
                    // reads it in its premise — including egds, which must
                    // see same-sweep insertions of the writer's group.
                    for &reader in triggers.triggered_by(rel) {
                        uf.union(k, reader);
                    }
                }
            }
        }

        // Roots → dense group ids, in first-member order.
        let mut group_ids: BTreeMap<usize, usize> = BTreeMap::new();
        let mut group_of = Vec::with_capacity(n);
        for k in 0..n {
            let root = uf.find(k);
            let next = group_ids.len();
            group_of.push(*group_ids.entry(root).or_insert(next));
        }

        Self { group_of }
    }

    /// The group of dependency `k`.
    pub fn group_of(&self, k: usize) -> usize {
        self.group_of[k]
    }
}

/// Plain union-find with path halving; small and allocation-free after
/// construction.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic orientation: higher root joins lower.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_lang::parser::parse_program;

    /// The members of each group of `text`'s partition, in group order,
    /// read off `group_of` (group ids are dense, in first-member order).
    fn groups(text: &str) -> Vec<Vec<usize>> {
        let p = parse_program(text).unwrap();
        let part = Partition::build(&p.deps, &TriggerIndex::build(&p.deps));
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for k in 0..p.deps.len() {
            let g = part.group_of(k);
            if g == groups.len() {
                groups.push(Vec::new());
            }
            groups[g].push(k);
        }
        groups
    }

    #[test]
    fn independent_chains_form_one_group_each() {
        let groups = groups(
            "tgd a0: A0(x) -> A1(x).\n\
             tgd a1: A1(x) -> A2(x).\n\
             tgd b0: B0(x) -> B1(x).\n\
             tgd b1: B1(x) -> B2(x).",
        );
        assert_eq!(groups, [vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn shared_conclusion_relation_conflicts() {
        // Both write T: writer/writer conflict, one group.
        let groups = groups(
            "tgd a: S(x) -> T(x).\n\
             tgd b: U(x) -> T(x).",
        );
        assert_eq!(groups, [vec![0, 1]]);
    }

    #[test]
    fn reader_of_written_relation_conflicts() {
        // b reads what a writes, even though their premises are disjoint.
        let groups = groups(
            "tgd a: S(x) -> T(x).\n\
             dep b: T(x), T(y) -> false.",
        );
        assert_eq!(groups, [vec![0, 1]]);
    }

    #[test]
    fn egds_are_group_members_not_boundaries() {
        // The egd reads A1, which tgd a writes: it joins a's group so its
        // delta activations see a's same-sweep insertions. It glues nothing
        // else — the unrelated b chain keeps its own group.
        let groups = groups(
            "tgd a: A0(x) -> A1(x, x).\n\
             egd e: A1(x, y1), A1(x, y2) -> y1 = y2.\n\
             tgd b: B0(x) -> B1(x).",
        );
        assert_eq!(groups, [vec![0, 1], vec![2]]);
    }

    #[test]
    fn egds_over_unwritten_relations_are_independent() {
        // Nobody writes R0/R1: each egd is a pure reader and gets its own
        // group — the k-way parallel obligation collection of the e9
        // workload.
        let groups = groups(
            "egd e0: R0(x, y1), R0(x, y2) -> y1 = y2.\n\
             egd e1: R1(x, y1), R1(x, y2) -> y1 = y2.",
        );
        assert_eq!(groups, [vec![0], vec![1]]);
    }

    #[test]
    fn mixed_tgd_egd_disjunct_writes_like_a_tgd() {
        // The atom half of a mixed disjunct is an ordinary conclusion
        // write; the equality half resolves at the barrier.
        let groups = groups(
            "dep d: S(x, y) -> T(x), x = y.\n\
             dep r: T(x), T(y) -> false.",
        );
        assert_eq!(groups, [vec![0, 1]]);
    }

    #[test]
    fn source_only_tgds_are_independent() {
        // Disjoint read and write sets: maximal parallelism.
        let groups = groups(
            "tgd a: S(x) -> T(x).\n\
             tgd b: U(x) -> V(x).\n\
             tgd c: W(x) -> X(x).",
        );
        assert_eq!(groups, [vec![0], vec![1], vec![2]]);
    }
}
