//! Weak acyclicity: the classical sufficient condition for chase
//! termination (Fagin, Kolaitis, Miller, Popa, *Data Exchange: Semantics
//! and Query Answering*).
//!
//! Build the **position graph**: nodes are positions `(predicate, column)`.
//! For every dependency and every disjunct of its conclusion, for every
//! universal variable `x` that occurs in the disjunct's atoms:
//!
//! * a **regular edge** from each premise position of `x` to each conclusion
//!   position of `x`;
//! * a **special edge** from each premise position of `x` to each position
//!   of every *existential* variable of the disjunct.
//!
//! The program is weakly acyclic iff no cycle goes through a special edge;
//! then the chase terminates in polynomially many steps. Deds are handled
//! by treating each disjunct as a separate tgd head — if every branch is
//! weakly acyclic, every greedy-chase scenario terminates.
//!
//! Deciding it takes one pass of Tarjan's strongly-connected-components
//! algorithm over the whole graph: an edge `u → v` lies on a cycle iff
//! there is a path back from `v` to `u`, i.e. iff `u` and `v` are in the
//! same component (a self-loop is its own cycle). Positions get dense ids
//! numbered in `(predicate, column)` order and the edge lists are sorted
//! and deduplicated, so the **witness** — the least special edge on a
//! cycle, comparing source position first, then target — is the first
//! special edge whose ends share a component.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use grom_lang::{Atom, Dependency, Literal, Term, Var};

/// A position `(predicate, column index)` in the position graph.
pub type Position = (Arc<str>, usize);

/// The outcome of the analysis.
#[derive(Debug, Clone)]
pub struct WeakAcyclicityReport {
    pub weakly_acyclic: bool,
    /// For non-weakly-acyclic programs: a special edge that lies on a cycle.
    pub witness: Option<(Position, Position)>,
    /// Number of positions in the graph.
    pub positions: usize,
    pub regular_edges: usize,
    pub special_edges: usize,
}

impl fmt::Display for WeakAcyclicityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.weakly_acyclic {
            write!(
                f,
                "weakly acyclic ({} positions, {} regular + {} special edges)",
                self.positions, self.regular_edges, self.special_edges
            )
        } else {
            let (u, v) = self.witness.as_ref().expect("witness for non-WA");
            write!(
                f,
                "NOT weakly acyclic: special edge {}#{} -> {}#{} lies on a cycle",
                u.0, u.1, v.0, v.1
            )
        }
    }
}

/// Dense ids for the positions of the graph under construction.
#[derive(Default)]
struct Positions<'a> {
    /// Predicate → its index into `columns`.
    predicates: HashMap<&'a str, usize>,
    /// Per predicate: its name and the id of each column seen so far.
    columns: Vec<(&'a str, Vec<Option<u32>>)>,
    /// Id → `(predicate index, column)`.
    of_id: Vec<(usize, usize)>,
}

impl<'a> Positions<'a> {
    fn id(&mut self, predicate: &'a str, column: usize) -> u32 {
        let p = *self.predicates.entry(predicate).or_insert_with(|| {
            self.columns.push((predicate, Vec::new()));
            self.columns.len() - 1
        });
        let ids = &mut self.columns[p].1;
        if ids.len() <= column {
            ids.resize(column + 1, None);
        }
        *ids[column].get_or_insert_with(|| {
            self.of_id.push((p, column));
            u32::try_from(self.of_id.len() - 1).expect("fewer than 2^32 positions")
        })
    }

    /// The `(variable, position)` pairs of `atoms`, in order.
    fn of_atoms<'d: 'a>(
        &mut self,
        atoms: impl Iterator<Item = &'d Atom>,
        out: &mut Vec<(&'d Var, u32)>,
    ) {
        out.clear();
        for a in atoms {
            for (i, t) in a.args.iter().enumerate() {
                if let Term::Var(v) = t {
                    out.push((v, self.id(&a.predicate, i)));
                }
            }
        }
    }

    fn position(&self, id: u32) -> Position {
        let (p, column) = self.of_id[id as usize];
        (Arc::from(self.columns[p].0), column)
    }
}

/// Analyze a set of dependencies for weak acyclicity.
pub fn is_weakly_acyclic(deps: &[Dependency]) -> WeakAcyclicityReport {
    let mut positions = Positions::default();
    let mut regular: Vec<(u32, u32)> = Vec::new();
    let mut special: Vec<(u32, u32)> = Vec::new();
    let (mut prem, mut concl) = (Vec::new(), Vec::new());
    let (mut sources, mut targets) = (Vec::new(), Vec::new());
    for dep in deps {
        let atoms = dep.premise.iter().filter_map(|lit| match lit {
            Literal::Pos(a) => Some(a),
            _ => None,
        });
        positions.of_atoms(atoms, &mut prem);
        for disjunct in &dep.disjuncts {
            positions.of_atoms(disjunct.atoms.iter(), &mut concl);
            // Regular edges from each premise position of a universal
            // variable to each of its conclusion positions; special edges
            // from the premise positions of the universal variables the
            // disjunct mentions to every existential position.
            sources.clear();
            targets.clear();
            for &(x, q) in &concl {
                let mut universal = false;
                for &(_, p) in prem.iter().filter(|(y, _)| *y == x) {
                    universal = true;
                    regular.push((p, q));
                    sources.push(p);
                }
                if !universal {
                    targets.push(q);
                }
            }
            sources.sort_unstable();
            sources.dedup();
            for &p in &sources {
                special.extend(targets.iter().map(|&q| (p, q)));
            }
        }
    }

    // Renumber the positions on an edge in `(predicate, column)` order, so
    // that sorted id pairs are sorted position pairs.
    let mut on_edge = vec![false; positions.of_id.len()];
    for &(u, v) in regular.iter().chain(&special) {
        on_edge[u as usize] = true;
        on_edge[v as usize] = true;
    }
    let mut order: Vec<u32> = (0..on_edge.len() as u32)
        .filter(|&id| on_edge[id as usize])
        .collect();
    order.sort_unstable_by_key(|&id| {
        let (p, column) = positions.of_id[id as usize];
        (positions.columns[p].0, column)
    });
    let mut rank = vec![0u32; on_edge.len()];
    for (r, &id) in order.iter().enumerate() {
        rank[id as usize] = r as u32;
    }
    for edges in [&mut regular, &mut special] {
        for (u, v) in edges.iter_mut() {
            (*u, *v) = (rank[*u as usize], rank[*v as usize]);
        }
        edges.sort_unstable();
        edges.dedup();
    }

    let component = strongly_connected_components(order.len(), &[&regular, &special]);
    let witness = special
        .iter()
        .find(|&&(u, v)| component[u as usize] == component[v as usize])
        .map(|&(u, v)| {
            let position = |r: u32| positions.position(order[r as usize]);
            (position(u), position(v))
        });
    WeakAcyclicityReport {
        weakly_acyclic: witness.is_none(),
        witness,
        positions: order.len(),
        regular_edges: regular.len(),
        special_edges: special.len(),
    }
}

/// Tarjan's algorithm on an explicit stack: the component of each node of
/// the graph on nodes `0..n` whose edges are the union of `edge_lists`.
fn strongly_connected_components(n: usize, edge_lists: &[&[(u32, u32)]]) -> Vec<usize> {
    let edges = || edge_lists.iter().flat_map(|list| list.iter());
    // Adjacency in compressed rows: the successors of `u` are
    // `next[start[u]..start[u + 1]]`.
    let mut start = vec![0usize; n + 1];
    for &(u, _) in edges() {
        start[u as usize + 1] += 1;
    }
    for u in 0..n {
        start[u + 1] += start[u];
    }
    let mut fill = start.clone();
    let mut next = vec![0usize; start[n]];
    for &(u, v) in edges() {
        next[fill[u as usize]] = v as usize;
        fill[u as usize] += 1;
    }

    const NONE: usize = usize::MAX;
    let mut index = vec![NONE; n];
    let mut low = vec![0; n];
    let mut component = vec![NONE; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut path: Vec<(usize, usize)> = Vec::new(); // (node, next edge)
    let (mut visited, mut components) = (0, 0);
    for root in 0..n {
        if index[root] != NONE {
            continue;
        }
        path.push((root, start[root]));
        index[root] = visited;
        low[root] = visited;
        visited += 1;
        stack.push(root);
        while let Some(&mut (u, ref mut edge)) = path.last_mut() {
            if *edge < start[u + 1] {
                let v = next[*edge];
                *edge += 1;
                if index[v] == NONE {
                    index[v] = visited;
                    low[v] = visited;
                    visited += 1;
                    stack.push(v);
                    path.push((v, start[v]));
                } else if component[v] == NONE {
                    // `v` is still on the stack: in `u`'s component.
                    low[u] = low[u].min(index[v]);
                }
                continue;
            }
            path.pop();
            if let Some(&(parent, _)) = path.last() {
                low[parent] = low[parent].min(low[u]);
            }
            if low[u] == index[u] {
                loop {
                    let w = stack.pop().expect("u is on the stack");
                    component[w] = components;
                    if w == u {
                        break;
                    }
                }
                components += 1;
            }
        }
    }
    component
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_lang::parser::{parse_dependency, parse_program};

    #[test]
    fn copy_tgd_is_weakly_acyclic() {
        let dep = parse_dependency("tgd m: S(x, y) -> T(x, y).").unwrap();
        let r = is_weakly_acyclic(&[dep]);
        assert!(r.weakly_acyclic);
        assert_eq!(r.special_edges, 0);
    }

    #[test]
    fn classic_non_terminating_tgd_detected() {
        // R(x, y) -> R(y, z): special edge into R#1 from R#1 via cycle.
        let dep = parse_dependency("tgd m: R(x, y) -> R(y, z).").unwrap();
        let r = is_weakly_acyclic(&[dep]);
        assert!(!r.weakly_acyclic);
        assert!(r.witness.is_some());
    }

    #[test]
    fn fk_pair_is_weakly_acyclic() {
        let p = parse_program(
            "tgd a: Dept(d) -> Emp(e, d).\n\
             tgd b: Emp(e, d) -> Dept(d).",
        )
        .unwrap();
        let r = is_weakly_acyclic(&p.deps);
        assert!(r.weakly_acyclic, "{r}");
        assert!(r.special_edges >= 1);
    }

    #[test]
    fn mutual_null_creation_detected() {
        // A(x) -> B(x, y); B(x, y) -> A(y): nulls feed back into A#0.
        let p = parse_program(
            "tgd a: A(x) -> B(x, y).\n\
             tgd b: B(x, y) -> A(y).",
        )
        .unwrap();
        let r = is_weakly_acyclic(&p.deps);
        assert!(!r.weakly_acyclic);
    }

    #[test]
    fn egds_and_denials_contribute_nothing() {
        let p = parse_program(
            "egd e: T(x, a), T(x, b) -> a = b.\n\
             dep n: T(x, x) -> false.",
        )
        .unwrap();
        let r = is_weakly_acyclic(&p.deps);
        assert!(r.weakly_acyclic);
        assert_eq!(r.positions, 0);
    }

    #[test]
    fn ded_branches_analyzed_separately() {
        // Safe branch plus a self-feeding branch: the ded is not WA.
        let dep = parse_dependency("ded d: R(x, y) -> S(x) | R(y, z).").unwrap();
        let r = is_weakly_acyclic(&[dep]);
        assert!(!r.weakly_acyclic);
    }

    #[test]
    fn display_reports() {
        let dep = parse_dependency("tgd m: S(x) -> T(x, y).").unwrap();
        let r = is_weakly_acyclic(&[dep]);
        assert!(r.to_string().contains("weakly acyclic"));
        let dep = parse_dependency("tgd m: R(x, y) -> R(y, z).").unwrap();
        let r = is_weakly_acyclic(&[dep]);
        assert!(r.to_string().contains("NOT weakly acyclic"));
    }
}
