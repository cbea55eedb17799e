//! View definitions: the semantic schemas `V_S`, `V_T`.
//!
//! A semantic schema is a set of virtual predicates defined over base
//! tables (and over other views) by rules in **non-recursive Datalog with
//! negation**. A view may have several rules — a union — and rule bodies
//! may contain negated base atoms (view `v2` of the paper negates
//! `T-Rating`) or negated view atoms (`v3` negates `PopularProduct`).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::ast::{Atom, Literal, Term};
use crate::error::LangError;
use crate::safety;

/// One rule `Head(x̄) ⇐ body` of a view definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewRule {
    pub head: Atom,
    pub body: Vec<Literal>,
}

impl ViewRule {
    pub fn new(head: Atom, body: Vec<Literal>) -> Self {
        Self { head, body }
    }

    /// The terms of this rule: the head's arguments, then the body's
    /// ([`Literal::terms`]), left to right.
    pub fn terms(&self) -> impl Iterator<Item = &Term> {
        let body = self.body.iter().flat_map(Literal::terms);
        self.head.args.iter().chain(body)
    }

    /// [`ViewRule::terms`], mutably.
    pub fn terms_mut(&mut self) -> impl Iterator<Item = &mut Term> {
        let body = self.body.iter_mut().flat_map(Literal::terms_mut);
        self.head.args.iter_mut().chain(body)
    }
}

impl fmt::Display for ViewRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view {} <- ", self.head)?;
        for (i, l) in self.body.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{l}")?;
        }
        f.write_str(".")
    }
}

/// A set of view definitions that **has been checked**: holding a
/// `ViewSet` means the rules of every union agree on arity, every rule is
/// safe ([`safety::check_view_rule`]) and the view graph is non-recursive.
/// [`ViewSet::from_rules`] is the only way to a non-empty one, so no
/// consumer validates again; the set also carries what that one resolution
/// found — the materialization order and each view's nesting depth.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewSet {
    rules: Vec<ViewRule>,
    by_pred: BTreeMap<Arc<str>, ViewEntry>,
    /// Definitions before uses; see [`ViewSet::materialization_order`].
    order: Vec<Arc<str>>,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ViewEntry {
    /// Indexes into `rules`, in declaration order.
    rules: Vec<usize>,
    /// Longest chain of views below this one (0: base tables only).
    depth: usize,
    /// Deepest nesting of negation in the full expansion; see
    /// [`ViewSet::negation_depth`].
    negation: usize,
}

#[derive(Clone, Copy, PartialEq)]
enum Mark {
    Unvisited,
    InProgress,
    Done,
}

impl ViewSet {
    /// Check `rules` and resolve them: rules for one head predicate form a
    /// union and must agree on arity, every rule must be safe, and the view
    /// graph must be acyclic (the error carries a witness cycle).
    pub fn from_rules(rules: impl IntoIterator<Item = ViewRule>) -> Result<Self, LangError> {
        let rules: Vec<ViewRule> = rules.into_iter().collect();
        let mut by_pred: BTreeMap<Arc<str>, ViewEntry> = BTreeMap::new();
        for (i, rule) in rules.iter().enumerate() {
            let entry = by_pred.entry(rule.head.predicate.clone()).or_default();
            if let Some(&first) = entry.rules.first() {
                let expected = rules[first].head.arity();
                if rule.head.arity() != expected {
                    return Err(LangError::ViewArityMismatch {
                        view: rule.head.predicate.clone(),
                        expected,
                        actual: rule.head.arity(),
                    });
                }
            }
            entry.rules.push(i);
        }
        for rule in &rules {
            safety::check_view_rule(rule)?;
        }

        // The view graph over indexes into the sorted names. A view's
        // children are listed rule by rule, positive predicates by name and
        // then negated ones: the order below is a post-order of this graph,
        // so the listing decides it. Beside it, what each view negates — a
        // view, or `None` for a base table — for the negation depth.
        let names: Vec<&Arc<str>> = by_pred.keys().collect();
        let mut children: Vec<Vec<usize>> = Vec::with_capacity(names.len());
        let mut negated: Vec<Vec<Option<usize>>> = Vec::with_capacity(names.len());
        let (mut pos, mut neg) = (Vec::new(), Vec::new());
        for entry in by_pred.values() {
            let (mut out, mut negates) = (Vec::new(), Vec::new());
            for &r in &entry.rules {
                pos.clear();
                neg.clear();
                for lit in &rules[r].body {
                    match lit {
                        Literal::Pos(a) => pos.push(&a.predicate),
                        Literal::Neg(a) => neg.push(&a.predicate),
                        Literal::Cmp(_) => {}
                    }
                }
                for list in [&mut pos, &mut neg] {
                    list.sort_unstable();
                    list.dedup();
                }
                let listed = pos.iter().map(|p| (p, false));
                for (p, is_negated) in listed.chain(neg.iter().map(|p| (p, true))) {
                    let child = names.binary_search(p).ok();
                    if let Some(c) = child.filter(|c| !out.contains(c)) {
                        out.push(c);
                    }
                    if is_negated {
                        negates.push(child);
                    }
                }
            }
            children.push(out);
            negated.push(negates);
        }

        // Depth-first post-order on an explicit stack — a chain of views as
        // long as the input allows must not be a chain of frames.
        let mut marks = vec![Mark::Unvisited; names.len()];
        let mut order: Vec<usize> = Vec::with_capacity(names.len());
        let mut path: Vec<(usize, usize)> = Vec::new(); // (view, next child)
        for root in 0..names.len() {
            if marks[root] != Mark::Unvisited {
                continue;
            }
            marks[root] = Mark::InProgress;
            path.push((root, 0));
            while let Some((view, next)) = path.last_mut() {
                let Some(&child) = children[*view].get(*next) else {
                    marks[*view] = Mark::Done;
                    order.push(*view);
                    path.pop();
                    continue;
                };
                *next += 1;
                match marks[child] {
                    Mark::Done => {}
                    Mark::Unvisited => {
                        marks[child] = Mark::InProgress;
                        path.push((child, 0));
                    }
                    Mark::InProgress => {
                        // An in-progress view is on the path: the cycle
                        // runs from there to here and back to it.
                        let on_path = path.iter().map(|&(v, _)| v);
                        let on_cycle = on_path.skip_while(|&v| v != child).chain([child]);
                        return Err(LangError::RecursiveViews {
                            cycle: on_cycle.map(|v| names[v].clone()).collect(),
                        });
                    }
                }
            }
        }

        // Both depths in one pass along the order, children first. A child
        // adds its own negation depth, a negated view or base table one more.
        let mut depths = vec![0; names.len()];
        let mut negations = vec![0; names.len()];
        for &view in &order {
            let below = children[view].iter().map(|&c| depths[c] + 1);
            depths[view] = below.max().unwrap_or(0);
            let positive = children[view].iter().map(|&c| negations[c]);
            let negative = negated[view]
                .iter()
                .map(|c| 1 + c.map_or(0, |c| negations[c]));
            negations[view] = positive.chain(negative).max().unwrap_or(0);
        }
        let order = order.into_iter().map(|v| names[v].clone()).collect();
        let resolved = depths.into_iter().zip(negations);
        for (entry, (depth, negation)) in by_pred.values_mut().zip(resolved) {
            entry.depth = depth;
            entry.negation = negation;
        }
        Ok(ViewSet {
            rules,
            by_pred,
            order,
        })
    }

    /// Is `pred` a view (as opposed to a base table)?
    pub fn is_view(&self, pred: &str) -> bool {
        self.by_pred.contains_key(pred)
    }

    /// The rules defining `pred`, in declaration order (none if not a view).
    pub fn rules_of(&self, pred: &str) -> impl ExactSizeIterator<Item = &ViewRule> + '_ {
        let indexes = self.by_pred.get(pred).map_or(&[][..], |e| &e.rules);
        indexes.iter().map(|&i| &self.rules[i])
    }

    /// All rules, in declaration order.
    pub fn rules(&self) -> &[ViewRule] {
        &self.rules
    }

    /// The view predicate names, sorted.
    pub fn view_names(&self) -> impl Iterator<Item = &Arc<str>> {
        self.by_pred.keys()
    }

    pub fn len(&self) -> usize {
        self.by_pred.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The arity of view `pred`, if defined.
    pub fn arity_of(&self, pred: &str) -> Option<usize> {
        let first = *self.by_pred.get(pred)?.rules.first()?;
        Some(self.rules[first].head.arity())
    }

    /// A topological order of the view predicates — every view after all
    /// views its rules mention, positively or under negation — in which the
    /// extents can be computed in one pass. (Non-recursive Datalog is
    /// trivially stratified: any such order is a valid stratification.)
    pub fn materialization_order(&self) -> &[Arc<str>] {
        &self.order
    }

    /// How many views are nested below `pred`: 0 for a view over base tables
    /// only, one more than its deepest child otherwise (`None` if not a
    /// view).
    pub fn nesting_depth(&self, pred: &str) -> Option<usize> {
        self.by_pred.get(pred).map(|e| e.depth)
    }

    /// The deepest nesting of negation in `pred`'s full expansion: a base
    /// atom adds 0, a positive view atom its view's depth, a negated atom 1
    /// more than what it negates. 0 is conjunctive, 1 negates base tables
    /// or conjunctive views only (`None` if not a view).
    pub fn negation_depth(&self, pred: &str) -> Option<usize> {
        self.by_pred.get(pred).map(|e| e.negation)
    }
}

impl fmt::Display for ViewSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Term;

    fn atom(p: &str, vars: &[&str]) -> Atom {
        Atom::new(p, vars.iter().map(Term::var).collect())
    }

    fn rule(head: Atom, body: Vec<Literal>) -> ViewRule {
        ViewRule::new(head, body)
    }

    /// `Head(x) <- body…` over unary atoms; a leading `!` negates.
    fn unary(head: &str, body: &[&str]) -> ViewRule {
        let lit = |p: &&str| match p.strip_prefix('!') {
            Some(p) => Literal::Neg(atom(p, &["x"])),
            None => Literal::Pos(atom(p, &["x"])),
        };
        rule(atom(head, &["x"]), body.iter().map(lit).collect())
    }

    fn names(order: &[Arc<str>]) -> Vec<&str> {
        order.iter().map(|p| p.as_ref()).collect()
    }

    /// The paper's target semantic schema (views v1–v6, §2), with `0`/`1`
    /// rating constants as ints.
    fn paper_views() -> ViewSet {
        let t_product = |a, b, c| Literal::Pos(atom("T_Product", &[a, b, c]));
        let t_rating = |thumbs_up: i64| {
            let args = vec![Term::var("rid"), Term::var("pid"), Term::cons(thumbs_up)];
            Atom::new("T_Rating", args)
        };
        ViewSet::from_rules([
            // v1
            rule(
                atom("Product", &["id", "name"]),
                vec![t_product("id", "name", "store")],
            ),
            // v2
            rule(
                atom("PopularProduct", &["pid", "name"]),
                vec![t_product("pid", "name", "store"), Literal::Neg(t_rating(0))],
            ),
            // v3
            rule(
                atom("AvgProduct", &["pid", "name"]),
                vec![
                    t_product("pid", "name", "store"),
                    Literal::Pos(t_rating(1)),
                    Literal::Neg(atom("PopularProduct", &["pid", "name"])),
                ],
            ),
            // v4
            rule(
                atom("UnpopularProduct", &["pid", "name"]),
                vec![
                    t_product("pid", "name", "store"),
                    Literal::Neg(atom("AvgProduct", &["pid", "name"])),
                    Literal::Neg(atom("PopularProduct", &["pid", "name"])),
                ],
            ),
            // v5
            rule(
                atom("SoldAt", &["pid", "stid"]),
                vec![t_product("pid", "pname", "stid")],
            ),
            // v6
            rule(
                atom("Store", &["id", "name", "addr"]),
                vec![Literal::Pos(atom(
                    "T_Store",
                    &["id", "name", "addr", "phone"],
                ))],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn union_views_group_and_check_arity() {
        let a = rule(atom("V", &["x"]), vec![Literal::Pos(atom("A", &["x"]))]);
        let b = rule(atom("V", &["y"]), vec![Literal::Pos(atom("B", &["y"]))]);
        let vs = ViewSet::from_rules([a.clone(), b.clone()]).unwrap();
        assert_eq!(vs.rules_of("V").len(), 2);
        assert_eq!(vs.arity_of("V"), Some(1));

        let wide = rule(
            atom("V", &["x", "y"]),
            vec![Literal::Pos(atom("A", &["x", "y"]))],
        );
        let err = ViewSet::from_rules([a, b, wide]).unwrap_err();
        assert!(matches!(err, LangError::ViewArityMismatch { .. }));
    }

    #[test]
    fn paper_views_validate_and_order() {
        let vs = paper_views();
        assert_eq!(vs.len(), 6);
        assert!(vs.is_view("PopularProduct"));
        assert!(!vs.is_view("T_Product"));
        let order = names(vs.materialization_order());
        let pos = |name: &str| order.iter().position(|p| *p == name).unwrap();
        // Definitions must come before uses: Popular < Avg < Unpopular.
        assert!(pos("PopularProduct") < pos("AvgProduct"));
        assert!(pos("AvgProduct") < pos("UnpopularProduct"));
        assert_eq!(vs.nesting_depth("UnpopularProduct"), Some(2));
        assert_eq!(vs.nesting_depth("T_Product"), None);
    }

    #[test]
    fn unsafe_rule_rejected() {
        let ghost = rule(
            atom("V", &["x", "ghost"]),
            vec![Literal::Pos(atom("A", &["x"]))],
        );
        let err = ViewSet::from_rules([ghost]).unwrap_err();
        assert!(err.to_string().contains("head variable `ghost`"), "{err}");
    }

    #[test]
    fn recursive_views_rejected() {
        let err = ViewSet::from_rules([unary("V", &["W"]), unary("W", &["V"])]).unwrap_err();
        assert!(matches!(err, LangError::RecursiveViews { .. }));
    }

    #[test]
    fn self_recursion_rejected() {
        let err = ViewSet::from_rules([unary("V", &["A", "!V"])]).unwrap_err();
        assert!(matches!(err, LangError::RecursiveViews { .. }));
    }

    #[test]
    fn chain_orders_and_depths() {
        // V0 <- Base; V1 <- V0; V2 <- V1; V3 <- V2, declared deepest first.
        let vs = ViewSet::from_rules([
            unary("V3", &["V2"]),
            unary("V2", &["V1"]),
            unary("V1", &["V0"]),
            unary("V0", &["Base"]),
        ])
        .unwrap();
        assert_eq!(names(vs.materialization_order()), ["V0", "V1", "V2", "V3"]);
        assert_eq!(vs.nesting_depth("V0"), Some(0));
        assert_eq!(vs.nesting_depth("V3"), Some(3));
    }

    #[test]
    fn cycle_reports_witness() {
        let err = ViewSet::from_rules([
            unary("A", &["B"]),
            unary("B", &["Base", "!C"]),
            unary("C", &["A"]),
        ])
        .unwrap_err();
        // The witness closes on itself, from the first view on the cycle.
        assert_eq!(
            err.to_string(),
            "view definitions are recursive: A -> B -> C -> A"
        );
    }

    #[test]
    fn diamond_dependencies_ok() {
        // D <- B, C; B <- A; C <- A; A <- Base.
        let vs = ViewSet::from_rules([
            unary("A", &["Base"]),
            unary("B", &["A"]),
            unary("C", &["A"]),
            unary("D", &["B", "C"]),
        ])
        .unwrap();
        assert_eq!(vs.nesting_depth("D"), Some(2));
        assert_eq!(names(vs.materialization_order()), ["A", "B", "C", "D"]);
    }

    #[test]
    fn children_are_visited_positive_then_negated_by_name() {
        // The order is a post-order; which child comes first is part of it.
        let vs = ViewSet::from_rules([
            unary("M", &["Q", "!P", "N"]),
            unary("N", &["E"]),
            unary("P", &["E"]),
            unary("Q", &["E"]),
        ])
        .unwrap();
        assert_eq!(names(vs.materialization_order()), ["N", "Q", "P", "M"]);
    }

    #[test]
    fn deep_chain_does_not_recurse() {
        // 100 000 frames of any recursive visit would not fit a test
        // thread's 2 MiB stack.
        let n = 100_000;
        let chain = (0..n).map(|i| match i {
            0 => unary("V0", &["Base"]),
            _ => unary(&format!("V{i}"), &[&format!("V{}", i - 1)]),
        });
        let vs = ViewSet::from_rules(chain).unwrap();
        assert_eq!(vs.nesting_depth(&format!("V{}", n - 1)), Some(n - 1));
        assert_eq!(vs.materialization_order()[0].as_ref(), "V0");
    }

    #[test]
    fn empty_view_set() {
        let vs = ViewSet::default();
        assert!(vs.is_empty());
        assert!(vs.materialization_order().is_empty());
        assert_eq!(vs, ViewSet::from_rules([]).unwrap());
    }

    #[test]
    fn display_round_trip_syntax() {
        let vs = paper_views();
        let text = vs.to_string();
        assert!(text.contains(
            "view PopularProduct(pid, name) <- T_Product(pid, name, store), not T_Rating(rid, pid, 0)."
        ));
    }
}
