//! View expansion: replacing view atoms by their definitions.
//!
//! The expansion of a positive view atom is a **DNF**: a disjunction of
//! flattened conjunctions ([`FlatAlt`]), one disjunct per union rule, with
//! body-only variables renamed apart. Negated atoms become [`NegTree`]s —
//! negations of DNFs — which normalization later moves into disjuncts
//! (premise side) or auxiliary checks (conclusion side).
//!
//! Non-recursion of the view set guarantees termination; the cartesian
//! products taken across a rule body are bounded by the caller's
//! alternative budget (exceeding it is a hard [`RewriteError::TooComplex`],
//! because truncating a premise DNF would be unsound). The unfolding
//! recurses once per level of view nesting, which its caller bounds
//! ([`crate::MAX_VIEW_NESTING`]).

use std::sync::Arc;

use grom_lang::{
    Atom, CmpOp, Comparison, Disjunct, Literal, Term, TermSubst, Var, VarGen, ViewSet,
};

use crate::error::RewriteError;

/// A flattened conjunction — the one form unfolded literals take: positive
/// atoms, equalities, other comparisons and negation trees, each class in
/// the order the unfolding met its members.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FlatAlt {
    pub atoms: Vec<Atom>,
    pub eqs: Vec<(Term, Term)>,
    pub cmps: Vec<Comparison>,
    pub negs: Vec<NegTree>,
}

/// The negation of a DNF: `¬(∨_i ∃z̄_i conj_i)`. `source` records the
/// original negated atom and `via` the predicate to *blame* for provenance:
/// the enclosing view when the negation came from unfolding a view body,
/// otherwise the negated predicate itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NegTree {
    pub source: Atom,
    pub via: Arc<str>,
    pub alts: Vec<FlatAlt>,
}

impl FlatAlt {
    pub fn push_cmp(&mut self, c: Comparison) {
        if c.op == CmpOp::Eq {
            self.eqs.push((c.lhs, c.rhs));
        } else {
            self.cmps.push(c);
        }
    }

    /// Replace every occurrence of `var` by `term`, in place (used when
    /// equality processing instantiates an existential variable — the
    /// substitution must reach inside negation trees, whose alternatives
    /// may share that variable).
    pub fn substitute(&mut self, var: &Var, term: &Term) {
        let mut put = |t: &mut Term| {
            if matches!(t, Term::Var(v) if v == var) {
                *t = term.clone();
            }
        };
        for a in &mut self.atoms {
            a.args.iter_mut().for_each(&mut put);
        }
        for (l, r) in &mut self.eqs {
            put(l);
            put(r);
        }
        for c in &mut self.cmps {
            put(&mut c.lhs);
            put(&mut c.rhs);
        }
        for nt in &mut self.negs {
            nt.source.args.iter_mut().for_each(&mut put);
            for alt in &mut nt.alts {
                alt.substitute(var, term);
            }
        }
    }

    /// Does some variable of this conjunction (negation trees included)
    /// satisfy `pred`?
    pub fn any_var(&self, pred: &mut impl FnMut(&Var) -> bool) -> bool {
        let mut terms = self.atoms.iter().flat_map(|a| &a.args);
        let mut hit = |t: &Term| matches!(t, Term::Var(v) if pred(v));
        terms.any(&mut hit)
            || self.eqs.iter().any(|(l, r)| hit(l) || hit(r))
            || self.cmps.iter().any(|c| hit(&c.lhs) || hit(&c.rhs))
            || self
                .negs
                .iter()
                .any(|nt| nt.alts.iter().any(|alt| alt.any_var(pred)))
    }

    /// Append `other`'s literals, class by class.
    fn append(&mut self, other: FlatAlt) {
        fn join<T>(into: &mut Vec<T>, from: Vec<T>) {
            if into.is_empty() {
                *into = from;
            } else {
                into.extend(from);
            }
        }
        join(&mut self.atoms, other.atoms);
        join(&mut self.eqs, other.eqs);
        join(&mut self.cmps, other.cmps);
        join(&mut self.negs, other.negs);
    }

    /// The positive part as a ded disjunct, cut to size: the rewriter's
    /// outputs live for the whole run.
    pub fn into_disjunct(self) -> Disjunct {
        let (mut atoms, mut eqs, mut cmps) = (self.atoms, self.eqs, self.cmps);
        atoms.shrink_to_fit();
        eqs.shrink_to_fit();
        cmps.shrink_to_fit();
        Disjunct { atoms, eqs, cmps }
    }
}

/// Add `item` to every alternative of `alts` with `push`: a clone to each
/// but the last, which gets `item` itself.
pub(crate) fn push_each<T: Clone>(alts: &mut [FlatAlt], item: T, push: impl Fn(&mut FlatAlt, T)) {
    let items = std::iter::repeat_n(item, alts.len());
    alts.iter_mut()
        .zip(items)
        .for_each(|(alt, item)| push(alt, item));
}

/// Cartesian product of DNFs with a budget: row `(a, n)` holds `a`'s
/// literals then `n`'s, rows in `acc`-major order. Each alternative moves
/// into its last row and is cloned only into the others, so a factor with
/// one alternative — a base atom, a conjunctive view — is never copied.
pub(crate) fn cartesian(
    acc: Vec<FlatAlt>,
    mut next: Vec<FlatAlt>,
    dep: &Arc<str>,
    budget: usize,
) -> Result<Vec<FlatAlt>, RewriteError> {
    let size = acc.len().saturating_mul(next.len());
    if size > budget {
        return Err(RewriteError::TooComplex {
            dependency: dep.clone(),
            alternatives: size,
            budget,
        });
    }
    let mut out = Vec::with_capacity(size);
    let rows = acc.len();
    for (i, a) in acc.into_iter().enumerate() {
        // The last `a` takes `next`'s alternatives, the others copy them.
        let factor = if i + 1 == rows {
            std::mem::take(&mut next)
        } else {
            next.clone()
        };
        for (mut row, n) in std::iter::repeat_n(a, factor.len()).zip(factor) {
            row.append(n);
            out.push(row);
        }
    }
    Ok(out)
}

/// Bind each variable of `body` that `subst` does not bind yet to a fresh
/// one, in first-occurrence order: every head variable is bound, so these
/// are the body-only variables, renamed apart. (A function of its own, so
/// its iterators stay out of [`expand_atom`]'s recursive frame.)
fn rename_apart(body: &[Literal], subst: &mut TermSubst, vargen: &mut VarGen) {
    for t in body.iter().flat_map(Literal::terms) {
        if let Term::Var(v) = t {
            if subst.get(v).is_none() {
                subst.bind(v.clone(), Term::Var(vargen.fresh(v)));
            }
        }
    }
}

/// Expand an atom into its DNF over base predicates.
///
/// * Base atom → a single alternative containing the atom itself.
/// * View atom → one alternative per (recursively expanded) union rule.
///
/// `dep` and `budget` bound the expansion size; `vargen` renames body-only
/// variables apart.
pub(crate) fn expand_atom(
    atom: Atom,
    views: &ViewSet,
    vargen: &mut VarGen,
    dep: &Arc<str>,
    budget: usize,
) -> Result<Vec<FlatAlt>, RewriteError> {
    if !views.is_view(&atom.predicate) {
        return Ok(vec![FlatAlt {
            atoms: vec![atom],
            ..FlatAlt::default()
        }]);
    }
    let expected = views.arity_of(&atom.predicate).unwrap_or(0);
    if atom.arity() != expected {
        return Err(RewriteError::ArityMismatch {
            predicate: atom.predicate.clone(),
            expected,
            actual: atom.arity(),
        });
    }

    let mut alts: Vec<FlatAlt> = Vec::new();
    'rules: for rule in views.rules_of(&atom.predicate) {
        // Build the head substitution; repeated head variables and head
        // constants add equality conditions.
        let mut subst = TermSubst::new();
        let mut eq_conds = FlatAlt::default();
        for (head_term, arg) in rule.head.args.iter().zip(&atom.args) {
            match head_term {
                Term::Var(v) => match subst.get(v) {
                    None => subst.bind(v.clone(), arg.clone()),
                    Some(prev) if prev == arg => {}
                    Some(prev) => eq_conds.eqs.push((prev.clone(), arg.clone())),
                },
                Term::Const(c) => match arg {
                    Term::Const(d) if c == d => {}
                    Term::Const(_) => continue 'rules, // rule can never produce this atom
                    Term::Var(_) => eq_conds.eqs.push((arg.clone(), Term::Const(c.clone()))),
                },
            }
        }
        rename_apart(&rule.body, &mut subst, vargen);

        // Expand the substituted body.
        let mut rule_alts: Vec<FlatAlt> = vec![eq_conds];
        for lit in &rule.body {
            match lit {
                Literal::Pos(a) => {
                    let sub = expand_atom(subst.apply_atom(a), views, vargen, dep, budget)?;
                    rule_alts = cartesian(rule_alts, sub, dep, budget)?;
                }
                Literal::Neg(a) => {
                    let a = subst.apply_atom(a);
                    let tree = NegTree {
                        alts: expand_atom(a.clone(), views, vargen, dep, budget)?,
                        source: a,
                        // Blame the enclosing view: its body owns this
                        // negation pattern.
                        via: atom.predicate.clone(),
                    };
                    push_each(&mut rule_alts, tree, |alt, t| alt.negs.push(t));
                }
                Literal::Cmp(c) => {
                    push_each(&mut rule_alts, subst.apply_comparison(c), FlatAlt::push_cmp);
                }
            }
        }
        if alts.len() + rule_alts.len() > budget {
            return Err(RewriteError::TooComplex {
                dependency: dep.clone(),
                alternatives: alts.len() + rule_alts.len(),
                budget,
            });
        }
        alts.extend(rule_alts);
    }
    Ok(alts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_lang::Program;

    fn dep_name() -> Arc<str> {
        Arc::from("test")
    }

    fn atom(p: &str, vars: &[&str]) -> Atom {
        Atom::new(p, vars.iter().map(Term::var).collect())
    }

    fn expand(views: &ViewSet, a: &Atom) -> Vec<FlatAlt> {
        let mut vg = VarGen::new();
        expand_atom(a.clone(), views, &mut vg, &dep_name(), 4096).unwrap()
    }

    /// How many literals of each class: (atoms, eqs, cmps, negs).
    fn shape(alt: &FlatAlt) -> (usize, usize, usize, usize) {
        let FlatAlt {
            atoms,
            eqs,
            cmps,
            negs,
        } = alt;
        (atoms.len(), eqs.len(), cmps.len(), negs.len())
    }

    #[test]
    fn base_atom_passes_through() {
        let views = ViewSet::default();
        let a = atom("T", &["x"]);
        let alts = expand(&views, &a);
        assert_eq!(alts.len(), 1);
        assert_eq!(shape(&alts[0]), (1, 0, 0, 0));
        assert_eq!(alts[0].atoms[0], a);
    }

    #[test]
    fn conjunctive_view_unfolds() {
        let p = Program::parse("view V(x) <- A(x, y), B(y).").unwrap();
        let alts = expand(&p.views, &atom("V", &["q"]));
        assert_eq!(alts.len(), 1);
        let alt = &alts[0];
        assert_eq!(shape(alt), (2, 0, 0, 0));
        // Head var x -> q; body var y renamed fresh.
        let a = &alt.atoms[0];
        assert_eq!(a.predicate.as_ref(), "A");
        assert_eq!(a.args[0], Term::var("q"));
        assert!(a.args[1].as_var().unwrap().starts_with('$'));
    }

    #[test]
    fn union_view_gives_multiple_alternatives() {
        let p = Program::parse("view V(x) <- A(x).\nview V(x) <- B(x).").unwrap();
        let alts = expand(&p.views, &atom("V", &["q"]));
        assert_eq!(alts.len(), 2);
    }

    #[test]
    fn negated_base_atom_becomes_singleton_tree() {
        let p = Program::parse("view V(x) <- A(x), not B(x).").unwrap();
        let alts = expand(&p.views, &atom("V", &["q"]));
        assert_eq!(alts.len(), 1);
        assert_eq!(shape(&alts[0]), (1, 0, 0, 1));
        let nt = &alts[0].negs[0];
        assert_eq!(nt.source.predicate.as_ref(), "B");
        assert_eq!(nt.alts.len(), 1);
        assert_eq!(shape(&nt.alts[0]), (1, 0, 0, 0));
        assert_eq!(nt.alts[0].atoms[0], atom("B", &["q"]));
    }

    #[test]
    fn negated_view_atom_expands_inside_tree() {
        let p = Program::parse(
            "view Pop(x) <- A(x), not R(x).\n\
             view Un(x) <- A(x), not Pop(x).",
        )
        .unwrap();
        let alts = expand(&p.views, &atom("Un", &["q"]));
        assert_eq!(alts.len(), 1);
        let nt = &alts[0].negs[0];
        assert_eq!(nt.source.predicate.as_ref(), "Pop");
        // Pop's expansion itself contains a nested negation tree.
        assert_eq!(nt.alts.len(), 1);
        assert_eq!(nt.alts[0].negs[0].source.predicate.as_ref(), "R");
    }

    #[test]
    fn nested_positive_views_flatten() {
        let p = Program::parse(
            "view V1(x) <- A(x).\n\
             view V2(x) <- V1(x), B(x).",
        )
        .unwrap();
        let alts = expand(&p.views, &atom("V2", &["q"]));
        assert_eq!(alts.len(), 1);
        let preds: Vec<&str> = alts[0].atoms.iter().map(|a| a.predicate.as_ref()).collect();
        assert_eq!(preds, vec!["A", "B"]);
    }

    #[test]
    fn union_times_union_multiplies() {
        let p = Program::parse(
            "view V(x) <- A(x).\nview V(x) <- B(x).\n\
             view W(x) <- C(x).\nview W(x) <- D(x).\n\
             view U(x) <- V(x), W(x).",
        )
        .unwrap();
        let alts = expand(&p.views, &atom("U", &["q"]));
        assert_eq!(alts.len(), 4);
    }

    #[test]
    fn budget_exceeded_is_error() {
        let p = Program::parse(
            "view V(x) <- A(x).\nview V(x) <- B(x).\n\
             view W(x) <- V(x), V(x), V(x).",
        )
        .unwrap();
        let mut vg = VarGen::new();
        let err = expand_atom(atom("W", &["q"]), &p.views, &mut vg, &dep_name(), 4);
        assert!(matches!(err, Err(RewriteError::TooComplex { .. })));
    }

    #[test]
    fn repeated_head_variable_adds_equality() {
        let p = Program::parse("view Diag(x, x) <- A(x, y).").unwrap();
        // Repeated head variables: Diag(a, b) requires a = b.
        let alts = expand(&p.views, &atom("Diag", &["a", "b"]));
        assert_eq!(alts.len(), 1);
        assert_eq!(alts[0].eqs, [(Term::var("a"), Term::var("b"))]);
    }

    #[test]
    fn constant_in_head_constrains_argument() {
        let p = Program::parse("view Flagged(x, 1) <- A(x).").unwrap();
        // Used with a constant that matches: no condition.
        let alts = expand(
            &p.views,
            &Atom::new("Flagged", vec![Term::var("q"), Term::cons(1i64)]),
        );
        assert_eq!(alts.len(), 1);
        assert_eq!(shape(&alts[0]), (1, 0, 0, 0));
        // Used with a mismatching constant: the rule is pruned entirely.
        let alts = expand(
            &p.views,
            &Atom::new("Flagged", vec![Term::var("q"), Term::cons(2i64)]),
        );
        assert!(alts.is_empty());
        // Used with a variable: equality condition appears.
        let alts = expand(&p.views, &atom("Flagged", &["q", "w"]));
        assert_eq!(alts.len(), 1);
        assert_eq!(alts[0].eqs, [(Term::var("w"), Term::cons(1i64))]);
    }

    #[test]
    fn arity_mismatch_reported() {
        let p = Program::parse("view V(x) <- A(x).").unwrap();
        let mut vg = VarGen::new();
        let err = expand_atom(atom("V", &["a", "b"]), &p.views, &mut vg, &dep_name(), 64);
        assert!(matches!(err, Err(RewriteError::ArityMismatch { .. })));
    }

    #[test]
    fn fresh_variables_do_not_collide_across_expansions() {
        let p = Program::parse("view V(x) <- A(x, y).").unwrap();
        let mut vg = VarGen::new();
        let a1 = expand_atom(atom("V", &["p"]), &p.views, &mut vg, &dep_name(), 64).unwrap();
        let a2 = expand_atom(atom("V", &["q"]), &p.views, &mut vg, &dep_name(), 64).unwrap();
        let var_of = |alts: &Vec<FlatAlt>| alts[0].atoms[0].args[1].as_var().unwrap().clone();
        assert_ne!(var_of(&a1), var_of(&a2));
    }

    #[test]
    fn substitution_reaches_inside_negation_trees() {
        let p = Program::parse("view V(x) <- A(x), not B(x, z).").unwrap();
        let mut alts = expand(&p.views, &atom("V", &["q"]));
        alts[0].substitute(&"q".into(), &Term::cons(5i64));
        let nt = &alts[0].negs[0];
        assert_eq!(nt.source.args[0], Term::cons(5i64));
        assert_eq!(nt.alts[0].atoms[0].args[0], Term::cons(5i64));
    }
}
