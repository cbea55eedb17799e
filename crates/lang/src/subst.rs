//! Substitutions: variable → term renamings and variable → value bindings.
//!
//! Two flavors are used throughout GROM:
//!
//! * [`TermSubst`] maps variables to *terms* (variables or constants). This
//!   is the symbolic substitution the rewriter applies when unfolding a view
//!   atom: head variables map to the atom's argument terms, body-only
//!   variables map to fresh variables.
//! * [`Bindings`] maps variables to *values*. This is the runtime
//!   environment produced by joins in the engine and consumed by the chase
//!   when instantiating conclusions.

use std::collections::BTreeMap;
use std::fmt;

use grom_data::Value;

use crate::ast::{Atom, Comparison, Literal, Term, Var};

/// A symbolic substitution `var → term`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TermSubst {
    map: BTreeMap<Var, Term>,
}

impl TermSubst {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn bind(&mut self, var: Var, term: Term) {
        self.map.insert(var, term);
    }

    pub fn get(&self, var: &Var) -> Option<&Term> {
        self.map.get(var)
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Apply to a term. Unmapped variables stay themselves.
    pub fn apply_term(&self, term: &Term) -> Term {
        match term {
            Term::Var(v) => self.map.get(v).cloned().unwrap_or_else(|| term.clone()),
            Term::Const(_) => term.clone(),
        }
    }

    pub fn apply_atom(&self, atom: &Atom) -> Atom {
        Atom {
            predicate: atom.predicate.clone(),
            args: atom.args.iter().map(|t| self.apply_term(t)).collect(),
        }
    }

    pub fn apply_comparison(&self, cmp: &Comparison) -> Comparison {
        Comparison {
            op: cmp.op,
            lhs: self.apply_term(&cmp.lhs),
            rhs: self.apply_term(&cmp.rhs),
        }
    }

    fn apply_literal(&self, lit: &Literal) -> Literal {
        match lit {
            Literal::Pos(a) => Literal::Pos(self.apply_atom(a)),
            Literal::Neg(a) => Literal::Neg(self.apply_atom(a)),
            Literal::Cmp(c) => Literal::Cmp(self.apply_comparison(c)),
        }
    }

    pub fn apply_body(&self, body: &[Literal]) -> Vec<Literal> {
        body.iter().map(|l| self.apply_literal(l)).collect()
    }
}

impl fmt::Display for TermSubst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (v, t)) in self.map.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v} -> {t}")?;
        }
        f.write_str("}")
    }
}

/// A runtime environment `var → value`, produced by evaluating a premise
/// over an instance.
///
/// Backed by a `Vec` kept sorted by variable name: premise matches bind a
/// handful of variables, and at that size a sorted vector beats a tree map
/// on every operation (bind, unbind, get) — no per-entry node allocation,
/// one contiguous block to clone. Iteration is in variable order, so
/// renderings and dedup keys do not depend on binding order. The engine's
/// join loop runs on a register file, not on this type; a `Bindings` is
/// what a match looks like once it leaves the engine.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Bindings {
    map: Vec<(Var, Value)>,
}

impl Bindings {
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of `var`, or the insertion point keeping `map` sorted. Linear
    /// scan: bindings are tiny and the early-exit comparison is the same
    /// one a binary search would do, without the branching.
    fn position(&self, var: &Var) -> Result<usize, usize> {
        for (i, (v, _)) in self.map.iter().enumerate() {
            match v.as_ref().cmp(var.as_ref()) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => return Ok(i),
                std::cmp::Ordering::Greater => return Err(i),
            }
        }
        Err(self.map.len())
    }

    pub fn bind(&mut self, var: Var, value: Value) {
        match self.position(&var) {
            Ok(i) => self.map[i].1 = value,
            Err(i) => self.map.insert(i, (var, value)),
        }
    }

    pub fn get(&self, var: &Var) -> Option<&Value> {
        self.position(var).ok().map(|i| &self.map[i].1)
    }

    pub fn contains(&self, var: &Var) -> bool {
        self.position(var).is_ok()
    }

    pub fn unbind(&mut self, var: &Var) {
        if let Ok(i) = self.position(var) {
            self.map.remove(i);
        }
    }

    /// Drop every binding, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Value)> {
        self.map.iter().map(|(v, t)| (v, t))
    }

    /// Evaluate a term to a value under these bindings. `None` if the term
    /// is an unbound variable.
    fn eval_term(&self, term: &Term) -> Option<Value> {
        match term {
            Term::Var(v) => self.get(v).cloned(),
            Term::Const(c) => Some(c.clone()),
        }
    }

    /// Evaluate a comparison under these bindings. `None` if a side is
    /// unbound, otherwise the truth value.
    pub fn eval_comparison(&self, cmp: &Comparison) -> Option<bool> {
        let lhs = self.eval_term(&cmp.lhs)?;
        let rhs = self.eval_term(&cmp.rhs)?;
        Some(cmp.op.eval(&lhs, &rhs))
    }
}

/// Collect `(variable, value)` pairs; a variable given twice keeps its last
/// value. Pairs that arrive in variable order — the engine's compiled plans
/// export their registers that way — are taken as they are, in one
/// allocation.
impl FromIterator<(Var, Value)> for Bindings {
    fn from_iter<I: IntoIterator<Item = (Var, Value)>>(pairs: I) -> Self {
        let map: Vec<(Var, Value)> = pairs.into_iter().collect();
        if map.windows(2).all(|w| w[0].0 < w[1].0) {
            return Bindings { map };
        }
        let mut out = Bindings::new();
        for (var, value) in map {
            out.bind(var, value);
        }
        out
    }
}

impl fmt::Display for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (v, t)) in self.map.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v} = {t}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;

    #[test]
    fn term_subst_applies_and_leaves_unmapped() {
        let mut s = TermSubst::new();
        s.bind(Term::var("x").as_var().unwrap().clone(), Term::var("y"));
        s.bind(Term::var("z").as_var().unwrap().clone(), Term::cons(5i64));
        let atom = Atom::new("R", vec![Term::var("x"), Term::var("z"), Term::var("w")]);
        let out = s.apply_atom(&atom);
        assert_eq!(
            out,
            Atom::new("R", vec![Term::var("y"), Term::cons(5i64), Term::var("w")])
        );
    }

    #[test]
    fn term_subst_on_literals() {
        let mut s = TermSubst::new();
        s.bind("x".into(), Term::cons(1i64));
        let lit = Literal::Neg(Atom::new("S", vec![Term::var("x")]));
        assert_eq!(
            s.apply_literal(&lit),
            Literal::Neg(Atom::new("S", vec![Term::cons(1i64)]))
        );
        let cmp = Literal::Cmp(Comparison::new(CmpOp::Lt, Term::var("x"), Term::var("y")));
        assert_eq!(
            s.apply_literal(&cmp),
            Literal::Cmp(Comparison::new(CmpOp::Lt, Term::cons(1i64), Term::var("y")))
        );
    }

    #[test]
    fn bindings_eval() {
        let mut b = Bindings::new();
        b.bind("x".into(), Value::int(3));
        assert_eq!(b.eval_term(&Term::var("x")), Some(Value::int(3)));
        assert_eq!(b.eval_term(&Term::var("y")), None);
        assert_eq!(b.eval_term(&Term::cons(9i64)), Some(Value::int(9)));

        let c = Comparison::new(CmpOp::Lt, Term::var("x"), Term::cons(5i64));
        assert_eq!(b.eval_comparison(&c), Some(true));
        let c = Comparison::new(CmpOp::Lt, Term::var("y"), Term::cons(5i64));
        assert_eq!(b.eval_comparison(&c), None);
    }

    #[test]
    fn bindings_collect_sorts_and_keeps_the_last_value() {
        let pair = |v: &str, i: i64| (Var::from(v), Value::int(i));
        let sorted: Bindings = [pair("a", 1), pair("b", 2)].into_iter().collect();
        let mut expected = Bindings::new();
        expected.bind("a".into(), Value::int(1));
        expected.bind("b".into(), Value::int(2));
        assert_eq!(sorted, expected);
        let shuffled: Bindings = [pair("b", 9), pair("a", 1), pair("b", 2)]
            .into_iter()
            .collect();
        assert_eq!(shuffled, expected);
    }

    #[test]
    fn bindings_unbind() {
        let mut b = Bindings::new();
        b.bind("x".into(), Value::int(3));
        assert!(b.contains(&"x".into()));
        b.unbind(&"x".into());
        assert!(!b.contains(&"x".into()));
        assert!(b.is_empty());
    }
}
