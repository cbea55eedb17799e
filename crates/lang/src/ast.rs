//! Terms, atoms, comparison atoms and literals.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use grom_data::Value;

/// A logical variable name. `Arc<str>` so that substitutions and renamings
/// clone cheaply.
pub type Var = Arc<str>;

/// A term: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    Var(Var),
    Const(Value),
}

impl Term {
    /// Build a variable term.
    pub fn var(name: impl AsRef<str>) -> Self {
        Term::Var(Arc::from(name.as_ref()))
    }

    /// Build a constant term.
    pub fn cons(value: impl Into<Value>) -> Self {
        Term::Const(value.into())
    }

    pub fn as_var(&self) -> Option<&Var> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Self {
        Term::Const(v)
    }
}

/// A relational atom `P(t_1, …, t_n)`. The predicate may name a base table
/// or a view; which one is determined by the enclosing [`crate::ViewSet`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    pub predicate: Arc<str>,
    pub args: Vec<Term>,
}

impl Atom {
    pub fn new(predicate: impl AsRef<str>, args: Vec<Term>) -> Self {
        Self {
            predicate: Arc::from(predicate.as_ref()),
            args,
        }
    }

    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// The distinct variables of this atom, in first-occurrence order.
    pub fn variables(&self) -> Vec<Var> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for t in &self.args {
            if let Term::Var(v) = t {
                if seen.insert(v.clone()) {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    /// Collect this atom's variables into `acc`.
    pub fn collect_vars(&self, acc: &mut BTreeSet<Var>) {
        for t in &self.args {
            if let Term::Var(v) = t {
                acc.insert(v.clone());
            }
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate)?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        f.write_str(")")
    }
}

/// Comparison operators for comparison atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Neq,
    Lt,
    Leq,
    Gt,
    Geq,
}

impl CmpOp {
    /// The complement operator: `¬(a op b)  ≡  a op.negate() b`.
    ///
    /// Used by the rewriter to turn a conclusion-side comparison into a
    /// denial with the negated comparison in its premise.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Neq,
            CmpOp::Neq => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Geq,
            CmpOp::Leq => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Leq,
            CmpOp::Geq => CmpOp::Lt,
        }
    }

    /// Evaluate the operator on two concrete values.
    ///
    /// Equality and inequality are defined on *all* values, including
    /// labeled nulls (labels compare by identity — the naive-table
    /// semantics). Order comparisons are only defined between constants of
    /// the same type; otherwise the comparison does not hold (`false`).
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Neq => lhs != rhs,
            CmpOp::Lt | CmpOp::Leq | CmpOp::Gt | CmpOp::Geq => match lhs.try_cmp(rhs) {
                None => false,
                Some(ord) => match self {
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Leq => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Geq => ord.is_ge(),
                    _ => unreachable!(),
                },
            },
        }
    }

    /// The operator as `Display` prints it.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Neq => "!=",
            CmpOp::Lt => "<",
            CmpOp::Leq => "<=",
            CmpOp::Gt => ">",
            CmpOp::Geq => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A comparison atom `t_1 op t_2`, e.g. `rating >= 4` in tgd `m2`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Comparison {
    pub op: CmpOp,
    pub lhs: Term,
    pub rhs: Term,
}

impl Comparison {
    pub fn new(op: CmpOp, lhs: Term, rhs: Term) -> Self {
        Self { op, lhs, rhs }
    }

    /// The logically complementary comparison.
    pub fn negate(&self) -> Comparison {
        Comparison::new(self.op.negate(), self.lhs.clone(), self.rhs.clone())
    }

    /// The distinct variables of this comparison.
    pub fn variables(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for t in [&self.lhs, &self.rhs] {
            if let Term::Var(v) = t {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    /// If both sides are constants, evaluate to a boolean.
    pub fn eval_ground(&self) -> Option<bool> {
        match (&self.lhs, &self.rhs) {
            (Term::Const(a), Term::Const(b)) => Some(self.op.eval(a, b)),
            _ => None,
        }
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// A body literal: a positive atom, a negated atom, or a comparison.
///
/// Negated atoms follow the usual safe-Datalog convention: variables that
/// occur *only* inside a negated atom are implicitly existentially
/// quantified inside the negation (`¬T-Rating(rid, pid, 0)` in view `v2`
/// means "no rating tuple for `pid` with value 0, for any `rid`").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Literal {
    Pos(Atom),
    Neg(Atom),
    Cmp(Comparison),
}

impl Literal {
    pub fn atom(&self) -> Option<&Atom> {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => Some(a),
            Literal::Cmp(_) => None,
        }
    }

    pub fn is_negated(&self) -> bool {
        matches!(self, Literal::Neg(_))
    }

    /// The distinct variables of this literal, in first-occurrence order.
    pub fn variables(&self) -> Vec<Var> {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => a.variables(),
            Literal::Cmp(c) => c.variables(),
        }
    }

    /// The terms of this literal, left to right.
    pub fn terms(&self) -> impl Iterator<Item = &Term> {
        let (args, cmp): (&[Term], _) = match self {
            Literal::Pos(a) | Literal::Neg(a) => (&a.args, None),
            Literal::Cmp(c) => (&[], Some(c)),
        };
        args.iter()
            .chain(cmp.into_iter().flat_map(|c| [&c.lhs, &c.rhs]))
    }

    /// [`Literal::terms`], mutably.
    pub fn terms_mut(&mut self) -> impl Iterator<Item = &mut Term> {
        let (args, cmp): (&mut [Term], _) = match self {
            Literal::Pos(a) | Literal::Neg(a) => (&mut a.args, None),
            Literal::Cmp(c) => (&mut [], Some(c)),
        };
        args.iter_mut()
            .chain(cmp.into_iter().flat_map(|c| [&mut c.lhs, &mut c.rhs]))
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "not {a}"),
            Literal::Cmp(c) => write!(f, "{c}"),
        }
    }
}

/// Helper: the distinct variables of a conjunction of literals, in
/// first-occurrence order.
pub fn body_variables(body: &[Literal]) -> Vec<Var> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for lit in body {
        for v in lit.variables() {
            if seen.insert(v.clone()) {
                out.push(v);
            }
        }
    }
    out
}

/// Helper: the variables occurring in *positive relational* literals of a
/// conjunction — i.e. the variables a join over the body can bind.
pub fn positively_bound_variables(body: &[Literal]) -> BTreeSet<Var> {
    let mut out = BTreeSet::new();
    for lit in body {
        if let Literal::Pos(a) = lit {
            a.collect_vars(&mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(pred: &str, vars: &[&str]) -> Atom {
        Atom::new(pred, vars.iter().map(Term::var).collect())
    }

    #[test]
    fn atom_variables_dedup_in_order() {
        let atom = Atom::new(
            "R",
            vec![
                Term::var("x"),
                Term::cons(3i64),
                Term::var("y"),
                Term::var("x"),
            ],
        );
        let vars: Vec<String> = atom.variables().iter().map(|v| v.to_string()).collect();
        assert_eq!(vars, vec!["x", "y"]);
        assert_eq!(atom.arity(), 4);
    }

    #[test]
    fn cmp_negate_is_involutive() {
        for op in [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Leq,
            CmpOp::Gt,
            CmpOp::Geq,
        ] {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn cmp_eval_on_ints() {
        let one = Value::int(1);
        let two = Value::int(2);
        assert!(CmpOp::Lt.eval(&one, &two));
        assert!(CmpOp::Leq.eval(&one, &one));
        assert!(CmpOp::Geq.eval(&two, &one));
        assert!(CmpOp::Gt.eval(&two, &one));
        assert!(!CmpOp::Gt.eval(&one, &two));
        assert!(CmpOp::Eq.eval(&one, &one));
        assert!(CmpOp::Neq.eval(&one, &two));
    }

    #[test]
    fn cmp_eval_nulls_and_mixed_types() {
        let null = Value::null(0);
        let one = Value::int(1);
        // Order comparisons never hold with nulls.
        assert!(!CmpOp::Lt.eval(&null, &one));
        assert!(!CmpOp::Geq.eval(&null, &null));
        // Equality is label identity.
        assert!(CmpOp::Eq.eval(&null, &Value::null(0)));
        assert!(CmpOp::Neq.eval(&null, &Value::null(1)));
        // Mixed constant types: order undefined, eq false, neq true.
        assert!(!CmpOp::Lt.eval(&one, &Value::str("1")));
        assert!(!CmpOp::Eq.eval(&one, &Value::str("1")));
        assert!(CmpOp::Neq.eval(&one, &Value::str("1")));
    }

    #[test]
    fn negation_of_comparison_matches_complement_semantics() {
        let vals = [Value::int(1), Value::int(2), Value::int(3)];
        for op in [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Leq,
            CmpOp::Gt,
            CmpOp::Geq,
        ] {
            for a in &vals {
                for b in &vals {
                    assert_eq!(op.eval(a, b), !op.negate().eval(a, b));
                }
            }
        }
    }

    #[test]
    fn comparison_ground_eval() {
        let c = Comparison::new(CmpOp::Geq, Term::cons(4i64), Term::cons(2i64));
        assert_eq!(c.eval_ground(), Some(true));
        let c = Comparison::new(CmpOp::Lt, Term::var("x"), Term::cons(2i64));
        assert_eq!(c.eval_ground(), None);
    }

    #[test]
    fn literal_accessors() {
        let p = Literal::Pos(a("R", &["x"]));
        let n = Literal::Neg(a("R", &["x"]));
        let c = Literal::Cmp(Comparison::new(CmpOp::Lt, Term::var("x"), Term::cons(2i64)));
        assert!(!p.is_negated() && n.is_negated() && !c.is_negated());
        assert!(p.atom().is_some());
        assert!(c.atom().is_none());
    }

    #[test]
    fn body_variable_helpers() {
        let body = vec![
            Literal::Pos(a("R", &["x", "y"])),
            Literal::Neg(a("S", &["y", "z"])),
            Literal::Cmp(Comparison::new(CmpOp::Lt, Term::var("w"), Term::cons(2i64))),
        ];
        let all: Vec<String> = body_variables(&body)
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(all, vec!["x", "y", "z", "w"]);
        let pos: Vec<String> = positively_bound_variables(&body)
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(pos, vec!["x", "y"]);
    }

    #[test]
    fn display_syntax() {
        let lit = Literal::Neg(Atom::new(
            "T_Rating",
            vec![Term::var("rid"), Term::var("pid"), Term::cons(0i64)],
        ));
        assert_eq!(lit.to_string(), "not T_Rating(rid, pid, 0)");
        let c = Comparison::new(CmpOp::Geq, Term::var("rating"), Term::cons(4i64));
        assert_eq!(c.to_string(), "rating >= 4");
    }
}
