//! Dependencies: tgds, egds, denials and deds in one uniform shape.
//!
//! GROM's rewriting output lives in the language of **disjunctive embedded
//! dependencies** (§3 of the paper, after Deutsch–Nash–Remmel): sentences
//!
//! ```text
//! ∀x̄  premise(x̄)  →  ∨_i  ∃ȳ_i  disjunct_i(x̄, ȳ_i)
//! ```
//!
//! where the premise is a conjunction of literals and every disjunct is a
//! conjunction of relational atoms, equalities and comparisons. The familiar
//! dependency classes are special cases, recovered by [`Dependency::class`]:
//!
//! | disjuncts | content            | class   |
//! |-----------|--------------------|---------|
//! | 1         | atoms only         | tgd     |
//! | 1         | equalities only    | egd     |
//! | 1         | atoms + equalities | tgd+egd |
//! | 0         | —                  | denial  |
//! | ≥ 2       | anything           | ded     |
//!
//! The paper's `d0` is a ded with three disjuncts; its `m0`–`m3` are tgds
//! and its `e0` is an egd, all representable here without loss.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::ast::{body_variables, Atom, Comparison, Literal, Term, Var};
use crate::subst::TermSubst;

/// One disjunct of a dependency conclusion: an existentially quantified
/// conjunction of atoms, equalities and comparisons.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Disjunct {
    pub atoms: Vec<Atom>,
    pub eqs: Vec<(Term, Term)>,
    pub cmps: Vec<Comparison>,
}

impl Disjunct {
    pub fn atoms(atoms: Vec<Atom>) -> Self {
        Disjunct {
            atoms,
            ..Default::default()
        }
    }

    pub fn equality(lhs: Term, rhs: Term) -> Self {
        Disjunct {
            eqs: vec![(lhs, rhs)],
            ..Default::default()
        }
    }

    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty() && self.eqs.is_empty() && self.cmps.is_empty()
    }

    /// All distinct variables of this disjunct, in first-occurrence order.
    pub fn variables(&self) -> Vec<Var> {
        let mut seen = BTreeSet::new();
        let vars = self.terms().filter_map(Term::as_var);
        vars.filter(|v| seen.insert(*v)).cloned().collect()
    }

    /// The terms of this disjunct: atom arguments, then equalities, then
    /// comparisons, each left to right.
    pub fn terms(&self) -> impl Iterator<Item = &Term> {
        let atoms = self.atoms.iter().flat_map(|a| &a.args);
        let eqs = self.eqs.iter().flat_map(|(l, r)| [l, r]);
        atoms
            .chain(eqs)
            .chain(self.cmps.iter().flat_map(|c| [&c.lhs, &c.rhs]))
    }

    /// [`Disjunct::terms`], mutably.
    pub fn terms_mut(&mut self) -> impl Iterator<Item = &mut Term> {
        let atoms = self.atoms.iter_mut().flat_map(|a| &mut a.args);
        let eqs = self.eqs.iter_mut().flat_map(|(l, r)| [l, r]);
        atoms
            .chain(eqs)
            .chain(self.cmps.iter_mut().flat_map(|c| [&mut c.lhs, &mut c.rhs]))
    }

    pub fn apply(&self, subst: &TermSubst) -> Disjunct {
        Disjunct {
            atoms: self.atoms.iter().map(|a| subst.apply_atom(a)).collect(),
            eqs: self
                .eqs
                .iter()
                .map(|(l, r)| (subst.apply_term(l), subst.apply_term(r)))
                .collect(),
            cmps: self
                .cmps
                .iter()
                .map(|c| subst.apply_comparison(c))
                .collect(),
        }
    }
}

impl fmt::Display for Disjunct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            Ok(())
        };
        for a in &self.atoms {
            sep(f)?;
            write!(f, "{a}")?;
        }
        for (l, r) in &self.eqs {
            sep(f)?;
            write!(f, "{l} = {r}")?;
        }
        for c in &self.cmps {
            sep(f)?;
            write!(f, "{c}")?;
        }
        if first {
            // An empty disjunct is the trivially-true conclusion; it should
            // never survive normalization, but print something parseable.
            f.write_str("true")?;
        }
        Ok(())
    }
}

/// The classification of a dependency; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepClass {
    /// One disjunct, relational atoms only.
    Tgd,
    /// One disjunct, equalities only.
    Egd,
    /// One disjunct mixing atoms and equalities.
    TgdEgd,
    /// No disjuncts: the premise must never match.
    Denial,
    /// Two or more disjuncts: a genuine disjunctive embedded dependency.
    Ded,
}

impl fmt::Display for DepClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DepClass::Tgd => "tgd",
            DepClass::Egd => "egd",
            DepClass::TgdEgd => "tgd+egd",
            DepClass::Denial => "denial",
            DepClass::Ded => "ded",
        };
        f.write_str(s)
    }
}

/// A dependency `premise → disjunct_1 ∨ … ∨ disjunct_k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependency {
    /// A label for diagnostics and provenance (`m0`, `e0`, `d0`, …).
    pub name: Arc<str>,
    pub premise: Vec<Literal>,
    pub disjuncts: Vec<Disjunct>,
}

impl Dependency {
    pub fn new(name: impl AsRef<str>, premise: Vec<Literal>, disjuncts: Vec<Disjunct>) -> Self {
        Self {
            name: Arc::from(name.as_ref()),
            premise,
            disjuncts,
        }
    }

    /// A plain tgd `premise → ∃ȳ atoms`.
    pub fn tgd(name: impl AsRef<str>, premise: Vec<Literal>, conclusion: Vec<Atom>) -> Self {
        Self::new(name, premise, vec![Disjunct::atoms(conclusion)])
    }

    /// A plain egd `premise → lhs = rhs`.
    pub fn egd(name: impl AsRef<str>, premise: Vec<Literal>, lhs: Term, rhs: Term) -> Self {
        Self::new(name, premise, vec![Disjunct::equality(lhs, rhs)])
    }

    /// A denial constraint `premise → ⊥`.
    pub fn denial(name: impl AsRef<str>, premise: Vec<Literal>) -> Self {
        Self::new(name, premise, Vec::new())
    }

    /// Classify; see [`DepClass`].
    pub fn class(&self) -> DepClass {
        match self.disjuncts.len() {
            0 => DepClass::Denial,
            1 => {
                let d = &self.disjuncts[0];
                match (d.atoms.is_empty(), d.eqs.is_empty()) {
                    (false, true) => DepClass::Tgd,
                    (true, false) => DepClass::Egd,
                    _ => DepClass::TgdEgd,
                }
            }
            _ => DepClass::Ded,
        }
    }

    pub fn is_ded(&self) -> bool {
        self.disjuncts.len() >= 2
    }

    pub fn is_denial(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// The universally quantified variables: those of the premise.
    pub fn universal_vars(&self) -> Vec<Var> {
        body_variables(&self.premise)
    }

    /// The existential variables of disjunct `i`: its variables that do not
    /// occur in the premise.
    pub fn existential_vars(&self, i: usize) -> Vec<Var> {
        let universal: BTreeSet<Var> = self.universal_vars().into_iter().collect();
        self.disjuncts[i]
            .variables()
            .into_iter()
            .filter(|v| !universal.contains(v))
            .collect()
    }

    /// Does the premise contain negated literals? Executable (chaseable)
    /// dependencies — the rewriter's output — never do.
    pub fn has_negated_premise(&self) -> bool {
        self.premise.iter().any(Literal::is_negated)
    }

    /// Predicates referenced anywhere in this dependency.
    pub fn predicates(&self) -> BTreeSet<Arc<str>> {
        let mut out = BTreeSet::new();
        for l in &self.premise {
            if let Some(a) = l.atom() {
                out.insert(a.predicate.clone());
            }
        }
        for d in &self.disjuncts {
            for a in &d.atoms {
                out.insert(a.predicate.clone());
            }
        }
        out
    }

    /// The terms of this dependency: the premise's, then each disjunct's
    /// ([`Disjunct::terms`]), left to right.
    pub fn terms(&self) -> impl Iterator<Item = &Term> {
        let premise = self.premise.iter().flat_map(Literal::terms);
        premise.chain(self.disjuncts.iter().flat_map(Disjunct::terms))
    }

    /// [`Dependency::terms`], mutably.
    pub fn terms_mut(&mut self) -> impl Iterator<Item = &mut Term> {
        let premise = self.premise.iter_mut().flat_map(Literal::terms_mut);
        premise.chain(self.disjuncts.iter_mut().flat_map(Disjunct::terms_mut))
    }

    /// Rename variables via a substitution (used to freshen apart during
    /// rewriting). The caller is responsible for the substitution being a
    /// renaming where that matters.
    pub fn apply(&self, subst: &TermSubst) -> Dependency {
        Dependency {
            name: self.name.clone(),
            premise: subst.apply_body(&self.premise),
            disjuncts: self.disjuncts.iter().map(|d| d.apply(subst)).collect(),
        }
    }
}

impl fmt::Display for Dependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dep {}: ", self.name)?;
        for (i, l) in self.premise.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{l}")?;
        }
        f.write_str(" -> ")?;
        if self.disjuncts.is_empty() {
            f.write_str("false")?;
        } else {
            for (i, d) in self.disjuncts.iter().enumerate() {
                if i > 0 {
                    f.write_str(" | ")?;
                }
                write!(f, "{d}")?;
            }
        }
        f.write_str(".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;

    fn atom(p: &str, vars: &[&str]) -> Atom {
        Atom::new(p, vars.iter().map(Term::var).collect())
    }

    fn d0() -> Dependency {
        // The paper's ded d0:
        // TProduct(p1,n,s1), TProduct(p2,n,s2) ->
        //   p1 = p2 | TRating(r,p1,0) | TRating(r2,p2,0)
        Dependency::new(
            "d0",
            vec![
                Literal::Pos(atom("TProduct", &["p1", "n", "s1"])),
                Literal::Pos(atom("TProduct", &["p2", "n", "s2"])),
            ],
            vec![
                Disjunct::equality(Term::var("p1"), Term::var("p2")),
                Disjunct::atoms(vec![atom("TRating", &["r", "p1"])]),
                Disjunct::atoms(vec![atom("TRating", &["r2", "p2"])]),
            ],
        )
    }

    #[test]
    fn classification() {
        let tgd = Dependency::tgd(
            "m",
            vec![Literal::Pos(atom("S", &["x"]))],
            vec![atom("T", &["x", "y"])],
        );
        assert_eq!(tgd.class(), DepClass::Tgd);

        let egd = Dependency::egd(
            "e",
            vec![Literal::Pos(atom("T", &["x", "y"]))],
            Term::var("x"),
            Term::var("y"),
        );
        assert_eq!(egd.class(), DepClass::Egd);

        let denial = Dependency::denial("n", vec![Literal::Pos(atom("T", &["x", "x"]))]);
        assert_eq!(denial.class(), DepClass::Denial);
        assert!(denial.is_denial());

        assert_eq!(d0().class(), DepClass::Ded);
        assert!(d0().is_ded());

        let mixed = Dependency::new(
            "x",
            vec![Literal::Pos(atom("S", &["x", "y"]))],
            vec![Disjunct {
                atoms: vec![atom("T", &["x", "z"])],
                eqs: vec![(Term::var("x"), Term::var("y"))],
                cmps: vec![],
            }],
        );
        assert_eq!(mixed.class(), DepClass::TgdEgd);
    }

    #[test]
    fn universal_and_existential_vars() {
        let dep = d0();
        let uni: Vec<String> = dep.universal_vars().iter().map(|v| v.to_string()).collect();
        assert_eq!(uni, vec!["p1", "n", "s1", "p2", "s2"]);
        let ex1: Vec<String> = dep
            .existential_vars(1)
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(ex1, vec!["r"]);
        let ex0: Vec<String> = dep
            .existential_vars(0)
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert!(ex0.is_empty());
    }

    #[test]
    fn negated_premise_detection() {
        let dep = Dependency::tgd(
            "m",
            vec![
                Literal::Pos(atom("S", &["x"])),
                Literal::Neg(atom("R", &["x"])),
            ],
            vec![atom("T", &["x"])],
        );
        assert!(dep.has_negated_premise());
        assert!(!d0().has_negated_premise());
    }

    #[test]
    fn predicates_collected() {
        let preds: Vec<String> = d0().predicates().iter().map(|p| p.to_string()).collect();
        assert_eq!(preds, vec!["TProduct", "TRating"]);
    }

    #[test]
    fn display_is_parser_syntax() {
        let dep = Dependency::tgd(
            "m2",
            vec![
                Literal::Pos(atom("SProduct", &["pid", "name", "store", "rating"])),
                Literal::Cmp(Comparison::new(
                    CmpOp::Geq,
                    Term::var("rating"),
                    Term::cons(4i64),
                )),
            ],
            vec![atom("PopularProduct", &["pid", "name"])],
        );
        assert_eq!(
            dep.to_string(),
            "dep m2: SProduct(pid, name, store, rating), rating >= 4 -> PopularProduct(pid, name)."
        );
        let denial = Dependency::denial("n0", vec![Literal::Pos(atom("T", &["x", "x"]))]);
        assert_eq!(denial.to_string(), "dep n0: T(x, x) -> false.");
        assert_eq!(
            d0().to_string(),
            "dep d0: TProduct(p1, n, s1), TProduct(p2, n, s2) -> p1 = p2 | TRating(r, p1) | TRating(r2, p2)."
        );
    }

    #[test]
    fn apply_substitution() {
        let mut s = TermSubst::new();
        s.bind("p1".into(), Term::var("q"));
        let dep = d0().apply(&s);
        assert!(dep.to_string().contains("TProduct(q, n, s1)"));
        assert!(dep.to_string().contains("q = p2"));
    }
}
