//! A parsed scenario program: schemas, views, dependencies and facts.
//!
//! This is the textual counterpart of what the demo's GUI mapping designer
//! produces: everything GROM needs short of the source instance (facts may
//! be inlined for small scenarios and tests).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use grom_data::{Fact, Schema};

use crate::dependency::Dependency;
use crate::error::LangError;
use crate::safety;
use crate::view::ViewSet;

/// A full scenario program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Named schemas (conventionally `source` and `target`).
    pub schemas: BTreeMap<String, Schema>,
    /// All view definitions (over any schema; the core crate splits them by
    /// the base tables they reach).
    pub views: ViewSet,
    /// All dependencies: s-t tgds, target egds, deds, denials.
    pub deps: Vec<Dependency>,
    /// Inline facts.
    pub facts: Vec<Fact>,
}

impl Program {
    /// Parse a program from its textual form. See the crate docs of
    /// [`crate::parser`] for the grammar.
    pub fn parse(text: &str) -> Result<Program, LangError> {
        crate::parser::parse_program(text)
    }

    /// The schema named `name`, if declared.
    pub fn schema(&self, name: &str) -> Option<&Schema> {
        self.schemas.get(name)
    }

    /// Validate what the parser has not already: the views are safe and
    /// non-recursive because a [`ViewSet`] cannot be otherwise; here
    /// * dependencies are safe,
    /// * every predicate is used with one consistent arity, and predicates
    ///   declared in a schema are used with the declared arity,
    /// * facts mention declared relations with the right arity (when any
    ///   schema is declared at all).
    pub fn validate(&self) -> Result<(), LangError> {
        for dep in &self.deps {
            safety::check_dependency(dep)?;
        }

        // predicate -> arity, seeded by schema declarations then views.
        let mut arity: BTreeMap<Arc<str>, usize> = BTreeMap::new();
        for schema in self.schemas.values() {
            for rel in schema.relations() {
                arity.insert(rel.name().clone(), rel.arity());
            }
        }
        for name in self.views.view_names() {
            if let Some(a) = self.views.arity_of(name) {
                if let Some(&prev) = arity.get(name) {
                    if prev != a {
                        return Err(LangError::PredicateArityMismatch {
                            predicate: name.clone(),
                            expected: prev,
                            actual: a,
                        });
                    }
                }
                arity.insert(name.clone(), a);
            }
        }

        let mut check = |pred: &Arc<str>, a: usize| -> Result<(), LangError> {
            match arity.get(pred) {
                Some(&expected) if expected != a => Err(LangError::PredicateArityMismatch {
                    predicate: pred.clone(),
                    expected,
                    actual: a,
                }),
                Some(_) => Ok(()),
                None => {
                    arity.insert(pred.clone(), a);
                    Ok(())
                }
            }
        };

        for rule in self.views.rules() {
            check(&rule.head.predicate, rule.head.arity())?;
            for lit in &rule.body {
                if let Some(atom) = lit.atom() {
                    check(&atom.predicate, atom.arity())?;
                }
            }
        }
        for dep in &self.deps {
            for lit in &dep.premise {
                if let Some(atom) = lit.atom() {
                    check(&atom.predicate, atom.arity())?;
                }
            }
            for d in &dep.disjuncts {
                for atom in &d.atoms {
                    check(&atom.predicate, atom.arity())?;
                }
            }
        }
        for fact in &self.facts {
            check(&fact.relation, fact.tuple.arity())?;
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, schema) in &self.schemas {
            writeln!(f, "schema {name} {{")?;
            for rel in schema.relations() {
                writeln!(f, "  {rel};")?;
            }
            writeln!(f, "}}")?;
        }
        if !self.views.is_empty() {
            writeln!(f)?;
            write!(f, "{}", self.views)?;
        }
        if !self.deps.is_empty() {
            writeln!(f)?;
            for d in &self.deps {
                writeln!(f, "{d}")?;
            }
        }
        if !self.facts.is_empty() {
            writeln!(f)?;
            for fact in &self.facts {
                writeln!(f, "fact {fact}.")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Literal, Term};
    use crate::view::ViewRule;

    fn atom(p: &str, vars: &[&str]) -> Atom {
        Atom::new(p, vars.iter().map(Term::var).collect())
    }

    #[test]
    fn arity_consistency_checked() {
        let mut p = Program::default();
        p.deps.push(Dependency::tgd(
            "m",
            vec![Literal::Pos(atom("S", &["x", "y"]))],
            vec![atom("T", &["x"])],
        ));
        p.deps.push(Dependency::tgd(
            "m2",
            vec![Literal::Pos(atom("S", &["x"]))], // S used with arity 1 here
            vec![atom("T", &["x"])],
        ));
        let err = p.validate().unwrap_err();
        assert!(matches!(err, LangError::PredicateArityMismatch { .. }));
    }

    #[test]
    fn view_and_schema_arity_cross_checked() {
        let mut p = Program::default();
        let mut s = Schema::new();
        s.add_relation(grom_data::RelationSchema::untyped("V", 3))
            .unwrap();
        p.schemas.insert("target".into(), s);
        let rule = ViewRule::new(atom("V", &["x"]), vec![Literal::Pos(atom("B", &["x"]))]);
        p.views = ViewSet::from_rules([rule]).unwrap();
        let err = p.validate().unwrap_err();
        assert!(matches!(err, LangError::PredicateArityMismatch { .. }));
    }
}
