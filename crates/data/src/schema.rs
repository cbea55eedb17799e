//! Relational schemas: named relations with typed columns.
//!
//! GROM manipulates two physical schemas (source `S` and target `T`) plus
//! the *virtual* predicates of the semantic schemas. Physical relations are
//! declared here; virtual predicates exist only in `grom-lang` view
//! definitions and are never stored.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::DataError;
use crate::tuple::Tuple;
use crate::value::Value;

/// The type of a column.
///
/// `Any` is the dynamically-typed escape hatch used by materialized view
/// extents and by generated scenarios where inferring a precise type is not
/// worth the trouble; labeled nulls are admissible in every column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    Int,
    String,
    Bool,
    Any,
}

impl ColumnType {
    /// Does `value` conform to this column type? Labeled nulls conform to
    /// every type (they stand for an unknown value of that type).
    pub fn admits(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null(_))
                | (ColumnType::Any, _)
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::String, Value::Str(_))
                | (ColumnType::String, Value::Sym(_))
                | (ColumnType::Bool, Value::Bool(_))
        )
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Int => "int",
            ColumnType::String => "string",
            ColumnType::Bool => "bool",
            ColumnType::Any => "any",
        };
        f.write_str(s)
    }
}

/// One column of a relation: a name and a type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSchema {
    pub name: String,
    pub ty: ColumnType,
}

impl ColumnSchema {
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Self {
            name: name.into(),
            ty,
        }
    }
}

/// The schema of one relation: its name and ordered, typed columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSchema {
    name: Arc<str>,
    columns: Vec<ColumnSchema>,
}

impl RelationSchema {
    /// Build a relation schema; column names must be distinct.
    pub fn new(name: impl AsRef<str>, columns: Vec<ColumnSchema>) -> Result<Self, DataError> {
        let name: Arc<str> = Arc::from(name.as_ref());
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|d| d.name == c.name) {
                return Err(DataError::DuplicateColumn {
                    relation: name,
                    column: c.name.clone(),
                });
            }
        }
        Ok(Self { name, columns })
    }

    /// Convenience constructor: all columns typed [`ColumnType::Any`] with
    /// synthesized names `c0..c{n-1}`. Used for materialized view extents.
    pub fn untyped(name: impl AsRef<str>, arity: usize) -> Self {
        let columns = (0..arity)
            .map(|i| ColumnSchema::new(format!("c{i}"), ColumnType::Any))
            .collect();
        Self {
            name: Arc::from(name.as_ref()),
            columns,
        }
    }

    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    pub fn columns(&self) -> &[ColumnSchema] {
        &self.columns
    }

    /// Check a tuple against this schema (arity and column types).
    pub fn check_tuple(&self, tuple: &Tuple) -> Result<(), DataError> {
        if tuple.arity() != self.arity() {
            return Err(DataError::ArityMismatch {
                relation: self.name.clone(),
                expected: self.arity(),
                actual: tuple.arity(),
            });
        }
        for (col, value) in self.columns.iter().zip(tuple.values()) {
            if !col.ty.admits(value) {
                return Err(DataError::TypeMismatch {
                    relation: self.name.clone(),
                    column: col.name.clone(),
                    expected: col.ty,
                    actual: value.clone(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}: {}", c.name, c.ty)?;
        }
        f.write_str(")")
    }
}

/// A set of relation schemas, keyed by relation name.
///
/// Stored in a `BTreeMap` so iteration (and therefore every downstream
/// artifact: materialization order, chase order, printed programs) is
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    relations: BTreeMap<Arc<str>, RelationSchema>,
}

impl Schema {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a relation; rejects duplicate names.
    pub fn add_relation(&mut self, relation: RelationSchema) -> Result<(), DataError> {
        if self.relations.contains_key(relation.name()) {
            return Err(DataError::DuplicateRelation {
                relation: relation.name().clone(),
            });
        }
        self.relations.insert(relation.name().clone(), relation);
        Ok(())
    }

    pub fn relation(&self, name: &str) -> Option<&RelationSchema> {
        self.relations.get(name)
    }

    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    pub fn relations(&self) -> impl Iterator<Item = &RelationSchema> {
        self.relations.values()
    }

    pub fn relation_names(&self) -> impl Iterator<Item = &Arc<str>> {
        self.relations.keys()
    }

    pub fn len(&self) -> usize {
        self.relations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// The union of two schemas; duplicate relation names are an error.
    ///
    /// Used by the chase, whose dependencies span the source and the target
    /// schema (GROM requires physically distinct relation names, which the
    /// paper achieves with `S-`/`T-` prefixes).
    pub fn union(&self, other: &Schema) -> Result<Schema, DataError> {
        let mut out = self.clone();
        for rel in other.relations() {
            out.add_relation(rel.clone())?;
        }
        Ok(out)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rel in self.relations.values() {
            writeln!(f, "{rel}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn product() -> RelationSchema {
        RelationSchema::new(
            "S_Product",
            vec![
                ColumnSchema::new("id", ColumnType::Int),
                ColumnSchema::new("name", ColumnType::String),
                ColumnSchema::new("store", ColumnType::String),
                ColumnSchema::new("rating", ColumnType::Int),
            ],
        )
        .unwrap()
    }

    #[test]
    fn relation_schema_basics() {
        let r = product();
        assert_eq!(r.arity(), 4);
        assert_eq!(
            r.to_string(),
            "S_Product(id: int, name: string, store: string, rating: int)"
        );
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = RelationSchema::new(
            "R",
            vec![
                ColumnSchema::new("a", ColumnType::Int),
                ColumnSchema::new("a", ColumnType::Int),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, DataError::DuplicateColumn { .. }));
    }

    #[test]
    fn untyped_admits_everything() {
        let r = RelationSchema::untyped("V", 2);
        let t = Tuple::new(vec![Value::int(1), Value::str("x")]);
        assert!(r.check_tuple(&t).is_ok());
        let t = Tuple::new(vec![Value::null(0), Value::bool(true)]);
        assert!(r.check_tuple(&t).is_ok());
    }

    #[test]
    fn check_tuple_arity_and_types() {
        let r = product();
        let good = Tuple::new(vec![
            Value::int(1),
            Value::str("tv"),
            Value::str("acme"),
            Value::int(5),
        ]);
        assert!(r.check_tuple(&good).is_ok());

        let short = Tuple::new(vec![Value::int(1)]);
        assert!(matches!(
            r.check_tuple(&short),
            Err(DataError::ArityMismatch {
                expected: 4,
                actual: 1,
                ..
            })
        ));

        let wrong = Tuple::new(vec![
            Value::str("one"),
            Value::str("tv"),
            Value::str("acme"),
            Value::int(5),
        ]);
        assert!(matches!(
            r.check_tuple(&wrong),
            Err(DataError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn nulls_admitted_in_typed_columns() {
        let r = product();
        let t = Tuple::new(vec![
            Value::null(1),
            Value::str("tv"),
            Value::null(2),
            Value::int(5),
        ]);
        assert!(r.check_tuple(&t).is_ok());
    }

    #[test]
    fn schema_union_detects_collisions() {
        let mut s = Schema::new();
        s.add_relation(product()).unwrap();
        let mut t = Schema::new();
        t.add_relation(RelationSchema::untyped("T_Product", 3))
            .unwrap();
        let u = s.union(&t).unwrap();
        assert_eq!(u.len(), 2);
        assert!(u.contains("S_Product"));
        assert!(u.contains("T_Product"));
        assert!(s.union(&s).is_err());
    }

    #[test]
    fn schema_iteration_is_sorted() {
        let mut s = Schema::new();
        s.add_relation(RelationSchema::untyped("Zeta", 1)).unwrap();
        s.add_relation(RelationSchema::untyped("Alpha", 1)).unwrap();
        let names: Vec<_> = s.relation_names().map(|n| n.to_string()).collect();
        assert_eq!(names, vec!["Alpha", "Zeta"]);
    }
}
