//! Tuples and facts.

use std::fmt;
use std::sync::Arc;

use crate::value::{NullId, Value};

/// A row: a fixed-width sequence of [`Value`]s.
///
/// Tuples are immutable once built; the egd chase replaces whole tuples
/// rather than mutating in place, which keeps the instance indexes honest.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Box<[Value]>,
}

impl Tuple {
    pub fn new(values: Vec<Value>) -> Self {
        Self {
            values: values.into_boxed_slice(),
        }
    }

    pub fn arity(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// Does any position hold a labeled null?
    pub fn has_nulls(&self) -> bool {
        self.values.iter().any(Value::is_null)
    }

    /// Iterate over the labels of the nulls in this tuple.
    pub fn nulls(&self) -> impl Iterator<Item = NullId> + '_ {
        self.values.iter().filter_map(Value::as_null)
    }

    /// Apply a null substitution, returning the rewritten tuple and whether
    /// anything changed. `lookup` maps a null label to its replacement.
    pub fn substitute_nulls(
        &self,
        mut lookup: impl FnMut(NullId) -> Option<Value>,
    ) -> (Tuple, bool) {
        let mut changed = false;
        let values: Vec<Value> = self
            .values
            .iter()
            .map(|v| match v.as_null().and_then(&mut lookup) {
                Some(replacement) => {
                    changed = true;
                    replacement
                }
                None => v.clone(),
            })
            .collect();
        (Tuple::new(values), changed)
    }

    /// [`Value::unintern`] on every position.
    pub(crate) fn unintern(&mut self) {
        self.values.iter_mut().for_each(Value::unintern);
    }

    /// Write `(v1, v2, …)`, the way `Display` prints it (see
    /// [`Value::render`]).
    pub(crate) fn render(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_char('(')?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                out.write_str(", ")?;
            }
            v.render(out)?;
        }
        out.write_char(')')
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f)
    }
}

/// A tuple tagged with the relation it belongs to.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fact {
    pub relation: Arc<str>,
    pub tuple: Tuple,
}

impl Fact {
    pub fn new(relation: impl AsRef<str>, values: Vec<Value>) -> Self {
        Self {
            relation: Arc::from(relation.as_ref()),
            tuple: Tuple::new(values),
        }
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.relation, self.tuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_basics() {
        let t = Tuple::new(vec![Value::int(1), Value::str("a"), Value::null(2)]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), Some(&Value::int(1)));
        assert_eq!(t.get(3), None);
        assert!(t.has_nulls());
        assert_eq!(t.nulls().collect::<Vec<_>>(), vec![NullId(2)]);
    }

    #[test]
    fn tuple_without_nulls() {
        let t = Tuple::new(vec![Value::int(1)]);
        assert!(!t.has_nulls());
        assert_eq!(t.nulls().count(), 0);
    }

    #[test]
    fn substitute_nulls_rewrites_only_mapped_labels() {
        let t = Tuple::new(vec![Value::null(0), Value::null(1), Value::int(9)]);
        let (u, changed) = t.substitute_nulls(|id| {
            if id == NullId(0) {
                Some(Value::int(42))
            } else {
                None
            }
        });
        assert!(changed);
        assert_eq!(
            u,
            Tuple::new(vec![Value::int(42), Value::null(1), Value::int(9)])
        );

        let (v, changed) = u.substitute_nulls(|_| None);
        assert!(!changed);
        assert_eq!(v, u);
    }

    #[test]
    fn fact_display() {
        let f = Fact::new("T_Product", vec![Value::int(1), Value::str("tv")]);
        assert_eq!(f.to_string(), "T_Product(1, \"tv\")");
    }
}
