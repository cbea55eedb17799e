//! String interning: the [`SymbolTable`] and the [`Sym`] value payload.
//!
//! The chase's hot loops — join probes, embedding checks, egd unification —
//! compare and hash string constants millions of times. A [`Sym`] carries a
//! dense `u32` id assigned by a [`SymbolTable`], so equality and hashing
//! cost one integer comparison instead of a string walk; the text rides
//! along (reference-counted) so rendering and error messages never need the
//! table.
//!
//! Interning is **opt-in and scoped to one run**: the pipeline interns the
//! working instance and the rewritten program together at a single choke
//! point, chases over `Value::Sym` constants, minimizes and validates the
//! chased target while it is still interned, and only then turns its symbols
//! back into plain strings — in place, inside the rows the chase built
//! ([`crate::Instance::unintern`]). Code that never interns (tests,
//! examples, ad-hoc instances) keeps using `Value::Str` and the two kinds
//! never mix inside one database.
//!
//! Ids are deterministic: they are assigned in first-intern order, and the
//! pipeline interns facts and program constants in a deterministic order
//! (relations sorted by name, tuples in insertion order, then the rewritten
//! dependencies, the scenario's own dependencies and its target view rules,
//! each in declaration order), so the same scenario produces the same id
//! assignment on every run and on every thread.

use crate::hash::FxHashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An interned string constant: a dense id plus the text it stands for.
///
/// Equality and hashing use **only the id** — that is the whole point of
/// interning — so two `Sym`s must come from the same [`SymbolTable`] to be
/// comparable. Ordering is by text (then id), which keeps `Ord` consistent
/// with `Eq` within one table and makes sorted renderings independent of
/// the id assignment.
#[derive(Debug, Clone)]
pub struct Sym {
    id: u32,
    text: Arc<str>,
}

impl Sym {
    /// The dense id assigned by the interning table.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The interned text.
    pub fn text(&self) -> &Arc<str> {
        &self.text
    }

    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Give up the id and keep the text: what un-interning moves into the
    /// `Value::Str` that replaces this symbol.
    pub fn into_text(self) -> Arc<str> {
        self.text
    }
}

impl PartialEq for Sym {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Sym {}

impl Hash for Sym {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.text
            .as_ref()
            .cmp(other.text.as_ref())
            .then(self.id.cmp(&other.id))
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// The interning table: text → dense id, first-intern order.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    ids: FxHashMap<Arc<str>, u32>,
    texts: Vec<Arc<str>>,
}

impl SymbolTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `text`, returning its symbol. Re-interning the same text
    /// returns the same id.
    pub fn intern(&mut self, text: &Arc<str>) -> Sym {
        if let Some(&id) = self.ids.get(text.as_ref()) {
            return Sym {
                id,
                text: self.texts[id as usize].clone(),
            };
        }
        let id = u32::try_from(self.texts.len()).expect("symbol table overflow");
        self.ids.insert(text.clone(), id);
        self.texts.push(text.clone());
        Sym {
            id,
            text: text.clone(),
        }
    }

    /// The symbol for `text`, if it was interned.
    pub fn get(&self, text: &str) -> Option<Sym> {
        self.ids.get(text).map(|&id| Sym {
            id,
            text: self.texts[id as usize].clone(),
        })
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// The interned texts in id order — the deterministic fingerprint of a
    /// table (two runs interning the same inputs in the same order produce
    /// identical snapshots).
    pub fn snapshot(&self) -> Vec<Arc<str>> {
        self.texts.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = SymbolTable::new();
        let a = t.intern(&arc("alpha"));
        let b = t.intern(&arc("beta"));
        let a2 = t.intern(&arc("alpha"));
        assert_eq!(a.id(), 0);
        assert_eq!(b.id(), 1);
        assert_eq!(a, a2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get("beta").unwrap().id(), 1);
        assert!(t.get("gamma").is_none());
    }

    #[test]
    fn equality_and_hash_are_by_id() {
        use std::collections::hash_map::DefaultHasher;
        let mut t = SymbolTable::new();
        let a = t.intern(&arc("x"));
        let b = t.intern(&arc("y"));
        assert_ne!(a, b);
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        t.intern(&arc("x")).hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn ordering_is_by_text() {
        let mut t = SymbolTable::new();
        let z = t.intern(&arc("z"));
        let a = t.intern(&arc("a"));
        assert!(a < z); // despite a having the larger id
    }

    #[test]
    fn snapshot_is_first_intern_order() {
        let mut t = SymbolTable::new();
        t.intern(&arc("one"));
        t.intern(&arc("two"));
        t.intern(&arc("one"));
        let snap: Vec<String> = t.snapshot().iter().map(|s| s.to_string()).collect();
        assert_eq!(snap, vec!["one", "two"]);
    }
}
