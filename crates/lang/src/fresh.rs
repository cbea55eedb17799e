//! Fresh-variable generation.
//!
//! The rewriter renames view-body variables apart every time it unfolds a
//! view atom; [`VarGen`] hands out names that cannot collide with
//! user-written variables because of the reserved `$` prefix (the parser
//! rejects `$` in identifiers).

use std::sync::Arc;

use crate::ast::Var;

/// Generator of fresh variables `$base_k`.
#[derive(Debug, Default, Clone)]
pub struct VarGen {
    next: u64,
}

impl VarGen {
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh variable whose name hints at its origin (`base` is typically
    /// the original variable name being renamed apart).
    pub fn fresh(&mut self, base: &str) -> Var {
        let id = self.next;
        self.next += 1;
        // Strip any previous freshness marker so names do not snowball
        // through nested unfoldings ($x_3 -> $x_17, not $$x_3_17).
        let stem = base.trim_start_matches('$');
        let stem = match stem.find('_') {
            Some(i) if stem[i + 1..].chars().all(|c| c.is_ascii_digit()) => &stem[..i],
            _ => stem,
        };
        Arc::from(format!("${stem}_{id}").as_str())
    }

    /// Number of variables generated so far.
    pub fn count(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_variables_are_distinct() {
        let mut g = VarGen::new();
        let a = g.fresh("x");
        let b = g.fresh("x");
        assert_ne!(a, b);
        assert_eq!(a.as_ref(), "$x_0");
        assert_eq!(b.as_ref(), "$x_1");
        assert_eq!(g.count(), 2);
    }

    #[test]
    fn freshening_a_fresh_variable_does_not_snowball() {
        let mut g = VarGen::new();
        let a = g.fresh("store");
        let b = g.fresh(&a);
        assert_eq!(b.as_ref(), "$store_1");
    }

    #[test]
    fn stem_with_underscore_but_no_digits_is_kept() {
        let mut g = VarGen::new();
        let a = g.fresh("my_var");
        assert_eq!(a.as_ref(), "$my_var_0");
    }
}
