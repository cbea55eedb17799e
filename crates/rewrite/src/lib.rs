//! # grom-rewrite — the GROM rewriter (the paper's primary contribution)
//!
//! Rewrites *semantic mappings* — dependencies whose atoms range over
//! view-defined predicates (non-recursive Datalog with negation, §2 of the
//! paper) — into **executable** dependencies over the physical schemas:
//! tgds, egds, denial constraints and, when negation forces it,
//! **disjunctive embedded dependencies (deds)**.
//!
//! ## The algorithm
//!
//! 1. **Expansion** (`expand.rs`): every view atom is recursively replaced by
//!    its definition. A positive view atom becomes a DNF (one alternative
//!    per union rule, body variables freshly renamed); a negated view atom
//!    becomes a *negation tree* `¬(∨_i ∃z̄_i conj_i)`. Base atoms and
//!    comparisons pass through. Every alternative is built directly in the
//!    one form normalization works on — a flattened conjunction of atoms,
//!    equalities, comparisons and negation trees. The view set is taken as
//!    it stands: a [`grom_lang::ViewSet`] is safe and non-recursive by
//!    construction and knows each view's nesting depth, which bounds the
//!    recursion ([`MAX_VIEW_NESTING`]).
//! 2. **Normalization** ([`rewrite_program`]):
//!    * each premise alternative yields its own output dependency
//!      (premise disjunction distributes over the implication);
//!    * **negation trees in a premise move to the conclusion as extra
//!      disjuncts** (`φ ∧ ¬N → C ≡ φ → C ∨ N`) — this is exactly how the
//!      paper's ded `d0` arises from the key egd `e0` over
//!      `PopularProduct`;
//!    * **negation trees in a conclusion spawn auxiliary dependencies**:
//!      to *make* `V(t̄)` true the chase adds the positive body and must
//!      *check* the negative part, giving `premise ∧ N_alt → (nested
//!      negations as disjuncts)` — a denial when there is no nesting;
//!    * equalities involving existential variables substitute; ground
//!      comparisons evaluate statically; comparisons over universal
//!      variables stay in premises/disjuncts.
//! 3. **Sound strengthening**: whatever cannot be expressed inside a ded
//!    disjunct (negation nested three deep, comparisons over existential
//!    variables) is *dropped from the disjunction* with a recorded
//!    [`RewriteWarning`]. Dropping a disjunct only strengthens a
//!    dependency, so the output stays **sound**: if the rewritten program
//!    admits a universal solution, the original semantic mapping is
//!    satisfied (the paper's soundness contract, validated end-to-end by
//!    the `grom` validator).
//! 4. **Classification & provenance**: every output is classified
//!    (tgd/egd/denial/ded) and every ded records which view's negation
//!    caused it — feeding the restriction analyzer ([`analysis`]), the
//!    feature the demo uses to "highlight problematic views" (§4).

pub mod analysis;
mod error;
mod expand;
mod rewriter;

pub use analysis::{analyze, ProblematicView, RestrictionReport, ViewProfile};
pub use error::{RewriteError, RewriteWarning};
pub use rewriter::{rewrite_program, RewriteOptions, RewriteOutput, MAX_VIEW_NESTING};
