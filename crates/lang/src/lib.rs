//! # grom-lang — the mapping and view languages of GROM
//!
//! This crate defines every logical object of the paper:
//!
//! * [`Term`], [`Atom`], [`Comparison`], [`Literal`] — the first-order
//!   building blocks. Comparison atoms (`rating >= 4`) are first-class, as
//!   in the paper's source-to-semantic tgds `m0`–`m2`.
//! * [`ViewRule`] / [`ViewSet`] — semantic-schema definitions in
//!   **non-recursive Datalog with negation** (and unions): the language of
//!   `Υ_S`, `Υ_T` in Figure 2. Negation may target base tables *or* other
//!   views (`v3` negates the view `PopularProduct`).
//! * [`Dependency`] / [`Disjunct`] — a single uniform representation of
//!   tgds, egds, denial constraints and **disjunctive embedded dependencies
//!   (deds)**: `premise → D_1 ∨ … ∨ D_k`, each disjunct an existentially
//!   quantified conjunction of atoms, equalities and comparisons. A plain
//!   tgd is one disjunct with atoms only; an egd is one disjunct with one
//!   equality; a denial has zero disjuncts.
//! * Safety checks ([`safety`]) with diagnostics, the fresh-variable
//!   generator ([`VarGen`]), and a parser ([`parser`]) for the textual
//!   scenario language that replaces the demo's GUI mapping designer.
//!
//! A [`ViewSet`] is **valid by construction**: [`ViewSet::from_rules`] — which
//! the parser calls once, when it has read a whole program — checks union
//! arity and rule safety, rejects recursion with a witness cycle, and stores
//! the materialization order and each view's nesting depth. Whoever holds a
//! `ViewSet` reads those; nothing downstream validates or sorts again.
//!
//! Display impls print everything in a syntax the parser accepts, so
//! programs round-trip (property-tested in the parser module).

pub mod ast;
mod dependency;
mod error;
mod fresh;
pub mod parser;
mod program;
pub mod safety;
mod subst;
mod view;

pub use ast::{Atom, CmpOp, Comparison, Literal, Term, Var};
pub use dependency::{DepClass, Dependency, Disjunct};
pub use error::LangError;
pub use fresh::VarGen;
pub use program::Program;
pub use subst::{Bindings, TermSubst};
pub use view::{ViewRule, ViewSet};
