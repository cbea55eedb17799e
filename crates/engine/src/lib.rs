//! # grom-engine — evaluation engine for GROM
//!
//! Evaluates the logic of `grom-lang` over the instances of `grom-data`:
//!
//! * [`plan`] — the one evaluator: a conjunction of literals (positive
//!   atoms, negated atoms, comparison atoms) is compiled once into a
//!   register-file plan and run as an index-probing backtracking join. The
//!   chase's violation search, view materialization and the validator all
//!   hold compiled plans for as long as their program is fixed.
//! * [`eval`] — the public `evaluate_body*` functions: compile, run,
//!   materialize [`grom_lang::Bindings`] per solution.
//! * [`materialize`] — stratified materialization of non-recursive
//!   Datalog-with-negation view sets: the operator `Υ(I)` of the paper
//!   (applied to the source in the composition reduction of §3, and to the
//!   target by the validator).
//! * [`satisfy`] — satisfaction checks for dependencies: find premise
//!   matches that violate a tgd/egd/ded, or certify that an instance
//!   satisfies a set of dependencies.
//!
//! The engine evaluates over a [`Db`]: a single [`Instance`], or several
//! borrowed ones read as their union ([`LayeredDb`]) — validation reads the
//! source, the target and both sets of view extents without copying any.
//!
//! [`Instance`]: grom_data::Instance

pub mod db;
pub mod eval;
pub mod materialize;
pub mod plan;
pub mod query;
pub mod satisfy;

pub use db::{Db, DbRel, LayeredDb, Ver};
pub use eval::{evaluate_body, evaluate_body_from_delta, Control};
pub use materialize::{
    materialize_views, materialize_views_tracked, MaterializeError, ViewMaterialization,
};
pub use plan::{BodyPlan, Cell, DepPlan, DisjunctPlan, Matches, Scratch, Slot};
pub use query::Query;
pub use satisfy::{dependency_satisfied, find_violation, instance_satisfies, Violation};
