//! # grom-engine — evaluation engine for GROM
//!
//! Evaluates the logic of `grom-lang` over the instances of `grom-data`:
//!
//! * [`BodyPlan`] / [`DepPlan`] — the one evaluator: a conjunction of
//!   literals (positive atoms, negated atoms, comparison atoms) is compiled
//!   once into a register-file plan and run as an index-probing
//!   backtracking join. The chase's violation search, view materialization
//!   and the validator all hold compiled plans for as long as their
//!   program is fixed.
//! * [`evaluate_body`] — compile, run, materialize [`grom_lang::Bindings`]
//!   per solution: a one-shot convenience over [`BodyPlan`].
//! * [`materialize_views`] — stratified materialization of non-recursive
//!   Datalog-with-negation view sets: the operator `Υ(I)` of the paper
//!   (applied to the source in the composition reduction of §3, and to the
//!   target by the validator).
//! * [`instance_satisfies`] — satisfaction of a set of dependencies: one
//!   witness per violated tgd/egd/ded, none when the instance satisfies
//!   them all.
//!
//! The engine evaluates over a [`Db`]: a single [`Instance`], or several
//! borrowed ones read as their union ([`LayeredDb`]) — validation reads the
//! source, the target and both sets of view extents without copying any.
//!
//! [`Instance`]: grom_data::Instance

mod db;
mod eval;
mod materialize;
mod plan;
mod satisfy;

pub use db::{Control, Db, DbRel, LayeredDb, Ver};
pub use eval::evaluate_body;
pub use materialize::{
    materialize_views, materialize_views_tracked, MaterializeError, ViewMaterialization,
};
pub use plan::{BodyPlan, Cell, DepPlan, DisjunctPlan, Matches, Scratch, Slot};
pub use satisfy::{instance_satisfies, Violation};
