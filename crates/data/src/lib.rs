//! # grom-data — the relational substrate of GROM
//!
//! This crate implements the "physical databases" of the GROM architecture
//! (Figure 2 of the paper): typed relational schemas, tuples over a small
//! value domain extended with *labeled nulls*, and in-memory instances whose
//! hash indexes are built by the probes that need them.
//!
//! Everything above this crate (the mapping language, the evaluation engine,
//! the chase and the rewriter) manipulates these objects:
//!
//! * [`Value`] — constants (`Int`, `Str`, `Bool`) and labeled nulls
//!   ([`NullId`]), the carriers of incomplete information created by the
//!   chase when it witnesses existential quantifiers.
//! * [`Schema`] / [`RelationSchema`] — named relations with typed columns.
//! * [`Tuple`] and [`Fact`] — rows, and rows tagged with their relation.
//! * [`Instance`] — a deduplicated, insertion-ordered set of facts, each
//!   stored once, with secondary indexes on the columns that get probed,
//!   plus the null-substitution operation the egd chase relies on.
//!
//! The design goals, in order: deterministic iteration (tests and the greedy
//! ded chase must be reproducible), cheap cloning of values (`Arc<str>`
//! strings), and fast bound-column lookups during joins.

mod error;
mod hash;
mod instance;
mod io;
mod schema;
mod symbol;
mod tuple;
mod value;

pub use error::{DataError, GromError};
pub use hash::{FxBuildHasher, FxHashMap, FxHasher};
pub use instance::{Instance, RelId, Relation, RelationStorage, Span, TupleHash};
pub use io::{canonical_render, read_instance, write_instance, ReadError};
pub use schema::{ColumnSchema, ColumnType, RelationSchema, Schema};
pub use symbol::{Sym, SymbolTable};
pub use tuple::{Fact, Tuple};
pub use value::{NullGenerator, NullId, StridedNullGenerator, Value};
