//! # GROM — a General Rewriter of Semantic Mappings
//!
//! A faithful reimplementation of the GROM system (Mecca, Rull, Santoro,
//! Teniente — EDBT 2016): data exchange through *semantic schemas*.
//!
//! A [`MappingScenario`] bundles the objects of Figure 2 of the paper:
//!
//! * a **source** and a **target** relational schema (`S`, `T`),
//! * optional **semantic schemas** over each (`V_S`, `V_T`), defined by
//!   views in non-recursive Datalog with negation (`Υ_S`, `Υ_T`),
//! * **mappings** `Σ_{V_S,V_T}`: source-to-target tgds written against the
//!   semantic schemas, with comparison atoms,
//! * **target constraints** `Σ_{V_T}`: egds (keys/functional dependencies),
//!   tgds (inclusion/foreign keys) and denials over the target semantic
//!   schema.
//!
//! [`MappingScenario::run`] executes the full GROM pipeline:
//!
//! 1. materialize the source views and treat their extents as source
//!    relations (the composition reduction of §3),
//! 2. **rewrite** the semantic mappings into executable dependencies over
//!    the physical schemas (`grom-rewrite`) — plain tgds/egds when views
//!    are conjunctive, deds when negation requires them,
//! 3. **chase** the source instance with the rewritten program
//!    (`grom-chase`; greedy scenario search for deds),
//! 4. split the target relations `J_T` off the chased instance, and
//!    optionally
//! 5. **validate** the soundness contract: `Υ_T(J_T)` must satisfy the
//!    original semantic mapping (the paper's soundness theorem, checked
//!    instance by instance) — on the chased, still interned relations;
//!    `J_T` is handed back as plain strings afterwards.
//!
//! ```
//! use grom::prelude::*;
//!
//! let program = Program::parse(r#"
//!     schema source { S_Emp(name: string, dept: string); }
//!     schema target { T_Emp(name: string); T_Dept(name: string, dept: string); }
//!     view Employee(n, d) <- T_Emp(n), T_Dept(n, d).
//!     tgd m: S_Emp(n, d) -> Employee(n, d).
//! "#).unwrap();
//! let scenario = MappingScenario::from_program(&program).unwrap();
//!
//! let mut source = Instance::new();
//! source.add("S_Emp", vec![Value::str("ann"), Value::str("db")]).unwrap();
//!
//! let result = scenario.run(&source, &PipelineOptions::default()).unwrap();
//! assert_eq!(result.target.tuples("T_Emp").count(), 1);
//! assert!(result.validation.as_ref().unwrap().ok);
//! ```

mod pipeline;
mod scenario;
mod validate;

pub use grom_chase::{Budget, CancelToken, ChaseConfig, Checkpoint, SchedulerMode};
pub use grom_trace::{ChaseProfile, TraceHandle};
pub use pipeline::{intern_dependencies, ExchangeResult, PipelineError, PipelineOptions};
pub use scenario::MappingScenario;
pub use validate::{validate_solution, ValidationReport};

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::pipeline::{ExchangeResult, PipelineError, PipelineOptions};
    pub use crate::scenario::MappingScenario;
    pub use crate::validate::{validate_solution, ValidationReport};
    pub use grom_chase::{
        Budget, CancelToken, ChaseConfig, ChaseError, ChaseStats, Checkpoint, InterruptReason,
        SchedulerMode,
    };
    pub use grom_data::{Fact, Instance, Schema, Tuple, Value};
    pub use grom_lang::{Atom, DepClass, Dependency, Literal, Program, Term, ViewSet};
    pub use grom_rewrite::{analyze, RestrictionReport, RewriteOptions, RewriteOutput};
    pub use grom_trace::{ChaseProfile, TraceHandle};
}

// Re-export the sub-crates for power users.
pub use grom_chase as chase;
pub use grom_data as data;
pub use grom_engine as engine;
pub use grom_exec as exec;
pub use grom_lang as lang;
pub use grom_rewrite as rewrite;
pub use grom_scenarios as scenarios;
pub use grom_trace as trace;
