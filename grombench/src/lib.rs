//! grombench — GROM's end-to-end performance ledger (see README.md).
//!
//! The library half holds everything the tests exercise; `main.rs` adds
//! the command line and installs the counting allocator.

pub mod heap;
pub mod layers;
pub mod ledger;
pub mod metrics;
pub mod pipeline;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
