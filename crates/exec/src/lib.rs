//! # grom-exec — the parallel execution substrate of GROM
//!
//! The chase engine of `grom-chase` spends its time evaluating dependency
//! premises and buffering repairs. Delta activations of dependencies with
//! *disjoint trigger sets* never touch the same relations, so they can run
//! on worker threads — provided every worker reads a consistent snapshot
//! and writes somewhere private. This crate supplies that machinery; the
//! scheduling *policy* (which dependencies form a conflict-free group, when
//! a sweep starts and ends) stays in `grom-chase`.
//!
//! ## The snapshot / buffer lifecycle
//!
//! 1. **Snapshot** — the coordinator freezes the master [`Instance`] for
//!    the duration of one sweep segment; workers only hold `&Instance`.
//! 2. **Shard** — each worker wraps the snapshot in a [`ShardView`]: reads
//!    see the union of the snapshot and the worker's private insertion
//!    buffer; writes go to the buffer only, deduplicated against both.
//!    Equality repairs never write at all — they record obligations into
//!    the view's obligation buffer for the coordinator. Fresh labeled
//!    nulls come from disjoint per-worker strided ranges
//!    ([`grom_data::StridedNullGenerator`]), so workers never race on
//!    labels.
//! 3. **Merge** — at the sweep barrier the coordinator absorbs each
//!    worker's insertion buffer ([`ShardView::into_buffer`]) into the
//!    master instance *in job order* ([`grom_data::Instance::absorb`]:
//!    relations by name, rows in insertion order — so a buffered row lands
//!    exactly where [`ShardView::frontier`] said it would) and unifies the
//!    merged obligation buffers deterministically before the sweep's
//!    single null substitution.
//!
//! ## Determinism guarantee
//!
//! Job inputs, null ranges and the merge order are all functions of the
//! job *index*, never of thread scheduling: [`WorkerPool::run_timed_caught`]
//! returns results positionally, and groups only ever write relations no other
//! group touches. Two runs of the same sweep therefore produce identical
//! instances; relative to single-threaded execution the result is
//! identical up to the renaming of freshly invented nulls.
//!
//! [`Instance`]: grom_data::Instance

mod pool;
mod shard;

pub use pool::WorkerPool;
pub use shard::ShardView;
