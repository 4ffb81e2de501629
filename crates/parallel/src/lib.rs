//! Parallel quantile computation (§6).
//!
//! `P` workers each run the single-stream unknown-`N` algorithm on their own
//! input sequence; any sequence may terminate at any time. On termination a
//! worker collapses its full buffers down to at most one full and one
//! partial buffer and ships them — tagged with weights and sizes — to a
//! distinguished coordinator (the paper's "Processor P₀"), which:
//!
//! * assigns level 0 to incoming full buffers, **retaining their weights**;
//! * folds incoming partial buffers into a staging buffer `B₀`, first
//!   equalising weights by *shrink-by-sampling*: the lighter buffer is
//!   subsampled at rate `w_big / w_small` (one random element per block)
//!   and re-weighted (§6's worked example: `W_in = 8`, `W₀ = 2` shrinks
//!   `B₀` by 4);
//! * collapses as needed when its buffer set fills, and finally invokes
//!   `Output` over everything.
//!
//! Interprocessor communication is one buffer shipment per worker — the
//! minimal traffic the paper calls for.
//!
//! Two front ends drive the protocol:
//!
//! * [`parallel_quantiles`] — §6's literal setting: one worker per
//!   pre-existing input sequence;
//! * [`ShardedSketch`] — one logical stream sharded round-robin over a
//!   fixed worker pool behind bounded channels (multi-core ingestion of a
//!   single source with backpressure). Batches are `Vec<T>` by default or
//!   any [`ShardBatch`], which lets the workers also do the decoding.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod coordinator;
mod hierarchy;
mod merge;
pub mod pipeline;
mod runner;

pub use coordinator::Coordinator;
pub use hierarchy::{merge_hierarchical, ship_upward};
pub use merge::merge_sketches;
pub use pipeline::{
    PipelineTelemetry, ShardBatch, ShardedError, ShardedOutcome, ShardedSketch, DEFAULT_SHARD_BATCH,
};
pub use runner::{parallel_quantiles, ParallelOutcome};
