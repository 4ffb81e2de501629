//! The buffer/collapse framework of Manku, Rajagopalan and Lindsay.
//!
//! This crate implements the deterministic substrate that the MRL99 paper
//! (*Random Sampling Techniques for Space Efficient Online Computation of
//! Order Statistics of Large Datasets*, SIGMOD 1999) builds on — the general
//! framework introduced in the authors' earlier MRL98 paper:
//!
//! * [`Buffer`]: `b` buffers of `k` elements each, labelled empty, partial or
//!   full, with a positive integer *weight* per buffer.
//! * The three operations algorithms are composed from (§3): **New** (fill an
//!   empty buffer from the stream, sampling one element per block of `r`),
//!   **Collapse** (merge `c` full buffers into one, keeping `k` equally
//!   spaced elements of the weighted merge), and **Output** (weighted
//!   selection across the remaining buffers).
//! * [`policy`]: pluggable collapse policies — the MRL99 adaptive
//!   lowest-level policy (§3.6), Munro–Paterson, and Alsabti–Ranka–Singh —
//!   operating purely on buffer *metadata* so the analysis crate can simulate
//!   schedules without data.
//! * [`schedule`]: sampling-rate schedules — the MRL99 non-uniform schedule
//!   (§3.7: rate doubles each time the tree grows past height `h`) and a
//!   fixed-rate schedule for the known-`N` algorithms.
//! * [`Engine`]: the streaming composition of all of the above, with exact
//!   tree accounting ([`TreeStats`]) for the paper's Lemmas 4 and 5.
//!
//! End-user algorithms (`UnknownN`, `KnownN`, extreme values, histograms)
//! live in the `mrl-core` crate; this crate is the reusable machinery.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod arena;
mod buffer;
pub mod cdf;
pub mod engine;
#[cfg(feature = "invariant-audit")]
pub mod invariant;
pub mod kernels;
mod merge;
pub mod policy;
pub mod radix;
mod runs;
pub mod schedule;
mod snapshot;
pub mod spine;
mod stats;
mod tree;
mod types;

pub use arena::ScratchArena;
pub use buffer::{Buffer, BufferMeta, BufferState};
pub use cdf::CdfPoint;
pub use engine::{Engine, EngineConfig};
#[cfg(feature = "invariant-audit")]
pub use invariant::CertifiedSchedule;
pub use kernels::slice_min_max;
pub use merge::{collapse_targets, output_position, select_weighted, total_mass, WeightedSource};
pub use policy::{
    AdaptiveLowestLevel, AlsabtiRankaSingh, CollapseDecision, CollapsePolicy, MunroPaterson,
};
pub use radix::{
    sort_fixed, try_sort_fixed, FixedWidthKey, RadixScratch, RADIX_MAX_LEN, RADIX_MIN_LEN,
};
pub use runs::{
    merge_sorted_runs, merge_sorted_runs_with, MergeScratch, RunTracker, RUN_MERGE_LIMIT,
};
pub use schedule::{FixedRate, LeafCountSchedule, Mrl99Schedule, RateSchedule};
pub use snapshot::{BufferSnapshot, EngineSnapshot};
pub use spine::QuerySpine;
pub use stats::TreeStats;
pub use tree::{TreeNode, TreeRecorder};
pub use types::OrderedF64;
