//! # mrl — single-pass approximate quantiles of large datasets
//!
//! A from-scratch implementation of Manku, Rajagopalan and Lindsay,
//! *Random Sampling Techniques for Space Efficient Online Computation of
//! Order Statistics of Large Datasets* (SIGMOD 1999), together with every
//! substrate it builds on (the MRL98 buffer/collapse framework and the
//! known-`N` baselines) and the paper's companions: extreme-value
//! estimation, multi-quantile/equi-depth histograms, dynamic buffer
//! allocation, and the parallel merge protocol.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`sketch`] (from `mrl-core`) — the user-facing algorithms:
//!   `UnknownN`, `KnownN`, `ExtremeValue`, `EquiDepthHistogram`.
//! * [`framework`] (from `mrl-framework`) — buffers, collapse policies,
//!   rate schedules and the streaming engine.
//! * [`analysis`] (from `mrl-analysis`) — Hoeffding/Stein bounds, schedule
//!   simulation and the memory optimizer.
//! * [`sampling`] (from `mrl-sampling`) — block/reservoir/Bernoulli
//!   samplers.
//! * [`parallel`] (from `mrl-parallel`) — multi-worker computation (§6):
//!   offline `run_parallel` and the streaming `ShardedSketch` pipeline.
//! * [`exact`] (from `mrl-exact`) — exact selection baselines and rank
//!   utilities.
//! * [`datagen`] (from `mrl-datagen`) — synthetic workloads.
//! * [`io`] (from `mrl-io`) — disk-resident column scans and the
//!   `column_quantiles[_sharded]` one-pass ingest helpers.
//! * [`obs`] (from `mrl-obs`) — the observability layer: `Recorder`,
//!   `InMemoryRecorder`, `MetricsHandle`, snapshots/exporters, and the
//!   live ε-audit published by the instrumented engine and pipeline.
//!
//! ## Quick start
//!
//! ```
//! use mrl::sketch::UnknownN;
//!
//! // 1% rank error with probability 99.99%, stream length unknown.
//! let mut sketch = UnknownN::<u64>::new(0.01, 1e-4).with_seed(42);
//! for value in 0..100_000u64 {
//!     sketch.insert(value);
//! }
//! let median = sketch.query(0.5).unwrap();
//! assert!((median as f64 - 50_000.0).abs() <= 0.01 * 100_000.0);
//! ```

pub use mrl_analysis as analysis;
pub use mrl_baselines as baselines;
pub use mrl_core as sketch;
pub use mrl_datagen as datagen;
pub use mrl_exact as exact;
pub use mrl_framework as framework;
pub use mrl_io as io;
pub use mrl_obs as obs;
pub use mrl_parallel as parallel;
pub use mrl_sampling as sampling;
