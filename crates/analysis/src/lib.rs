//! Probabilistic analysis and parameter selection for the MRL quantile
//! algorithms.
//!
//! This crate turns the paper's §4 analysis into executable form:
//!
//! * [`bounds`] — Hoeffding's inequality (Lemma 1) and the sampling
//!   constraint `X ≥ ln(2/δ) / (2(1−α)²ε²)` (Lemma 2 / Eqn 1).
//! * [`kl`] — Kullback–Leibler divergence and the Stein's-lemma sample
//!   sizing of the extreme-value estimator (§7, Lemma 6).
//! * [`combinatorics`] — closed-form leaf counts `L_d = C(b+h−2, h−1)`,
//!   `L_s = C(b+h−3, h−1)` (§4.5) and the closed-form minimisation of the
//!   Hoeffding quantity `X` over tree shapes (§4.1, footnote 1).
//! * [`simulate`] — an exact, **data-free replay of the collapse schedule**
//!   (buffer weights and levels only). Because the schedule is a
//!   deterministic function of `(b, h)` — it does not depend on `k` or on
//!   the data — one simulation yields scale-invariant scalars from which the
//!   constraints for *any* `k` follow. This certifies the algorithm's
//!   guarantee without relying on the weakened closed forms, and is
//!   cross-checked against both the closed forms and real engine runs in
//!   tests.
//! * [`optimizer`] — the §4.5 optimisation: minimise memory `b·k` subject to
//!   the sampling and tree constraints; plus the known-`N` baseline (Table 1,
//!   Figure 4) and the multi-quantile variants (Table 2).
//! * [`table`] — the committed replay table: [`simulate`]'s scalars for
//!   every `(b, h)` the optimizer searches, generated once and re-certified
//!   by a test, so parameter choice pays no replay.
//! * [`schedule`] — §5 dynamic buffer-allocation schedules: validation and
//!   search under user-specified memory ceilings (Figure 5).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bounds;
pub mod combinatorics;
pub mod kl;
pub mod optimizer;
pub mod schedule;
pub mod simulate;
pub mod table;

pub use bounds::{hoeffding_tail, required_x};
pub use kl::{kl_divergence_bits, stein_failure_bound, stein_sample_size};
pub use optimizer::{
    known_n_memory, optimize_known_n, optimize_multi, optimize_unknown_n, precompute_memory,
    KnownNPlan, OptimizerOptions, UnknownNConfig,
};
pub use schedule::{find_schedule, validate_schedule, AllocationPlan, MemoryLimit};
pub use simulate::{simulate_schedule, ScheduleScalars, SimOptions};
