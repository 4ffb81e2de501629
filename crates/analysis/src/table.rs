//! The committed schedule table: [`simulate_schedule`] output for every
//! `(b, h)` the optimizer searches, precomputed the way the paper's own
//! Tables 1–2 precompute their constraint scalars.
//!
//! The replay depends on `(b, h)` alone, never on `(ε, δ)`, so the
//! optimizer has no reason to repeat it at run time: it reads
//! [`lookup`] instead and a cold `optimize_unknown_n` costs about a
//! millisecond rather than a replay of the whole grid.
//!
//! The rows live in the generated file `table/rows.rs`, one per
//! `(b ≤ MAX_B, h ≤ MAX_H)` that [`within_leaf_cap`] keeps at
//! [`LEAF_CAP`], with every float written as `f64::from_bits` so it
//! round-trips exactly. Regenerate them with
//!
//! ```text
//! cargo run --release -p mrl-bench --bin schedule_table
//! ```
//!
//! The table is a certificate that is re-checked, never trusted:
//! `crates/analysis/tests/schedule_table.rs` re-simulates every row and
//! requires bit equality, and checks [`lookup`] against
//! [`simulate_schedule`] at each leaf cap the workspace uses.
//!
//! [`simulate_schedule`]: crate::simulate::simulate_schedule

use crate::combinatorics::binomial;
use crate::simulate::ScheduleScalars;

mod rows;

pub use rows::ROWS;

/// Largest number of buffers in the table.
pub const MAX_B: usize = 30;
/// Largest sampling-onset level in the table.
pub const MAX_H: u32 = 10;
/// Leaf cap the table was generated with (`SimOptions::default().leaf_cap`).
pub const LEAF_CAP: u64 = 50_000;

/// The scalars of one `simulate_schedule(b, h, SimOptions::default())`
/// replay, without the allocation profile (every upfront replay records the
/// same one; [`TableRow::scalars`] derives it).
#[derive(Clone, Copy, Debug)]
pub struct TableRow {
    /// Number of buffers `b`.
    pub b: usize,
    /// Sampling-onset level `h`.
    pub h: u32,
    /// Leaves created before sampling onset (`L_d`).
    pub l_d: u64,
    /// Leaves created at the first sampled level (`L_s`).
    pub l_s: u64,
    /// Greatest level reached during the replay.
    pub max_level: u32,
    /// Max of `(W + w_max)/(2m)` over pre-onset prefixes.
    pub g_pre: f64,
    /// Max of `(W + w_max)/(2m)` over post-onset prefixes.
    pub g_post: f64,
    /// Min of `m²/q` over post-onset prefixes.
    pub x_min: f64,
}

impl TableRow {
    /// The full replay result. With all `b` buffers available up front the
    /// replay allocates one per `New` until all exist, so its allocation
    /// profile is `[(0, 1), (1, 2), …, (b−1, b)]`.
    pub fn scalars(&self) -> ScheduleScalars {
        ScheduleScalars {
            b: self.b,
            h: self.h,
            l_d: self.l_d,
            l_s: self.l_s,
            g_pre: self.g_pre,
            g_post: self.g_post,
            x_min: self.x_min,
            max_level: self.max_level,
            alloc_profile: (0..self.b).map(|i| (i as u64, i + 1)).collect(),
        }
    }
}

/// Whether the optimizer's pre-prune keeps `(b, h)` under `leaf_cap`: the
/// pre-onset phase of a `b`-buffer tree grown to level `h` has fewer than
/// `C(b+h−1, h)` leaves, so a pair within the cap always certifies.
pub fn within_leaf_cap(b: usize, h: u32, leaf_cap: u64) -> bool {
    binomial(b as u64 + u64::from(h) - 1, u64::from(h)) <= leaf_cap
}

/// `simulate_schedule(b, h, SimOptions { leaf_cap, ..SimOptions::default() })`
/// for every tabled `(b, h)` and `leaf_cap ≤ LEAF_CAP`: the row if sampling
/// starts within `leaf_cap` leaves, `None` otherwise. Returns `None` for
/// pairs that are not tabled.
pub fn lookup(b: usize, h: u32, leaf_cap: u64) -> Option<ScheduleScalars> {
    let i = ROWS.binary_search_by_key(&(b, h), |r| (r.b, r.h)).ok()?;
    let row = &ROWS[i];
    (row.l_d < leaf_cap).then(|| row.scalars())
}
