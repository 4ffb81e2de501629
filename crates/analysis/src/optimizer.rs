//! Parameter selection (§4.5): minimise memory `b·k` subject to the
//! sampling and tree constraints, for the unknown-`N` algorithm, the
//! known-`N` baselines (MRL98), and the multi-quantile variants (§4.7).
//!
//! For a candidate `(b, h)` the exact schedule replay
//! ([`crate::simulate`]) yields three scalars `(g_pre, g_post, x_min)`;
//! for a given error split `α ∈ (0, 1)` the buffer size must satisfy
//!
//! ```text
//! k ≥ g_pre / ε                         (pre-onset tree error, Eqn 3)
//! k ≥ g_post / (α·ε)                    (post-onset tree error, Eqn 2)
//! k ≥ ln(2/δ) / (2(1−α)²ε² · x_min)     (sampling error,       Eqn 1)
//! ```
//!
//! The optimizer minimises `b·k` over the `(b, h)` grid and the optimal `α`
//! (the max of a decreasing and an increasing function of `α`, minimised at
//! their crossing). The replay depends on `(b, h)` only, so the unknown-`N`
//! optimizer reads its scalars from the committed [`crate::table`] and
//! replays nothing.

use crate::bounds::required_x;
use crate::combinatorics::binomial;
use crate::simulate::ScheduleScalars;
use crate::table;

/// Search-space options for the optimizer. Every field must stay within the
/// committed schedule table: `max_b ≤ 30`, `max_h ≤ 10`,
/// `leaf_cap ≤ 50_000` ([`table::MAX_B`], [`table::MAX_H`],
/// [`table::LEAF_CAP`]).
#[derive(Clone, Copy, Debug)]
pub struct OptimizerOptions {
    /// Largest number of buffers considered (paper: 50; default 30 — the
    /// optimum sits well inside for all practical ε, δ).
    pub max_b: usize,
    /// Largest sampling-onset level considered.
    pub max_h: u32,
    /// Combinations whose pre-onset phase may exceed this many leaves
    /// (`C(b+h−1, h) > leaf_cap`) are skipped.
    pub leaf_cap: u64,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        Self {
            max_b: table::MAX_B,
            max_h: table::MAX_H,
            leaf_cap: table::LEAF_CAP,
        }
    }
}

impl OptimizerOptions {
    /// A reduced grid, for tests that pin configurations of the smaller
    /// search space.
    pub fn fast() -> Self {
        Self {
            max_b: 12,
            max_h: 6,
            leaf_cap: 20_000,
        }
    }
}

/// A certified parameterisation of the unknown-`N` algorithm.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UnknownNConfig {
    /// Number of buffers.
    pub b: usize,
    /// Buffer size.
    pub k: usize,
    /// Sampling-onset level.
    pub h: u32,
    /// Error split: `α·ε` to the deterministic tree, `(1−α)·ε` to sampling.
    pub alpha: f64,
    /// Approximation guarantee.
    pub epsilon: f64,
    /// Failure probability.
    pub delta: f64,
    /// Total memory in elements (`b·k`).
    pub memory: usize,
}

/// Smallest `k` satisfying all three constraints for the given scalars and
/// split `α`, or `None` if `α` is out of range.
fn k_needed(s: &ScheduleScalars, epsilon: f64, delta: f64, alpha: f64) -> Option<f64> {
    if !(0.0 < alpha && alpha < 1.0) {
        return None;
    }
    let k_pre = s.g_pre / epsilon;
    let k_post = s.g_post / (alpha * epsilon);
    let k_sample = required_x(alpha, epsilon, delta) / s.x_min;
    Some(k_pre.max(k_post).max(k_sample))
}

/// Optimal `(α, k)` for one `(b, h)` candidate: coarse grid then golden
/// refinement.
fn best_alpha(s: &ScheduleScalars, epsilon: f64, delta: f64) -> (f64, f64) {
    let mut best = (0.5, f64::INFINITY);
    let mut alpha = 0.005;
    while alpha < 1.0 {
        if let Some(k) = k_needed(s, epsilon, delta, alpha) {
            if k < best.1 {
                best = (alpha, k);
            }
        }
        alpha += 0.005;
    }
    // Golden-section refinement around the best grid point.
    let (mut lo, mut hi) = ((best.0 - 0.005).max(1e-6), (best.0 + 0.005).min(1.0 - 1e-6));
    for _ in 0..60 {
        let m1 = lo + (hi - lo) * 0.381_966;
        let m2 = hi - (hi - lo) * 0.381_966;
        let k1 = k_needed(s, epsilon, delta, m1).unwrap_or(f64::INFINITY);
        let k2 = k_needed(s, epsilon, delta, m2).unwrap_or(f64::INFINITY);
        if k1 <= k2 {
            hi = m2;
        } else {
            lo = m1;
        }
    }
    let alpha = 0.5 * (lo + hi);
    let k = k_needed(s, epsilon, delta, alpha).unwrap_or(f64::INFINITY);
    if k < best.1 {
        (alpha, k)
    } else {
        best
    }
}

/// Optimise the unknown-`N` algorithm for `(ε, δ)` with default options.
///
/// # Panics
/// Panics if `ε ∉ (0, 1)`, `δ ∉ (0, 1)`, or no feasible configuration
/// exists in the search space (does not happen for practical parameters).
/// [`optimize_unknown_n_with`] also panics on options outside the committed
/// schedule table: `max_b > 30`, `max_h > 10` or `leaf_cap > 50_000`.
pub fn optimize_unknown_n(epsilon: f64, delta: f64) -> UnknownNConfig {
    optimize_unknown_n_with(epsilon, delta, OptimizerOptions::default())
}

/// Optimise the unknown-`N` algorithm over an explicit search space.
///
/// # Panics
/// See [`optimize_unknown_n`].
pub fn optimize_unknown_n_with(epsilon: f64, delta: f64, opts: OptimizerOptions) -> UnknownNConfig {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must lie in (0, 1)");
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0, 1)");
    assert!(
        opts.max_b <= table::MAX_B
            && opts.max_h <= table::MAX_H
            && opts.leaf_cap <= table::LEAF_CAP,
        "optimizer options exceed the schedule table (b ≤ {}, h ≤ {}, leaf_cap ≤ {})",
        table::MAX_B,
        table::MAX_H,
        table::LEAF_CAP
    );
    let mut best: Option<UnknownNConfig> = None;
    for b in 2..=opts.max_b {
        for h in 1..=opts.max_h {
            if !table::within_leaf_cap(b, h, opts.leaf_cap) {
                continue;
            }
            let Some(s) = table::lookup(b, h, opts.leaf_cap) else {
                continue;
            };
            let (alpha, k) = best_alpha(&s, epsilon, delta);
            if !k.is_finite() {
                continue;
            }
            let k = k.ceil().max(1.0) as usize;
            let memory = b * k;
            if best.as_ref().is_none_or(|c| memory < c.memory) {
                best = Some(UnknownNConfig {
                    b,
                    k,
                    h,
                    alpha,
                    epsilon,
                    delta,
                    memory,
                });
            }
        }
    }
    best.expect("no feasible configuration in the search space")
}

/// Optimise for `p` simultaneous quantiles (§4.7): identical algorithm with
/// `δ → δ/p` (union bound over the `p` outputs; the deterministic tree
/// answers any number of quantiles with the same guarantee).
pub fn optimize_multi(epsilon: f64, delta: f64, p: u64) -> UnknownNConfig {
    assert!(p >= 1, "need at least one quantile");
    optimize_unknown_n(epsilon, delta / p as f64)
}

/// Memory bound independent of the number of quantiles (§4.7's
/// pre-computation trick): compute `⌈1/ε⌉` quantiles at guarantee `ε/2`,
/// then answer any `φ` from the pre-computed grid.
pub fn precompute_memory(epsilon: f64, delta: f64) -> UnknownNConfig {
    let p = (1.0 / epsilon).ceil() as u64;
    optimize_multi(epsilon / 2.0, delta, p)
}

// ---------------------------------------------------------------------------
// Known-N baselines (MRL98), for Table 1 and Figure 4.
// ---------------------------------------------------------------------------

/// How a known-`N` plan acquires its input.
#[derive(Clone, Debug, PartialEq)]
pub enum KnownNMode {
    /// Every element enters the tree (no sampling error).
    Deterministic,
    /// A uniform pre-sample of `sample_size` elements feeds the tree.
    Sampled {
        /// Number of uniform samples drawn from the stream.
        sample_size: u64,
        /// Error split between sampling and the tree.
        alpha: f64,
    },
}

/// A memory plan for the known-`N` algorithm of MRL98.
#[derive(Clone, Debug, PartialEq)]
pub struct KnownNPlan {
    /// Number of buffers.
    pub b: usize,
    /// Buffer size.
    pub k: usize,
    /// Total memory in elements.
    pub memory: usize,
    /// Deterministic or sampled front-end.
    pub mode: KnownNMode,
}

/// Exact deterministic tree-error coefficient `g(b, leaves)` (max of
/// `(W + w_max)/2m` over all prefixes of a rate-1 run), memoised — the
/// known-`N` optimizer probes many `(b, leaves)` pairs.
fn deterministic_g_cached(b: usize, leaves: u64) -> f64 {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<(usize, u64), f64>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(&hit) = cache.lock().expect("cache poisoned").get(&(b, leaves)) {
        return hit;
    }
    let g = crate::simulate::simulate_deterministic(b, leaves);
    cache.lock().expect("cache poisoned").insert((b, leaves), g);
    g
}

/// Deterministic known-`N` plan: every element enters the tree.
///
/// Candidates come from two regimes: for trees of up to ~64k leaves the
/// error coefficient is **certified by exact schedule replay**; beyond that
/// the rigorous closed form applies — a tree with `b` buffers that reaches
/// level `ℓ` covers `C(b+ℓ−1, ℓ)` leaves and its error coefficient is at
/// most `(ℓ+1)/2` per `k` (each leaf passes through ≤ ℓ collapses, so
/// `W ≤ m·ℓ` and `w_max ≤ m`).
pub fn optimize_deterministic_known_n(epsilon: f64, n: u64) -> KnownNPlan {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must lie in (0, 1)");
    assert!(n >= 1, "need at least one element");
    // Trivial plan: store everything (error zero). Split across 2 buffers.
    let trivial_k = n.div_ceil(2).max(1);
    let mut best = KnownNPlan {
        b: 2,
        k: usize::try_from(trivial_k).unwrap_or(usize::MAX / 2),
        memory: usize::try_from(trivial_k.saturating_mul(2)).unwrap_or(usize::MAX),
        mode: KnownNMode::Deterministic,
    };
    for b in 2..=50usize {
        // Level 0: no collapses ever; requires n <= b*k with no error
        // constraint.
        {
            let k = n.div_ceil(b as u64);
            let memory = usize::try_from(k.saturating_mul(b as u64)).unwrap_or(usize::MAX);
            if memory < best.memory {
                best = KnownNPlan {
                    b,
                    k: k as usize,
                    memory,
                    mode: KnownNMode::Deterministic,
                };
            }
        }
        // Exact regime: sweep leaf counts geometrically, certify the error
        // coefficient by replay, and fix k from coverage + error.
        if b <= 30 {
            let mut leaves = 2u64;
            while leaves <= 65_536 {
                let g = deterministic_g_cached(b, leaves);
                let k_err = (g / epsilon).ceil() as u64;
                let k_cov = n.div_ceil(leaves);
                let k = k_err.max(k_cov).max(1);
                // Check the chosen k really covers n within `leaves` leaves.
                if n.div_ceil(k) <= leaves {
                    let memory = (b as u64).saturating_mul(k);
                    if memory < best.memory as u64 {
                        best = KnownNPlan {
                            b,
                            k: k as usize,
                            memory: memory as usize,
                            mode: KnownNMode::Deterministic,
                        };
                    }
                }
                leaves = (leaves as f64 * 1.5).ceil() as u64;
            }
        }
        // Closed-form regime for very deep trees.
        for level in 1..=48u32 {
            let max_leaves = binomial(b as u64 + u64::from(level) - 1, u64::from(level));
            // k must cover the leaves and absorb the tree error.
            let k_err = (f64::from(level + 1) / (2.0 * epsilon)).ceil() as u64;
            // Coverage: leaves(k) = ceil(n/k) <= max_leaves  <=>  k >= n/max_leaves.
            let k_cov = n.div_ceil(max_leaves);
            let k = k_err.max(k_cov).max(1);
            let memory = (b as u64).saturating_mul(k);
            if memory < best.memory as u64 {
                best = KnownNPlan {
                    b,
                    k: k as usize,
                    memory: memory as usize,
                    mode: KnownNMode::Deterministic,
                };
            }
        }
    }
    best
}

/// Sampled known-`N` plan: draw a uniform sample of size
/// `s(α) = ⌈ln(2/δ)/(2(1−α)²ε²)⌉` (for uniform blocks `X = s`), feed it to
/// a deterministic tree with guarantee `α·ε`. Memory is the tree's only —
/// the sample streams through.
pub fn optimize_sampled_known_n(epsilon: f64, delta: f64) -> KnownNPlan {
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0, 1)");
    let mut best: Option<KnownNPlan> = None;
    let mut alpha = 0.02;
    while alpha < 1.0 {
        let s = required_x(alpha, epsilon, delta).ceil() as u64;
        let tree = optimize_deterministic_known_n(alpha * epsilon, s);
        let candidate = KnownNPlan {
            b: tree.b,
            k: tree.k,
            memory: tree.memory,
            mode: KnownNMode::Sampled {
                sample_size: s,
                alpha,
            },
        };
        if best.as_ref().is_none_or(|p| candidate.memory < p.memory) {
            best = Some(candidate);
        }
        alpha += 0.02;
    }
    best.expect("alpha grid is nonempty")
}

/// The best known-`N` plan for a stream of exactly `n` elements: the
/// cheaper of the deterministic and sampled variants (the sampled variant
/// only applies when its sample is actually smaller than the stream).
pub fn optimize_known_n(epsilon: f64, delta: f64, n: u64) -> KnownNPlan {
    let det = optimize_deterministic_known_n(epsilon, n);
    let sam = optimize_sampled_known_n(epsilon, delta);
    let sample_applicable = match &sam.mode {
        KnownNMode::Sampled { sample_size, .. } => *sample_size < n,
        KnownNMode::Deterministic => false,
    };
    if sample_applicable && sam.memory < det.memory {
        sam
    } else {
        det
    }
}

/// Memory (elements) of the best known-`N` plan — the Figure 4 curve.
pub fn known_n_memory(epsilon: f64, delta: f64, n: u64) -> usize {
    optimize_known_n(epsilon, delta, n).memory
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{simulate_schedule, SimOptions};

    const FAST: OptimizerOptions = OptimizerOptions {
        max_b: 12,
        max_h: 6,
        leaf_cap: 20_000,
    };

    #[test]
    fn unknown_n_config_satisfies_all_constraints() {
        let c = optimize_unknown_n_with(0.05, 0.01, FAST);
        let s = simulate_schedule(
            c.b,
            c.h,
            SimOptions {
                leaf_cap: 20_000,
                ..SimOptions::default()
            },
        )
        .unwrap();
        let k = c.k as f64;
        assert!(k >= s.g_pre / c.epsilon - 1.0);
        assert!(k >= s.g_post / (c.alpha * c.epsilon) - 1.0);
        assert!(k * s.x_min >= required_x(c.alpha, c.epsilon, c.delta) - 1.0);
        assert_eq!(c.memory, c.b * c.k);
    }

    #[test]
    fn memory_decreases_with_looser_epsilon() {
        let tight = optimize_unknown_n_with(0.01, 0.001, FAST);
        let loose = optimize_unknown_n_with(0.05, 0.001, FAST);
        assert!(loose.memory < tight.memory);
    }

    #[test]
    fn memory_decreases_with_looser_delta() {
        let tight = optimize_unknown_n_with(0.02, 1e-6, FAST);
        let loose = optimize_unknown_n_with(0.02, 1e-2, FAST);
        assert!(loose.memory <= tight.memory);
    }

    #[test]
    fn multi_quantile_memory_grows_slowly() {
        // Table 2's shape: delta -> delta/p costs O(log log p).
        let p1 = optimize_multi(0.02, 0.001, 1);
        let p100 = optimize_multi(0.02, 0.001, 100);
        assert!(p100.memory >= p1.memory);
        assert!(
            (p100.memory as f64) < 1.6 * p1.memory as f64,
            "p=100 memory {} vs p=1 {} grew too fast",
            p100.memory,
            p1.memory
        );
    }

    #[test]
    fn precompute_bound_exceeds_small_p() {
        // The precompute trick halves epsilon, which dominates: it should
        // cost noticeably more than a handful of quantiles.
        let few = optimize_multi(0.02, 0.001, 10);
        let pre = precompute_memory(0.02, 0.001);
        assert!(pre.memory > few.memory);
    }

    #[test]
    fn deterministic_known_n_small_stream_is_exact_storage() {
        let p = optimize_deterministic_known_n(0.01, 10);
        assert!(p.memory <= 12, "memory {} for 10 elements", p.memory);
    }

    #[test]
    fn deterministic_known_n_grows_polylog() {
        let m6 = optimize_deterministic_known_n(0.01, 1_000_000).memory;
        let m9 = optimize_deterministic_known_n(0.01, 1_000_000_000).memory;
        assert!(m9 > m6);
        // log^2 growth, nowhere near linear.
        assert!((m9 as f64) < 3.0 * m6 as f64, "m6={m6} m9={m9}");
    }

    #[test]
    fn sampled_known_n_is_constant_in_n() {
        let s = optimize_sampled_known_n(0.01, 1e-4);
        match s.mode {
            KnownNMode::Sampled { sample_size, alpha } => {
                assert!(sample_size > 0);
                assert!(alpha > 0.0 && alpha < 1.0);
            }
            KnownNMode::Deterministic => panic!("expected sampled mode"),
        }
    }

    #[test]
    fn known_n_curve_is_monotone_then_flat() {
        // Figure 4's known-N shape.
        let eps = 0.01;
        let delta = 1e-4;
        let mems: Vec<usize> = (4..=12)
            .map(|log_n| known_n_memory(eps, delta, 10u64.pow(log_n)))
            .collect();
        for w in mems.windows(2) {
            assert!(w[1] >= w[0] || w[1] == *mems.last().unwrap());
        }
        // Flat tail: once sampling wins, memory stops growing.
        assert_eq!(mems[mems.len() - 1], mems[mems.len() - 2]);
    }

    #[test]
    fn unknown_n_within_small_factor_of_known_n() {
        // §4.6: "the new algorithm requires no more than twice the memory
        // of the old one". Allow a bit of slack: our constants come from a
        // certified (not hand-tuned) analysis on both sides.
        let u = optimize_unknown_n_with(0.05, 0.01, FAST);
        let k = known_n_memory(0.05, 0.01, u64::MAX);
        let ratio = u.memory as f64 / k as f64;
        assert!(
            ratio < 3.0,
            "unknown-N {} vs known-N {k}: ratio {ratio:.2}",
            u.memory
        );
    }
}
