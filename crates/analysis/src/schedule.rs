//! Dynamic buffer allocation (§5).
//!
//! The base algorithm allocates all `b·k` memory up front, which is
//! "outrageous" for tiny inputs. §5 instead allocates buffers one at a time
//! according to a *buffer allocation schedule* `L₁ ≤ L₂ ≤ … ≤ L_b`: buffer
//! `i` is allocated once `Lᵢ` leaves exist. A schedule is **valid** if the
//! ε/δ guarantee holds at *every* prefix of the stream — which we certify
//! with the exact lazy-allocation replay of [`crate::simulate`].
//!
//! The paper's search procedure (and ours): the user supplies upper limits
//! on memory at various stream lengths; try increasingly large `k`, derive
//! the schedule each limit set implies, and accept the first valid one.

use crate::optimizer::{optimize_unknown_n_with, OptimizerOptions};
use crate::simulate::{simulate_schedule_with_allocation, ScheduleScalars, SimOptions};

/// A user-specified memory ceiling: while the stream is no longer than `n`
/// elements, the algorithm may hold at most `max_memory` elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryLimit {
    /// Stream-length threshold.
    pub n: u64,
    /// Memory ceiling (elements) applying up to `n`.
    pub max_memory: usize,
}

/// A validated lazy-allocation plan.
#[derive(Clone, Debug)]
pub struct AllocationPlan {
    /// Number of buffers eventually allocated.
    pub b: usize,
    /// Buffer size.
    pub k: usize,
    /// Sampling-onset height `h` (chosen large enough that onset lands
    /// after allocation completes, per §5's "use Eq 3 to limit h").
    pub h: u32,
    /// Certified error split.
    pub alpha: f64,
    /// `thresholds[i]` = leaves required before buffer `i` is allocated.
    pub thresholds: Vec<u64>,
    /// Replay scalars of the validated schedule.
    pub scalars: ScheduleScalars,
}

impl AllocationPlan {
    /// Memory-versus-stream-length profile: `(n, memory_elements)` at each
    /// allocation event (Figure 5's "valid schedule" curve). Stream length
    /// is `leaves·k` (allocation completes before sampling onset, where
    /// every leaf covers exactly `k` elements).
    pub fn memory_profile(&self) -> Vec<(u64, usize)> {
        self.scalars
            .alloc_profile
            .iter()
            .map(|&(leaves, slots)| (leaves * self.k as u64, slots * self.k))
            .collect()
    }

    /// Final memory `b·k`.
    pub fn memory(&self) -> usize {
        self.b * self.k
    }
}

/// Check whether `(b, k, h)` with the given allocation thresholds satisfies
/// the ε/δ guarantee at every prefix. Returns the certified `α` on success.
pub fn validate_schedule(
    b: usize,
    k: usize,
    h: u32,
    thresholds: &[u64],
    epsilon: f64,
    delta: f64,
) -> Option<(f64, ScheduleScalars)> {
    validate_schedule_with(b, k, h, thresholds, epsilon, delta, SimOptions::default())
}

/// As [`validate_schedule`] with explicit replay options.
pub fn validate_schedule_with(
    b: usize,
    k: usize,
    h: u32,
    thresholds: &[u64],
    epsilon: f64,
    delta: f64,
    sim: SimOptions,
) -> Option<(f64, ScheduleScalars)> {
    let scalars = simulate_schedule_with_allocation(b, h, thresholds.to_vec(), sim)?;
    // Allocation must complete before sampling begins (§5 assumes
    // L_i < L_d for all i) so the leaves→N mapping stays exact.
    if thresholds.last().copied().unwrap_or(0) > scalars.l_d {
        return None;
    }
    let alpha = feasible_alpha(&scalars, k, epsilon, delta)?;
    Some((alpha, scalars))
}

/// The α certified by the three constraints for a fixed `k`, if any:
/// `α ≥ g_post/(ε·k)` and `(1−α) ≥ sqrt(ln(2/δ)/(2ε²·k·x_min))`, plus
/// `k ≥ g_pre/ε`.
fn feasible_alpha(s: &ScheduleScalars, k: usize, epsilon: f64, delta: f64) -> Option<f64> {
    let k = k as f64;
    if k < s.g_pre / epsilon {
        return None;
    }
    let alpha_lo = s.g_post / (epsilon * k);
    // required_x(alpha) = ln(2/δ)/(2(1−α)²ε²) <= k·x_min
    //   ⇔ (1−α)² >= ln(2/δ)/(2ε²·k·x_min)
    let rhs = (2.0 / delta).ln() / (2.0 * epsilon * epsilon * k * s.x_min);
    if rhs >= 1.0 {
        return None;
    }
    let alpha_hi = 1.0 - rhs.sqrt();
    if alpha_lo <= alpha_hi && alpha_lo < 1.0 && alpha_hi > 0.0 {
        // Split the slack evenly.
        Some(0.5 * (alpha_lo.max(0.0) + alpha_hi))
    } else {
        None
    }
}

/// Derive the allocation thresholds a limit set implies for buffer size `k`:
/// buffer `i` (0-based) may be allocated at the smallest leaf count `L`
/// such that `(i+1)·k` is within the ceiling applying at `N = L·k`.
fn thresholds_for(limits: &[MemoryLimit], b: usize, k: usize) -> Option<Vec<u64>> {
    let mut thresholds = Vec::with_capacity(b);
    for i in 0..b {
        let need = (i + 1) * k;
        // Smallest N at which `need` is allowed: past every limit whose
        // ceiling is below `need`.
        let mut min_n = 0u64;
        for lim in limits {
            if lim.max_memory < need {
                min_n = min_n.max(lim.n + 1);
            }
        }
        thresholds.push(min_n.div_ceil(k as u64));
    }
    if thresholds.windows(2).all(|w| w[0] <= w[1]) && thresholds[0] == 0 {
        Some(thresholds)
    } else {
        None
    }
}

/// Search for a valid lazy-allocation plan meeting the user's memory
/// ceilings (§5's trial-and-error loop, automated). `limits` must be sorted
/// by `n`. Returns `None` if no plan is found within the search space —
/// the limits are then too tight for this (ε, δ).
pub fn find_schedule(
    epsilon: f64,
    delta: f64,
    limits: &[MemoryLimit],
    opts: OptimizerOptions,
) -> Option<AllocationPlan> {
    assert!(
        limits.windows(2).all(|w| w[0].n < w[1].n),
        "limits must be sorted by stream length"
    );
    let base = optimize_unknown_n_with(epsilon, delta, opts);
    let search_sim = SimOptions {
        leaf_cap: opts.leaf_cap,
        ..SimOptions::default()
    };
    // Larger k lets the algorithm satisfy early ceilings with fewer
    // buffers; sweep k geometrically from the unconstrained optimum.
    let mut k = base.k;
    for _round in 0..16 {
        let final_ceiling = limits.last().map_or(usize::MAX, |l| l.max_memory);
        let b_max = (final_ceiling / k).min(opts.max_b).max(2);
        // More buffers never hurt accuracy, so probe a few b values from
        // the top instead of the whole range.
        let b_candidates = [b_max, (b_max * 3) / 4, b_max / 2]
            .into_iter()
            .filter(|&b| b >= 2)
            .collect::<std::collections::BTreeSet<_>>();
        for b in b_candidates.into_iter().rev() {
            let Some(thresholds) = thresholds_for(limits, b, k) else {
                continue;
            };
            // The tree must be allowed to grow past the height reached when
            // the last buffer unlocks (§5: "use Eq 3 to limit h"); Eq 3
            // bounds h by ~2εk.
            let h_cap = ((2.2 * epsilon * k as f64).ceil() as u32).clamp(1, 40);
            for h in 1..=h_cap {
                if let Some((alpha, scalars)) =
                    validate_schedule_with(b, k, h, &thresholds, epsilon, delta, search_sim)
                {
                    // Verify the replayed profile really honours the
                    // ceilings (forced allocations could violate them).
                    let plan = AllocationPlan {
                        b,
                        k,
                        h,
                        alpha,
                        thresholds: thresholds.clone(),
                        scalars,
                    };
                    if profile_within_limits(&plan, limits) {
                        return Some(plan);
                    }
                }
            }
        }
        k = (k as f64 * 1.3).ceil() as usize;
    }
    None
}

fn profile_within_limits(plan: &AllocationPlan, limits: &[MemoryLimit]) -> bool {
    for &(n_at, mem) in &plan.memory_profile() {
        // The ceiling applying at n_at.
        let ceiling = limits
            .iter()
            .filter(|l| l.n >= n_at)
            .map(|l| l.max_memory)
            .min()
            .unwrap_or(usize::MAX);
        if mem > ceiling {
            return false;
        }
    }
    true
}

/// Certify a hand-picked upfront configuration `(b, k, h)` (all buffers
/// allocated immediately, height-triggered onset — the §3 algorithm).
/// Returns the feasible α and the replay scalars.
pub fn certify_upfront(
    b: usize,
    k: usize,
    h: u32,
    epsilon: f64,
    delta: f64,
) -> Option<(f64, ScheduleScalars)> {
    let scalars = crate::simulate::simulate_schedule(b, h, SimOptions::default())?;
    let alpha = feasible_alpha(&scalars, k, epsilon, delta)?;
    Some((alpha, scalars))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAST: OptimizerOptions = OptimizerOptions {
        max_b: 10,
        max_h: 5,
        leaf_cap: 20_000,
    };

    #[test]
    fn upfront_schedule_of_optimizer_config_certifies() {
        let c = optimize_unknown_n_with(0.05, 0.01, FAST);
        let cert = certify_upfront(c.b, c.k, c.h, 0.05, 0.01);
        assert!(cert.is_some(), "optimizer output must certify");
    }

    #[test]
    fn too_small_k_fails_certification() {
        let c = optimize_unknown_n_with(0.05, 0.01, FAST);
        assert!(certify_upfront(c.b, c.k / 4, c.h, 0.05, 0.01).is_none());
    }

    #[test]
    fn thresholds_respect_limits() {
        let limits = [
            MemoryLimit {
                n: 1_000,
                max_memory: 100,
            },
            MemoryLimit {
                n: 100_000,
                max_memory: 500,
            },
        ];
        let t = thresholds_for(&limits, 5, 100).unwrap();
        assert_eq!(t[0], 0);
        // Second buffer (200 elements) not allowed until N > 1000.
        assert!(t[1] * 100 > 1_000);
    }

    #[test]
    fn find_schedule_meets_generous_limits() {
        let base = optimize_unknown_n_with(0.05, 0.01, FAST);
        // Generous: full memory allowed from very early on.
        let limits = [MemoryLimit {
            n: 10,
            max_memory: base.memory * 2,
        }];
        let plan = find_schedule(0.05, 0.01, &limits, FAST).expect("generous limits feasible");
        assert!(plan.memory() <= base.memory * 2);
        assert!(profile_within_limits(&plan, &limits));
    }

    #[test]
    fn find_schedule_with_staged_limits_grows_memory() {
        let base = optimize_unknown_n_with(0.05, 0.01, FAST);
        let m = base.memory;
        let limits = [
            MemoryLimit {
                n: 2_000,
                max_memory: m / 2,
            },
            MemoryLimit {
                n: 1_000_000_000,
                max_memory: 4 * m,
            },
        ];
        if let Some(plan) = find_schedule(0.05, 0.01, &limits, FAST) {
            let profile = plan.memory_profile();
            assert!(!profile.is_empty());
            assert!(profile_within_limits(&plan, &limits));
            // Early memory below the early ceiling.
            let early_mem = profile
                .iter()
                .filter(|&&(n, _)| n <= 2_000)
                .map(|&(_, mem)| mem)
                .max()
                .unwrap_or(0);
            assert!(early_mem <= m / 2);
        }
        // (If infeasible, find_schedule returning None is itself the
        // paper's documented outcome: "There may or may not be a valid
        // buffer schedule that meets these upper limits.")
    }

    #[test]
    fn impossible_limits_return_none() {
        let limits = [MemoryLimit {
            n: u64::MAX / 2,
            max_memory: 3,
        }];
        assert!(find_schedule(0.05, 0.01, &limits, FAST).is_none());
    }
}
