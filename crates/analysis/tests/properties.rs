//! Property tests on the analysis layer: every optimizer output must
//! certify, the replay must be deterministic and scale-free, and the
//! bounds must respect their analytic monotonicities.

use proptest::prelude::*;

use mrl_analysis::bounds::{hoeffding_tail, required_x, sampling_failure};
use mrl_analysis::kl::{kl_divergence_bits, stein_failure_bound, stein_sample_size};
use mrl_analysis::optimizer::{optimize_unknown_n_with, OptimizerOptions};
use mrl_analysis::schedule::certify_upfront;
use mrl_analysis::simulate::{simulate_schedule, SimOptions};

fn small_opts() -> OptimizerOptions {
    OptimizerOptions {
        max_b: 8,
        max_h: 4,
        leaf_cap: 5_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn optimizer_output_always_certifies(
        eps_milli in 20u32..200,   // epsilon in [0.02, 0.2]
        delta_exp in 1u32..5,      // delta in {1e-1 .. 1e-4}
    ) {
        let eps = f64::from(eps_milli) / 1000.0;
        let delta = 10f64.powi(-(delta_exp as i32));
        let cfg = optimize_unknown_n_with(eps, delta, small_opts());
        prop_assert!(
            certify_upfront(cfg.b, cfg.k, cfg.h, eps, delta).is_some(),
            "optimizer output (b={}, k={}, h={}) failed certification",
            cfg.b, cfg.k, cfg.h
        );
        // And k is minimal up to rounding: k/2 must fail.
        if cfg.k >= 8 {
            prop_assert!(
                certify_upfront(cfg.b, cfg.k / 2, cfg.h, eps, delta).is_none(),
                "half of the chosen k unexpectedly certifies"
            );
        }
    }

    #[test]
    fn replay_is_deterministic(b in 2usize..7, h in 1u32..4) {
        let a = simulate_schedule(b, h, SimOptions::default());
        let c = simulate_schedule(b, h, SimOptions::default());
        prop_assert_eq!(a, c);
    }

    #[test]
    fn replay_scalars_are_sane(b in 2usize..7, h in 1u32..4) {
        let s = simulate_schedule(b, h, SimOptions::default()).expect("small combos certify");
        prop_assert!(s.g_pre > 0.0 && s.g_pre.is_finite());
        prop_assert!(s.g_post >= s.g_pre * 0.0); // finite, non-negative
        prop_assert!(s.g_post.is_finite());
        prop_assert!(s.x_min > 0.0 && s.x_min.is_finite());
        prop_assert!(s.l_d >= b as u64);
        prop_assert!(s.l_s >= 1);
    }

    #[test]
    fn hoeffding_monotone_in_lambda(s2 in 1.0f64..1e9, l1 in 0.0f64..1e4, l2 in 0.0f64..1e4) {
        let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        prop_assert!(hoeffding_tail(hi, s2) <= hoeffding_tail(lo, s2) + 1e-15);
    }

    #[test]
    fn required_x_matches_failure_inversion(
        alpha_pct in 5u32..95,
        eps_milli in 5u32..300,
        delta_exp in 1u32..6,
    ) {
        let alpha = f64::from(alpha_pct) / 100.0;
        let eps = f64::from(eps_milli) / 1000.0;
        let delta = 10f64.powi(-(delta_exp as i32));
        let x = required_x(alpha, eps, delta);
        let p = sampling_failure(alpha, eps, x);
        prop_assert!((p - delta).abs() <= delta * 1e-6);
    }

    #[test]
    fn kl_nonnegative_and_zero_only_at_equality(
        p_pct in 1u32..99,
        q_pct in 1u32..99,
    ) {
        let p = f64::from(p_pct) / 100.0;
        let q = f64::from(q_pct) / 100.0;
        let d = kl_divergence_bits(p, q);
        prop_assert!(d >= 0.0);
        if p_pct == q_pct {
            prop_assert!(d == 0.0);
        } else {
            prop_assert!(d > 0.0);
        }
    }

    #[test]
    fn stein_sample_size_is_monotone_in_delta(
        phi_milli in 2u32..100,
    ) {
        let phi = f64::from(phi_milli) / 1000.0;
        let eps = phi / 2.0;
        let (s_loose, _) = stein_sample_size(phi, eps, 1e-2);
        let (s_tight, _) = stein_sample_size(phi, eps, 1e-6);
        prop_assert!(s_tight >= s_loose);
        // And both really meet their budgets.
        prop_assert!(stein_failure_bound(phi, eps, s_loose) <= 1e-2);
        prop_assert!(stein_failure_bound(phi, eps, s_tight) <= 1e-6);
    }

    #[test]
    fn memory_never_increases_when_loosening_epsilon(
        e1 in 20u32..100,
        bump in 10u32..100,
    ) {
        let tight = f64::from(e1) / 1000.0;
        let loose = f64::from(e1 + bump) / 1000.0;
        let m_tight = optimize_unknown_n_with(tight, 1e-3, small_opts()).memory;
        let m_loose = optimize_unknown_n_with(loose, 1e-3, small_opts()).memory;
        prop_assert!(m_loose <= m_tight, "loosening eps {tight}->{loose} grew memory {m_tight}->{m_loose}");
    }
}
