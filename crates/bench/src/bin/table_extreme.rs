//! **§7 (extreme values)**: Stein's-lemma sample sizes `s` and retained
//! heap sizes `k = ⌈φ·s⌉` for extreme quantiles, against the memory the
//! general unknown-`N` algorithm would need — plus an empirical check that
//! the estimator meets its (ε, δ) guarantee.
//!
//! Shape to reproduce: "random sampling is quantifiably better when
//! estimating extreme values than is the case with the median" — the heap
//! `k` is orders of magnitude below the general algorithm's `b·k` when φ
//! is small.

use mrl_analysis::kl::stein_sample_size;
use mrl_analysis::optimizer::optimize_unknown_n;
use mrl_bench::{emit_json, TextTable};
use mrl_core::{ExtremeValue, Tail};
use mrl_datagen::{ArrivalOrder, ValueDistribution, Workload};
use mrl_exact::rank_error;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    phi: f64,
    epsilon: f64,
    sample_s: u64,
    heap_k: u64,
    general_memory: usize,
    observed_max_error: f64,
    observed_failures: usize,
    trials: usize,
}

fn main() {
    let delta = 0.0001f64;
    let cases = [
        (0.001, 0.0005),
        (0.005, 0.001),
        (0.01, 0.002),
        (0.01, 0.005),
        (0.05, 0.01),
    ];
    let n = 400_000u64;
    let trials = 40u64;

    println!("Extreme-value estimation (section 7), delta = {delta}");
    println!("(validation: {trials} seeded trials on a uniform stream of N = {n})\n");
    let mut table = TextTable::new([
        "phi",
        "epsilon",
        "sample s",
        "heap k",
        "general alg.",
        "max err",
        "fails",
    ]);

    let workload = Workload {
        values: ValueDistribution::Uniform { range: 1 << 30 },
        order: ArrivalOrder::Random,
        n,
        seed: 2024,
    };
    let data = workload.generate();

    for &(phi, eps) in &cases {
        let (s, k) = stein_sample_size(phi, eps, delta);
        let general = optimize_unknown_n(eps, delta).memory;

        let mut max_err = 0.0f64;
        let mut failures = 0usize;
        for seed in 0..trials {
            let mut est = ExtremeValue::<u64>::known_n(phi, eps, delta, n, Tail::Low, seed);
            est.extend(data.iter().copied());
            if let Some(ans) = est.query() {
                let err = rank_error(&data, &ans, phi);
                max_err = max_err.max(err);
                if err > eps {
                    failures += 1;
                }
            } else {
                failures += 1;
            }
        }

        table.row([
            format!("{phi}"),
            format!("{eps}"),
            format!("{s}"),
            format!("{k}"),
            format!("{general}"),
            format!("{max_err:.5}"),
            format!("{failures}/{trials}"),
        ]);
        emit_json(&Row {
            phi,
            epsilon: eps,
            sample_s: s,
            heap_k: k,
            general_memory: general,
            observed_max_error: max_err,
            observed_failures: failures,
            trials: trials as usize,
        });
    }
    table.print();
    println!("\nShape checks: heap k << general-algorithm memory for small phi;");
    println!("zero (or ~delta-rate) failures across trials.");

    // The paper's statistical fact: extreme quantiles need smaller samples
    // than the median at the same (epsilon, delta).
    let (s_extreme, _) = stein_sample_size(0.01, 0.005, delta);
    let (s_median, _) = stein_sample_size(0.5, 0.005, delta);
    println!(
        "\nSample size at (eps=0.005, delta={delta}): phi=0.01 needs s={s_extreme}, \
         phi=0.5 needs s={s_median} ({}x more for the median).",
        s_median / s_extreme.max(1)
    );
}
