//! Extreme quantiles of a sales table (paper §1.1 and §7).
//!
//! "Extreme values characterize outliers and represent skew in the data.
//! For instance, the 95th quantile in a quarterly sales table for all
//! franchises of a company is useful to compute." — and when the quantile
//! is extreme, the §7 estimator needs only a tiny heap instead of the
//! general algorithm's buffers.
//!
//! ```sh
//! cargo run --release --example extreme_tail
//! ```

use mrl::datagen::sales_stream;
use mrl::sketch::{ExtremeValue, Tail};

fn main() {
    let n: u64 = if cfg!(debug_assertions) {
        500_000
    } else {
        5_000_000
    };
    // The 99th percentile of sale amounts, rank within 0.2% of exact,
    // 99.99% of the time.
    let (phi, eps, delta) = (0.99, 0.002, 1e-4);

    let mut est = ExtremeValue::<u64>::known_n(phi, eps, delta, n, Tail::High, 11);
    println!(
        "Estimating the p99 sale amount over {n} rows: sample s = {}, heap k = {}",
        est.sample_size(),
        est.k()
    );

    let mut exact: Vec<u64> = Vec::with_capacity(n as usize);
    for sale in sales_stream(2_000, (50_00f64).ln(), 1.2, 77).take(n as usize) {
        est.insert(sale.amount_cents);
        exact.push(sale.amount_cents);
    }

    let answer = est.query().expect("stream is nonempty");
    exact.sort_unstable();
    let true_p99 = exact[((phi * n as f64).ceil() as usize).clamp(1, exact.len()) - 1];
    let rank = exact.partition_point(|&v| v <= answer) as f64;
    println!("\nestimated p99: ${:.2}", answer as f64 / 100.0);
    println!("exact     p99: ${:.2}", true_p99 as f64 / 100.0);
    println!(
        "rank of the estimate: {:.4} (target {phi}, tolerance +/- {eps})",
        rank / n as f64
    );
    println!(
        "memory used: {} elements — the whole estimator fits in a cache line count\n",
        est.memory_elements()
    );

    // Contrast with the general algorithm's memory for the same guarantee.
    let general = mrl::analysis::optimizer::optimize_unknown_n(eps, delta);
    println!(
        "The general unknown-N algorithm would keep {} elements for (eps={eps}, delta={delta}) — \
         {}x more than the extreme-value heap.",
        general.memory,
        general.memory as u64 / est.k().max(1)
    );
}
