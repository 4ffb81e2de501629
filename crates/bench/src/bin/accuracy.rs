//! **Accuracy validation** of the headline guarantee: observed rank error
//! vs ε, and failure rate vs δ, across value distributions and arrival
//! orders (the paper's §1.3 data-independence requirement), at several
//! stream lengths.
//!
//! Also runs the reservoir-sampling baseline (§2.2) at the same memory to
//! show what the non-uniform scheme buys.

use mrl_bench::eval::{failure_rate, observed_errors};
use mrl_bench::{emit_json, TextTable};
use mrl_datagen::{ArrivalOrder, ValueDistribution, Workload};
use mrl_exact::rank_error;
use mrl_sampling::{rng_from_seed, Reservoir};

fn main() {
    let (eps, delta) = (0.01, 0.001);
    let config = mrl_analysis::optimizer::optimize_unknown_n(eps, delta);
    let phis = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99];
    let trials = if cfg!(debug_assertions) { 3u64 } else { 10 };

    println!(
        "Accuracy validation: epsilon = {eps}, delta = {delta}, config b={} k={} h={} (bk = {})",
        config.b, config.k, config.h, config.memory
    );
    println!("{} quantiles x {trials} seeds per workload\n", phis.len());

    let distributions = [
        ValueDistribution::Uniform { range: 1 << 30 },
        ValueDistribution::Normal {
            mean: 1e6,
            sigma: 2e5,
        },
        ValueDistribution::Zipf { n: 100_000, s: 1.1 },
        ValueDistribution::Exponential { scale: 1e5 },
        ValueDistribution::FewDistinct { distinct: 17 },
    ];
    let orders = [
        ArrivalOrder::Random,
        ArrivalOrder::SortedAscending,
        ArrivalOrder::SortedDescending,
        ArrivalOrder::OrganPipe,
    ];
    let n = if cfg!(debug_assertions) {
        200_000
    } else {
        1_000_000
    };

    let mut table = TextTable::new(["workload", "trials", "mean err", "max err", "fail rate"]);
    let mut worst: f64 = 0.0;
    for dist in &distributions {
        for order in &orders {
            let workload = Workload {
                values: *dist,
                order: *order,
                n,
                seed: 7,
            };
            let ts = observed_errors(&workload, &config, &phis, 0..trials);
            let summary = failure_rate(&ts, eps);
            worst = worst.max(summary.max_error);
            table.row([
                summary.workload.clone(),
                format!("{}", summary.trials),
                format!("{:.5}", summary.mean_error),
                format!("{:.5}", summary.max_error),
                format!("{:.3}", summary.failure_rate),
            ]);
            emit_json(&summary);
        }
    }
    table.print();
    println!(
        "\nWorst observed error anywhere: {worst:.5} (guarantee: {eps} with prob {})",
        1.0 - delta
    );

    // Reservoir baseline at the *same memory budget*.
    println!(
        "\nReservoir-sampling baseline (section 2.2) at the same memory ({} elements):",
        config.memory
    );
    let workload = Workload {
        values: ValueDistribution::Uniform { range: 1 << 30 },
        order: ArrivalOrder::Random,
        n,
        seed: 7,
    };
    let data = workload.generate();
    let mut table = TextTable::new(["estimator", "max err over phis/seeds"]);
    let mut res_max = 0.0f64;
    for seed in 0..trials {
        let mut rng = rng_from_seed(seed);
        let mut res = Reservoir::new(config.memory);
        for &v in &data {
            res.offer(v, &mut rng);
        }
        for &phi in &phis {
            let ans = res.quantile(phi).expect("nonempty");
            res_max = res_max.max(rank_error(&data, &ans, phi));
        }
    }
    let mut mrl_max = 0.0f64;
    let ts = observed_errors(&workload, &config, &phis, 0..trials);
    for t in &ts {
        mrl_max = mrl_max.max(t.error);
    }
    table.row(["MRL99 unknown-N".to_string(), format!("{mrl_max:.5}")]);
    table.row([
        "reservoir (same memory)".to_string(),
        format!("{res_max:.5}"),
    ]);
    table.print();
    println!("\nShape check: at equal memory the reservoir's guarantee is the weaker");
    println!("(its epsilon scales as 1/sqrt(memory); MRL99's roughly as 1/memory).");
}
