//! **§6 validation**: parallel runs at P ∈ {1, 2, 4, 8} workers — accuracy
//! of the merged result and the per-worker / coordinator memory bounds.

use mrl_analysis::optimizer::OptimizerOptions;
use mrl_bench::{emit_json, TextTable};
use mrl_datagen::{ArrivalOrder, ValueDistribution, Workload};
use mrl_exact::rank_error;
use mrl_parallel::parallel_quantiles;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    workers: usize,
    total_n: u64,
    max_err: f64,
    worker_memory: usize,
    coordinator_memory: usize,
}

fn main() {
    let opts = OptimizerOptions::default();
    let (eps, delta) = (0.02, 0.001);
    let n_total = if cfg!(debug_assertions) {
        400_000u64
    } else {
        2_000_000
    };
    let phis = [0.1, 0.5, 0.9];

    println!(
        "Parallel evaluation (section 6): epsilon = {eps}, delta = {delta}, total N = {n_total}\n"
    );
    let data = Workload {
        values: ValueDistribution::Exponential { scale: 1e5 },
        order: ArrivalOrder::Random,
        n: n_total,
        seed: 99,
    }
    .generate();

    let mut table = TextTable::new([
        "workers",
        "total N",
        "max obs. err",
        "worker mem",
        "coord mem",
    ]);
    for &p in &[1usize, 2, 4, 8] {
        // Slice the stream across workers (value-range independent split).
        let inputs: Vec<Vec<u64>> = (0..p)
            .map(|w| data.iter().skip(w).step_by(p).copied().collect())
            .collect();
        let out =
            parallel_quantiles(inputs, eps, delta, &phis, opts, 123).expect("nonempty inputs");
        let mut max_err = 0.0f64;
        for (q, phi) in out.quantiles.iter().zip(phis) {
            max_err = max_err.max(rank_error(&data, q, phi));
        }
        table.row([
            format!("{p}"),
            format!("{}", out.total_n),
            format!("{max_err:.5}"),
            format!("{}", out.worker_memory_elements),
            format!("{}", out.coordinator_memory_elements),
        ]);
        emit_json(&Row {
            workers: p,
            total_n: out.total_n,
            max_err,
            worker_memory: out.worker_memory_elements,
            coordinator_memory: out.coordinator_memory_elements,
        });
    }
    table.print();
    println!("\nShape checks: error stays within ~epsilon at every P (the paper's");
    println!("+h' height slack covers the extra coordinator collapses); memory per");
    println!("node is the single-stream bound — communication is one shipment per worker.");
}
