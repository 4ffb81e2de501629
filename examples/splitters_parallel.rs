//! Splitters for value-range data partitioning, computed in parallel
//! (paper §1.1: "Splitters are used in parallel database systems … for
//! value range data partitioning. They are also used in distributed
//! sorting to assign data elements to processors", and §6's parallel
//! algorithm).
//!
//! Eight workers each scan their own partition of a skewed dataset; the
//! coordinator merges their buffers and emits splitters that cut the
//! *global* value distribution into near-equal shares.
//!
//! ```sh
//! cargo run --release --example splitters_parallel
//! ```

use mrl::datagen::{ArrivalOrder, ValueDistribution, Workload};
use mrl::parallel::parallel_quantiles;
use mrl::sketch::OptimizerOptions;

fn main() {
    let workers = 8usize;
    let target_parts = 16usize; // distribute onto 16 downstream processors
    let per_worker = if cfg!(debug_assertions) {
        100_000u64
    } else {
        1_000_000
    };

    // Each worker owns a differently-seeded shard of an exponential
    // (right-skewed) distribution — the hard case for naive equal-width
    // partitioning.
    let inputs: Vec<Vec<u64>> = (0..workers as u64)
        .map(|w| {
            Workload {
                values: ValueDistribution::Exponential { scale: 10_000.0 },
                order: ArrivalOrder::Random,
                n: per_worker,
                seed: 1000 + w,
            }
            .generate()
        })
        .collect();
    let mut all: Vec<u64> = inputs.iter().flatten().copied().collect();

    let phis: Vec<f64> = (1..target_parts)
        .map(|i| i as f64 / target_parts as f64)
        .collect();
    let out = parallel_quantiles(inputs, 0.005, 1e-4, &phis, OptimizerOptions::default(), 7)
        .expect("inputs are nonempty");

    println!(
        "{} workers x {} rows; splitters for {} partitions (eps = 0.5%, delta = 1e-4):\n",
        out.workers, per_worker, target_parts
    );
    println!(
        "per-worker memory: {} elements; coordinator: {} elements\n",
        out.worker_memory_elements, out.coordinator_memory_elements
    );

    // Score the split: how even are the partition shares really?
    all.sort_unstable();
    let n = all.len();
    let mut prev = 0usize;
    let mut worst_dev = 0.0f64;
    println!("part  splitter   share of rows");
    for (i, s) in out.quantiles.iter().enumerate() {
        let idx = all.partition_point(|v| v <= s);
        let share = (idx - prev) as f64 / n as f64;
        worst_dev = worst_dev.max((share - 1.0 / target_parts as f64).abs());
        println!("{:>4}  {:>8}   {:>6.3}%", i + 1, s, share * 100.0);
        prev = idx;
    }
    let share = (n - prev) as f64 / n as f64;
    println!(
        "{:>4}  {:>8}   {:>6.3}%",
        target_parts,
        "(max)",
        share * 100.0
    );
    worst_dev = worst_dev.max((share - 1.0 / target_parts as f64).abs());
    println!(
        "\nworst share deviation from the ideal {:.3}%: {:.3} percentage points",
        100.0 / target_parts as f64,
        worst_dev * 100.0
    );
}
