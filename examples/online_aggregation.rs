//! Online aggregation (paper §1.5, §3.7 and [Hel97]): the `Output`
//! operation "does not destroy or modify the state … it can be invoked as
//! many times as required", so a user interface can display running
//! quantile estimates — with error bars — while the scan is still going.
//!
//! ```sh
//! cargo run --release --example online_aggregation
//! ```

use mrl::datagen::{ValueDistribution, WorkloadStream};
use mrl::sketch::UnknownN;

fn main() {
    let (epsilon, delta) = (0.01, 1e-3);
    let mut sketch = UnknownN::<u64>::new(epsilon, delta).with_seed(5);

    // A long scan of normally distributed values; the true median is the
    // distribution mean, 500_000.
    let stream = WorkloadStream::new(
        ValueDistribution::Normal {
            mean: 500_000.0,
            sigma: 100_000.0,
        },
        31,
    );
    let total: u64 = if cfg!(debug_assertions) {
        1_000_000
    } else {
        8_000_000
    };
    let report_every = total / 10;

    println!("progress    N          p50 estimate    p99 estimate    +/- ranks (eps*N)");
    for (i, v) in stream.take(total as usize).enumerate() {
        sketch.insert(v);
        let i = i as u64 + 1;
        if i.is_multiple_of(report_every) {
            let q = sketch.query_many(&[0.5, 0.99]).expect("nonempty");
            println!(
                "{:>6.0}%  {:>10}  {:>14}  {:>14}  {:>12.0}",
                i as f64 / total as f64 * 100.0,
                i,
                q[0],
                q[1],
                epsilon * i as f64
            );
        }
    }
    println!(
        "\nEvery row above came from the same sketch, mid-stream, without \
         disturbing it; the guarantee holds at every prefix (unknown-N \
         property). Final memory: {} elements.",
        sketch.memory_elements()
    );
}
