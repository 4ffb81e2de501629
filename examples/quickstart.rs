//! Quickstart: approximate quantiles of a stream whose length you don't
//! know in advance.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mrl::sketch::UnknownN;

fn main() {
    // Guarantee: every answer within 1% of the true rank, with probability
    // 99.9% — no matter how long the stream turns out to be.
    let (epsilon, delta) = (0.01, 1e-3);
    let mut sketch = UnknownN::<u64>::new(epsilon, delta).with_seed(42);
    let cfg = sketch.config().clone();
    println!(
        "Configured automatically: b = {} buffers x k = {} elements = {} total ({}B at 8B/elem)",
        cfg.b,
        cfg.k,
        cfg.memory,
        cfg.memory * 8
    );

    // Stream ten million pseudo-random values through it.
    let n: u64 = 10_000_000;
    for i in 0..n {
        sketch.insert(i.wrapping_mul(6364136223846793005).rotate_left(17) % 1_000_000_007);
    }

    println!(
        "\nConsumed N = {} elements while holding at most {} in memory ({}x compression).",
        sketch.n(),
        sketch.memory_bound_elements(),
        sketch.n() as usize / sketch.memory_bound_elements()
    );
    println!(
        "Sampling engaged: {} (current rate: 1 element kept per block of {}).\n",
        sketch.sampling_started(),
        sketch.current_rate()
    );

    let phis = [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99];
    let answers = sketch.query_many(&phis).expect("stream is nonempty");
    println!("phi      estimate          ideal (uniform)");
    for (phi, est) in phis.iter().zip(answers) {
        println!("{:<5}  {:>12}  {:>15.0}", phi, est, phi * 1_000_000_007f64);
    }
}
