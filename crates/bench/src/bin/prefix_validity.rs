//! **Prefix validity under distribution drift** — the unknown-`N`
//! property in action.
//!
//! The paper motivates unknown-`N` with histograms of dynamically growing
//! tables (§1.2): "Such a histogram should be accurate at all times
//! irrespective of the current size of the table." The adversarial case is
//! a table whose value distribution *drifts*: any sketch that froze a
//! uniform sample early keeps answering from a stale distribution. This
//! experiment runs a drifting stream, querying the sketch and a same-memory
//! frozen-sample baseline at many prefixes, and scores both against the
//! exact quantile of the prefix.

use mrl_bench::{emit_json, TextTable};
use mrl_datagen::DriftingStream;
use mrl_exact::rank_error;
use mrl_sampling::{rng_from_seed, Reservoir};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    prefix: u64,
    mrl_error: f64,
    frozen_error: f64,
}

fn main() {
    let (eps, delta) = (0.01, 0.001);
    let config = mrl_analysis::optimizer::optimize_unknown_n(eps, delta);
    let n: u64 = if cfg!(debug_assertions) {
        300_000
    } else {
        2_000_000
    };
    let phi = 0.5;

    println!(
        "Prefix validity under drift: mean moves 10_000 -> 90_000 over N = {n}; \
         phi = {phi}, epsilon = {eps}\n"
    );

    let mut sketch = mrl_core::UnknownN::<u64>::from_config(config.clone(), 5);
    // Baseline: a uniform sample of the same memory, FROZEN after the
    // first config.memory elements (a sample taken "once, up front" — what
    // a system does when it believes it knows the table).
    let mut frozen: Vec<u64> = Vec::with_capacity(config.memory);
    let mut rng = rng_from_seed(5);
    let mut frozen_res = Reservoir::<u64>::new(config.memory);

    let mut seen: Vec<u64> = Vec::with_capacity(n as usize);
    let mut table = TextTable::new(["prefix N", "MRL99 err", "frozen-sample err"]);
    let checkpoints: Vec<u64> = (1..=10).map(|i| i * n / 10).collect();

    for (i, v) in DriftingStream::new(10_000.0, 90_000.0, 5_000.0, n, 77)
        .take(n as usize)
        .enumerate()
    {
        let i = i as u64 + 1;
        sketch.insert(v);
        seen.push(v);
        // The frozen baseline only samples the first `memory` elements.
        if i <= config.memory as u64 {
            frozen_res.offer(v, &mut rng);
            if i == config.memory as u64 {
                frozen = frozen_res.sample().to_vec();
                frozen.sort_unstable();
            }
        }
        if checkpoints.contains(&i) {
            let mrl_ans = sketch.query(phi).expect("nonempty");
            let mrl_err = rank_error(&seen, &mrl_ans, phi);
            let frozen_ans = if frozen.is_empty() {
                // Prefix still within the sampling window: exact.
                let mut sorted = seen.clone();
                sorted.sort_unstable();
                sorted[((phi * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1]
            } else {
                frozen[((phi * frozen.len() as f64).ceil() as usize).clamp(1, frozen.len()) - 1]
            };
            let frozen_err = rank_error(&seen, &frozen_ans, phi);
            table.row([
                format!("{i}"),
                format!("{mrl_err:.5}"),
                format!("{frozen_err:.5}"),
            ]);
            emit_json(&Row {
                prefix: i,
                mrl_error: mrl_err,
                frozen_error: frozen_err,
            });
        }
    }
    table.print();
    println!(
        "\nShape checks: the MRL99 column stays <= epsilon = {eps} at every prefix; \
         the frozen-sample column degrades towards ~0.5 as the drift leaves the \
         early sample behind."
    );
}
