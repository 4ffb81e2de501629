//! **Crossover: MRL99 vs reservoir sampling** — where does the
//! sophisticated scheme start to pay? (§2.2: the reservoir's
//! `O(ε⁻² log δ⁻¹)` sample "makes the scheme impractical for small values
//! of ε"; MRL99 is `~ε⁻¹ log²`.)
//!
//! This sweep prints both memory requirements across ε and locates the
//! crossover, the concrete version of the paper's asymptotic argument.

use mrl_analysis::optimizer::optimize_unknown_n;
use mrl_bench::table::fmt_k;
use mrl_bench::{emit_json, TextTable};
use mrl_sampling::reservoir_sample_size;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    epsilon: f64,
    mrl_memory: usize,
    reservoir_memory: u64,
    ratio: f64,
}

fn main() {
    let delta = 0.0001f64;
    println!("MRL99 vs reservoir sampling memory, delta = {delta}\n");
    let mut table = TextTable::new(["epsilon", "MRL99 bk", "reservoir s", "reservoir/MRL"]);
    let mut crossover: Option<f64> = None;
    let mut prev_ratio = 0.0f64;
    for &eps in &[0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001] {
        let mrl = optimize_unknown_n(eps, delta).memory;
        let res = reservoir_sample_size(eps, delta);
        let ratio = res as f64 / mrl as f64;
        if prev_ratio < 1.0 && ratio >= 1.0 {
            crossover = Some(eps);
        }
        prev_ratio = ratio;
        table.row([
            format!("{eps}"),
            fmt_k(mrl),
            fmt_k(res as usize),
            format!("{ratio:.1}x"),
        ]);
        emit_json(&Row {
            epsilon: eps,
            mrl_memory: mrl,
            reservoir_memory: res,
            ratio,
        });
    }
    table.print();
    match crossover {
        Some(eps) => println!(
            "\nCrossover: MRL99 wins from epsilon ~ {eps} downward; at epsilon = 0.001 \
             the reservoir needs orders of magnitude more memory (the paper's \
             'impractical for small epsilon')."
        ),
        None => println!(
            "\nMRL99's memory is below the reservoir's across the whole sweep \
             (the reservoir's quadratic 1/eps^2 loses even at loose epsilon here)."
        ),
    }
}
