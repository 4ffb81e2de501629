//! **Ablation: the error split α** (DESIGN.md B2 family).
//!
//! The paper's §4.4 space-complexity proof fixes α = 0.5; §4.5 instead
//! optimises α per configuration. This sweep shows what the optimisation
//! buys: required memory `b·k` as a function of a *forced* α, against the
//! optimizer's free choice.

use mrl_analysis::bounds::required_x;
use mrl_analysis::optimizer::optimize_unknown_n;
use mrl_analysis::table::{lookup, LEAF_CAP};
use mrl_bench::{emit_json, TextTable};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    alpha: f64,
    k: usize,
    memory: usize,
}

fn main() {
    let (eps, delta) = (0.01, 0.0001);
    let free = optimize_unknown_n(eps, delta);
    println!(
        "Alpha ablation at epsilon = {eps}, delta = {delta}: the optimizer chose \
         b = {}, h = {}, alpha = {:.3}, memory = {}\n",
        free.b, free.h, free.alpha, free.memory
    );

    // Fix the optimizer's (b, h) and sweep alpha.
    let scalars = lookup(free.b, free.h, LEAF_CAP).expect("the chosen configuration is tabled");

    let mut table = TextTable::new(["alpha", "required k", "memory bk"]);
    for i in 1..=19 {
        let alpha = i as f64 * 0.05;
        let k_pre = scalars.g_pre / eps;
        let k_post = scalars.g_post / (alpha * eps);
        let k_sample = required_x(alpha, eps, delta) / scalars.x_min;
        let k = k_pre.max(k_post).max(k_sample).ceil() as usize;
        let memory = free.b * k;
        table.row([format!("{alpha:.2}"), format!("{k}"), format!("{memory}")]);
        emit_json(&Row { alpha, k, memory });
    }
    table.print();
    println!(
        "\nShape checks: memory is U-shaped in alpha (tree error explodes as \
         alpha -> 0, sampling error as alpha -> 1); the paper's fixed alpha = 0.5 \
         sits near but not at the bottom; the optimizer's alpha = {:.3} gives {}.",
        free.alpha, free.memory
    );
}
