//! **Ablation: the sampling-onset height h** (DESIGN.md B2 family).
//!
//! `h` controls how long the algorithm stays deterministic before the
//! non-uniform sampling engages (§3.7). Small `h`: sampling starts early,
//! the Hoeffding mass `X` is small, so `k` must grow. Large `h`: the
//! deterministic tree is deep, so the tree-error constraint forces `k` up
//! instead (Eqn 3: `h ≲ 2εk`). The optimizer picks the valley.

use mrl_analysis::optimizer::optimize_unknown_n;
use mrl_analysis::table::{lookup, LEAF_CAP, MAX_H};
use mrl_bench::{emit_json, TextTable};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    b: usize,
    h: u32,
    l_d: u64,
    k: usize,
    memory: usize,
}

fn main() {
    let (eps, delta) = (0.01, 0.0001);
    let free = optimize_unknown_n(eps, delta);
    println!(
        "Onset-height ablation at epsilon = {eps}, delta = {delta} with b = {} \
         (the optimizer's choice; it picked h = {}):\n",
        free.b, free.h
    );

    let mut table = TextTable::new(["h", "L_d (leaves)", "required k", "memory bk"]);
    for h in 1..=MAX_H {
        let Some(s) = lookup(free.b, h, LEAF_CAP) else {
            table.row([
                format!("{h}"),
                "— (over cap)".into(),
                "—".into(),
                "—".into(),
            ]);
            continue;
        };
        // Optimal alpha for this h via the same constraint algebra the
        // optimizer uses.
        let mut best_k = f64::INFINITY;
        let mut a = 0.01;
        while a < 1.0 {
            let k_post = s.g_post / (a * eps);
            let k_sample = mrl_analysis::bounds::required_x(a, eps, delta) / s.x_min;
            best_k = best_k.min((s.g_pre / eps).max(k_post).max(k_sample));
            a += 0.01;
        }
        let k = best_k.ceil() as usize;
        let memory = free.b * k;
        table.row([
            format!("{h}"),
            format!("{}", s.l_d),
            format!("{k}"),
            format!("{memory}"),
        ]);
        emit_json(&Row {
            b: free.b,
            h,
            l_d: s.l_d,
            k,
            memory,
        });
    }
    table.print();
    println!(
        "\nShape checks: memory falls as h grows (more deterministic leaves = \
         more Hoeffding mass) until the tree-depth constraint bites; the \
         optimizer's h = {} sits at the valley.",
        free.h
    );
}
