//! **Table 2**: memory required when `p` quantiles are requested
//! simultaneously (δ → δ/p, §4.7), and the pre-computation upper bound
//! that is independent of `p` (compute `⌈1/ε⌉` quantiles at guarantee
//! ε/2).
//!
//! Paper claims to reproduce: "the amount of main memory required grows
//! slowly as a function of p" (O(log log p)) and "pre-computation requires
//! significantly more memory" (the ε/2 guarantee dominates).

use mrl_analysis::optimizer::optimize_unknown_n;
use mrl_bench::table::fmt_k;
use mrl_bench::{emit_json, TextTable};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    epsilon: f64,
    p: u64,
    memory: usize,
}

fn main() {
    let delta = 0.0001f64;
    let epsilons = [0.1, 0.05, 0.01, 0.005, 0.001];
    let ps: [u64; 4] = [1, 10, 100, 1000];

    println!("Table 2: memory (elements) for p simultaneous quantiles, delta = {delta}\n");
    let mut header: Vec<String> = vec!["epsilon".into()];
    header.extend(ps.iter().map(|p| format!("p={p}")));
    header.push("precompute (any p)".into());
    let mut table = TextTable::new(header);

    for &eps in &epsilons {
        let mut cells: Vec<String> = vec![format!("{eps}")];
        for &p in &ps {
            let cfg = optimize_unknown_n(eps, delta / p as f64);
            cells.push(fmt_k(cfg.memory));
            emit_json(&Row {
                epsilon: eps,
                p,
                memory: cfg.memory,
            });
        }
        let pre = {
            let grid = (1.0 / eps).ceil() as u64;
            let cfg = optimize_unknown_n(eps / 2.0, delta / grid as f64);
            cfg.memory
        };
        cells.push(fmt_k(pre));
        emit_json(&Row {
            epsilon: eps,
            p: u64::MAX,
            memory: pre,
        });
        table.row(cells);
    }
    table.print();
    println!("\nShape checks: memory grows slowly in p (delta enters only via log log);");
    println!("the precompute column exceeds small-p columns (epsilon/2 dominates).");
}
