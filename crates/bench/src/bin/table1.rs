//! **Table 1**: number of buffers `b`, buffer size `k`, and total memory
//! `b·k` required by the unknown-`N` algorithm for a grid of (ε, δ), next
//! to the memory of the known-`N` algorithm (MRL98, with `N` large enough
//! to warrant sampling — the paper's setting for the comparison columns).
//!
//! Paper claim to reproduce: "The new algorithm requires no more than
//! twice the memory required by the old one" (§4.6).

use mrl_analysis::optimizer::{known_n_memory, optimize_unknown_n};
use mrl_bench::table::fmt_k;
use mrl_bench::{emit_json, TextTable};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    epsilon: f64,
    delta: f64,
    b: usize,
    k: usize,
    unknown_memory: usize,
    known_memory: usize,
    ratio: f64,
}

fn main() {
    let epsilons = [0.1, 0.05, 0.01, 0.005, 0.001];
    let deltas = [0.01, 0.001, 0.0001];

    println!("Table 1: unknown-N algorithm parameters and memory vs the known-N algorithm");
    println!("(memory in elements; known-N assumes N large enough to warrant sampling)\n");
    let mut table = TextTable::new([
        "epsilon",
        "delta",
        "b",
        "k",
        "bk (unknown-N)",
        "known-N",
        "ratio",
    ]);
    for &eps in &epsilons {
        for &delta in &deltas {
            let u = optimize_unknown_n(eps, delta);
            let known = known_n_memory(eps, delta, u64::MAX);
            let ratio = u.memory as f64 / known as f64;
            table.row([
                format!("{eps}"),
                format!("{delta}"),
                format!("{}", u.b),
                format!("{}", u.k),
                fmt_k(u.memory),
                fmt_k(known),
                format!("{ratio:.2}"),
            ]);
            emit_json(&Row {
                epsilon: eps,
                delta,
                b: u.b,
                k: u.k,
                unknown_memory: u.memory,
                known_memory: known,
                ratio,
            });
        }
    }
    table.print();
    println!("\nShape check (paper section 4.6): unknown-N memory within 2x of known-N.");
}
