//! **Figure 4**: memory requirements of the known-`N` and unknown-`N`
//! algorithms as `N` varies, at ε = 0.01, δ = 0.0001.
//!
//! Shape to reproduce: the unknown-`N` algorithm uses a constant amount of
//! space regardless of `N`, while the known-`N` algorithm "can take
//! advantage of the fact that sampling need not be carried out for small
//! values of N and save on memory" — its curve rises with `log₁₀ N` and
//! plateaus below the unknown-`N` line once sampling engages.

use mrl_analysis::optimizer::{known_n_memory, optimize_unknown_n};
use mrl_bench::{emit_json, TextTable};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    log10_n: u32,
    known_memory: usize,
    unknown_memory: usize,
}

fn main() {
    let (eps, delta) = (0.01, 0.0001);
    let unknown = optimize_unknown_n(eps, delta);

    println!("Figure 4: memory vs log10(N), epsilon = {eps}, delta = {delta}\n");
    let mut table = TextTable::new(["log10(N)", "known-N memory", "unknown-N memory"]);
    let mut curve = Vec::new();
    for log_n in 3..=12u32 {
        let n = 10u64.pow(log_n);
        let known = known_n_memory(eps, delta, n);
        table.row([
            format!("{log_n}"),
            format!("{known}"),
            format!("{}", unknown.memory),
        ]);
        emit_json(&Row {
            log10_n: log_n,
            known_memory: known,
            unknown_memory: unknown.memory,
        });
        curve.push(known);
    }
    table.print();

    // ASCII rendition of the figure.
    println!("\n{}", ascii_plot(&curve, unknown.memory));
    println!("Shape checks: unknown-N flat; known-N non-decreasing then flat;");
    println!("known-N plateau sits at or below the unknown-N line.");
}

/// Plot the two curves as rows of '#' (known-N) against a '|' marker for
/// the unknown-N constant.
fn ascii_plot(known: &[usize], unknown: usize) -> String {
    let max = known.iter().copied().max().unwrap_or(1).max(unknown) as f64;
    let width = 60.0;
    let mut out = String::new();
    for (i, &m) in known.iter().enumerate() {
        let bar = ((m as f64 / max) * width).round() as usize;
        let marker = ((unknown as f64 / max) * width).round() as usize;
        let mut line: Vec<char> = vec![' '; (width as usize) + 2];
        for c in line.iter_mut().take(bar) {
            *c = '#';
        }
        if marker < line.len() {
            line[marker] = '|';
        }
        out.push_str(&format!(
            "10^{:>2} {} {}\n",
            i + 3,
            line.into_iter().collect::<String>(),
            m
        ));
    }
    out.push_str("      ('#' known-N memory, '|' unknown-N constant)\n");
    out
}
