//! **Figure 5**: a valid buffer-allocation schedule whose memory stays
//! within user-specified ceilings at every stream length, for ε = 0.01,
//! δ = 0.0001 (§5).
//!
//! The user ceilings interpolate between the known-`N` curve and a final
//! budget above the unconstrained unknown-`N` optimum; the search returns a
//! valid schedule whose profile hugs them.

use mrl_analysis::optimizer::{known_n_memory, optimize_unknown_n, OptimizerOptions};
use mrl_analysis::schedule::{find_schedule, MemoryLimit};
use mrl_bench::{emit_json, TextTable};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    n: u64,
    schedule_memory: usize,
    ceiling: usize,
}

fn main() {
    let opts = OptimizerOptions::default();
    let (eps, delta) = (0.01, 0.0001);
    let base = optimize_unknown_n(eps, delta);
    println!("Figure 5: valid buffer-allocation schedule, epsilon = {eps}, delta = {delta}");
    println!("Unconstrained unknown-N memory: {} elements\n", base.memory);

    // User ceilings: a fraction of full memory early, full memory plus
    // slack later (the paper's user curve sits above known-N and below the
    // upfront unknown-N allocation for small N). Early ceilings leave room
    // for at least three buffers — with fewer, the pre-onset tree
    // degenerates into a deep path and no schedule can certify.
    let limits = [
        MemoryLimit {
            n: 20_000,
            max_memory: (base.memory * 5) / 8,
        },
        MemoryLimit {
            n: 200_000,
            max_memory: (base.memory * 7) / 8,
        },
        MemoryLimit {
            n: u64::MAX / 2,
            max_memory: base.memory * 2,
        },
    ];
    println!("User-specified ceilings:");
    for l in &limits {
        println!("  while N <= {:>12}: memory <= {}", l.n, l.max_memory);
    }
    println!();

    match find_schedule(eps, delta, &limits, opts) {
        None => println!(
            "No valid schedule meets these ceilings (the paper: \"There may or may not \
             be a valid buffer schedule that meets these upper limits.\")"
        ),
        Some(plan) => {
            println!(
                "Found: b = {}, k = {}, h = {}, alpha = {:.3}, final memory = {}\n",
                plan.b,
                plan.k,
                plan.h,
                plan.alpha,
                plan.memory()
            );
            let mut table =
                TextTable::new(["N (elements)", "allocated memory", "ceiling", "known-N"]);
            for (n_at, mem) in plan.memory_profile() {
                let ceiling = limits
                    .iter()
                    .filter(|l| l.n >= n_at)
                    .map(|l| l.max_memory)
                    .min()
                    .unwrap_or(usize::MAX);
                let known = known_n_memory(eps, delta, n_at.max(1));
                table.row([
                    format!("{n_at}"),
                    format!("{mem}"),
                    format!("{ceiling}"),
                    format!("{known}"),
                ]);
                emit_json(&Row {
                    n: n_at,
                    schedule_memory: mem,
                    ceiling,
                });
            }
            table.print();
            println!("\nShape check: every allocated-memory value sits at or below its ceiling;");
            println!("memory grows with N instead of being allocated up front.");
        }
    }
}
