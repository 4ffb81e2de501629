//! **Comparison counts** — the cost metric of the paper's §2 antecedents
//! ([BFP+73]: ≤ 5.43N comparisons for exact selection; Pohl: a one-pass
//! exact median needs N/2 stored elements; Yao: deterministic
//! approximation needs Ω(N) comparisons, beaten by randomization).
//!
//! Measures comparisons per element for: the MRL99 sketch (insert-only,
//! then with a query), exact sort-select, BFPRT, and quickselect.

use mrl_bench::counting::{comparisons, reset_comparisons, Counting};
use mrl_bench::{emit_json, TextTable};
use mrl_core::UnknownN;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    method: String,
    comparisons_per_element: f64,
}

fn main() {
    let n: u64 = if cfg!(debug_assertions) {
        200_000
    } else {
        1_000_000
    };
    let data: Vec<u64> = (0..n).map(|i| (i * 2654435761) % 1_000_003).collect();
    let config = mrl_analysis::optimizer::optimize_unknown_n(0.01, 1e-4);

    println!("Comparison counts per element, N = {n} (epsilon = 0.01 for the sketch)\n");
    let mut table = TextTable::new(["method", "comparisons / element"]);
    let mut record = |name: &str, total: u64| {
        let per = total as f64 / n as f64;
        table.row([name.to_string(), format!("{per:.2}")]);
        emit_json(&Row {
            method: name.to_string(),
            comparisons_per_element: per,
        });
    };

    // MRL99 streaming sketch: inserts only.
    reset_comparisons();
    let mut sketch = UnknownN::<Counting<u64>>::from_config(config.clone(), 1);
    for &v in &data {
        sketch.insert(Counting(v));
    }
    record("MRL99 insert (streaming)", comparisons());

    // Plus one median query on top.
    reset_comparisons();
    let _ = sketch.query(0.5);
    let query_cost = comparisons();
    println!("(a single median query costs {query_cost} comparisons — independent of N)\n");

    // Exact selection baselines.
    reset_comparisons();
    {
        let mut v: Vec<Counting<u64>> = data.iter().map(|&x| Counting(x)).collect();
        v.sort_unstable();
        let _ = v[v.len() / 2];
    }
    record("sort + index (exact)", comparisons());

    reset_comparisons();
    {
        let v: Vec<Counting<u64>> = data.iter().map(|&x| Counting(x)).collect();
        let _ = mrl_exact::bfprt_select(v, (n / 2) as usize);
    }
    record("BFPRT median-of-medians (exact)", comparisons());

    reset_comparisons();
    {
        let v: Vec<Counting<u64>> = data.iter().map(|&x| Counting(x)).collect();
        let mut rng = mrl_sampling::rng_from_seed(1);
        let _ = mrl_exact::quickselect(v, (n / 2) as usize, &mut rng);
    }
    record("randomized quickselect (exact)", comparisons());

    table.print();
    println!(
        "\nShape checks: the sketch's per-element cost is O(log(bk)) — a small \
         constant, below sorting's log N; BFPRT sits near its ~5N bound \
         ([BFP+73] proves <= 5.43N); quickselect averages ~3-4N."
    );
}
