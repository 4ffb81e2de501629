//! Golden values of the §4.5 optimizer at its default search space: the
//! exact `(b, k, memory)` of every Table 1 cell, the exact memory of every
//! Table 2 row at δ = 1e-4, and the exact `(b, k, h, α)` of the two
//! configurations the end-to-end benchmark runs. These are the full-precision
//! values behind EXPERIMENTS.md's Tables 1–2, so a change to the schedule
//! table or to the optimizer that moves any of them fails here.

use mrl::analysis::optimizer::{optimize_multi, optimize_unknown_n, precompute_memory};

#[test]
fn table1_cells_are_pinned() {
    // (ε, δ, b, k, memory)
    let cells: [(f64, f64, usize, usize, usize); 15] = [
        (0.1, 0.01, 3, 59, 177),
        (0.1, 0.001, 4, 49, 196),
        (0.1, 0.0001, 4, 52, 208),
        (0.05, 0.01, 4, 106, 424),
        (0.05, 0.001, 4, 118, 472),
        (0.05, 0.0001, 4, 127, 508),
        (0.01, 0.01, 5, 627, 3135),
        (0.01, 0.001, 5, 683, 3415),
        (0.01, 0.0001, 5, 726, 3630),
        (0.005, 0.01, 6, 1226, 7356),
        (0.005, 0.001, 6, 1301, 7806),
        (0.005, 0.0001, 6, 1367, 8202),
        (0.001, 0.01, 7, 7000, 49000),
        (0.001, 0.001, 7, 7381, 51667),
        (0.001, 0.0001, 7, 7690, 53830),
    ];
    for (eps, delta, b, k, memory) in cells {
        let c = optimize_unknown_n(eps, delta);
        assert_eq!(
            (c.b, c.k, c.memory),
            (b, k, memory),
            "Table 1 cell eps={eps} delta={delta}"
        );
    }
}

#[test]
fn table2_rows_at_delta_1e4_are_pinned() {
    // (ε, memory at p = 1, 10, 100, 1000, precompute memory)
    let rows: [(f64, [usize; 4], usize); 5] = [
        (0.1, [208, 220, 232, 244], 540),
        (0.05, [508, 540, 555, 575], 1250),
        (0.01, [3630, 3762, 3870, 3978], 8790),
        (0.005, [8202, 8514, 8790, 9054], 20048),
        (0.001, [53830, 55825, 57694, 59096], 132300),
    ];
    let delta = 1e-4;
    for (eps, by_p, precompute) in rows {
        for (p, memory) in [1, 10, 100, 1000].into_iter().zip(by_p) {
            assert_eq!(
                optimize_multi(eps, delta, p).memory,
                memory,
                "Table 2 eps={eps} p={p}"
            );
        }
        assert_eq!(
            precompute_memory(eps, delta).memory,
            precompute,
            "Table 2 eps={eps} precompute"
        );
    }
}

#[test]
fn benchmark_configs_are_bit_identical() {
    // (ε, δ, b, k, h, α bits)
    let configs: [(f64, f64, usize, usize, u32, u64); 2] = [
        (0.01, 1e-4, 5, 726, 8, 0x3fe3_649e_c207_02cc),
        (0.001, 1e-4, 7, 7690, 10, 0x3fe6_ecff_878f_8538),
    ];
    for (eps, delta, b, k, h, alpha_bits) in configs {
        let c = optimize_unknown_n(eps, delta);
        assert_eq!(
            (c.b, c.k, c.h, c.alpha.to_bits()),
            (b, k, h, alpha_bits),
            "config eps={eps} delta={delta}"
        );
    }
}
