//! Differential property tests for the branchless merge/selection kernels
//! (DESIGN.md §3.12): on adversarial inputs — tie-heavy, all-equal,
//! already-sorted, sawtooth value patterns, and length combinations
//! straddling the unroll width — `merge_two` must equal the sorted
//! concatenation, and every spaced selection kernel, as well as the
//! galloping `select_weighted` walk, must equal a naive expand-and-sort
//! oracle.

use mrl_framework::kernels::{
    merge_two, select_merged_weighted_spaced, select_three_weighted_spaced,
    select_two_weighted_spaced,
};
use mrl_framework::{select_weighted, WeightedSource};
use proptest::prelude::*;

/// Shape raw draws into one of the adversarial sorted-source patterns.
fn shape(raw: &[u64], pattern: u8) -> Vec<u64> {
    let mut v: Vec<u64> = match pattern % 4 {
        // Tie-heavy: three distinct values, long equal runs.
        0 => raw.iter().map(|x| x % 3).collect(),
        // Distinct ascending: the merge branch is decided by interleaving
        // alone.
        1 => (0..raw.len() as u64).collect(),
        // Degenerate: every element equal, all ties.
        2 => raw.iter().map(|_| 7).collect(),
        // Sawtooth values folded into a small alphabet: moderate ties with
        // irregular interleaving.
        _ => raw.iter().map(|x| x % 16).collect(),
    };
    v.sort_unstable();
    v
}

/// Naive oracle: expand every element `weight` times, sort, and read the
/// 1-indexed weighted positions. Position `t` of the weighted merge of
/// sorted sources is exactly element `t - 1` of the sorted expansion.
fn naive_select(sources: &[(&[u64], u64)], targets: &[u64]) -> Vec<u64> {
    let mut expanded = Vec::new();
    for (data, w) in sources {
        for v in *data {
            for _ in 0..*w {
                expanded.push(*v);
            }
        }
    }
    expanded.sort_unstable();
    targets
        .iter()
        .map(|&t| expanded[(t - 1) as usize])
        .collect()
}

/// The merged `(element, weight)` pair run of two weighted sources, as the
/// ≥ 4-source collapse builds it.
fn paired(a: &[u64], wa: u64, b: &[u64], wb: u64) -> Vec<(u64, u64)> {
    let mut pairs: Vec<(u64, u64)> = a
        .iter()
        .map(|&v| (v, wa))
        .chain(b.iter().map(|&v| (v, wb)))
        .collect();
    pairs.sort_by_key(|&(v, _)| v);
    pairs
}

/// Evenly spaced 1-indexed targets `first + i·spacing` capped at `total`.
fn spaced_targets(first: u64, spacing: u64, total: u64) -> Vec<u64> {
    if first > total {
        return Vec::new();
    }
    (0..=(total - first) / spacing)
        .map(|i| first + i * spacing)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn merge_matches_sorted_concat(
        raw_a in prop_vec(0u64..1_000, 0..48usize),
        raw_b in prop_vec(0u64..1_000, 0..48usize),
        pat_a in any::<u8>(),
        pat_b in any::<u8>(),
    ) {
        let a = shape(&raw_a, pat_a);
        let b = shape(&raw_b, pat_b);
        let mut merged = Vec::new();
        merge_two(&a, &b, &mut merged);
        let mut oracle: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        oracle.sort_unstable();
        prop_assert_eq!(merged, oracle);
    }

    #[test]
    fn collapse_shape_selection_matches_oracle_in_every_kernel(
        raw_a in prop_vec(0u64..1_000, 0..40usize),
        raw_b in prop_vec(0u64..1_000, 0..40usize),
        pat_a in any::<u8>(),
        pat_b in any::<u8>(),
        wa in 1u64..=4,
        wb in 1u64..=4,
        extra_spacing in 0u64..4,
        first_frac in 0u64..8,
    ) {
        let a = shape(&raw_a, pat_a);
        let b = shape(&raw_b, pat_b);
        let total = a.len() as u64 * wa + b.len() as u64 * wb;
        // Collapse-style spacing (≥ the output weight wa + wb, so a
        // fortiori ≥ each input weight) and an arbitrary phase offset.
        let spacing = wa + wb + extra_spacing;
        let first = 1 + first_frac % spacing;
        let targets = spaced_targets(first, spacing, total);
        let oracle = naive_select(&[(&a, wa), (&b, wb)], &targets);

        let mut out = Vec::new();
        select_two_weighted_spaced(&a, wa, &b, wb, first, spacing, targets.len(), &mut out);
        prop_assert_eq!(&out, &oracle);

        let pairs = paired(&a, wa, &b, wb);
        select_merged_weighted_spaced(&pairs, first, spacing, targets.len(), &mut out);
        prop_assert_eq!(&out, &oracle);

        // The general galloping walk (queries, the coordinator) must
        // agree too.
        if !targets.is_empty() {
            let sources = [WeightedSource::new(&a, wa), WeightedSource::new(&b, wb)];
            prop_assert_eq!(select_weighted(&sources, &targets), oracle);
        }
    }

    #[test]
    fn three_source_collapse_selection_matches_oracle(
        raw_a in prop_vec(0u64..1_000, 0..40usize),
        raw_b in prop_vec(0u64..1_000, 0..40usize),
        raw_c in prop_vec(0u64..1_000, 0..40usize),
        pat_a in any::<u8>(),
        pat_b in any::<u8>(),
        pat_c in any::<u8>(),
        wa in 1u64..=4,
        wb in 1u64..=4,
        wc in 1u64..=4,
        extra_spacing in 0u64..4,
        first_frac in 0u64..8,
    ) {
        // The 3-source collapse shape served by the direct walk: three
        // distinct (or colliding) weights, collapse-style spacing, and
        // any mix of empty/non-empty sources — including lengths that
        // force the walk's first exhaustion onto each source in turn and
        // hand the remainder to the two-source core mid-run.
        let a = shape(&raw_a, pat_a);
        let b = shape(&raw_b, pat_b);
        let c = shape(&raw_c, pat_c);
        let total = a.len() as u64 * wa + b.len() as u64 * wb + c.len() as u64 * wc;
        let spacing = wa + wb + wc + extra_spacing;
        let first = 1 + first_frac % spacing;
        let targets = spaced_targets(first, spacing, total);
        let oracle = naive_select(&[(&a, wa), (&b, wb), (&c, wc)], &targets);

        let mut out = Vec::new();
        select_three_weighted_spaced(
            &a, wa, &b, wb, &c, wc, first, spacing, targets.len(), &mut out,
        );
        prop_assert_eq!(out, oracle);
    }

    #[test]
    fn irregular_query_targets_match_oracle(
        raw_a in prop_vec(0u64..1_000, 1..40usize),
        raw_b in prop_vec(0u64..1_000, 1..40usize),
        pat_a in any::<u8>(),
        pat_b in any::<u8>(),
        wa in 1u64..=4,
        wb in 1u64..=4,
        gaps in prop_vec(0u64..9, 1..24usize),
    ) {
        // Query-path shape: non-decreasing targets with irregular gaps,
        // repeats and several targets per merge step included.
        let a = shape(&raw_a, pat_a);
        let b = shape(&raw_b, pat_b);
        let total = a.len() as u64 * wa + b.len() as u64 * wb;
        let mut targets = Vec::new();
        let mut t = 1u64;
        for g in &gaps {
            t += g;
            if t > total {
                break;
            }
            targets.push(t);
        }
        let oracle = naive_select(&[(&a, wa), (&b, wb)], &targets);
        let sources = [WeightedSource::new(&a, wa), WeightedSource::new(&b, wb)];
        prop_assert_eq!(select_weighted(&sources, &targets), oracle);
    }
}

/// Chunking invariance: sweep both source lengths across every residue
/// around the unroll width (the kernels' main loops run 8-wide with a
/// scalar remainder), on a descending-then-folded sawtooth. Any
/// off-by-one between the unrolled loop, the remainder loop, and the
/// exhausted-source tail shows up as a mismatch at some length pair.
#[test]
fn chunking_boundaries_are_invisible() {
    let lens = [0usize, 1, 2, 7, 8, 9, 15, 16, 17, 23, 31, 33];
    let (wa, wb) = (2u64, 3u64);
    for &la in &lens {
        for &lb in &lens {
            // Descending sawtooth folded to a small alphabet, then sorted:
            // long tie runs whose boundaries land on different residues
            // for every (la, lb).
            let mut a: Vec<u64> = (0..la as u64).map(|i| (la as u64 - i) % 5).collect();
            let mut b: Vec<u64> = (0..lb as u64).map(|i| (lb as u64 - i) % 7).collect();
            a.sort_unstable();
            b.sort_unstable();

            let mut merged = Vec::new();
            merge_two(&a, &b, &mut merged);
            let mut concat: Vec<u64> = a.iter().chain(&b).copied().collect();
            concat.sort_unstable();
            assert_eq!(merged, concat, "merge mismatch at ({la}, {lb})");

            let total = la as u64 * wa + lb as u64 * wb;
            let spacing = wa + wb;
            for first in [1, spacing / 2 + 1, spacing] {
                let targets = spaced_targets(first, spacing, total);
                let oracle = naive_select(&[(&a, wa), (&b, wb)], &targets);
                let mut out = Vec::new();
                select_two_weighted_spaced(&a, wa, &b, wb, first, spacing, targets.len(), &mut out);
                assert_eq!(out, oracle, "spaced select at ({la}, {lb}, {first})");
                select_merged_weighted_spaced(
                    &paired(&a, wa, &b, wb),
                    first,
                    spacing,
                    targets.len(),
                    &mut out,
                );
                assert_eq!(out, oracle, "merged spaced at ({la}, {lb}, {first})");

                // Three-source walk with a third source whose length
                // cycles the exhaustion order relative to (la, lb).
                let wc = 1u64;
                let mut c: Vec<u64> = (0..((la + lb) % 13) as u64).map(|i| i % 3).collect();
                c.sort_unstable();
                let total3 = total + c.len() as u64 * wc;
                let spacing3 = wa + wb + wc;
                let targets3 = spaced_targets(first, spacing3, total3);
                let oracle3 = naive_select(&[(&a, wa), (&b, wb), (&c, wc)], &targets3);
                select_three_weighted_spaced(
                    &a,
                    wa,
                    &b,
                    wb,
                    &c,
                    wc,
                    first,
                    spacing3,
                    targets3.len(),
                    &mut out,
                );
                assert_eq!(out, oracle3, "three-way spaced at ({la}, {lb}, {first})");
            }
        }
    }
}
