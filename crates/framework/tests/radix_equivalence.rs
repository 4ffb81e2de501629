//! Differential property tests for the radix sealing kernel (DESIGN.md
//! §3.13): on adversarial inputs — tie-heavy, sawtooth, already-sorted,
//! reversed, all-equal, and narrow-alphabet shapes, plus the f64
//! total-order edge cases (negative zero, subnormals, ±infinity) — the
//! radix sort must be bitwise identical to `sort_unstable` for every
//! `FixedWidthKey` type, and the dispatcher must take every in-window
//! fixed-width slice and decline everything outside the window.

use mrl_framework::{
    sort_fixed, try_sort_fixed, OrderedF64, RadixScratch, RADIX_MAX_LEN, RADIX_MIN_LEN,
};
use proptest::prelude::*;

/// Shape raw draws into one of the adversarial input patterns.
fn shape_u64(raw: &[u64], pattern: u8) -> Vec<u64> {
    match pattern % 8 {
        // Tie-heavy: three distinct values, long equal runs.
        0 => raw.iter().map(|x| x % 3).collect(),
        // Already sorted ascending: the priming pass sees maximal runs.
        1 => {
            let mut v = raw.to_vec();
            v.sort_unstable();
            v
        }
        // Reversed: every digit column varies.
        2 => {
            let mut v = raw.to_vec();
            v.sort_unstable();
            v.reverse();
            v
        }
        // Degenerate: every element equal — the all-constant early return.
        3 => raw.iter().map(|_| 0xDEAD_BEEF).collect(),
        // Sawtooth folded into a small alphabet: only the low byte varies,
        // so seven of eight digit columns are skipped.
        4 => raw.iter().map(|x| x % 251).collect(),
        // High-byte-only variation: the low seven columns are constant.
        5 => raw.iter().map(|x| (x % 251) << 56).collect(),
        // Two spread clusters: middle columns constant within clusters.
        6 => raw
            .iter()
            .map(|x| {
                if x % 2 == 0 {
                    x % 17
                } else {
                    u64::MAX - x % 17
                }
            })
            .collect(),
        // Raw uniform draws.
        _ => raw.to_vec(),
    }
}

/// The f64 total-order edge values the sign-flip bit mapping must order
/// correctly, mixed into generated data by index.
const F64_EDGES: &[f64] = &[
    f64::NEG_INFINITY,
    f64::MIN,
    -1.0,
    -f64::MIN_POSITIVE, // largest-magnitude negative subnormal boundary
    -f64::from_bits(1), // smallest-magnitude negative subnormal
    -0.0,
    0.0,
    f64::from_bits(1), // smallest positive subnormal
    f64::MIN_POSITIVE,
    1.0,
    f64::MAX,
    f64::INFINITY,
];

fn shape_f64(raw: &[u64], pattern: u8) -> Vec<OrderedF64> {
    raw.iter()
        .enumerate()
        .map(|(i, &x)| {
            let f = match pattern % 4 {
                // Every element an edge value: dense ties across the
                // special cases, including -0.0 vs +0.0.
                0 => F64_EDGES[x as usize % F64_EDGES.len()],
                // Mixed-sign finite values spanning many exponents.
                1 => (x as i64 as f64) * 1e-3,
                // Edge values sprinkled through ordinary data.
                2 if i % 5 == 0 => F64_EDGES[x as usize % F64_EDGES.len()],
                _ => f64::from_bits(x & !(0x7FF0_0000_0000_0000)), // never NaN/inf: exponent cleared
            };
            OrderedF64::new(f).expect("generated values are never NaN")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn radix_matches_sort_unstable_u64(
        raw in proptest::collection::vec(any::<u64>(), 0..600),
        pattern in any::<u8>(),
    ) {
        let mut data = shape_u64(&raw, pattern);
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut scratch = RadixScratch::default();
        sort_fixed(&mut data, &mut scratch);
        prop_assert_eq!(data, expect);
    }

    #[test]
    fn radix_matches_sort_unstable_narrow_and_signed(
        raw in proptest::collection::vec(any::<u64>(), 0..400),
        pattern in any::<u8>(),
    ) {
        let shaped = shape_u64(&raw, pattern);
        {
            let mut data: Vec<u32> = shaped.iter().map(|&x| x as u32).collect();
            let mut expect = data.clone();
            expect.sort_unstable();
            sort_fixed(&mut data, &mut RadixScratch::default());
            prop_assert_eq!(data, expect);
        }
        {
            let mut data: Vec<u16> = shaped.iter().map(|&x| x as u16).collect();
            let mut expect = data.clone();
            expect.sort_unstable();
            sort_fixed(&mut data, &mut RadixScratch::default());
            prop_assert_eq!(data, expect);
        }
        {
            let mut data: Vec<u8> = shaped.iter().map(|&x| x as u8).collect();
            let mut expect = data.clone();
            expect.sort_unstable();
            sort_fixed(&mut data, &mut RadixScratch::default());
            prop_assert_eq!(data, expect);
        }
        {
            // Cast straddles the sign flip: half the values land negative.
            let mut data: Vec<i64> = shaped.iter().map(|&x| x as i64).collect();
            let mut expect = data.clone();
            expect.sort_unstable();
            sort_fixed(&mut data, &mut RadixScratch::default());
            prop_assert_eq!(data, expect);
        }
    }

    #[test]
    fn radix_matches_total_order_on_f64_edges(
        raw in proptest::collection::vec(any::<u64>(), 0..400),
        pattern in any::<u8>(),
    ) {
        let mut data = shape_f64(&raw, pattern);
        // Reference: total_cmp is IEEE 754 totalOrder, which the sign-flip
        // bit mapping must reproduce (it orders -0.0 < +0.0 and keeps
        // subnormals between zero and MIN_POSITIVE).
        let mut expect: Vec<f64> = data.iter().map(|v| v.get()).collect();
        expect.sort_unstable_by(|a, b| a.total_cmp(b));
        let mut scratch = RadixScratch::default();
        sort_fixed(&mut data, &mut scratch);
        let got: Vec<u64> = data.iter().map(|v| v.get().to_bits()).collect();
        let want: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn dispatch_sorts_every_in_window_fixed_width_slice(
        raw in proptest::collection::vec(any::<u64>(), RADIX_MIN_LEN..3 * RADIX_MIN_LEN),
        pattern in any::<u8>(),
    ) {
        let mut data = shape_u64(&raw, pattern);
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut scratch = RadixScratch::default();
        // Inside the win window the dispatcher accepts every fixed-width
        // key slice, and the result is the comparison sort's.
        prop_assert!(try_sort_fixed(&mut data, &mut scratch));
        prop_assert_eq!(data, expect);
    }

    #[test]
    fn dispatch_declines_outside_the_win_window(
        seed in any::<u64>(),
    ) {
        // Below RADIX_MIN_LEN and above RADIX_MAX_LEN the dispatcher must
        // decline (the comparison fallback wins there); `sort_fixed`
        // called directly still sorts correctly at any length.
        let mut scratch = RadixScratch::default();
        for len in [RADIX_MIN_LEN - 1, RADIX_MAX_LEN + 1] {
            let mut data: Vec<u64> =
                (0..len as u64).map(|j| j.wrapping_mul(seed | 1)).collect();
            let mut expect = data.clone();
            prop_assert!(!try_sort_fixed(&mut data, &mut scratch));
            prop_assert_eq!(&data, &expect); // decline leaves data untouched
            expect.sort_unstable();
            sort_fixed(&mut data, &mut scratch);
            prop_assert_eq!(data, expect);
        }
    }

    #[test]
    fn scratch_reuse_across_mixed_types_and_lengths(
        a in proptest::collection::vec(any::<u64>(), 0..300),
        b in proptest::collection::vec(any::<u64>(), 0..100),
        pattern in any::<u8>(),
    ) {
        // One scratch, many calls of different lengths: stale ping-pong
        // contents must never leak into a later sort.
        let mut scratch = RadixScratch::default();
        for raw in [&a, &b, &a] {
            let mut data = shape_u64(raw, pattern);
            let mut expect = data.clone();
            expect.sort_unstable();
            sort_fixed(&mut data, &mut scratch);
            prop_assert_eq!(data, expect);
        }
    }
}
