//! Certificate for the committed schedule table: every row must be exactly
//! what a fresh replay produces, and the table-backed lookup must answer
//! exactly as `simulate_schedule` does at every leaf cap the workspace's
//! optimizer options use.
//!
//! Release builds re-simulate the full grid; debug builds, where the replay
//! is ~20× slower, cover the `b ≤ 12, h ≤ 6` rows.

use mrl_analysis::optimizer::OptimizerOptions;
use mrl_analysis::simulate::{simulate_schedule, ScheduleScalars, SimOptions};
use mrl_analysis::table::{lookup, within_leaf_cap, LEAF_CAP, MAX_B, MAX_H, ROWS};

fn certified_bounds() -> (usize, u32) {
    if cfg!(debug_assertions) {
        (12, 6)
    } else {
        (MAX_B, MAX_H)
    }
}

/// Field-by-field equality with floats compared by their bits.
fn same_bits(a: &ScheduleScalars, b: &ScheduleScalars) -> bool {
    a.b == b.b
        && a.h == b.h
        && a.l_d == b.l_d
        && a.l_s == b.l_s
        && a.max_level == b.max_level
        && a.g_pre.to_bits() == b.g_pre.to_bits()
        && a.g_post.to_bits() == b.g_post.to_bits()
        && a.x_min.to_bits() == b.x_min.to_bits()
        && a.alloc_profile == b.alloc_profile
}

#[test]
fn table_holds_exactly_the_pairs_the_pre_prune_keeps() {
    assert_eq!(SimOptions::default().leaf_cap, LEAF_CAP);
    let expected: Vec<(usize, u32)> = (2..=MAX_B)
        .flat_map(|b| (1..=MAX_H).map(move |h| (b, h)))
        .filter(|&(b, h)| within_leaf_cap(b, h, LEAF_CAP))
        .collect();
    let tabled: Vec<(usize, u32)> = ROWS.iter().map(|r| (r.b, r.h)).collect();
    assert_eq!(
        tabled, expected,
        "rows must be the pre-prune's grid in (b, h) order"
    );
}

/// Re-simulate every certified row at `leaf_cap` and require the lookup to
/// give the same answer, `None` included, with bit-equal floats.
fn lookup_matches_a_fresh_replay(leaf_cap: u64) {
    let (max_b, max_h) = certified_bounds();
    let opts = SimOptions {
        leaf_cap,
        ..SimOptions::default()
    };
    let mut checked = 0usize;
    for row in ROWS.iter().filter(|r| r.b <= max_b && r.h <= max_h) {
        let fresh = simulate_schedule(row.b, row.h, opts);
        let tabled = lookup(row.b, row.h, leaf_cap);
        let agree = match (&fresh, &tabled) {
            (Some(f), Some(t)) => same_bits(f, t),
            (None, None) => true,
            _ => false,
        };
        assert!(
            agree,
            "b={} h={} leaf_cap={leaf_cap}: replay {fresh:?}, table {tabled:?}",
            row.b, row.h
        );
        checked += 1;
    }
    let expected = if cfg!(debug_assertions) {
        66
    } else {
        ROWS.len()
    };
    assert_eq!(checked, expected);
}

// One test per leaf cap of the workspace's optimizer options, so the
// harness replays them in parallel.

#[test]
fn lookup_matches_replay_at_default_leaf_cap() {
    lookup_matches_a_fresh_replay(OptimizerOptions::default().leaf_cap);
}

#[test]
fn lookup_matches_replay_at_fast_leaf_cap() {
    lookup_matches_a_fresh_replay(OptimizerOptions::fast().leaf_cap);
}

#[test]
fn lookup_matches_replay_at_property_test_leaf_cap() {
    lookup_matches_a_fresh_replay(5_000);
}

#[test]
fn untabled_pairs_have_no_lookup() {
    assert!(lookup(30, 5, LEAF_CAP).is_none());
    assert!(lookup(MAX_B + 1, 1, LEAF_CAP).is_none());
    assert!(lookup(2, MAX_H + 1, LEAF_CAP).is_none());
}
