//! Every collapse shape stays live: a small adaptive engine fed the
//! mixed-order stream of the online benchmark (random, ascending,
//! descending, then sawtooth phases) must take each of the four collapse
//! paths — equal-weight concat, 2-source, 3-source and the ≥ 4-source
//! pair-merge — so a path that silently stops firing fails here instead
//! of shipping dead.

use std::sync::Arc;

use mrl_framework::{AdaptiveLowestLevel, Engine, EngineConfig, Mrl99Schedule};
use mrl_obs::{CollapsePath, EventJournal, EventKind, JournalHandle};

/// The four-phase mixed-order input: random values, then an ascending,
/// a descending and a sawtooth phase, each carrying seeded jitter below
/// its step so the order is exact while the values depend on the seed.
fn mixed_values(n: u64, seed: u64) -> Vec<u64> {
    const STEP_BITS: u32 = 20;
    const TOOTH: u64 = 4096;
    let mut state = seed;
    let mut next = move || {
        // SplitMix64.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let phase = n / 4;
    (0..n)
        .map(|i| {
            let jitter = next() >> (64 - STEP_BITS);
            match (i / phase).min(3) {
                0 => next(),
                1 => (i - phase) << STEP_BITS | jitter,
                2 => (3 * phase - i) << STEP_BITS | jitter,
                _ => (i % TOOTH) << STEP_BITS | jitter,
            }
        })
        .collect()
}

#[test]
fn mixed_order_input_takes_all_four_collapse_paths() {
    let journal = Arc::new(EventJournal::with_capacity(1 << 16));
    let mut engine = Engine::new(
        EngineConfig::new(7, 64),
        AdaptiveLowestLevel,
        Mrl99Schedule::new(3),
        7,
    );
    engine.set_journal(JournalHandle::new(Arc::clone(&journal)));
    engine.extend(mixed_values(400_000, 7));

    let dump = journal.drain();
    assert_eq!(dump.unclaimed_dropped, 0);
    // [Concat, TwoSource, ThreeSource, PairMerge]
    let mut counts = [0u64; 4];
    for ring in &dump.rings {
        assert_eq!(ring.overwritten, 0, "journal too small for the run");
        for event in &ring.events {
            if let EventKind::Collapse { sources, path, .. } = event.kind {
                match path {
                    CollapsePath::Concat => assert!(sources >= 2),
                    CollapsePath::TwoSource => assert_eq!(sources, 2),
                    CollapsePath::ThreeSource => assert_eq!(sources, 3),
                    CollapsePath::PairMerge => assert!(sources >= 4),
                }
                counts[path as usize] += 1;
            }
        }
    }
    assert_eq!(
        counts.iter().sum::<u64>(),
        engine.stats().collapses,
        "one Collapse event per collapse"
    );
    assert!(
        counts.iter().all(|&c| c > 0),
        "some collapse path never fired: \
         [concat, two, three, pair-merge] = {counts:?}"
    );
}
