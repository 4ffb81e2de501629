//! Property tests for the flight-recorder journal's drain guarantees.
//!
//! Three laws, over arbitrary event sequences:
//!
//! * **Below capacity, the drain is exact**: every recorded event comes
//!   back exactly once — none duplicated, none lost — in per-thread
//!   FIFO order, even when several writer threads record concurrently.
//! * **Above capacity, the drain is the newest suffix**: exactly the
//!   last `capacity` events survive, still in order, and the overwritten
//!   prefix is accounted rather than silently gone.
//! * **Encoding is lossless**: every [`EventKind`] variant survives the
//!   five-word pack/unpack round trip bit-exactly, for any field values
//!   the wire format can represent.

use std::sync::Arc;

use mrl_obs::{CollapsePath, EventJournal, EventKind, SealKernel};
use proptest::prelude::*;

/// Header-word fields share 24 bits and saturate above this; the round
/// trip is only promised inside the representable range.
const F1_MAX: u32 = 0x00ff_ffff;

/// One of every [`EventKind`] variant, each field drawn from the range
/// its wire slot can represent: narrow header fields from `narrow`
/// (24-bit budget), wide payload fields from `wide` (full `u64`), the
/// discriminant enums from their entire domains.
fn all_variants(narrow: &[u32], wide: &[u64], kernel_ix: usize, path_ix: usize) -> Vec<EventKind> {
    let kernel = [
        SealKernel::Presorted,
        SealKernel::RunMerge,
        SealKernel::ParkedRaw,
    ][kernel_ix];
    let path = [
        CollapsePath::Concat,
        CollapsePath::TwoSource,
        CollapsePath::ThreeSource,
        CollapsePath::PairMerge,
    ][path_ix];
    vec![
        EventKind::BufferSeal {
            level: narrow[0],
            kernel,
            k: wide[0],
            runs: wide[1],
            dur_ns: wide[2],
        },
        EventKind::CollapseSource {
            slot: narrow[1],
            // `level` rides the full 32-bit half of the header word.
            level: wide[3] as u32,
            weight: wide[4],
            len: wide[5],
        },
        EventKind::Collapse {
            output_level: narrow[2],
            sources: narrow[3],
            path,
            weight_sum: wide[6],
            dur_ns: wide[7],
        },
        EventKind::RateTransition {
            from: wide[8],
            to: wide[9],
        },
        EventKind::SpineRebuild {
            epoch: wide[10],
            pairs: wide[11],
            dur_ns: wide[12],
        },
        EventKind::SpineInvalidate { epoch: wide[13] },
        EventKind::ShardDispatch {
            shard: narrow[4],
            len: wide[14],
            depth: wide[15],
        },
        EventKind::ShardStall {
            shard: narrow[5],
            dur_ns: wide[16],
        },
        EventKind::SpanBegin { name: narrow[6] },
        EventKind::SpanEnd {
            name: narrow[7],
            dur_ns: wide[17],
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn below_capacity_drain_is_exact_and_per_thread_fifo(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..64),
            1..4,
        )
    ) {
        let journal = Arc::new(EventJournal::with_capacity(64));
        let handles: Vec<_> = per_thread
            .iter()
            .cloned()
            .enumerate()
            .map(|(t, payloads)| {
                let j = Arc::clone(&journal);
                std::thread::spawn(move || {
                    j.name_current_thread("w", Some(t as u32));
                    for (i, p) in payloads.iter().enumerate() {
                        // Distinct timestamps double as sequence numbers;
                        // `pairs` carries the writer id so a cross-ring
                        // mixup cannot masquerade as a valid replay.
                        j.record_at(
                            i as u64 + 1,
                            EventKind::SpineRebuild { epoch: *p, pairs: t as u64, dur_ns: 0 },
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let dump = journal.drain();
        prop_assert_eq!(dump.lost(), 0);
        let mut total = 0usize;
        for (t, payloads) in per_thread.iter().enumerate() {
            let ring = dump
                .rings
                .iter()
                .find(|r| r.thread_name == Some(("w", Some(t as u32))));
            let Some(ring) = ring else {
                // A writer that recorded nothing never allocates storage,
                // so its ring may legitimately be absent from the dump.
                prop_assert!(payloads.is_empty(), "writer {}'s events vanished", t);
                continue;
            };
            prop_assert_eq!(ring.overwritten, 0);
            prop_assert_eq!(ring.torn, 0);
            let mut got = Vec::with_capacity(ring.events.len());
            for ev in &ring.events {
                match ev.kind {
                    EventKind::SpineRebuild { epoch, pairs, .. } => {
                        prop_assert_eq!(pairs, t as u64, "event from another writer's ring");
                        got.push(epoch);
                    }
                    ref other => prop_assert!(false, "impossible event {:?}", other),
                }
            }
            prop_assert_eq!(&got, payloads, "writer {} not replayed FIFO-exactly", t);
            total += got.len();
        }
        let expected: usize = per_thread.iter().map(Vec::len).sum();
        prop_assert_eq!(total, expected, "events duplicated or lost across rings");
    }

    #[test]
    fn every_event_kind_round_trips_through_the_wire_format(
        narrow in proptest::collection::vec(0u32..=F1_MAX, 8),
        wide in proptest::collection::vec(any::<u64>(), 18),
        kernel_ix in 0usize..3,
        path_ix in 0usize..4,
    ) {
        // Every case covers every variant. Record through the real ring
        // (not a private encode/decode pair), so the law covers the
        // whole write→drain path.
        let events = all_variants(&narrow, &wide, kernel_ix, path_ix);
        let journal = EventJournal::with_capacity(64);
        for (i, kind) in events.iter().enumerate() {
            journal.record_at(i as u64 + 1, *kind);
        }

        let dump = journal.drain();
        prop_assert_eq!(dump.lost(), 0);
        let ring = dump
            .rings
            .iter()
            .find(|r| !r.events.is_empty())
            .expect("writer ring present");
        prop_assert_eq!(ring.events.len(), events.len());
        for (i, (ev, kind)) in ring.events.iter().zip(&events).enumerate() {
            prop_assert_eq!(ev.ts_ns, i as u64 + 1, "timestamp word mangled");
            prop_assert_eq!(&ev.kind, kind, "variant {} did not round-trip", i);
        }
    }

    #[test]
    fn over_capacity_drain_keeps_exactly_the_newest_suffix(
        payloads in proptest::collection::vec(any::<u64>(), 0..200),
        cap_pow in 1u32..6,
    ) {
        let cap = 1usize << cap_pow;
        let journal = EventJournal::with_capacity(cap);
        for (i, p) in payloads.iter().enumerate() {
            journal.record_at(i as u64, EventKind::ShardDispatch { shard: 3, len: *p, depth: 1 });
        }

        let dump = journal.drain();
        let overwritten = payloads.len().saturating_sub(cap) as u64;
        let ring = dump.rings.iter().find(|r| !r.events.is_empty());
        if payloads.is_empty() {
            prop_assert!(ring.is_none(), "events appeared from nowhere");
        } else {
            let ring = ring.expect("writer ring present");
            prop_assert_eq!(ring.torn, 0);
            prop_assert_eq!(ring.overwritten, overwritten);
            let mut got = Vec::with_capacity(ring.events.len());
            for ev in &ring.events {
                match ev.kind {
                    EventKind::ShardDispatch { shard, len, depth } => {
                        prop_assert_eq!(shard, 3);
                        prop_assert_eq!(depth, 1);
                        got.push(len);
                    }
                    ref other => prop_assert!(false, "impossible event {:?}", other),
                }
            }
            let expect: Vec<u64> = payloads
                .iter()
                .copied()
                .skip(payloads.len().saturating_sub(cap))
                .collect();
            prop_assert_eq!(got, expect, "overwrite did not keep the newest window");
        }
    }
}
