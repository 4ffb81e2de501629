//! Sorted-run tracking and run merging: the sort-free sealing substrate.
//!
//! `New` (§3.1) fills a buffer from the stream and sorts it. But the fill
//! rarely arrives in random order: collapse output is already sorted,
//! ascending streams are one run, and batched ingestion delivers a small
//! number of sorted segments. [`RunTracker`] records run boundaries as
//! elements are appended (one comparison per element — the same
//! comparison the engine previously spent on its `filler_sorted` flag),
//! and [`merge_sorted_runs`] seals the buffer with a bottom-up merge of
//! the `r` runs in `O(k log r)` instead of `sort_unstable`'s
//! `O(k log k)`. When a fill degenerates into many short runs (uniformly
//! random input), the tracker *saturates*: boundary recording stops, and
//! sealing falls back to `sort_unstable`, which is the optimal tool for
//! that shape — run tracking never costs more than the flag it replaced.
//! For fixed-width key types the saturated fallback now routes through
//! the radix kernel instead (see [`crate::radix`]).

use crate::radix::{try_sort_fixed, RadixScratch};

/// Records the start index of each maximal non-decreasing run in an
/// append-only buffer.
///
/// The tracker holds the invariant `starts[0] == 0`; `starts.len()` is the
/// number of runs once any element has been appended. Tracking stops once
/// the run count exceeds `limit` (the *saturated* state): past that point a
/// run merge would be slower than a plain sort, so exact boundaries no
/// longer matter.
#[derive(Clone, Debug)]
pub struct RunTracker {
    starts: Vec<usize>,
    limit: usize,
}

impl RunTracker {
    /// A tracker that saturates beyond `limit` runs.
    pub fn new(limit: usize) -> Self {
        Self {
            starts: vec![0],
            limit: limit.max(1),
        }
    }

    /// Forget all boundaries (the backing buffer was emptied).
    pub fn reset(&mut self) {
        self.starts.truncate(1);
    }

    /// True while the buffer is a single non-decreasing run (in particular
    /// for an empty buffer).
    pub fn is_single_run(&self) -> bool {
        self.starts.len() == 1
    }

    /// True once more than `limit` boundaries were seen; sealing should
    /// sort rather than merge.
    pub fn is_saturated(&self) -> bool {
        self.starts.len() > self.limit
    }

    /// Run start indices (always begins with 0).
    pub fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// Record that the element at index `at` starts a new run (its
    /// predecessor compared greater). No-op when saturated.
    // alloc: starts grows to at most limit + 1 entries (saturation stops
    // recording), a one-off cost per fill, not per element.
    #[inline]
    pub fn note_boundary(&mut self, at: usize) {
        if !self.is_saturated() {
            self.starts.push(at);
        }
    }

    /// Scan `data[base..]` (just appended in bulk) for run boundaries,
    /// including the boundary between `data[base - 1]` and `data[base]`.
    /// Stops scanning early once saturated.
    // panic-free: the scan starts at max(base, 1), so data[i - 1] is valid
    // for every visited i.
    // alloc: as note_boundary — bounded by the saturation limit.
    pub fn observe_extend<T: Ord>(&mut self, data: &[T], base: usize) {
        let from = base.max(1);
        for i in from..data.len() {
            if self.is_saturated() {
                return;
            }
            if data[i - 1] > data[i] {
                self.starts.push(i);
            }
        }
    }

    /// Rebuild boundaries from scratch for `data` (snapshot restore).
    pub fn rebuild<T: Ord>(&mut self, data: &[T]) {
        self.reset();
        self.observe_extend(data, 0);
    }

    /// Sort `data` in place using whatever structure was tracked: nothing
    /// for a single run, a bottom-up run merge below saturation, and past
    /// it the radix kernel when the element type is fixed-width (else
    /// `sort_unstable`). The engine's seal path threads both scratches
    /// from its arena; they keep their allocations across calls, so a
    /// seal allocates nothing once they are warm.
    pub fn sort_data_with_radix<T: Ord + Clone + 'static>(
        &self,
        data: &mut Vec<T>,
        scratch: &mut MergeScratch<T>,
        radix: &mut RadixScratch<T>,
    ) {
        if self.is_single_run() {
            return;
        }
        if self.is_saturated() {
            if !try_sort_fixed(data, radix) {
                data.sort_unstable();
            }
        } else {
            merge_sorted_runs_with(data, &self.starts, scratch);
        }
    }

    /// As [`sort_data_with_radix`](Self::sort_data_with_radix) without the
    /// radix route and with only the ping-pong buffer retained by the
    /// caller. Convenience for cold paths (queries,
    /// tests); the engine's seal path threads a full [`MergeScratch`].
    pub fn sort_data<T: Ord + Clone>(&self, data: &mut Vec<T>, scratch: &mut Vec<T>) {
        if self.is_single_run() {
            return;
        }
        if self.is_saturated() {
            data.sort_unstable();
        } else {
            merge_sorted_runs(data, &self.starts, scratch);
        }
    }
}

/// Reusable storage for [`merge_sorted_runs_with`]: the ping-pong element
/// buffer plus the two run-bounds vectors of the bottom-up merge. All
/// three retain capacity across calls, so a warm scratch makes the merge
/// allocation-free.
#[derive(Clone, Debug)]
pub struct MergeScratch<T> {
    buf: Vec<T>,
    bounds: Vec<usize>,
    next_bounds: Vec<usize>,
}

// Manual impl: the derive would demand `T: Default`, which empty vectors
// do not need.
impl<T> Default for MergeScratch<T> {
    fn default() -> Self {
        Self {
            buf: Vec::new(),
            bounds: Vec::new(),
            next_bounds: Vec::new(),
        }
    }
}

/// The run-tracker saturation limit, whatever the buffer size `k`: past this many
/// runs, the bottom-up merge stops beating one `sort_unstable` over the
/// whole buffer. The `seal_crossover` bench group
/// (`crates/bench/benches/collapse.rs`) puts the crossover at r ≈ 4–8
/// for every k from 256 to 4096 — pdqsort's cost is nearly flat in the
/// run count while the merge pays a full pass over the buffer per
/// doubling of r — so the limit is a small constant, not a fraction of
/// k. At r ≤ 4 the merge wins (or ties within noise) in every measured
/// cell; by r = 8 it loses at every k.
pub const RUN_MERGE_LIMIT: usize = 4;

/// Merge the sorted runs of `data` (delimited by `run_starts`, which must
/// begin with 0) into fully sorted order, in place, using `scratch` as the
/// ping-pong buffer. Bottom-up: each pass merges adjacent run pairs, so
/// `r` runs cost `⌈log₂ r⌉` passes over the data — `O(n log r)` total.
///
/// The merge is stable (ties favour the earlier run), which coincides with
/// any correct sort for the `Ord`-equal elements the engine stores.
// panic-free: bounds is run_starts (ascending indices into data, headed by
// 0) plus data.len(); every range slice below is delimited by adjacent
// bounds entries guarded by the `bi + 2 < bounds.len()` loop conditions.
// alloc: the bounds entries are O(r) per seal (r ≤ saturation limit) and
// stay within the capacity the scratch retains across seals.
pub fn merge_sorted_runs_with<T: Ord + Clone>(
    data: &mut Vec<T>,
    run_starts: &[usize],
    scratch: &mut MergeScratch<T>,
) {
    debug_assert_eq!(run_starts.first(), Some(&0), "runs must start at 0");
    if run_starts.len() <= 1 {
        return;
    }
    let n = data.len();
    // One up-front reservation; otherwise the first pass's pushes grow
    // the ping-pong buffer through a cascade of reallocations.
    let buf = &mut scratch.buf;
    buf.clear();
    buf.reserve(n);
    let bounds = &mut scratch.bounds;
    bounds.clear();
    bounds.extend_from_slice(run_starts);
    bounds.push(n);
    let next_bounds = &mut scratch.next_bounds;
    next_bounds.clear();
    // `data` is always the current source; `buf` receives the pass.
    while bounds.len() > 2 {
        buf.clear();
        next_bounds.clear();
        let mut bi = 0;
        while bi + 2 < bounds.len() {
            next_bounds.push(buf.len());
            crate::kernels::merge_two(
                &data[bounds[bi]..bounds[bi + 1]],
                &data[bounds[bi + 1]..bounds[bi + 2]],
                buf,
            );
            bi += 2;
        }
        if bi + 1 < bounds.len() {
            // Odd run out: carry it to the next pass unchanged.
            next_bounds.push(buf.len());
            buf.extend_from_slice(&data[bounds[bi]..bounds[bi + 1]]);
        }
        next_bounds.push(buf.len());
        std::mem::swap(data, buf);
        std::mem::swap(bounds, next_bounds);
    }
    debug_assert_eq!(data.len(), n);
}

/// As [`merge_sorted_runs_with`] with only the ping-pong buffer retained
/// by the caller; the bounds vectors are rebuilt per call. Convenience
/// for cold paths — the seal path threads a full [`MergeScratch`].
pub fn merge_sorted_runs<T: Ord + Clone>(
    data: &mut Vec<T>,
    run_starts: &[usize],
    scratch: &mut Vec<T>,
) {
    let mut full = MergeScratch {
        buf: std::mem::take(scratch),
        bounds: Vec::new(),
        next_bounds: Vec::new(),
    };
    merge_sorted_runs_with(data, run_starts, &mut full);
    *scratch = full.buf;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merged(mut data: Vec<u64>, starts: &[usize]) -> Vec<u64> {
        let mut scratch = Vec::new();
        merge_sorted_runs(&mut data, starts, &mut scratch);
        data
    }

    #[test]
    fn merges_two_runs() {
        assert_eq!(
            merged(vec![1, 4, 9, 2, 3, 10], &[0, 3]),
            vec![1, 2, 3, 4, 9, 10]
        );
    }

    #[test]
    fn merges_many_runs_including_odd_counts() {
        for r in 1..9usize {
            let mut data = Vec::new();
            let mut starts = Vec::new();
            for run in 0..r as u64 {
                starts.push(data.len());
                data.extend((0..5u64).map(|i| i * 7 + run));
            }
            let mut expect = data.clone();
            expect.sort_unstable();
            assert_eq!(merged(data, &starts), expect, "r={r}");
        }
    }

    #[test]
    fn single_run_is_untouched() {
        assert_eq!(merged(vec![1, 2, 3], &[0]), vec![1, 2, 3]);
        assert_eq!(merged(vec![], &[0]), Vec::<u64>::new());
    }

    #[test]
    fn tracker_detects_runs_per_push_and_bulk() {
        let mut t = RunTracker::new(16);
        let mut data: Vec<u64> = Vec::new();
        for &v in &[3u64, 5, 5, 2, 9, 1] {
            if data.last().is_some_and(|last| *last > v) {
                t.note_boundary(data.len());
            }
            data.push(v);
        }
        assert_eq!(t.starts(), &[0, 3, 5]);
        assert!(!t.is_single_run());
        let base = data.len();
        data.extend_from_slice(&[4, 6, 0]);
        t.observe_extend(&data, base);
        // The trailing run `1` extends through `4, 6`; only `0` breaks it.
        assert_eq!(t.starts(), &[0, 3, 5, 8]);
        let mut scratch = Vec::new();
        let mut sorted = data.clone();
        t.sort_data(&mut sorted, &mut scratch);
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn tracker_saturates_and_falls_back_to_sort() {
        let mut t = RunTracker::new(2);
        let data: Vec<u64> = vec![9, 8, 7, 6, 5, 4];
        t.observe_extend(&data, 0);
        assert!(t.is_saturated());
        let mut sorted = data.clone();
        let mut scratch = Vec::new();
        t.sort_data(&mut sorted, &mut scratch);
        assert_eq!(sorted, vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn tracker_reset_and_rebuild() {
        let mut t = RunTracker::new(8);
        t.note_boundary(3);
        t.reset();
        assert!(t.is_single_run());
        t.rebuild(&[1u64, 2, 0, 5]);
        assert_eq!(t.starts(), &[0, 2]);
    }
}
