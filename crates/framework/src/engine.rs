//! The streaming engine: `New` / `Collapse` / `Output` composed under a
//! collapse policy and a sampling-rate schedule.
//!
//! [`Engine`] is the common machinery behind every algorithm in the paper:
//!
//! * unknown-`N` (§3): [`crate::AdaptiveLowestLevel`] + [`crate::Mrl99Schedule`],
//! * known-`N` deterministic (MRL98/\[MP80\]/\[ARS97\]): any policy +
//!   [`crate::FixedRate`]`::new(1)`,
//! * known-`N` sampled: any policy + [`crate::FixedRate`]`::new(r)`.
//!
//! `Output` is non-destructive and may be invoked at any prefix of the
//! stream, which is what makes the algorithm suitable for online
//! aggregation (§3.7, \[Hel97\]).

use mrl_obs::{CollapsePath, EventKind, JournalHandle, Key, MetricsHandle, SealKernel};
use mrl_sampling::{rng_from_seed, BlockSampler, SketchRng};

use crate::arena::ScratchArena;
use crate::buffer::{Buffer, BufferState};
use crate::kernels::{
    select_merged_weighted_spaced, select_three_weighted_spaced, select_two_weighted_spaced,
};
use crate::merge::{
    collapse_first_target, output_position, select_weighted, total_mass, WeightedSource,
};
use crate::policy::CollapsePolicy;
use crate::radix::try_sort_fixed;
use crate::runs::{merge_sorted_runs_with, RunTracker, RUN_MERGE_LIMIT};
use crate::schedule::RateSchedule;
use crate::spine::QuerySpine;
use crate::stats::TreeStats;
use crate::tree::TreeRecorder;

/// Metric keys the engine emits (all on buffer-seal or collapse
/// granularity — once per `k` raw elements at most — so an attached
/// recorder costs a few atomic ops per buffer and a disabled
/// [`MetricsHandle`] costs one predicted branch per seal).
pub mod metrics {
    use mrl_obs::Key;

    /// Counter: seals adopted as-is because the fill arrived sorted.
    pub const SEAL_PRESORTED: Key = Key::new("engine.seal.presorted");
    /// Counter: seals that bottom-up merged the tracked runs.
    pub const SEAL_RUN_MERGE: Key = Key::new("engine.seal.run_merge");
    /// Counter: seals parked raw (sort deferred to collapse/query time).
    pub const SEAL_PARKED_RAW: Key = Key::new("engine.seal.parked_raw");
    /// Histogram: nanoseconds per seal (`take_filler`).
    pub const SEAL_NS: Key = Key::new("engine.seal.ns");
    /// Counter, labelled by level: completed leaves per buffer level.
    pub const LEAVES_BY_LEVEL: &str = "engine.leaves";
    /// Counter: collapse operations (`C`).
    pub const COLLAPSES: Key = Key::new("engine.collapses");
    /// Histogram: nanoseconds per collapse.
    pub const COLLAPSE_NS: Key = Key::new("engine.collapse.ns");
    /// Counter: collapses through the all-raw equal-weight fast path.
    pub const COLLAPSE_RAW_FAST_PATH: Key = Key::new("engine.collapse.raw_fast_path");
    /// Gauge: the Lemma 4/5 weight sum `W` after the latest collapse.
    pub const COLLAPSE_WEIGHT_SUM: Key = Key::new("engine.collapse.weight_sum");
    /// Gauge, labelled by level: occupied (full/partial) buffers per level.
    pub const OCCUPANCY_BY_LEVEL: &str = "engine.buffers.occupied";
    /// Gauge: allocated buffer slots.
    pub const BUFFERS_ALLOCATED: Key = Key::new("engine.buffers.allocated");
    /// Counter: sampling-rate doublings.
    pub const RATE_TRANSITIONS: Key = Key::new("engine.rate.transitions");
    /// Gauge: the current sampling rate `r`.
    pub const RATE_CURRENT: Key = Key::new("engine.rate.current");
    /// Gauge: stream position `N` at sampling onset (set once).
    pub const SAMPLING_ONSET_N: Key = Key::new("engine.sampling.onset_n");
    /// Gauge: cumulative random draws consumed by the block sampler.
    pub const SAMPLER_DRAWS: Key = Key::new("engine.sampler.draws");
    /// Gauge: stream elements consumed (`N`), refreshed at each seal.
    pub const ELEMENTS: Key = Key::new("engine.elements");
}

/// Sizing of an engine: `b` buffers of `k` elements each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of buffers `b` (≥ 2).
    pub num_buffers: usize,
    /// Elements per buffer `k` (≥ 1).
    pub buffer_size: usize,
}

impl EngineConfig {
    /// Create a configuration, validating `b ≥ 2` and `k ≥ 1`.
    ///
    /// # Panics
    /// Panics on invalid sizes.
    pub fn new(num_buffers: usize, buffer_size: usize) -> Self {
        assert!(num_buffers >= 2, "need at least two buffers to collapse");
        assert!(buffer_size >= 1, "buffer size must be positive");
        Self {
            num_buffers,
            buffer_size,
        }
    }

    /// The paper's memory metric: `b · k` elements.
    pub fn memory_elements(&self) -> usize {
        self.num_buffers * self.buffer_size
    }
}

/// Single-pass approximate-quantile engine.
///
/// Generic over the element type `T`, the [`CollapsePolicy`] `P` and the
/// [`RateSchedule`] `R`. Elements are inserted one at a time with
/// [`Engine::insert`]; quantile estimates are available at any moment via
/// [`Engine::query`].
#[derive(Clone, Debug)]
pub struct Engine<T, P, R> {
    config: EngineConfig,
    /// Allocated buffer slots; may be shorter than `b` under a lazy
    /// allocation schedule (§5).
    buffers: Vec<Buffer<T>>,
    /// `allocation[i]` = number of leaves that must exist before slot `i`
    /// may be allocated (all zero by default: allocate up front).
    allocation: Vec<u64>,
    policy: P,
    rate_schedule: R,
    sampler: BlockSampler<T>,
    filler: Vec<T>,
    /// Sorted-run boundaries of `filler`, tracked per push (one comparison
    /// per element) so sealing merges the runs in `O(k log r)` instead of
    /// sorting from scratch, and queries on an already-sorted fill skip
    /// the snapshot-and-sort entirely.
    filler_runs: RunTracker,
    /// Slots holding raw (deliberately unsorted) fill data. When a fill
    /// saturates the run tracker, sealing *defers* the sort: if the slot is
    /// later collapsed together with other raw equal-weight slots, one sort
    /// of the concatenation replaces the per-buffer sorts plus the merge
    /// walk. Read paths (`query_many`, snapshots, `into_buffers`) sort on
    /// demand, so the invariant "populated buffers are sorted" holds
    /// everywhere outside this engine. Stored as a per-slot mask (grown
    /// alongside the lazily allocated slot table) so marking a seal is a
    /// flag store, not a push.
    unsorted_mask: Vec<bool>,
    fill_rate: u64,
    fill_level: u32,
    filling: bool,
    collapse_high_phase: bool,
    /// All scratch storage reused across seals, collapses, gauge
    /// publications and `extend` staging, so steady-state streaming
    /// allocates nothing (see [`ScratchArena`]).
    scratch: ScratchArena<T>,
    stats: TreeStats,
    metrics: MetricsHandle,
    /// Flight-recorder handle: structured lifecycle events (seals,
    /// collapses with provenance, rate transitions, spine rebuilds) at
    /// the same once-per-`k`-elements granularity as the metrics.
    /// Disabled by default — one predicted branch per site.
    journal: JournalHandle,
    recorder: Option<TreeRecorder>,
    slot_nodes: Vec<Option<usize>>,
    sample_tap: Option<Vec<(T, u64)>>,
    max_allocated: usize,
    finished: bool,
    /// Ingest epoch: incremented by every mutation that can change what a
    /// query observes (insert, batch insert, collapse, finish, snapshot
    /// restore). The cached query spine records the epoch it was built
    /// at; a mismatch marks it stale.
    epoch: u64,
    /// Serve `query`/`query_many`/`rank_of`/`cdf` from the epoch-cached
    /// spine (the default). Disabled, every query re-runs the direct
    /// weighted merge — kept for differential testing of the cache.
    query_cache: bool,
    rng: SketchRng,
    /// The offline-certified error coefficients this engine is audited
    /// against after every seal/collapse (feature `invariant-audit`).
    #[cfg(feature = "invariant-audit")]
    certified: Option<crate::invariant::CertifiedSchedule>,
}

impl<T, P, R> Engine<T, P, R>
where
    T: Ord + Clone + 'static,
    P: CollapsePolicy,
    R: RateSchedule,
{
    /// Create an engine with all buffers allocated up front.
    pub fn new(config: EngineConfig, policy: P, rate_schedule: R, seed: u64) -> Self {
        let allocation = vec![0; config.num_buffers];
        Self::with_allocation(config, policy, rate_schedule, allocation, seed)
    }

    /// Create an engine with a lazy buffer-allocation schedule (§5):
    /// `allocation[i]` is the number of leaves that must have been created
    /// before buffer `i` is allocated. Must be non-decreasing, with
    /// `allocation[0] == 0`.
    ///
    /// # Panics
    /// Panics if the schedule is malformed.
    pub fn with_allocation(
        config: EngineConfig,
        policy: P,
        rate_schedule: R,
        allocation: Vec<u64>,
        seed: u64,
    ) -> Self {
        assert_eq!(
            allocation.len(),
            config.num_buffers,
            "allocation schedule must cover every buffer"
        );
        assert_eq!(
            allocation[0], 0,
            "the first buffer must be available immediately"
        );
        assert!(
            allocation.windows(2).all(|w| w[0] <= w[1]),
            "allocation schedule must be non-decreasing"
        );
        let rate = rate_schedule.rate();
        Self {
            config,
            buffers: Vec::new(),
            allocation,
            policy,
            rate_schedule,
            sampler: BlockSampler::new(rate),
            filler: Vec::with_capacity(config.buffer_size),
            filler_runs: RunTracker::new(RUN_MERGE_LIMIT),
            unsorted_mask: Vec::new(),
            fill_rate: rate,
            fill_level: 0,
            filling: false,
            collapse_high_phase: false,
            scratch: ScratchArena::default(),
            stats: TreeStats::default(),
            metrics: MetricsHandle::disabled(),
            journal: JournalHandle::disabled(),
            recorder: None,
            slot_nodes: Vec::new(),
            sample_tap: None,
            max_allocated: 0,
            finished: false,
            epoch: 0,
            query_cache: true,
            rng: rng_from_seed(seed),
            #[cfg(feature = "invariant-audit")]
            certified: None,
        }
    }

    /// Enable recording of the full collapse tree (Figures 2–3). Call before
    /// inserting data.
    pub fn enable_tree_recording(&mut self) {
        assert_eq!(self.stats.elements, 0, "enable recording before inserting");
        self.recorder = Some(TreeRecorder::new());
    }

    /// Enable recording of every emitted sample element and its weight
    /// (test support: lets tests compute the exact weighted quantile of the
    /// sample sequence fed to the deterministic tree).
    pub fn enable_sample_tap(&mut self) {
        assert_eq!(self.stats.elements, 0, "enable the tap before inserting");
        self.sample_tap = Some(Vec::new());
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Stream elements consumed so far.
    pub fn n(&self) -> u64 {
        // Saturating: both counters track disjoint parts of one stream, so
        // their sum is the stream length and cannot wrap unless the stream
        // itself exceeds u64 — degrade to a pinned count, never wrap.
        self.stats.elements.saturating_add(self.sampler.pending())
    }

    /// True once [`Engine::finish`] has been called.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Tree statistics (exact accounting of `W`, `C`, leaves, `Σnᵢ²`).
    pub fn stats(&self) -> &TreeStats {
        &self.stats
    }

    /// Attach a metrics sink (see [`metrics`] for the emitted keys). The
    /// default handle is disabled and costs one predicted branch per
    /// seal/collapse; may be attached or swapped at any point.
    pub fn set_metrics(&mut self, metrics: MetricsHandle) {
        self.metrics = metrics;
    }

    /// The attached metrics handle (disabled by default).
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// Attach a flight-recorder journal (see [`mrl_obs::EventKind`] for
    /// the emitted events). The default handle is disabled and costs one
    /// predicted branch per seal/collapse; may be attached or swapped at
    /// any point.
    pub fn set_journal(&mut self, journal: JournalHandle) {
        self.journal = journal;
    }

    /// The attached journal handle (disabled by default).
    pub fn journal(&self) -> &JournalHandle {
        &self.journal
    }

    /// The current ingest epoch (see the `epoch` field): changes exactly
    /// when a query could start observing different state.
    pub fn ingest_epoch(&self) -> u64 {
        self.epoch
    }

    /// Enable or disable the epoch-cached query spine (enabled by
    /// default). With the cache off, every query re-runs the direct
    /// weighted-merge path — useful for differential testing.
    pub fn set_query_cache_enabled(&mut self, enabled: bool) {
        self.query_cache = enabled;
        if !enabled {
            self.scratch.spine.borrow_mut().invalidate();
            self.journal
                .record(EventKind::SpineInvalidate { epoch: self.epoch });
        }
    }

    /// Mark queryable state as changed. Wrapping: only equality with the
    /// spine's build epoch matters, and 2⁶⁴ mutations cannot revisit a
    /// stale spine's epoch without 2⁶⁴ − 1 intervening queries missing.
    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Run `f` over the current query spine, rebuilding it first if the
    /// ingest epoch moved since it was last materialised. `None` when the
    /// cache is disabled (callers then take the direct merge path).
    pub(crate) fn with_current_spine<U>(&self, f: impl FnOnce(&QuerySpine<T>) -> U) -> Option<U> {
        if !self.query_cache {
            return None;
        }
        let mut spine = self.scratch.spine.borrow_mut();
        if !spine.is_current(self.epoch) {
            let rebuild_begin = self.journal.now_ns();
            spine.rebuild(self.epoch, |pairs| {
                self.for_each_weighted(|v, w| pairs.push((v.clone(), w)));
            });
            if let Some(begin) = rebuild_begin {
                let end = self.journal.now_ns().unwrap_or(begin);
                self.journal.record_at(
                    end,
                    EventKind::SpineRebuild {
                        epoch: self.epoch,
                        pairs: spine.len() as u64,
                        dur_ns: end.saturating_sub(begin),
                    },
                );
            }
        }
        Some(f(&spine))
    }

    /// The recorded collapse tree, if recording was enabled.
    pub fn recorder(&self) -> Option<&TreeRecorder> {
        self.recorder.as_ref()
    }

    /// The recorded sample sequence, if the tap was enabled.
    pub fn sample_tap(&self) -> Option<&[(T, u64)]> {
        self.sample_tap.as_deref()
    }

    /// Node ids (into the recorder) of the current root buffers, if
    /// recording was enabled.
    pub fn root_nodes(&self) -> Vec<usize> {
        self.slot_nodes
            .iter()
            .zip(&self.buffers)
            .filter(|(_, b)| b.state() != BufferState::Empty)
            .filter_map(|(n, _)| *n)
            .collect()
    }

    /// Buffer slots currently allocated.
    pub fn allocated_slots(&self) -> usize {
        self.buffers.len()
    }

    /// High-water mark of allocated slots.
    pub fn max_allocated_slots(&self) -> usize {
        self.max_allocated
    }

    /// Current memory footprint in elements (allocated slots × `k`).
    pub fn memory_elements(&self) -> usize {
        self.buffers.len() * self.config.buffer_size
    }

    /// Current sampling rate of the `New` operation.
    pub fn current_rate(&self) -> u64 {
        self.rate_schedule.rate()
    }

    /// True once the non-uniform sampler has moved past rate 1.
    pub fn sampling_started(&self) -> bool {
        self.rate_schedule.sampling_started()
    }

    /// Insert one stream element.
    ///
    /// # Panics
    /// Panics if called after [`Engine::finish`].
    // alloc: filler.push lands in capacity reserved by the recycled slot
    // storage (complete_fill) and note_boundary's run starts are bounded by
    // the saturation cap; the sample tap is opt-in test support.
    pub fn insert(&mut self, item: T) {
        assert!(!self.finished, "cannot insert after finish()");
        self.bump_epoch();
        if !self.filling {
            self.begin_fill();
        }
        if let Some(repr) = self.sampler.offer(item, &mut self.rng) {
            self.stats.record_block(self.fill_rate);
            if let Some(tap) = &mut self.sample_tap {
                tap.push((repr.clone(), self.fill_rate));
            }
            if self.filler.last().is_some_and(|last| *last > repr) {
                self.filler_runs.note_boundary(self.filler.len());
            }
            self.filler.push(repr);
            if self.filler.len() == self.config.buffer_size {
                self.complete_fill();
            }
        }
    }

    /// Insert a batch of stream elements.
    ///
    /// Equivalent in distribution to inserting the elements one at a time,
    /// but the filling/finished checks are hoisted out of the per-element
    /// loop and the block sampler consumes one random draw per **block**
    /// instead of one per element (at rate 1, none at all) — see
    /// [`BlockSampler::offer_slice`]. The consumed random stream differs
    /// from the per-element path, so a seeded run is reproducible only
    /// against the same chunking of the input.
    ///
    /// # Panics
    /// Panics if called after [`Engine::finish`].
    // alloc: as in `insert` — pushes go into recycled k-capacity filler
    // storage; the sample tap is opt-in test support.
    pub fn insert_batch(&mut self, items: &[T]) {
        assert!(!self.finished, "cannot insert after finish()");
        if !items.is_empty() {
            self.bump_epoch();
        }
        let mut rest = items;
        while !rest.is_empty() {
            if !self.filling {
                self.begin_fill();
            }
            // Raw stream elements this fill can still absorb: each of the
            // `room` free filler slots stands for `fill_rate` elements,
            // less whatever the pending block has already consumed.
            let room = (self.config.buffer_size - self.filler.len()) as u64;
            // Saturating: begin_fill guarantees room ≥ 1 and the pending
            // block never exceeds one fill's worth (pending < fill_rate),
            // so absorb ≥ 1 in practice; saturation only defends corrupted
            // state from looping on a wrapped subtraction.
            let absorb = room
                .saturating_mul(self.fill_rate)
                .saturating_sub(self.sampler.pending());
            let take = absorb.min(rest.len() as u64) as usize;
            let (chunk, tail) = rest.split_at(take);
            rest = tail;
            if self.fill_rate == 1 {
                // Every element is its own block: bypass the sampler and
                // bulk-copy straight into the filler.
                if let Some(tap) = self.sample_tap.as_mut() {
                    for v in chunk {
                        tap.push((v.clone(), 1));
                    }
                }
                let base = self.filler.len();
                self.filler.extend_from_slice(chunk);
                self.filler_runs.observe_extend(&self.filler, base);
                self.stats.record_blocks(1, chunk.len() as u64);
            } else {
                let emitted = {
                    let filler = &mut self.filler;
                    let filler_runs = &mut self.filler_runs;
                    let fill_rate = self.fill_rate;
                    let mut tap = self.sample_tap.as_mut();
                    self.sampler.offer_slice(chunk, &mut self.rng, &mut |repr| {
                        if let Some(tap) = tap.as_mut() {
                            tap.push((repr.clone(), fill_rate));
                        }
                        if filler.last().is_some_and(|last| *last > repr) {
                            filler_runs.note_boundary(filler.len());
                        }
                        filler.push(repr);
                    })
                };
                self.stats.record_blocks(self.fill_rate, emitted as u64);
            }
            if self.filler.len() == self.config.buffer_size {
                debug_assert_eq!(self.sampler.pending(), 0);
                self.complete_fill();
            }
        }
    }

    /// Insert every element of an iterator. Internally gathers elements
    /// into fixed-size batches and feeds them to [`Engine::insert_batch`],
    /// so bulk loading through `extend` gets the batched fast path. The
    /// staging buffer lives in the scratch arena: repeated `extend` calls
    /// reuse one CHUNK-capacity vector and allocate nothing.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        const CHUNK: usize = 1024;
        let mut iter = iter.into_iter();
        // Staging leaves the arena for the duration so insert_batch can
        // borrow `&mut self` while the batch is alive.
        let mut buf = std::mem::take(&mut self.scratch.stage);
        loop {
            buf.clear();
            buf.extend(iter.by_ref().take(CHUNK));
            if buf.is_empty() {
                break;
            }
            self.insert_batch(&buf);
            if buf.len() < CHUNK {
                break;
            }
        }
        buf.clear();
        self.scratch.stage = buf;
    }

    /// Declare end-of-stream: the partially filled buffer (if any) becomes a
    /// `Partial` buffer (§3.1). Queries remain available; further inserts
    /// panic.
    // panic-free: empty_slot() is Some because begin_fill reserved a slot
    // for the fill in progress (filling == true on this branch), and the
    // deferred-seal sweep indexes buffers by 0..len.
    // alloc: tap is opt-in test support; filler.push has reserved capacity.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.bump_epoch();
        if self.filling {
            if let Some((tail, pending)) = self.sampler.flush() {
                // The trailing incomplete block still contributes its
                // representative; per the paper the partial buffer's
                // elements all carry the buffer weight `r` (the analysis
                // excludes the partial buffer from Lemma 5, §4.2).
                self.stats.record_block(pending);
                if let Some(tap) = &mut self.sample_tap {
                    tap.push((tail.clone(), self.fill_rate));
                }
                if self.filler.last().is_some_and(|last| *last > tail) {
                    self.filler_runs.note_boundary(self.filler.len());
                }
                self.filler.push(tail);
            }
            if !self.filler.is_empty() {
                let (mut data, sorted) = self.take_filler();
                if !sorted && !try_sort_fixed(&mut data, &mut self.scratch.radix) {
                    data.sort_unstable();
                }
                let idx = self
                    .empty_slot()
                    .expect("begin_fill reserved an empty slot");
                self.buffers[idx].populate_sorted(
                    data,
                    self.fill_rate,
                    self.fill_level,
                    self.config.buffer_size,
                );
                if let Some(rec) = &mut self.recorder {
                    self.slot_nodes[idx] = Some(rec.add_leaf(self.fill_rate, self.fill_level));
                }
            }
            self.filling = false;
        }
        // Restore the sorted invariant on any slot whose seal was deferred:
        // once finished, every populated buffer is sorted and the engine can
        // be snapshotted, drained or queried with no special cases.
        for idx in 0..self.buffers.len() {
            if self.slot_is_unsorted(idx) {
                self.buffers[idx].make_sorted_with(&mut self.scratch.radix);
            }
        }
        self.unsorted_mask.fill(false);
        self.finished = true;
        #[cfg(feature = "invariant-audit")]
        self.audit_invariants("finish");
    }

    /// Estimate the φ-quantile of everything inserted so far.
    ///
    /// Non-destructive: this is the paper's `Output` operation, which "does
    /// not destroy or modify the state \[and\] can be invoked as many times as
    /// required" (§3.7). Returns `None` before any element has arrived.
    pub fn query(&self, phi: f64) -> Option<T> {
        self.query_many(&[phi]).map(|mut v| v.remove(0))
    }

    /// Estimate several quantiles at once from one merge pass. Results are
    /// returned in the order of `phis`. Returns `None` before any element
    /// has arrived.
    // panic-free: buffer indices come from enumerate(); out[original] and
    // the closing expect hold because `order` carries every index 0..len
    // exactly once, so every slot is filled before unwrapping.
    pub fn query_many(&self, phis: &[f64]) -> Option<Vec<T>> {
        // Cached read path: every phi is a binary search over the spine
        // (rebuilt at most once per ingest epoch). The spine's positional
        // lookup returns exactly the element the weighted-merge selection
        // below would pick, so the two paths answer identically.
        if let Some(cached) = self.with_current_spine(|spine| {
            let s = spine.total();
            if s == 0 {
                return None;
            }
            let mut out = Vec::with_capacity(phis.len());
            for &phi in phis {
                out.push(spine.lookup(output_position(phi, s))?.clone());
            }
            Some(out)
        }) {
            return cached;
        }
        // Only clone-and-sort the in-progress fill when it is actually out
        // of order; an ascending stream (or a freshly started fill) reads
        // straight from `filler`, and a mildly disordered one merges its
        // tracked runs instead of sorting from scratch.
        let sorted_holder: Option<Vec<T>> = if self.filler_runs.is_single_run() {
            None
        } else {
            let mut v = self.filler.clone();
            let mut scratch = Vec::new();
            self.filler_runs.sort_data(&mut v, &mut scratch);
            Some(v)
        };
        let filler_view: &[T] = sorted_holder.as_deref().unwrap_or(&self.filler);
        // Deferred-seal slots hold raw data; queries read a sorted copy
        // (Output never mutates state, §3.7).
        let raw_copies: Vec<(usize, Vec<T>)> = (0..self.buffers.len())
            .filter(|&i| self.slot_is_unsorted(i))
            .map(|i| {
                let mut v = self.buffers[i].data().to_vec();
                v.sort_unstable();
                (i, v)
            })
            .collect();
        let pending = self.sampler.peek();
        let mut sources: Vec<WeightedSource<'_, T>> = Vec::new();
        for (i, b) in self.buffers.iter().enumerate() {
            if b.state() != BufferState::Empty {
                let data = raw_copies
                    .iter()
                    .find(|(j, _)| *j == i)
                    .map(|(_, v)| v.as_slice())
                    .unwrap_or_else(|| b.data());
                sources.push(WeightedSource::new(data, b.weight()));
            }
        }
        if !filler_view.is_empty() {
            sources.push(WeightedSource::new(filler_view, self.fill_rate));
        }
        let tail_holder;
        if let Some((tail, seen)) = pending {
            tail_holder = [tail.clone()];
            sources.push(WeightedSource::new(&tail_holder, seen));
        }
        let s = total_mass(&sources);
        if s == 0 {
            return None;
        }
        // Map each phi to its weighted position, select in sorted order,
        // then restore the caller's order. Callers overwhelmingly pass
        // ascending phis, whose positions are already sorted — skip the
        // per-call sort then.
        let mut order: Vec<(u64, usize)> = phis
            .iter()
            .map(|&phi| output_position(phi, s))
            .zip(0..)
            .collect();
        if !order.is_sorted() {
            order.sort_unstable();
        }
        let targets: Vec<u64> = order.iter().map(|&(p, _)| p).collect();
        let picked = select_weighted(&sources, &targets);
        let mut out: Vec<Option<T>> = vec![None; phis.len()];
        for ((_, original), value) in order.into_iter().zip(picked) {
            out[original] = Some(value);
        }
        Some(
            out.into_iter()
                .map(|v| v.expect("every slot filled"))
                .collect(),
        )
    }

    /// Total weighted mass visible to `Output` right now. Equals [`Engine::n`]
    /// while streaming; may exceed it by less than one block after
    /// [`Engine::finish`] (the partial buffer rounds its tail block's weight
    /// up to `r`).
    pub fn output_mass(&self) -> u64 {
        let mut s: u64 = self
            .buffers
            .iter()
            .filter(|b| b.state() != BufferState::Empty)
            .map(Buffer::mass)
            .sum();
        // Saturating like Buffer::mass: the total is the stream length by
        // weight conservation, so wrapping is impossible in a consistent
        // engine — pin rather than wrap if state is ever corrupted.
        s = s.saturating_add((self.filler.len() as u64).saturating_mul(self.fill_rate));
        if let Some((_, seen)) = self.sampler.peek() {
            s = s.saturating_add(seen);
        }
        s
    }

    /// Greatest weight among the buffers `Output` would consult (the
    /// `w_max` of Lemma 4). Zero if no data.
    pub fn w_max(&self) -> u64 {
        let mut w = self
            .buffers
            .iter()
            .filter(|b| b.state() != BufferState::Empty)
            .map(Buffer::weight)
            .max()
            .unwrap_or(0);
        if !self.filler.is_empty() || self.sampler.peek().is_some() {
            w = w.max(self.fill_rate);
        }
        w
    }

    /// The deterministic part of the rank-error guarantee at this instant:
    /// `(W + w_max)/2` weighted-rank units (weakened Lemma 4). The sampling
    /// error comes on top of this, controlled by ε, δ and the schedule.
    pub fn tree_error_bound(&self) -> u64 {
        self.stats.tree_error_bound(self.w_max())
    }

    /// Collapse **all** full buffers into one (used by the parallel
    /// protocol, §6, before shipping buffers to the coordinator). No-op if
    /// fewer than two buffers are full.
    // panic-free: the collected slot list holds valid buffer indices by
    // construction (enumerate over the live buffers).
    pub fn collapse_all_full(&mut self) {
        self.bump_epoch();
        // The slot list leaves the arena for the duration so
        // perform_collapse can borrow `&mut self` while it is alive.
        let mut full = std::mem::take(&mut self.scratch.slots);
        full.clear();
        full.extend(
            self.buffers
                .iter()
                .enumerate()
                .filter(|(_, b)| b.state() == BufferState::Full)
                .map(|(i, _)| i),
        );
        if full.len() >= 2 {
            if let Some(max_level) = full.iter().map(|&i| self.buffers[i].level()).max() {
                self.perform_collapse(&full, max_level + 1);
            }
        }
        full.clear();
        self.scratch.slots = full;
    }

    /// Tear down the engine and return its non-empty buffers
    /// (full-or-partial), e.g. for shipping to a parallel coordinator.
    pub fn into_buffers(mut self) -> Vec<Buffer<T>> {
        self.finish();
        self.buffers
            .drain(..)
            .filter(|b| b.state() != BufferState::Empty)
            .collect()
    }

    // ---- snapshot support (see crate::snapshot) --------------------------

    /// All buffer slots (including empty ones), for snapshotting.
    pub(crate) fn raw_buffers(&self) -> &[Buffer<T>] {
        &self.buffers
    }

    /// True when slot `idx` holds raw deferred-seal data; the snapshot
    /// writer sorts its copy of such a slot before serialising.
    pub(crate) fn slot_is_unsorted(&self, idx: usize) -> bool {
        self.unsorted_mask.get(idx).copied().unwrap_or(false)
    }

    /// Flag slot `idx` as holding raw deferred-seal data, growing the mask
    /// to cover lazily allocated slots.
    // panic-free: the resize directly above guarantees idx is in bounds.
    fn mark_unsorted(&mut self, idx: usize) {
        if self.unsorted_mask.len() <= idx {
            self.unsorted_mask.resize(idx + 1, false);
        }
        self.unsorted_mask[idx] = true;
    }

    /// Lazy-allocation thresholds.
    pub(crate) fn allocation_thresholds(&self) -> &[u64] {
        &self.allocation
    }

    /// In-progress fill: (elements, rate, level, active?).
    pub(crate) fn fill_state(&self) -> (&[T], u64, u32, bool) {
        (&self.filler, self.fill_rate, self.fill_level, self.filling)
    }

    /// The pending (incomplete) block's representative and element count.
    pub(crate) fn pending_block(&self) -> Option<(T, u64)> {
        self.sampler.peek().map(|(v, seen)| (v.clone(), seen))
    }

    /// Even-weight collapse alternation phase.
    pub(crate) fn collapse_phase(&self) -> bool {
        self.collapse_high_phase
    }

    /// The rate schedule's current state.
    pub(crate) fn schedule_state(&self) -> &R {
        &self.rate_schedule
    }

    /// Overwrite the internals from a snapshot (called by
    /// [`Engine::restore`] on a freshly constructed engine).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore_internals(
        &mut self,
        buffers: Vec<Buffer<T>>,
        filler: Vec<T>,
        fill_rate: u64,
        fill_level: u32,
        filling: bool,
        pending: Option<(T, u64)>,
        collapse_high_phase: bool,
        stats: TreeStats,
        finished: bool,
    ) {
        assert!(filler.len() < self.config.buffer_size || !filling);
        // Slot table: the restored buffers plus one empty slot when a fill
        // is in progress (begin_fill had reserved one).
        self.buffers = buffers;
        if filling {
            self.buffers.push(Buffer::empty(self.config.buffer_size));
        }
        assert!(
            self.buffers.len() <= self.config.num_buffers,
            "snapshot exceeds the buffer budget"
        );
        self.slot_nodes = vec![None; self.buffers.len()];
        self.max_allocated = self.buffers.len();
        // Snapshots always carry sorted buffer data (the writer sorts raw
        // slots' copies), so no deferred-seal marks survive a restore.
        self.unsorted_mask.fill(false);
        self.filler_runs.rebuild(&filler);
        self.filler = filler;
        self.fill_rate = fill_rate;
        self.fill_level = fill_level;
        self.filling = filling;
        self.sampler = BlockSampler::with_pending(fill_rate, pending);
        self.collapse_high_phase = collapse_high_phase;
        self.stats = stats;
        self.finished = finished;
        self.bump_epoch();
    }

    // ---- invariant auditor (feature "invariant-audit") -------------------

    /// Attach the offline-certified error coefficients: every subsequent
    /// seal/collapse/finish re-checks the live tree against them (see
    /// [`crate::invariant`]).
    #[cfg(feature = "invariant-audit")]
    pub fn set_certified_schedule(&mut self, certified: crate::invariant::CertifiedSchedule) {
        self.certified = Some(certified);
    }

    /// The attached certificate, if any.
    #[cfg(feature = "invariant-audit")]
    pub fn certified_schedule(&self) -> Option<&crate::invariant::CertifiedSchedule> {
        self.certified.as_ref()
    }

    /// Assert every MRL structural invariant plus the analysis-certified
    /// error bound on the live tree. Called after each seal, collapse and
    /// finish; also callable from tests at arbitrary quiescent points.
    ///
    /// # Panics
    /// Panics (with `context` in the message) on any violated invariant.
    // arith: the auditor recomputes accounting identities to *check* them;
    // `mass - n` is guarded by `mass >= n` in the same condition and the
    // sums mirror n()/output_mass(), whose bounds are established there.
    #[cfg(feature = "invariant-audit")]
    pub fn audit_invariants(&self, context: &str) {
        let k = self.config.buffer_size;
        // Weight conservation: the mass `Output` sees is exactly the
        // elements consumed — except after finish, where the partial
        // buffer's tail block rounds its weight up by < one block.
        let mass = self.output_mass();
        let n = self.n();
        if self.finished {
            assert!(
                mass >= n && mass - n < self.fill_rate.max(1),
                "[{context}] finished mass {mass} must round n {n} up by < one block \
                 (rate {})",
                self.fill_rate
            );
        } else {
            assert_eq!(
                mass, n,
                "[{context}] weight conservation: output mass {mass} != elements {n}"
            );
        }
        // Occupancy legality and sortedness, per slot.
        assert!(
            self.buffers.len() <= self.config.num_buffers,
            "[{context}] {} slots allocated, budget is {}",
            self.buffers.len(),
            self.config.num_buffers
        );
        for (idx, b) in self.buffers.iter().enumerate() {
            match b.state() {
                BufferState::Empty => continue,
                BufferState::Full => assert_eq!(
                    b.data().len(),
                    k,
                    "[{context}] full buffer {idx} holds {} of {k} elements",
                    b.data().len()
                ),
                BufferState::Partial => assert!(
                    !b.data().is_empty() && b.data().len() <= k,
                    "[{context}] partial buffer {idx} holds {} of {k} elements",
                    b.data().len()
                ),
            }
            assert!(
                b.weight() >= 1,
                "[{context}] buffer {idx} has weight {}",
                b.weight()
            );
            // The partial buffer sealed by finish() carries the in-progress
            // fill's level, which may not have a completed leaf yet — allow
            // `fill_level` alongside the deepest recorded level.
            let level_cap = self.stats.max_level.max(self.fill_level);
            assert!(
                b.level() <= level_cap,
                "[{context}] buffer {idx} at level {} above the tree's max {level_cap}",
                b.level()
            );
            if !self.slot_is_unsorted(idx) {
                assert!(
                    b.data().is_sorted(),
                    "[{context}] buffer {idx} (weight {}, level {}) is not sorted",
                    b.weight(),
                    b.level()
                );
            }
        }
        // The certified bound: the live Lemma-4 tree error must stay within
        // what the data-free replay proved for this (b, k, h) schedule. The
        // replay covers the *streaming* schedule only — once finished, the
        // §6 shipping collapse (`collapse_all_full`) merges across levels
        // in a way the certificate never modelled, and its error is
        // accounted by the coordinator's merge analysis instead.
        if let Some(cert) = &self.certified {
            if mass > 0 && !self.finished {
                let sampling = self.rate_schedule.sampling_started();
                let bound = self.tree_error_bound() as f64;
                let budget = cert.tree_budget(sampling, mass, k);
                assert!(
                    bound <= budget,
                    "[{context}] tree error {bound} exceeds certified g·mass/k = {budget} \
                     (sampling {sampling}, mass {mass}, k {k})"
                );
                let eps_budget = cert.epsilon_budget(mass);
                assert!(
                    bound <= eps_budget,
                    "[{context}] tree error {bound} exceeds ε·mass = {eps_budget} (mass {mass})"
                );
            }
        }
    }

    // ---- internals ------------------------------------------------------

    fn empty_slot(&self) -> Option<usize> {
        self.buffers
            .iter()
            .position(|b| b.state() == BufferState::Empty)
    }

    // panic-free: allocation[allocated] is indexed only while allocated <
    // num_buffers, and the allocation schedule is built with num_buffers
    // entries at construction.
    // alloc: buffer-slot growth happens at most num_buffers times over the
    // engine's whole lifetime — the paper's b·k memory budget, not a
    // per-element cost.
    fn begin_fill(&mut self) {
        debug_assert!(!self.filling);
        debug_assert_eq!(self.sampler.pending(), 0);
        // Secure an empty slot: allocate lazily when the schedule allows,
        // collapse otherwise.
        while self.empty_slot().is_none() {
            let allocated = self.buffers.len();
            let may_allocate = allocated < self.config.num_buffers
                && self.stats.leaves >= self.allocation[allocated];
            let full_count = self
                .buffers
                .iter()
                .filter(|b| b.state() == BufferState::Full)
                .count();
            if may_allocate || full_count < 2 {
                assert!(
                    allocated < self.config.num_buffers,
                    "no empty buffer, none allocatable, and fewer than two full buffers"
                );
                self.buffers.push(Buffer::empty(self.config.buffer_size));
                self.slot_nodes.push(None);
                self.max_allocated = self.max_allocated.max(self.buffers.len());
            } else {
                self.collapse_once();
            }
        }
        let rate = self.rate_schedule.rate();
        if rate != self.fill_rate {
            self.metrics.counter_add(metrics::RATE_TRANSITIONS, 1);
            self.journal.record(EventKind::RateTransition {
                from: self.fill_rate,
                to: rate,
            });
        }
        self.metrics.gauge_set(metrics::RATE_CURRENT, rate as f64);
        self.fill_rate = rate;
        self.fill_level = self.rate_schedule.new_buffer_level();
        self.sampler.reset_with_rate(self.fill_rate);
        self.filling = true;
    }

    /// Take the completed fill out of the engine: a single-run fill is
    /// adopted as-is, few runs are k-way merged (`O(k log r)`), and a
    /// saturated tracker returns the data **unsorted** (`false` flag) so
    /// the sort can be deferred to collapse time, where raw siblings are
    /// sorted together in one pass.
    fn take_filler(&mut self) -> (Vec<T>, bool) {
        let timer = self.metrics.timer(metrics::SEAL_NS);
        let seal_begin = self.journal.now_ns();
        // Run count before saturation truncates it (saturated fills report
        // the tracker's limit + 1, the point at which counting stopped).
        let runs = self.filler_runs.starts().len() as u64;
        let mut data = std::mem::take(&mut self.filler);
        let (sorted, kernel) = if self.filler_runs.is_saturated() {
            self.metrics.counter_add(metrics::SEAL_PARKED_RAW, 1);
            (false, SealKernel::ParkedRaw)
        } else {
            let (seal_key, kernel) = if self.filler_runs.is_single_run() {
                (metrics::SEAL_PRESORTED, SealKernel::Presorted)
            } else {
                (metrics::SEAL_RUN_MERGE, SealKernel::RunMerge)
            };
            self.filler_runs.sort_data_with_radix(
                &mut data,
                &mut self.scratch.merge,
                &mut self.scratch.radix,
            );
            self.metrics.counter_add(seal_key, 1);
            (true, kernel)
        };
        timer.stop();
        if let Some(begin) = seal_begin {
            let end = self.journal.now_ns().unwrap_or(begin);
            self.journal.record_at(
                end,
                EventKind::BufferSeal {
                    level: self.fill_level,
                    kernel,
                    k: data.len() as u64,
                    runs,
                    dur_ns: end.saturating_sub(begin),
                },
            );
        }
        self.filler_runs.reset();
        (data, sorted)
    }

    // panic-free: empty_slot() is Some — begin_fill reserved the slot this
    // fill is completing into, and nothing between could occupy it.
    fn complete_fill(&mut self) {
        debug_assert_eq!(self.filler.len(), self.config.buffer_size);
        let (data, sorted) = self.take_filler();
        let idx = self
            .empty_slot()
            .expect("begin_fill reserved an empty slot");
        // Recycle the slot's retired allocation as the next fill's storage
        // instead of allocating a fresh vector per seal.
        self.filler = self.buffers[idx].take_storage();
        self.filler.reserve(self.config.buffer_size);
        self.buffers[idx].populate_raw(
            data,
            self.fill_rate,
            self.fill_level,
            self.config.buffer_size,
        );
        if !sorted {
            debug_assert!(!self.slot_is_unsorted(idx));
            self.mark_unsorted(idx);
        }
        if let Some(rec) = &mut self.recorder {
            self.slot_nodes[idx] = Some(rec.add_leaf(self.fill_rate, self.fill_level));
        }
        self.stats.record_leaf(self.fill_level);
        self.metrics
            .counter_add(Key::labeled(metrics::LEAVES_BY_LEVEL, self.fill_level), 1);
        if self.metrics.is_enabled() {
            self.publish_state_gauges();
        }
        self.rate_schedule.observe_level(self.fill_level);
        self.rate_schedule.observe_leaves(self.stats.leaves);
        if self.rate_schedule.sampling_started() && self.stats.record_onset() {
            self.metrics
                .gauge_set(metrics::SAMPLING_ONSET_N, self.stats.elements as f64);
        }
        self.filling = false;
        #[cfg(feature = "invariant-audit")]
        self.audit_invariants("seal");
    }

    /// Refresh the point-in-time gauges (buffer occupancy by level,
    /// allocation, stream position, sampler draws). Called once per sealed
    /// buffer, and only when a recorder is attached.
    // panic-free: occupied[level] is preceded by resize(level + 1, …) on
    // the same branch whenever it is out of range.
    fn publish_state_gauges(&mut self) {
        let occupied = &mut self.scratch.occupancy;
        occupied.clear();
        for b in &self.buffers {
            if b.state() != BufferState::Empty {
                let level = b.level() as usize;
                if occupied.len() <= level {
                    occupied.resize(level + 1, 0);
                }
                occupied[level] += 1;
            }
        }
        for (level, &count) in occupied.iter().enumerate() {
            if count > 0 {
                self.metrics.gauge_set(
                    Key::labeled(metrics::OCCUPANCY_BY_LEVEL, level as u32),
                    count as f64,
                );
            }
        }
        self.metrics
            .gauge_set(metrics::BUFFERS_ALLOCATED, self.buffers.len() as f64);
        self.metrics
            .gauge_set(metrics::ELEMENTS, self.stats.elements as f64);
        self.metrics
            .gauge_set(metrics::SAMPLER_DRAWS, self.sampler.draws() as f64);
    }

    // panic-free: promotion/collapse indices come from the policy, which
    // only sees metas built from real slot indices via enumerate().
    fn collapse_once(&mut self) {
        let mut metas = std::mem::take(&mut self.scratch.meta);
        metas.clear();
        metas.extend(
            self.buffers
                .iter()
                .enumerate()
                .filter(|(_, b)| b.state() == BufferState::Full)
                .map(|(i, b)| b.meta(i)),
        );
        let mut decision = std::mem::take(&mut self.scratch.decision);
        self.policy.choose_into(&metas, &mut decision);
        self.scratch.meta = metas;
        for &(idx, level) in &decision.promotions {
            self.buffers[idx].promote(level);
        }
        assert!(
            decision.collapse.len() >= 2,
            "policy must collapse >= 2 buffers"
        );
        self.perform_collapse(&decision.collapse, decision.output_level);
        decision.clear();
        self.scratch.decision = decision;
    }

    // panic-free: `slots` holds ≥ 2 valid, distinct buffer indices (asserted
    // by collapse_once, constructed by collapse_all_full's enumerate); the
    // raw fast path's strided gather stays in bounds because its last index
    // (first - 1)/w0 + (k - 1)·c < c·k = |concat| (and iterator adapters
    // cannot overrun regardless).
    // alloc: recorder bookkeeping runs once per collapse (every k·2^level
    // elements), amortised O(1) per element; everything else works inside
    // the scratch arena.
    fn perform_collapse(&mut self, slots: &[usize], output_level: u32) {
        let collapse_timer = self.metrics.timer(metrics::COLLAPSE_NS);
        let collapse_begin = self.journal.now_ns();
        if let Some(begin) = collapse_begin {
            // Full provenance, recorded while the sources are intact: one
            // event per source buffer, contiguously ahead of the collapse
            // event on the same thread's ring. All sources share the
            // already-taken begin timestamp — provenance is identity, not
            // timing, and skipping the per-source clock read keeps the
            // attached overhead inside the BENCH_obs.json bar.
            for &i in slots {
                let b = &self.buffers[i];
                self.journal.record_at(
                    begin,
                    EventKind::CollapseSource {
                        slot: i as u32,
                        level: b.level(),
                        weight: b.weight(),
                        len: b.data().len() as u64,
                    },
                );
            }
        }
        let w: u64 = slots.iter().map(|&i| self.buffers[i].weight()).sum();
        let high = if w.is_multiple_of(2) {
            let phase = self.collapse_high_phase;
            self.collapse_high_phase = !self.collapse_high_phase;
            phase
        } else {
            false
        };
        // Collapse targets always form the arithmetic progression
        // `first + j·w` (§3.2); every path below consumes the progression
        // parameters directly and never materialises a target vector.
        let first = collapse_first_target(w, high);
        let k = self.config.buffer_size;
        let mut new_data = std::mem::take(&mut self.scratch.select_out);
        let w0 = self.buffers[slots[0]].weight();
        let equal_weights =
            slots.len() >= 2 && slots.iter().all(|&i| self.buffers[i].weight() == w0);
        let all_raw = slots.iter().all(|&i| self.slot_is_unsorted(i));
        // The collapse takes one of four shapes, chosen from the slot
        // count, the weights and the raw marks alone. The concat path
        // serves equal weights when every input is raw (one sort of the
        // concatenation replaces the deferred per-buffer sorts plus the
        // merge walk) or when there are ≥ 3 inputs (one concat sort beats
        // the pair-merge materialisation even though the inputs are
        // already sorted).
        let concat_path = equal_weights && (all_raw || slots.len() >= 3);
        if concat_path {
            // Equal weight `w0` everywhere: concatenate, sort once, and
            // index the evenly spaced targets directly. Position `t`
            // (1-based) of the weighted merged sequence is the sorted
            // concatenation's element `(t - 1) / w0`, and sorting the
            // concatenation yields the same value sequence as merging the
            // individually sorted inputs, so the selected elements are
            // identical to the general path's.
            let concat = &mut self.scratch.concat;
            concat.clear();
            for &i in slots {
                concat.extend_from_slice(self.buffers[i].data());
            }
            if !try_sort_fixed(concat, &mut self.scratch.radix) {
                concat.sort_unstable();
            }
            if all_raw {
                self.metrics.counter_add(metrics::COLLAPSE_RAW_FAST_PATH, 1);
            }
            // Target positions step by `w = c·w0`, so the indices step by
            // exactly `c` from `(first - 1) / w0` — a strided gather, no
            // per-target division.
            let start = ((first - 1) / w0) as usize;
            new_data.clear();
            new_data.extend(
                concat
                    .iter()
                    .skip(start)
                    .step_by(slots.len())
                    .take(k)
                    .cloned(),
            );
        } else {
            // Mixed weights: restore the sorted invariant on any raw input
            // first (the sort deferred from its seal happens here instead),
            // then run the weighted merge selection.
            for &i in slots {
                // Field access (not clear_unsorted) keeps the borrow
                // disjoint from the live metrics timer.
                let raw = self
                    .unsorted_mask
                    .get_mut(i)
                    .map(|m| std::mem::replace(m, false))
                    .unwrap_or(false);
                if raw {
                    self.buffers[i].make_sorted_with(&mut self.scratch.radix);
                }
            }
            // Collapse targets are spaced `w` apart while each merge step
            // adds some wᵢ ≤ w − 1, so the single-crossing contract of the
            // branchless kernels always holds here and they can run
            // directly over the buffers — no per-collapse source list. Two
            // and three sources — together all but a sliver of the mixed
            // collapses the adaptive policy emits — walk the buffers in
            // place; only ≥ 4 sources pay the pair-merge materialisation.
            if slots.len() == 2 {
                let (a, b) = (&self.buffers[slots[0]], &self.buffers[slots[1]]);
                select_two_weighted_spaced(
                    a.data(),
                    a.weight(),
                    b.data(),
                    b.weight(),
                    first,
                    w,
                    k,
                    &mut new_data,
                );
            } else if slots.len() == 3 {
                let (a, b, c) = (
                    &self.buffers[slots[0]],
                    &self.buffers[slots[1]],
                    &self.buffers[slots[2]],
                );
                select_three_weighted_spaced(
                    a.data(),
                    a.weight(),
                    b.data(),
                    b.weight(),
                    c.data(),
                    c.weight(),
                    first,
                    w,
                    k,
                    &mut new_data,
                );
            } else {
                // ≥ 4 sources: pair-merge the buffers into one weighted
                // run inside the arena, then one branchless sweep.
                let pairs = &mut self.scratch.pairs;
                let starts = &mut self.scratch.pair_starts;
                pairs.clear();
                starts.clear();
                for &i in slots {
                    starts.push(pairs.len());
                    let b = &self.buffers[i];
                    let w_i = b.weight();
                    pairs.extend(b.data().iter().map(|v| (v.clone(), w_i)));
                }
                merge_sorted_runs_with(pairs, starts, &mut self.scratch.pair_merge);
                select_merged_weighted_spaced(pairs, first, w, k, &mut new_data);
            }
        }
        if let Some(rec) = &mut self.recorder {
            let children: Vec<usize> = slots.iter().filter_map(|&i| self.slot_nodes[i]).collect();
            let node = rec.add_collapse(w, output_level, children);
            for &i in slots {
                self.slot_nodes[i] = None;
            }
            self.slot_nodes[slots[0]] = Some(node);
        }
        for &i in slots {
            self.buffers[i].clear();
        }
        // Cleared slots no longer hold raw data (fast-path inputs keep their
        // marks until here); the output below is sorted, so no new mark.
        for &i in slots {
            if let Some(m) = self.unsorted_mask.get_mut(i) {
                *m = false;
            }
        }
        // Recycle the cleared output slot's old allocation as the next
        // collapse's selection scratch: steady-state collapsing then swaps
        // two k-capacity vectors back and forth without allocating.
        self.scratch.select_out = self.buffers[slots[0]].take_storage();
        // Collapse output comes out of the weighted selection already
        // sorted — adopt it without a re-sort.
        self.buffers[slots[0]].populate_sorted(new_data, w, output_level, self.config.buffer_size);
        self.stats.record_collapse(w, output_level);
        self.metrics.counter_add(metrics::COLLAPSES, 1);
        self.metrics.gauge_set(
            metrics::COLLAPSE_WEIGHT_SUM,
            self.stats.collapse_weight_sum as f64,
        );
        collapse_timer.stop();
        if let Some(begin) = collapse_begin {
            let path = if concat_path {
                CollapsePath::Concat
            } else {
                match slots.len() {
                    2 => CollapsePath::TwoSource,
                    3 => CollapsePath::ThreeSource,
                    _ => CollapsePath::PairMerge,
                }
            };
            let end = self.journal.now_ns().unwrap_or(begin);
            self.journal.record_at(
                end,
                EventKind::Collapse {
                    output_level,
                    sources: slots.len() as u32,
                    path,
                    weight_sum: w,
                    dur_ns: end.saturating_sub(begin),
                },
            );
        }
        self.rate_schedule.observe_level(output_level);
        if self.rate_schedule.sampling_started() && self.stats.record_onset() {
            self.metrics
                .gauge_set(metrics::SAMPLING_ONSET_N, self.stats.elements as f64);
        }
        #[cfg(feature = "invariant-audit")]
        self.audit_invariants("collapse");
    }
}
