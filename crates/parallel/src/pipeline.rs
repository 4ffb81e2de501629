//! Sharded multi-core ingestion: a fixed worker pool fed round-robin
//! batches over bounded channels.
//!
//! [`crate::parallel_quantiles`] implements §6's literal setting — one
//! worker per pre-existing input sequence. [`ShardedSketch`] covers the
//! complementary case: **one** logical stream whose ingestion should use
//! several cores. The stream is cut into fixed-size batches and dealt
//! round-robin to `P` shard workers; each shard runs the single-stream
//! unknown-`N` algorithm on the subsequence it receives, and the final
//! shipments are merged by the same [`Coordinator`] protocol. Because §6
//! allows *any* partition of the input into per-processor sequences, the
//! round-robin partition inherits the full `(ε, δ)` guarantee.
//!
//! The channels are bounded ([`sync_channel`] with a small depth), so a
//! producer that outruns the workers blocks instead of buffering the
//! stream in memory — ingestion stays `O(shards · b · k)` no matter how
//! fast the input arrives.
//!
//! What travels down a channel is a [`ShardBatch`]: by default a
//! `Vec<T>` of values, but a caller may ship any batch that knows how to
//! feed itself to a shard's sketch — the CLI ships raw text lines, so the
//! parse runs on the workers and the producer only splits bytes.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use mrl_core::{OptimizerOptions, UnknownN, UnknownNConfig};
use mrl_framework::{Buffer, TreeStats};
use mrl_obs::{EventKind, JournalHandle, Key, MetricsHandle};
use serde::{Deserialize, Serialize};

use crate::Coordinator;

/// Metric keys the sharded pipeline emits (all on batch granularity —
/// once per [`DEFAULT_SHARD_BATCH`] elements — so an attached recorder
/// costs a few atomic ops per batch).
pub mod metrics {
    use mrl_obs::Key;

    /// Gauge, labelled by shard: batches currently in flight on that
    /// shard's bounded channel.
    pub const QUEUE_DEPTH: &str = "pipeline.queue.depth";
    /// Counter: dispatches that found the target queue full and had to
    /// block (backpressure engagements).
    pub const DISPATCH_STALLS: Key = Key::new("pipeline.dispatch.stalls");
    /// Histogram: nanoseconds spent blocked per backpressure stall.
    pub const STALL_NS: Key = Key::new("pipeline.dispatch.stall_ns");
    /// Counter, labelled by shard: batches ingested by that worker.
    pub const BATCHES: &str = "pipeline.shard.batches";
    /// Histogram, labelled by shard: nanoseconds per ingested batch.
    pub const BATCH_NS: &str = "pipeline.shard.batch_ns";
    /// Gauge, labelled by shard: elements that worker has consumed.
    pub const SHARD_ELEMENTS: &str = "pipeline.shard.elements";
    /// Gauge: total items dispatched by the producer, counted by
    /// [`ShardBatch::items`](crate::pipeline::ShardBatch::items).
    pub const DISPATCHED: Key = Key::new("pipeline.dispatched");
}

/// Why a sharded ingestion run failed.
///
/// A worker that panics poisons only its own shard: the producer notices
/// (its channel disconnects), stops dispatching, and the failure surfaces
/// as a clean error from [`ShardedSketch::finish`] instead of aborting the
/// coordinator with a propagated panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardedError {
    /// The worker thread of `shard` panicked; the elements routed to it are
    /// lost, so no `(ε, δ)`-certified answer exists for this run.
    WorkerPanicked {
        /// Index of the poisoned shard, in `0..shards`.
        shard: usize,
    },
}

impl fmt::Display for ShardedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WorkerPanicked { shard } => {
                write!(f, "shard {shard} worker panicked; sharded query aborted")
            }
        }
    }
}

impl std::error::Error for ShardedError {}

impl From<ShardedError> for std::io::Error {
    fn from(err: ShardedError) -> Self {
        std::io::Error::other(err)
    }
}

/// Default items per dispatched batch (values for `Vec<T>` batches; the
/// CLI cuts its line batches to the same count). Large enough that the
/// channel and wakeup overhead amortises to well under a nanosecond per
/// element; small enough that shards stay busy on modest streams.
pub const DEFAULT_SHARD_BATCH: usize = 4096;

/// Bounded batches in flight per shard: enough to hide scheduling jitter,
/// small enough that backpressure engages before memory does.
const QUEUE_DEPTH: usize = 4;

/// One dispatched unit of work: what a shard worker receives, feeds to
/// its sketch, clears and sends back for reuse.
///
/// `Vec<T>` is the plain batch of values. Other impls carry the input in
/// another form and do the conversion on the worker (the CLI's line
/// batches parse there), so that work is spread over the shards instead
/// of staying on the producer.
pub trait ShardBatch<T>: Default + Send + 'static {
    /// How many input items the batch holds: the unit of
    /// [`ShardedSketch::n`] and of the dispatch metrics.
    fn items(&self) -> usize;

    /// Feed the batch to the shard's sketch; returns how many items it
    /// rejected (never reached the sketch).
    fn feed(&mut self, sketch: &mut UnknownN<T>) -> u64;

    /// Empty the batch for reuse, keeping (a bounded amount of) capacity.
    fn clear(&mut self);
}

impl<T: Ord + Clone + Send + 'static> ShardBatch<T> for Vec<T> {
    fn items(&self) -> usize {
        self.len()
    }

    fn feed(&mut self, sketch: &mut UnknownN<T>) -> u64 {
        sketch.insert_batch(self);
        0
    }

    fn clear(&mut self) {
        Vec::clear(self);
    }
}

/// What a worker thread returns when joined.
struct ShardShipment<T> {
    /// Elements the shard's sketch ingested.
    n: u64,
    /// Items its batches rejected.
    rejected: u64,
    /// The shard's exact tree accounting.
    stats: TreeStats,
    /// Its surviving buffers.
    buffers: Vec<Buffer<T>>,
}

/// A quantile sketch whose ingestion is sharded across a fixed pool of
/// worker threads.
///
/// Feed it with [`ShardedSketch::insert`] / [`ShardedSketch::insert_batch`]
/// from one producer thread — or, for a custom [`ShardBatch`] type `B`,
/// fill batches from [`ShardedSketch::spare_batch`] and deal them with
/// [`ShardedSketch::send_batch`]; call [`ShardedSketch::finish`] to drain
/// the pipeline and obtain a queryable [`ShardedOutcome`].
///
/// ```
/// use mrl_core::OptimizerOptions;
/// use mrl_parallel::ShardedSketch;
///
/// let mut sketch =
///     ShardedSketch::<u64>::new(2, 0.05, 0.01, OptimizerOptions::fast(), 1);
/// sketch.insert_batch(&(0..100_000u64).collect::<Vec<_>>());
/// let outcome = sketch.finish().expect("no shard panicked");
/// let median = outcome.query(0.5).unwrap();
/// assert!((median as f64 - 50_000.0).abs() <= 0.05 * 100_000.0 + 1.0);
/// ```
#[derive(Debug)]
pub struct ShardedSketch<T, B = Vec<T>> {
    senders: Vec<SyncSender<B>>,
    handles: Vec<JoinHandle<ShardShipment<T>>>,
    /// Spent batches returned by the workers; [`ShardedSketch::spare_batch`]
    /// drains this so the steady state recycles a fixed pool of batch
    /// allocations instead of allocating one per dispatch.
    recycle: Receiver<B>,
    /// Batches in flight per shard channel (producer increments on send,
    /// worker decrements on receive); feeds the queue-depth gauges.
    queue_depths: Vec<Arc<AtomicU64>>,
    /// The batch `insert`/`insert_batch` are filling (always empty when
    /// the caller deals its own batches).
    pending: B,
    next_shard: usize,
    /// Values per batch on the `insert` path ([`ShardedSketch::with_batch_size`]).
    batch: usize,
    /// Items dealt to the workers so far.
    dispatched: u64,
    /// First shard observed dead (its channel disconnected, i.e. its worker
    /// panicked). Once set, dispatch stops and `finish` reports the error.
    dead_shard: Option<usize>,
    config: UnknownNConfig,
    seed: u64,
    metrics: MetricsHandle,
    journal: JournalHandle,
}

impl<T: Ord + Clone + Send + 'static, B: ShardBatch<T>> ShardedSketch<T, B> {
    /// Create a pool of `shards` workers, each running the certified
    /// `(ε, δ)` single-stream configuration.
    ///
    /// # Panics
    /// Panics if `shards == 0`, `ε ∉ (0, 1)` or `δ ∉ (0, 1)`.
    pub fn new(shards: usize, epsilon: f64, delta: f64, opts: OptimizerOptions, seed: u64) -> Self {
        Self::new_with_metrics(
            shards,
            epsilon,
            delta,
            opts,
            seed,
            MetricsHandle::disabled(),
        )
    }

    /// As [`ShardedSketch::new`] with a metrics sink (see [`metrics`]).
    ///
    /// # Panics
    /// Panics if `shards == 0`, `ε ∉ (0, 1)` or `δ ∉ (0, 1)`.
    pub fn new_with_metrics(
        shards: usize,
        epsilon: f64,
        delta: f64,
        opts: OptimizerOptions,
        seed: u64,
        metrics: MetricsHandle,
    ) -> Self {
        let config = mrl_analysis::optimizer::optimize_unknown_n_with(epsilon, delta, opts);
        Self::from_config_with_metrics(config, shards, seed, metrics)
    }

    /// As [`ShardedSketch::new_with_metrics`] with a flight recorder
    /// attached as well (see [`ShardedSketch::from_config_with_obs`]).
    ///
    /// # Panics
    /// Panics if `shards == 0`, `ε ∉ (0, 1)` or `δ ∉ (0, 1)`.
    #[allow(clippy::too_many_arguments)]
    pub fn new_with_obs(
        shards: usize,
        epsilon: f64,
        delta: f64,
        opts: OptimizerOptions,
        seed: u64,
        metrics: MetricsHandle,
        journal: JournalHandle,
    ) -> Self {
        let config = mrl_analysis::optimizer::optimize_unknown_n_with(epsilon, delta, opts);
        Self::from_config_with_obs(config, shards, seed, metrics, journal)
    }

    /// As [`ShardedSketch::new`] with an explicit certified configuration.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn from_config(config: UnknownNConfig, shards: usize, seed: u64) -> Self {
        Self::from_config_with_metrics(config, shards, seed, MetricsHandle::disabled())
    }

    /// As [`ShardedSketch::from_config`] with a metrics sink (see
    /// [`metrics`] for the emitted keys). The handle must be supplied at
    /// construction because the worker threads — which publish per-shard
    /// batch latency and ingest counters — spawn here.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn from_config_with_metrics(
        config: UnknownNConfig,
        shards: usize,
        seed: u64,
        metrics: MetricsHandle,
    ) -> Self {
        Self::from_config_with_obs(config, shards, seed, metrics, JournalHandle::disabled())
    }

    /// As [`ShardedSketch::from_config_with_metrics`] with a flight
    /// recorder attached as well. Each worker names its journal ring
    /// `shard[i]`, wraps every ingested batch in a `shard.batch` span, and
    /// forwards the handle to its per-shard engine so seals and collapses
    /// carry the shard's track. The producer side records
    /// [`EventKind::ShardDispatch`] per hand-off and
    /// [`EventKind::ShardStall`] when backpressure blocks it.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn from_config_with_obs(
        config: UnknownNConfig,
        shards: usize,
        seed: u64,
        metrics: MetricsHandle,
        journal: JournalHandle,
    ) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let mut queue_depths = Vec::with_capacity(shards);
        // Unbounded return channel for spent batches: workers send their
        // emptied batches back and `spare_batch` reuses them, so at most
        // `shards · (QUEUE_DEPTH + 1) + 1` batch allocations ever exist.
        let (recycle_tx, recycle) = channel::<B>();
        for i in 0..shards {
            let (tx, rx) = sync_channel::<B>(QUEUE_DEPTH);
            let config = config.clone();
            let shard_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let depth = Arc::new(AtomicU64::new(0));
            let worker_depth = Arc::clone(&depth);
            let worker_metrics = metrics.clone();
            let worker_journal = journal.clone();
            let worker_recycle = recycle_tx.clone();
            handles.push(thread::spawn(move || {
                let shard = i as u32;
                worker_journal.name_thread("shard", Some(shard));
                let mut sketch = UnknownN::from_config(config, shard_seed);
                sketch.set_journal(worker_journal.clone());
                let mut rejected = 0u64;
                // nondet: single-producer FIFO — this shard's channel is
                // fed only by `send_batch`, so batches arrive in dispatch
                // order no matter how workers are scheduled; the element
                // sequence each shard ingests is timing-invariant.
                while let Ok(mut batch) = rx.recv() {
                    // ordering: relaxed — monitoring gauge; the channel recv
                    // already ordered this after the producer's increment.
                    worker_depth.fetch_sub(1, Ordering::Relaxed);
                    let span = worker_journal.span("shard.batch");
                    let timer = worker_metrics.timer(Key::labeled(metrics::BATCH_NS, shard));
                    rejected += batch.feed(&mut sketch);
                    timer.stop();
                    span.end();
                    worker_metrics.counter_add(Key::labeled(metrics::BATCHES, shard), 1);
                    // Clearing here keeps the element drops on the worker;
                    // a closed return channel (producer gone) just drops
                    // the batch.
                    batch.clear();
                    let _ = worker_recycle.send(batch);
                }
                worker_metrics.gauge_set(
                    Key::labeled(metrics::SHARD_ELEMENTS, shard),
                    sketch.n() as f64,
                );
                let (n, stats, buffers) = sketch.into_shipment_with_stats();
                ShardShipment {
                    n,
                    rejected,
                    stats,
                    buffers,
                }
            }));
            senders.push(tx);
            queue_depths.push(depth);
        }
        Self {
            senders,
            handles,
            recycle,
            queue_depths,
            pending: B::default(),
            next_shard: 0,
            batch: DEFAULT_SHARD_BATCH,
            dispatched: 0,
            dead_shard: None,
            config,
            seed,
            metrics,
            journal,
        }
    }

    /// Number of shard workers.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Items accepted so far, dispatched plus pending, counted by
    /// [`ShardBatch::items`] (elements, for `Vec<T>` batches).
    pub fn n(&self) -> u64 {
        self.dispatched + self.pending.items() as u64
    }

    /// The certified per-shard configuration in use.
    pub fn config(&self) -> &UnknownNConfig {
        &self.config
    }

    /// The flight-recorder handle the pipeline (and every shard engine)
    /// records into; disabled unless constructed via
    /// [`ShardedSketch::from_config_with_obs`].
    pub fn journal(&self) -> &JournalHandle {
        &self.journal
    }

    /// Worst-case memory across the worker pool: `shards · b · k` elements
    /// (the coordinator's own bound comes on top at [`ShardedSketch::finish`]).
    pub fn memory_bound_elements(&self) -> usize {
        self.shards() * self.config.memory
    }

    /// An empty batch to fill and pass to [`ShardedSketch::send_batch`]:
    /// one a worker sent back if any is waiting, else a new default one,
    /// so the steady state allocates no batches.
    // nondet: which recycled batch (or none) arrives here varies with
    // worker timing, but every batch was cleared before its return — only
    // spare capacity differs, never the items dispatched.
    pub fn spare_batch(&mut self) -> B {
        self.recycle.try_recv().unwrap_or_default()
    }

    /// Hand `batch` to the next shard in round-robin order, blocking while
    /// that shard's queue is full (the pipeline's backpressure). A
    /// disconnected channel means the worker panicked: the shard is marked
    /// dead, further batches are dropped, and [`ShardedSketch::finish`]
    /// reports the failure.
    // panic-free: `shard` is next_shard, which is always reduced modulo
    // senders.len(), and queue_depths has one slot per sender.
    pub fn send_batch(&mut self, batch: B) {
        if self.dead_shard.is_some() {
            // The run is already doomed; dropping the batch keeps the
            // producer non-blocking until the error surfaces at finish().
            return;
        }
        let len = batch.items() as u64;
        self.dispatched += len;
        let shard = self.next_shard;
        // Count the batch as in flight *before* the send: the worker's
        // decrement is ordered after its receive, which is ordered after
        // this send, so the counter never goes below zero.
        // ordering: Relaxed suffices — the gauge is monitoring-only and the
        // channel send/receive provides the producer→worker happens-before.
        let depth = self.queue_depths[shard].fetch_add(1, Ordering::Relaxed) + 1;
        let delivered = if self.metrics.is_enabled() || self.journal.is_enabled() {
            // Distinguish a clean hand-off from a backpressure stall: only
            // the blocking fallback is timed, so the stall histogram
            // measures time actually spent waiting on the slow consumer.
            let delivered = match self.senders[shard].try_send(batch) {
                Ok(()) => true,
                Err(TrySendError::Full(batch)) => {
                    self.metrics.counter_add(metrics::DISPATCH_STALLS, 1);
                    let stall_begin = self.journal.now_ns();
                    let timer = self.metrics.timer(metrics::STALL_NS);
                    let sent = self.senders[shard].send(batch).is_ok();
                    timer.stop();
                    if let Some(begin) = stall_begin {
                        let end = self.journal.now_ns().unwrap_or(begin);
                        self.journal.record_at(
                            end,
                            EventKind::ShardStall {
                                shard: shard as u32,
                                dur_ns: end.saturating_sub(begin),
                            },
                        );
                    }
                    sent
                }
                Err(TrySendError::Disconnected(_)) => false,
            };
            self.journal.record(EventKind::ShardDispatch {
                shard: shard as u32,
                len,
                depth,
            });
            self.metrics.gauge_set(
                Key::labeled(metrics::QUEUE_DEPTH, shard as u32),
                depth as f64,
            );
            self.metrics
                .gauge_set(metrics::DISPATCHED, self.dispatched as f64);
            delivered
        } else {
            self.senders[shard].send(batch).is_ok()
        };
        if !delivered {
            self.dead_shard = Some(shard);
        }
        self.next_shard = (shard + 1) % self.senders.len();
    }

    /// Drain the pipeline: flush the trailing partial batch, close every
    /// channel, join the workers, and merge their shipments at a
    /// [`Coordinator`].
    ///
    /// # Errors
    /// Returns [`ShardedError::WorkerPanicked`] if any shard's worker
    /// thread panicked: its elements are lost, so no certified answer
    /// exists. Every surviving worker is still joined first, so the pool
    /// is fully torn down either way.
    pub fn finish(mut self) -> Result<ShardedOutcome<T>, ShardedError> {
        if self.pending.items() > 0 {
            let last = std::mem::take(&mut self.pending);
            self.send_batch(last);
        }
        // Closing the channels ends each worker's receive loop.
        self.senders.clear();
        let mut dead_shard = self.dead_shard;
        let mut per_shard = Vec::with_capacity(self.handles.len());
        let mut shipments: Vec<(u64, Vec<Buffer<T>>)> = Vec::with_capacity(self.handles.len());
        let mut rejected = 0u64;
        for (shard, h) in self.handles.drain(..).enumerate() {
            match h.join() {
                Ok(shipment) => {
                    per_shard.push(shipment.stats);
                    shipments.push((shipment.n, shipment.buffers));
                    rejected += shipment.rejected;
                }
                // Keep joining the rest: the pool must be fully reaped even
                // when the run is already doomed.
                Err(_) => {
                    dead_shard.get_or_insert(shard);
                }
            }
        }
        if let Some(shard) = dead_shard {
            return Err(ShardedError::WorkerPanicked { shard });
        }
        let workers = shipments.len();
        let (coordinator, total_n) = Coordinator::from_shipments(
            self.config.b,
            self.config.k,
            self.seed ^ 0x00C0_FFEE,
            shipments,
        );
        let telemetry = PipelineTelemetry::from_shards(total_n, per_shard);
        Ok(ShardedOutcome {
            coordinator,
            total_n,
            rejected,
            workers,
            telemetry,
        })
    }
}

impl<T: Ord + Clone + Send + 'static> ShardedSketch<T> {
    /// Override the dispatch batch size (before inserting data).
    ///
    /// # Panics
    /// Panics if `batch == 0`.
    #[must_use]
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "batch size must be positive");
        assert_eq!(self.n(), 0, "with_batch_size on a non-empty sketch");
        self.batch = batch;
        self
    }

    /// Insert one element.
    // alloc: pending carries `batch` capacity once the recycle pool has
    // warmed up (dispatch swaps in a returned buffer), so the push reuses
    // capacity.
    pub fn insert(&mut self, item: T) {
        self.pending.push(item);
        if self.pending.len() >= self.batch {
            self.dispatch();
        }
    }

    /// Insert a slice of elements, dispatching every completed batch.
    pub fn insert_batch(&mut self, items: &[T]) {
        let mut rest = items;
        loop {
            let room = self.batch - self.pending.len();
            if rest.len() < room {
                self.pending.extend_from_slice(rest);
                return;
            }
            let (now, later) = rest.split_at(room);
            self.pending.extend_from_slice(now);
            self.dispatch();
            rest = later;
        }
    }

    /// Insert every element of an iterator.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.insert(item);
        }
    }

    /// Deal the full pending batch, swapping in a spare one (until the
    /// recycle pool warms up, an empty vector that grows to `batch`
    /// capacity through the producer's pushes).
    fn dispatch(&mut self) {
        let spare = self.spare_batch();
        let full = std::mem::replace(&mut self.pending, spare);
        self.send_batch(full);
    }
}

/// Aggregated pipeline accounting: the exact [`TreeStats`] of every shard
/// worker plus their element-conserving merge. Serializable, so the CLI can
/// embed it in `--stats json` reports.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PipelineTelemetry {
    /// Total elements ingested across all shards.
    pub total_n: u64,
    /// Each worker's final exact tree accounting, in shard order.
    pub per_shard: Vec<TreeStats>,
    /// The shard accountings folded together ([`TreeStats::absorb`]):
    /// elements, leaves, collapses and `W` are sums, `max_level` the
    /// maximum, the sampling onset the earliest across shards.
    pub merged: TreeStats,
}

impl PipelineTelemetry {
    fn from_shards(total_n: u64, per_shard: Vec<TreeStats>) -> Self {
        let mut merged = TreeStats::default();
        for stats in &per_shard {
            merged.absorb(stats);
        }
        Self {
            total_n,
            per_shard,
            merged,
        }
    }
}

/// The queryable result of a sharded ingestion run.
#[derive(Debug)]
pub struct ShardedOutcome<T> {
    coordinator: Coordinator<T>,
    total_n: u64,
    rejected: u64,
    workers: usize,
    telemetry: PipelineTelemetry,
}

impl<T: Ord + Clone + 'static> ShardedOutcome<T> {
    /// The φ-quantile of the whole stream. `None` for an empty stream.
    pub fn query(&self, phi: f64) -> Option<T> {
        self.coordinator.query(phi)
    }

    /// Several quantiles in one merge pass, in caller order.
    pub fn query_many(&self, phis: &[f64]) -> Option<Vec<T>> {
        self.coordinator.query_many(phis)
    }

    /// Approximate selectivities of `x < v` / `x <= v` over the stream.
    pub fn rank_of(&self, value: &T) -> Option<(f64, f64)> {
        self.coordinator.rank_of(value)
    }

    /// Total elements ingested across all shards.
    pub fn total_n(&self) -> u64 {
        self.total_n
    }

    /// Items the shards' batches rejected ([`ShardBatch::feed`]'s
    /// returns, summed); always 0 for `Vec<T>` batches.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Number of shard workers that contributed.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Per-shard and merged exact tree accounting gathered at
    /// [`ShardedSketch::finish`].
    pub fn telemetry(&self) -> &PipelineTelemetry {
        &self.telemetry
    }

    /// The merged coordinator (mass accounting, memory bound, further
    /// hierarchical shipping).
    pub fn coordinator(&self) -> &Coordinator<T> {
        &self.coordinator
    }

    /// Tear down into the coordinator, e.g. to forward the merged state
    /// upward via [`Coordinator::into_buffers`].
    pub fn into_coordinator(self) -> Coordinator<T> {
        self.coordinator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> OptimizerOptions {
        OptimizerOptions::fast()
    }

    fn uniform(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i.wrapping_mul(2654435761)) % n).collect()
    }

    #[test]
    fn sharded_matches_sequential_mass_accounting() {
        let data = uniform(200_000);
        let mut sharded = ShardedSketch::<u64>::new(4, 0.05, 0.01, fast(), 11);
        for chunk in data.chunks(1000) {
            sharded.insert_batch(chunk);
        }
        assert_eq!(sharded.n(), data.len() as u64);
        let out = sharded.finish().expect("no shard panicked");
        assert_eq!(out.total_n(), data.len() as u64);
        assert_eq!(out.workers(), 4);
        // The coordinator's represented mass equals the shipped mass, which
        // can differ from n only by sampling-tail rounding per shard.
        let mass = out.coordinator().mass();
        let slack = 4 * 1024; // one partial block per shard at the max rate
        assert!(
            (mass as i64 - data.len() as i64).unsigned_abs() <= slack,
            "mass {mass} vs n {}",
            data.len()
        );
    }

    #[test]
    fn sharded_queries_match_single_worker_within_epsilon() {
        let data = uniform(150_000);
        let eps = 0.05;
        let phis = [0.1, 0.25, 0.5, 0.75, 0.9];

        let mut single = ShardedSketch::<u64>::new(1, eps, 0.01, fast(), 3);
        single.insert_batch(&data);
        let single_q = single
            .finish()
            .expect("no shard panicked")
            .query_many(&phis)
            .unwrap();

        let mut sharded = ShardedSketch::<u64>::new(4, eps, 0.01, fast(), 3);
        sharded.insert_batch(&data);
        let sharded_q = sharded
            .finish()
            .expect("no shard panicked")
            .query_many(&phis)
            .unwrap();

        let mut sorted = data.clone();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        for (qs, label) in [(&single_q, "single"), (&sharded_q, "sharded")] {
            for (q, phi) in qs.iter().zip(phis) {
                let rank = sorted.partition_point(|v| v <= q) as f64;
                let err = (rank - phi * n).abs() / n;
                assert!(err <= eps + 1.0 / n, "{label} phi={phi}: rank error {err}");
            }
        }
    }

    #[test]
    fn single_inserts_and_small_batches_agree_on_n() {
        let mut s = ShardedSketch::<u64>::new(2, 0.1, 0.01, fast(), 5).with_batch_size(100);
        for i in 0..1_234u64 {
            s.insert(i);
        }
        s.insert_batch(&[9, 9, 9]);
        assert_eq!(s.n(), 1_237);
        let out = s.finish().expect("no shard panicked");
        assert_eq!(out.total_n(), 1_237);
        assert!(out.query(0.5).is_some());
    }

    #[test]
    fn telemetry_conserves_elements_and_reports_pipeline_metrics() {
        use mrl_obs::InMemoryRecorder;

        let rec = Arc::new(InMemoryRecorder::new());
        let config =
            mrl_analysis::optimizer::optimize_unknown_n_with(0.05, 0.01, OptimizerOptions::fast());
        let mut s = ShardedSketch::<u64>::from_config_with_metrics(
            config,
            3,
            9,
            MetricsHandle::new(rec.clone()),
        );
        let data = uniform(120_000);
        s.insert_batch(&data);
        let out = s.finish().expect("no shard panicked");

        let t = out.telemetry();
        assert_eq!(t.total_n, 120_000);
        assert_eq!(t.per_shard.len(), 3);
        let sum: u64 = t.per_shard.iter().map(|st| st.elements).sum();
        assert_eq!(sum, t.merged.elements);
        assert_eq!(t.merged.elements, 120_000);

        // Batch counters: every dispatched batch is accounted to a shard.
        let batches: u64 = (0..3)
            .map(|i| rec.counter_value(Key::labeled(metrics::BATCHES, i)))
            .sum();
        assert_eq!(batches, 120_000_u64.div_ceil(DEFAULT_SHARD_BATCH as u64));
        // Per-shard element gauges match the shipped accounting.
        for (i, st) in t.per_shard.iter().enumerate() {
            assert_eq!(
                rec.gauge_value(Key::labeled(metrics::SHARD_ELEMENTS, i as u32)),
                Some(st.elements as f64)
            );
        }
        assert_eq!(rec.gauge_value(metrics::DISPATCHED), Some(120_000.0));
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn journal_records_dispatches_shard_tracks_and_batch_spans() {
        use mrl_obs::EventJournal;

        let journal = Arc::new(EventJournal::with_capacity(8192));
        let handle = JournalHandle::new(Arc::clone(&journal));
        let config =
            mrl_analysis::optimizer::optimize_unknown_n_with(0.05, 0.01, OptimizerOptions::fast());
        let mut s = ShardedSketch::<u64>::from_config_with_obs(
            config,
            2,
            9,
            MetricsHandle::disabled(),
            handle,
        )
        .with_batch_size(64);
        let data = uniform(10_000);
        s.insert_batch(&data);
        let out = s.finish().expect("no shard panicked");
        assert_eq!(out.total_n(), 10_000);

        let dump = journal.drain();
        assert_eq!(dump.lost(), 0);
        let events = || dump.rings.iter().flat_map(|r| r.events.iter());
        // Every completed batch hand-off is journalled by the producer.
        let dispatches = events()
            .filter(|e| matches!(e.kind, EventKind::ShardDispatch { .. }))
            .count();
        assert_eq!(dispatches, 10_000_usize.div_ceil(64));
        // Both workers named their rings `shard[i]`.
        let mut shard_labels: Vec<u32> = dump
            .rings
            .iter()
            .filter_map(|r| r.thread_name)
            .filter(|(name, _)| *name == "shard")
            .filter_map(|(_, label)| label)
            .collect();
        shard_labels.sort_unstable();
        assert_eq!(shard_labels, vec![0, 1]);
        // Each received batch is wrapped in a balanced `shard.batch` span,
        // and the per-shard engines journalled their seals through the
        // forwarded handle.
        let begins = events()
            .filter(|e| matches!(e.kind, EventKind::SpanBegin { .. }))
            .count();
        let ends = events()
            .filter(|e| matches!(e.kind, EventKind::SpanEnd { .. }))
            .count();
        assert_eq!(begins, ends);
        assert_eq!(begins, 10_000_usize.div_ceil(64));
        assert!(events().any(|e| matches!(e.kind, EventKind::BufferSeal { .. })));
    }

    #[test]
    fn empty_stream_returns_none() {
        let s = ShardedSketch::<u64>::new(3, 0.1, 0.01, fast(), 1);
        let out = s.finish().expect("no shard panicked");
        assert_eq!(out.total_n(), 0);
        assert_eq!(out.query(0.5), None);
        assert_eq!(out.rank_of(&7), None);
    }

    /// A configuration whose engine construction asserts (`b = 1` violates
    /// `EngineConfig::new`'s `b ≥ 2` requirement), so every worker panics
    /// the moment it starts. The panic must surface as a clean
    /// [`ShardedError::WorkerPanicked`], not abort the producer.
    fn poisoned_config() -> UnknownNConfig {
        let mut config =
            mrl_analysis::optimizer::optimize_unknown_n_with(0.1, 0.01, OptimizerOptions::fast());
        config.b = 1;
        config
    }

    #[test]
    fn worker_panic_surfaces_as_sharded_error() {
        let mut s = ShardedSketch::<u64>::from_config(poisoned_config(), 2, 7).with_batch_size(8);
        // Keep feeding past the panic: sends to the dead shard's
        // disconnected channel must degrade into `dead_shard`, never panic
        // or block the producer.
        for i in 0..10_000u64 {
            s.insert(i);
        }
        match s.finish() {
            Err(ShardedError::WorkerPanicked { shard }) => assert!(shard < 2),
            Ok(_) => panic!("poisoned run produced an outcome"),
        }
    }

    #[test]
    fn worker_panic_detected_even_without_dispatch() {
        // No data ever dispatched: the dead workers are only discovered at
        // join time, which must still report the lowest poisoned shard.
        let s = ShardedSketch::<u64>::from_config(poisoned_config(), 3, 1);
        assert_eq!(
            s.finish().map(|out| out.total_n()),
            Err(ShardedError::WorkerPanicked { shard: 0 })
        );
    }

    #[test]
    fn worker_panic_error_formats_and_converts() {
        let err = ShardedError::WorkerPanicked { shard: 5 };
        assert!(err.to_string().contains("shard 5"));
        let io: std::io::Error = err.clone().into();
        assert!(io.to_string().contains("shard 5"));
    }

    /// Shutdown/backpressure interleaving: a single-shard pipeline with a
    /// deliberately slow consumer is driven through every queue state
    /// (empty → full → blocked producer → drain → close). Exercises the
    /// bounded-channel protocol end to end: the producer must block (not
    /// drop) on a full queue, and `finish` must drain every in-flight batch
    /// before the worker's channel closes.
    #[test]
    fn backpressure_blocks_then_shutdown_drains_every_batch() {
        for round in 0..16u64 {
            let config = mrl_analysis::optimizer::optimize_unknown_n_with(
                0.1,
                0.01,
                OptimizerOptions::fast(),
            );
            let mut s = ShardedSketch::<u64>::from_config(config, 1, round).with_batch_size(1);
            // QUEUE_DEPTH + 1 batches saturate the queue and park the
            // producer at least once per round; varying the total count
            // shifts which send observes the full queue.
            let total = (QUEUE_DEPTH as u64 + 1) * 64 + round;
            for i in 0..total {
                s.insert(i);
            }
            let out = s.finish().expect("no shard panicked");
            assert_eq!(out.total_n(), total, "round {round} lost a batch");
        }
    }

    /// The `Vec<T>` invariant `finish` no longer asserts: every element
    /// the producer accepted reaches a shard, so the merged `total_n`
    /// equals the count dispatched (pending included, as `finish` flushes
    /// it), whatever the batch size.
    #[test]
    fn vec_batches_ingest_exactly_what_was_dispatched() {
        for (len, batch) in [
            (0u64, 4096),
            (1, 4096),
            (4096, 4096),
            (10_001, 4096),
            (777, 10),
        ] {
            let mut s = ShardedSketch::<u64>::new(3, 0.1, 0.01, fast(), len).with_batch_size(batch);
            s.insert_batch(&uniform(len.max(1))[..len as usize]);
            let dispatched = s.n();
            let out = s.finish().expect("no shard panicked");
            assert_eq!(out.total_n(), dispatched, "len {len}, batch {batch}");
            assert_eq!(out.rejected(), 0);
        }
    }

    /// A batch of raw values that keeps only the even ones, rejecting the
    /// rest on the worker; a value of `u64::MAX` makes the worker panic.
    #[derive(Default)]
    struct EvenOnly(Vec<u64>);

    impl ShardBatch<u64> for EvenOnly {
        fn items(&self) -> usize {
            self.0.len()
        }

        fn feed(&mut self, sketch: &mut UnknownN<u64>) -> u64 {
            assert!(!self.0.contains(&u64::MAX), "poisoned batch");
            let mut rejected = 0;
            for &v in &self.0 {
                if v % 2 == 0 {
                    sketch.insert(v);
                } else {
                    rejected += 1;
                }
            }
            rejected
        }

        fn clear(&mut self) {
            self.0.clear();
        }
    }

    /// Deal `data` in batches of `batch` items through an [`EvenOnly`]
    /// pipeline; returns the items it dispatched and the outcome.
    fn run_even_only(
        data: &[u64],
        batch: usize,
    ) -> (u64, Result<ShardedOutcome<u64>, ShardedError>) {
        let config =
            mrl_analysis::optimizer::optimize_unknown_n_with(0.05, 0.01, OptimizerOptions::fast());
        let mut s = ShardedSketch::<u64, EvenOnly>::from_config(config, 3, 4);
        for chunk in data.chunks(batch) {
            let mut b = s.spare_batch();
            assert_eq!(b.items(), 0, "spare batches come back cleared");
            b.0.extend_from_slice(chunk);
            s.send_batch(b);
        }
        (s.n(), s.finish())
    }

    #[test]
    fn custom_batches_report_the_sum_of_their_rejects() {
        let data = uniform(50_001);
        let odd = data.iter().filter(|&&v| v % 2 == 1).count() as u64;
        let (dispatched, out) = run_even_only(&data, 1000);
        let out = out.expect("no shard panicked");
        assert_eq!(dispatched, data.len() as u64);
        assert_eq!(out.rejected(), odd);
        assert_eq!(out.total_n(), data.len() as u64 - odd);
        assert_eq!(out.telemetry().merged.elements, out.total_n());
        assert_eq!(out.query(1.0).map(|v| v % 2), Some(0));
    }

    #[test]
    fn panic_inside_feed_surfaces_as_sharded_error() {
        let mut data = uniform(20_000);
        data[9_500] = u64::MAX;
        match run_even_only(&data, 1000).1 {
            // Batch 9 holds the poison, and batch i goes to shard i % 3.
            Err(ShardedError::WorkerPanicked { shard }) => assert_eq!(shard, 0),
            Ok(_) => panic!("a panicking feed produced an outcome"),
        }
    }

    #[test]
    fn extend_round_robins_across_shards() {
        let mut s = ShardedSketch::<u64>::new(3, 0.1, 0.01, fast(), 2).with_batch_size(10);
        s.extend(0..95u64);
        let out = s.finish().expect("no shard panicked");
        assert_eq!(out.total_n(), 95);
        assert_eq!(out.workers(), 3);
        let q = out.query(1.0).unwrap();
        assert_eq!(q, 94);
    }
}
