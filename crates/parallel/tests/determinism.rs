//! Golden determinism test: two same-seed runs must be bitwise
//! identical even when worker timing is deliberately perturbed. This is
//! the dynamic half of the MRL-A008 contract — the pass certifies no
//! unseeded RNG / hash iteration / clock read / recv completion order
//! reaches the results statically; this test drives the sharded
//! pipeline and the §6 runner under staggered sleeps and background CPU
//! churn (exactly the schedule noise that would expose a surviving
//! completion-order dependence) and pins the full observable surface:
//! a 99-point quantile grid, `rank_of`, `total_n`, and a canonical byte
//! serialization of the coordinator's final buffers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mrl_core::OptimizerOptions;
use mrl_core::UnknownN;
use mrl_framework::{Buffer, BufferState};
use mrl_parallel::{parallel_quantiles, ShardBatch, ShardedOutcome, ShardedSketch};

/// Canonical little-endian serialization of the coordinator's buffers:
/// per buffer its state tag, weight, length, then the elements. Two
/// runs agree on these bytes only if every buffer's contents, weight,
/// and order match exactly.
fn canonical_bytes(buffers: &[Buffer<u64>]) -> Vec<u8> {
    let mut out = Vec::new();
    for buf in buffers {
        out.push(match buf.state() {
            BufferState::Empty => 0u8,
            BufferState::Partial => 1,
            BufferState::Full => 2,
        });
        out.extend_from_slice(&buf.weight().to_le_bytes());
        out.extend_from_slice(&(buf.data().len() as u64).to_le_bytes());
        for v in buf.data() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Threads that burn CPU until dropped, stealing cycles from the shard
/// workers so their completion order varies between runs.
struct Churn {
    stop: Arc<AtomicBool>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Churn {
    fn start(threads: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let handles = (0..threads)
            .map(|_| {
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut x = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        std::hint::black_box(x);
                    }
                })
            })
            .collect();
        Self { stop, handles }
    }
}

impl Drop for Churn {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            h.join().ok();
        }
    }
}

/// Everything a sharded run exposes, pinned for bitwise comparison.
#[derive(PartialEq, Debug)]
struct Observed {
    grid: Vec<u64>,
    total_n: u64,
    rank: Option<(f64, f64)>,
    buffer_bytes: Vec<u8>,
}

/// One sharded-pipeline run. The caller-side chunk sequence is fixed
/// (chunking is part of the input); `perturb` adds scheduling noise
/// only — staggered sleeps between dispatched chunks and CPU churn.
fn sharded_run(data: &[u64], seed: u64, perturb: bool) -> Observed {
    let _churn = perturb.then(|| Churn::start(4));
    let mut sketch = ShardedSketch::<u64>::new(3, 0.05, 0.01, OptimizerOptions::fast(), seed);
    for (i, chunk) in data.chunks(997).enumerate() {
        sketch.insert_batch(chunk);
        if perturb && i % 11 == 0 {
            thread::sleep(Duration::from_micros(300));
        }
    }
    observe(data, sketch.finish().expect("no worker panics"))
}

/// A batch shipped as little-endian bytes and decoded on the worker,
/// which rejects multiples of 7 and feeds the rest in one `insert_batch`
/// (the shape of the CLI's worker-side parse).
#[derive(Default)]
struct EncodedBatch {
    bytes: Vec<u8>,
    values: Vec<u64>,
}

impl ShardBatch<u64> for EncodedBatch {
    fn items(&self) -> usize {
        self.bytes.len() / 8
    }

    fn feed(&mut self, sketch: &mut UnknownN<u64>) -> u64 {
        let mut rejected = 0;
        for word in self.bytes.chunks_exact(8) {
            let v = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            if v % 7 == 0 {
                rejected += 1;
            } else {
                self.values.push(v);
            }
        }
        sketch.insert_batch(&self.values);
        rejected
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.values.clear();
    }
}

/// As [`sharded_run`], through [`EncodedBatch`]es the caller fills from
/// the recycle pool; returns the rejected count beside the observation.
fn encoded_run(data: &[u64], seed: u64, perturb: bool) -> (Observed, u64) {
    let _churn = perturb.then(|| Churn::start(4));
    let mut sketch =
        ShardedSketch::<u64, EncodedBatch>::new(3, 0.05, 0.01, OptimizerOptions::fast(), seed);
    for (i, chunk) in data.chunks(4001).enumerate() {
        let mut batch = sketch.spare_batch();
        for v in chunk {
            batch.bytes.extend_from_slice(&v.to_le_bytes());
        }
        sketch.send_batch(batch);
        if perturb && i % 3 == 0 {
            thread::sleep(Duration::from_micros(300));
        }
    }
    let outcome = sketch.finish().expect("no worker panics");
    let rejected = outcome.rejected();
    (observe(data, outcome), rejected)
}

/// Pin everything a finished run exposes.
fn observe(data: &[u64], outcome: ShardedOutcome<u64>) -> Observed {
    let phis: Vec<f64> = (1..100).map(|i| f64::from(i) / 100.0).collect();
    let grid = outcome.query_many(&phis).expect("non-empty input");
    let total_n = outcome.total_n();
    let rank = outcome.rank_of(&(data.len() as u64 / 2));
    let buffer_bytes = canonical_bytes(&outcome.into_coordinator().into_buffers());
    Observed {
        grid,
        total_n,
        rank,
        buffer_bytes,
    }
}

fn skewed_data(n: u64) -> Vec<u64> {
    (0..n).map(|i| (i * 2654435761) % n).collect()
}

#[test]
fn same_seed_sharded_runs_are_bitwise_identical_under_timing_noise() {
    let data = skewed_data(120_000);
    let calm = sharded_run(&data, 0xD5EA_D001, false);
    let noisy = sharded_run(&data, 0xD5EA_D001, true);
    let noisy2 = sharded_run(&data, 0xD5EA_D001, true);
    assert_eq!(calm, noisy, "timing perturbation changed the results");
    assert_eq!(noisy, noisy2, "two perturbed runs disagree");
    assert_eq!(calm.total_n, 120_000);
}

#[test]
fn same_seed_custom_batch_runs_are_bitwise_identical_under_timing_noise() {
    let data = skewed_data(120_000);
    let calm = encoded_run(&data, 0xD5EA_D002, false);
    let noisy = encoded_run(&data, 0xD5EA_D002, true);
    let noisy2 = encoded_run(&data, 0xD5EA_D002, true);
    assert_eq!(calm, noisy, "timing perturbation changed the results");
    assert_eq!(noisy, noisy2, "two perturbed runs disagree");
    let sevens = data.iter().filter(|&&v| v % 7 == 0).count() as u64;
    assert_eq!(calm.1, sevens);
    assert_eq!(calm.0.total_n, 120_000 - sevens);
}

#[test]
fn different_seeds_actually_change_the_sampled_state() {
    // Guards the test above against vacuous equality (e.g. the seed
    // being ignored): with sampling engaged, different seeds must
    // produce different coordinator buffers.
    let data = skewed_data(120_000);
    let a = sharded_run(&data, 1, false);
    let b = sharded_run(&data, 2, false);
    assert_eq!(a.total_n, b.total_n);
    assert_ne!(
        a.buffer_bytes, b.buffer_bytes,
        "seed must reach the samplers"
    );
}

#[test]
fn same_seed_runner_is_identical_despite_uneven_worker_finish_order() {
    // §6 runner: wildly unbalanced inputs finish in arbitrary order;
    // the indexed shipment sort must make the merge order — and thus
    // the answers — a pure function of (inputs, seed).
    let inputs: Vec<Vec<u64>> = vec![
        (0..200_000u64).map(|i| (i * 48271) % 500_000).collect(),
        (0..500u64).map(|i| i * 7).collect(),
        vec![42u64],
        (0..60_000u64).map(|i| (i * 2654435761) % 500_000).collect(),
    ];
    let phis = [0.05, 0.25, 0.5, 0.75, 0.95];
    let run = |perturb: bool| {
        let _churn = perturb.then(|| Churn::start(4));
        parallel_quantiles(
            inputs.clone(),
            0.05,
            0.01,
            &phis,
            OptimizerOptions::fast(),
            7,
        )
        .expect("non-empty input")
    };
    let calm = run(false);
    let noisy = run(true);
    let noisy2 = run(true);
    assert_eq!(calm.quantiles, noisy.quantiles);
    assert_eq!(noisy.quantiles, noisy2.quantiles);
    assert_eq!(calm.total_n, noisy.total_n);
}
