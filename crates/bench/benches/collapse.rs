//! Microbenchmarks of the framework's primitive operations: weighted
//! collapse, weighted output selection, and the per-policy collapse cost
//! (B2 ablation support in DESIGN.md).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use mrl_framework::kernels::select_merged_weighted_spaced;
use mrl_framework::{
    collapse_targets, merge_sorted_runs, merge_sorted_runs_with, select_weighted, sort_fixed,
    AdaptiveLowestLevel, AlsabtiRankaSingh, CollapsePolicy, Engine, EngineConfig, FixedRate,
    MergeScratch, MunroPaterson, RadixScratch, WeightedSource,
};

/// The engine's ≥ 4-source collapse: pair-merge the sources as
/// `(element, weight)` runs in warm scratch, then one spaced selection
/// sweep over the merged run.
fn bench_weighted_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("weighted_select");
    for &k in &[64usize, 512, 4096] {
        // c = 5 sorted runs of k elements with mixed weights.
        let runs: Vec<(Vec<u64>, u64)> = (0..5u64)
            .map(|i| {
                let mut v: Vec<u64> = (0..k as u64)
                    .map(|j| (j * 2654435761 + i) % 1_000_003)
                    .collect();
                v.sort_unstable();
                (v, 1 + i)
            })
            .collect();
        let w: u64 = runs.iter().map(|&(_, w)| w).sum();
        let first = collapse_targets(k, w, false)[0];
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        let mut scratch = MergeScratch::default();
        let mut out: Vec<u64> = Vec::new();
        group.bench_with_input(BenchmarkId::new("pair_merge_5_buffers", k), &k, |b, &k| {
            b.iter(|| {
                pairs.clear();
                starts.clear();
                for (d, wi) in &runs {
                    starts.push(pairs.len());
                    pairs.extend(d.iter().map(|&v| (v, *wi)));
                }
                merge_sorted_runs_with(&mut pairs, &starts, &mut scratch);
                select_merged_weighted_spaced(&pairs, first, w, k, &mut out);
                out[k / 2]
            })
        });
    }
    group.finish();
}

/// The pre-skip reference: a k-way `BinaryHeap` merge that visits every
/// element of every source, accumulating mass until each target is hit.
/// Kept here (not in the library) purely as the baseline for
/// `skip_vs_heap`.
fn select_weighted_heap<T: Ord + Clone>(
    sources: &[WeightedSource<'_, T>],
    targets: &[u64],
) -> Vec<T> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(&T, usize, usize)>> = sources
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.data.is_empty())
        .map(|(i, s)| Reverse((&s.data[0], i, 0)))
        .collect();
    let mut out = Vec::with_capacity(targets.len());
    let mut cum = 0u64;
    let mut ti = 0usize;
    while let Some(Reverse((v, i, j))) = heap.pop() {
        cum += sources[i].weight;
        while ti < targets.len() && targets[ti] <= cum {
            out.push(v.clone());
            ti += 1;
        }
        if ti == targets.len() {
            break;
        }
        if j + 1 < sources[i].data.len() {
            heap.push(Reverse((&sources[i].data[j + 1], i, j + 1)));
        }
    }
    out
}

/// Sparse targets over large sources: the regime the run-based skip merge
/// is built for (collapse touches every position, but output selection
/// only needs a handful).
fn bench_skip_vs_heap(c: &mut Criterion) {
    let mut group = c.benchmark_group("skip_vs_heap");
    for &k in &[512usize, 4096, 32_768] {
        let runs: Vec<(Vec<u64>, u64)> = (0..5u64)
            .map(|i| {
                let mut v: Vec<u64> = (0..k as u64)
                    .map(|j| (j * 2654435761 + i) % 1_000_003)
                    .collect();
                v.sort_unstable();
                (v, 1 + i)
            })
            .collect();
        let sources: Vec<WeightedSource<'_, u64>> = runs
            .iter()
            .map(|(d, w)| WeightedSource::new(d, *w))
            .collect();
        let mass: u64 = sources.iter().map(WeightedSource::mass).sum();
        // 33 output positions spread over the full mass.
        let targets: Vec<u64> = (0..33u64).map(|i| 1 + i * (mass - 1) / 32).collect();
        group.bench_with_input(BenchmarkId::new("skip", k), &k, |b, _| {
            b.iter(|| select_weighted(&sources, &targets))
        });
        group.bench_with_input(BenchmarkId::new("heap", k), &k, |b, _| {
            b.iter(|| select_weighted_heap(&sources, &targets))
        });

        // Disjoint value ranges (the §6 coordinator case: workers over
        // different partitions): runs span whole buffers, so the skip
        // merge jumps straight to the targets.
        let disjoint: Vec<(Vec<u64>, u64)> = (0..5u64)
            .map(|i| ((i * k as u64..(i + 1) * k as u64).collect(), 1 + i))
            .collect();
        let dsources: Vec<WeightedSource<'_, u64>> = disjoint
            .iter()
            .map(|(d, w)| WeightedSource::new(d, *w))
            .collect();
        let dmass: u64 = dsources.iter().map(WeightedSource::mass).sum();
        let dtargets: Vec<u64> = (0..33u64).map(|i| 1 + i * (dmass - 1) / 32).collect();
        group.bench_with_input(BenchmarkId::new("skip_disjoint", k), &k, |b, _| {
            b.iter(|| select_weighted(&dsources, &dtargets))
        });
        group.bench_with_input(BenchmarkId::new("heap_disjoint", k), &k, |b, _| {
            b.iter(|| select_weighted_heap(&dsources, &dtargets))
        });
    }
    group.finish();
}

fn run_to_completion<P: CollapsePolicy>(policy: P, data: &[u64], b: usize, k: usize) -> u64 {
    let mut e = Engine::new(EngineConfig::new(b, k), policy, FixedRate::new(1), 3);
    for &v in data {
        e.insert(v);
    }
    e.stats().collapses
}

fn bench_policies(c: &mut Criterion) {
    let data: Vec<u64> = (0..200_000u64).map(|i| (i * 48271) % 1_000_003).collect();
    let mut group = c.benchmark_group("policy_full_run_200k");
    group.sample_size(10);
    group.bench_function("adaptive_lowest_level", |b| {
        b.iter_batched(
            || data.clone(),
            |d| run_to_completion(AdaptiveLowestLevel, &d, 5, 256),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("munro_paterson", |b| {
        b.iter_batched(
            || data.clone(),
            |d| run_to_completion(MunroPaterson, &d, 5, 256),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("alsabti_ranka_singh", |b| {
        b.iter_batched(
            || data.clone(),
            |d| run_to_completion(AlsabtiRankaSingh, &d, 5, 256),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// Seal-time cost: bottom-up run merge (`O(k log r)`) against the old
/// sort-on-seal (`O(k log k)`) for a buffer arriving as `r` sorted runs,
/// and the sharded pipeline against single-threaded ingestion on the same
/// 1M-element stream.
fn bench_seal_and_collapse(c: &mut Criterion) {
    let k = 4096usize;
    let mut group = c.benchmark_group("seal_and_collapse");
    for &r in &[1usize, 4, 16, 64] {
        // k elements arranged as r equal-length sorted runs.
        let mut data: Vec<u64> = Vec::with_capacity(k);
        let mut starts: Vec<usize> = Vec::with_capacity(r);
        for run in 0..r {
            starts.push(data.len());
            let mut seg: Vec<u64> = (0..k / r)
                .map(|j| ((j * r + run) as u64).wrapping_mul(2654435761) % (1 << 40))
                .collect();
            seg.sort_unstable();
            data.extend(seg);
        }
        group.bench_with_input(BenchmarkId::new("run_merge_seal", r), &r, |b, _| {
            let mut scratch = Vec::new();
            b.iter_batched(
                || data.clone(),
                |mut d| {
                    merge_sorted_runs(&mut d, &starts, &mut scratch);
                    d
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("sort_seal", r), &r, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut d| {
                    d.sort_unstable();
                    d
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();

    let data: Vec<u64> = mrl_datagen::WorkloadStream::new(
        mrl_datagen::ValueDistribution::Uniform { range: 1 << 40 },
        7,
    )
    .take(1_000_000)
    .collect();
    let config = mrl_analysis::optimizer::optimize_unknown_n_with(
        0.01,
        1e-4,
        mrl_analysis::optimizer::OptimizerOptions::fast(),
    );
    let mut group = c.benchmark_group("sharded_pipeline_1m");
    group.sample_size(10);
    for &shards in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter(|| {
                let mut sketch =
                    mrl_parallel::ShardedSketch::<u64>::from_config(config.clone(), shards, 1);
                for chunk in data.chunks(4096) {
                    sketch.insert_batch(chunk);
                }
                sketch.finish().expect("no worker panics").query(0.5)
            })
        });
    }
    group.finish();
}

/// The seal-time crossover behind `RUN_MERGE_LIMIT`: at how many runs
/// does the bottom-up `O(k log r)` run merge stop beating one
/// cache-friendly `sort_unstable` over the whole buffer? Each case sorts
/// the same k-element buffer arranged as `r` sorted runs, via both
/// routes; `RUN_MERGE_LIMIT` should sit where the curves cross.
fn bench_seal_crossover(c: &mut Criterion) {
    let mut group = c.benchmark_group("seal_crossover");
    for &k in &[256usize, 1024] {
        for &r in &[2usize, 4, 8, 16, 32, 64] {
            if r > k / 4 {
                continue;
            }
            // r sorted runs of k/r pseudo-random elements each,
            // concatenated — the shape a run-tracked filler hands to the
            // seal.
            let run_len = k / r;
            let mut data: Vec<u64> = Vec::with_capacity(k);
            let mut starts = Vec::with_capacity(r);
            for run in 0..r {
                starts.push(run * run_len);
                let mut chunk: Vec<u64> = (0..run_len as u64)
                    .map(|j| (j * 2654435761 + run as u64 * 97) % 1_000_003)
                    .collect();
                chunk.sort_unstable();
                data.extend(chunk);
            }
            let label = format!("k{k}_r{r}");
            group.bench_with_input(BenchmarkId::new("run_merge", &label), &r, |b, _| {
                // Warm scratch across iterations, as the engine's arena
                // provides in steady state.
                let mut scratch = MergeScratch::default();
                b.iter_batched(
                    || data.clone(),
                    |mut d| {
                        merge_sorted_runs_with(&mut d, &starts, &mut scratch);
                        d
                    },
                    BatchSize::SmallInput,
                )
            });
            group.bench_with_input(BenchmarkId::new("sort", &label), &r, |b, _| {
                b.iter_batched(
                    || data.clone(),
                    |mut d| {
                        d.sort_unstable();
                        d
                    },
                    BatchSize::SmallInput,
                )
            });
        }
    }
    group.finish();
}

/// Pins the `[RADIX_MIN_LEN, RADIX_MAX_LEN]` dispatch window: radix vs
/// comparison sort across the seal sizes the engine actually hands to
/// `try_sort_fixed` (k, the c·k raw collapse concatenation) plus the
/// boundary lengths. Radix wins only inside a window — below it pdqsort's
/// small-array paths and the kernel's fixed per-pass overhead dominate,
/// above it the byte-wise scatter's random writes fall out of cache —
/// so both bounds are pinned here; re-run this group when touching the
/// kernel and update the `radix` constants if either crossover moved.
fn bench_radix_crossover(c: &mut Criterion) {
    let mut group = c.benchmark_group("radix_crossover");
    for &len in &[32usize, 64, 128, 256, 1024, 5 * 256, 4096, 8192, 16384] {
        // The harness's stream shape: uniform below 2^40 (five live digit
        // columns, three skipped).
        let data: Vec<u64> = (0..len as u64)
            .map(|j| (j * 2654435761).wrapping_mul(j ^ 0x9E37_79B9) % (1 << 40))
            .collect();
        let label = format!("n{len}");
        group.bench_with_input(BenchmarkId::new("radix", &label), &len, |b, _| {
            let mut scratch = RadixScratch::default();
            b.iter_batched(
                || data.clone(),
                |mut d| {
                    sort_fixed(&mut d, &mut scratch);
                    d
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("sort", &label), &len, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut d| {
                    d.sort_unstable();
                    d
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_weighted_select,
    bench_skip_vs_heap,
    bench_policies,
    bench_seal_and_collapse,
    bench_seal_crossover,
    bench_radix_crossover
);
criterion_main!(benches);
