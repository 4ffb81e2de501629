//! Benchmarks of the analysis layer itself: the cost of certifying a
//! configuration by schedule replay (what the committed schedule table
//! saves) and of the full §4.5 optimisation, which runs at
//! sketch-construction time and so matters for short-lived sketches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mrl_analysis::optimizer::{optimize_known_n, optimize_unknown_n};
use mrl_analysis::simulate::{simulate_schedule, SimOptions};
use mrl_analysis::stein_sample_size;

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_replay");
    for &(b, h) in &[(4usize, 3u32), (6, 5), (8, 6)] {
        group.bench_with_input(
            BenchmarkId::new("simulate", format!("b{b}_h{h}")),
            &(b, h),
            |bench, &(b, h)| bench.iter(|| simulate_schedule(b, h, SimOptions::default())),
        );
    }
    group.finish();
}

fn bench_optimizers(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimize");
    group.sample_size(10);
    group.bench_function("unknown_n_eps_0.01", |b| {
        b.iter(|| optimize_unknown_n(0.01, 1e-4))
    });
    group.bench_function("known_n_eps_0.01_n_1e9", |b| {
        b.iter(|| optimize_known_n(0.01, 1e-4, 1_000_000_000))
    });
    group.bench_function("stein_extreme_phi_0.01", |b| {
        b.iter(|| stein_sample_size(0.01, 0.002, 1e-4))
    });
    group.finish();
}

criterion_group!(benches, bench_replay, bench_optimizers);
criterion_main!(benches);
