//! One repetition of a workload, run in a fresh process so the parameter
//! search is cold, the way a CLI user pays it.
//!
//! Every layer is timed from outside, around calls into its public
//! functions: `optimize_unknown_n_with` (analysis), `mrl_cli::run_with_stats`
//! (cli), `UnknownN::{insert_batch, query_many}` (core), `ShardedSketch`
//! (parallel). Counts come from an `InMemoryRecorder` attached with
//! `set_metrics`, or from the CLI's own `--stats json` report.
//!
//! Setup and every run also record the steal they suffered, and host-speed
//! probes (see [`crate::speed`]) are timed before and after every timed
//! span: setup, each run, each latency replay. Their median scales the
//! repetition's times to the reference host speed.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufReader};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrl_analysis::optimizer::{optimize_unknown_n_with, OptimizerOptions, UnknownNConfig};
use mrl_cli::{Args, StatsFormat, StatsReport};
use mrl_core::{OrderedF64, UnknownN};
use mrl_framework::engine::metrics as engine_keys;
use mrl_obs::{InMemoryRecorder, Key, MetricsHandle, MetricsSnapshot};
use mrl_parallel::pipeline::metrics as pipeline_keys;
use mrl_parallel::{ShardedSketch, DEFAULT_SHARD_BATCH};

use crate::exact::{check_answer, Checked};
use crate::speed::{self, probe, SpanTimer};
use crate::workload::{Kind, Workload, CHUNK, PROBE_PHIS};

/// Largest share of `run_s` by which the layer self times of a traced
/// repetition may miss `run_s`, and by which any one of them may fall
/// below zero.
pub const LAYER_SUM_TOLERANCE: f64 = 0.05;

/// What one repetition measured and checked. `run.py` turns the
/// measurements of all repetitions into the end-to-end metrics.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Start of the repetition to a constructed sketch, wall time.
    pub setup_s: f64,
    /// Steal within `setup_s`.
    pub setup_stolen_s: f64,
    /// `VmHWM` right after the timed runs, in MiB.
    pub peak_rss_mb: f64,
    /// `memory_bound_elements()` of the sketch, summed over shards.
    pub sketch_mem_elems: usize,
    /// Per-layer metrics (traced repetitions only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Layer self times on the path that blocks the last answer; they
    /// must add up to `run_s` (traced repetitions only).
    pub self_times: BTreeMap<&'static str, f64>,
    /// Every answer the repetition reported, checked.
    pub checked: Vec<Checked>,
    /// Wall-time `run_s` of every timed run in the repetition.
    pub run_samples: Vec<f64>,
    /// Steal within each of `run_samples`.
    pub run_stolen_s: Vec<f64>,
    /// Latency of every timed `insert_batch` call, in µs.
    pub insert_us: Vec<f64>,
    /// Latency of every timed mid-stream 11-φ `query_many`, in µs.
    pub query_us: Vec<f64>,
    /// Every host-speed probe the repetition timed, in seconds.
    pub probe_s: Vec<f64>,
    /// Elements each shard worker consumed, as the CLI's pipeline
    /// telemetry reports them (traced sharded repetitions only).
    pub shard_elements: Vec<u64>,
}

impl Rep {
    /// The median wall-time `run_s` of the repetition's timed runs.
    pub fn run_s(&self) -> f64 {
        let mut runs = self.run_samples.clone();
        runs.sort_by(f64::total_cmp);
        runs[(runs.len() - 1) / 2]
    }

    /// The factor that scales the repetition's times to the reference
    /// host speed.
    pub fn speed_scale(&self) -> f64 {
        speed::scale(&self.probe_s)
    }

    /// Whether the layer self times add up to `run_s` within
    /// [`LAYER_SUM_TOLERANCE`], with none of them below zero by more.
    pub fn layer_sum_ok(&self) -> bool {
        let run_s = self.run_s();
        let sum: f64 = self.self_times.values().sum();
        (run_s - sum).abs() <= LAYER_SUM_TOLERANCE * run_s
            && self
                .self_times
                .values()
                .all(|&s| s >= -LAYER_SUM_TOLERANCE * run_s)
    }
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them. A
/// layer a workload does not use reports 0.
pub const LAYER_METRICS: [&str; 27] = [
    "analysis.optimize_s",
    "cli.run_s",
    "cli.self_s",
    "cli.values",
    "cli.skipped",
    "core.insert_s",
    "core.insert_calls",
    "core.query_s",
    "core.queries",
    "framework.seal.presorted",
    "framework.seal.run_merge",
    "framework.seal.parked_raw",
    "framework.seal_s",
    "framework.collapses",
    "framework.collapse.raw_fast_path",
    "framework.collapse_s",
    "sampling.draws",
    "sampling.rate_final",
    "sampling.rate_transitions",
    "parallel.self_s",
    "parallel.stalls",
    "parallel.stall_s",
    "parallel.shard_busy_s.0",
    "parallel.shard_busy_s.1",
    "parallel.shard_elems_skew",
    "obs.layer_sum_gap_frac",
    // Computed across repetitions by `run.py`, not by one repetition.
    "obs.trace_overhead_frac",
];

/// A value type the CLI workloads stream.
pub trait BenchValue: Ord + Clone + Send + 'static {
    /// Parse an answer as the program rendered it.
    fn parse_answer(s: &str) -> Option<Self>;
}

impl BenchValue for i64 {
    fn parse_answer(s: &str) -> Option<Self> {
        s.parse().ok()
    }
}

impl BenchValue for OrderedF64 {
    fn parse_answer(s: &str) -> Option<Self> {
        s.parse::<f64>().ok().and_then(OrderedF64::new)
    }
}

/// The optimizer grid the CLI searches (it shrinks the grid in debug
/// builds); the benchmark's cold call must use the same one so the CLI's
/// own call then finds the replay cache warm.
fn optimizer_options() -> OptimizerOptions {
    if cfg!(debug_assertions) {
        OptimizerOptions::fast()
    } else {
        OptimizerOptions::default()
    }
}

/// Run one repetition. `input` is the text file the CLI workloads read.
pub fn run_rep(w: &Workload, seed: u64, input: Option<&Path>, traced: bool) -> io::Result<Rep> {
    match w.kind {
        Kind::CliI64 => cli_rep::<i64>(w, seed, need(input)?, traced, || w.i64_values(seed)),
        Kind::CliF64 => cli_rep::<OrderedF64>(w, seed, need(input)?, traced, || w.f64_values(seed)),
        Kind::OnlineU64 => online_rep(w, seed, traced),
    }
}

fn need(input: Option<&Path>) -> io::Result<&Path> {
    input.ok_or_else(|| io::Error::other("this workload needs --input"))
}

/// Cold parameter search plus sketch construction: the `setup_s` span.
struct Setup<T> {
    config: UnknownNConfig,
    sketch: UnknownN<T>,
    optimize_s: f64,
    setup_s: f64,
    setup_stolen_s: f64,
    /// The probes before and after setup.
    probe_s: Vec<f64>,
}

fn setup<T: Ord + Clone + 'static>(w: &Workload, seed: u64) -> Setup<T> {
    let mut probe_s = vec![probe()];
    let timer = SpanTimer::start(1);
    let t = Instant::now();
    let config = optimize_unknown_n_with(w.epsilon, w.delta, optimizer_options());
    let optimize_s = secs(t.elapsed());
    let sketch = UnknownN::from_config(config.clone(), Workload::sketch_seed(seed));
    let (setup_s, setup_stolen_s) = timer.stop();
    probe_s.push(probe());
    Setup {
        config,
        sketch,
        optimize_s,
        setup_s,
        setup_stolen_s,
        probe_s,
    }
}

fn cli_rep<T: BenchValue>(
    w: &Workload,
    seed: u64,
    input: &Path,
    traced: bool,
    values: impl FnOnce() -> Vec<T>,
) -> io::Result<Rep> {
    let Setup {
        config,
        sketch,
        optimize_s,
        setup_s,
        setup_stolen_s,
        mut probe_s,
    } = setup::<T>(w, seed);
    drop(sketch);
    let args = Args {
        epsilon: w.epsilon,
        delta: w.delta,
        phis: w.final_phis().to_vec(),
        seed: Workload::sketch_seed(seed),
        shards: w.shards,
        float: w.kind == Kind::CliF64,
        stats: traced.then_some(StatsFormat::Json),
        ..Args::default()
    };
    let mut run_samples = Vec::new();
    let mut run_stolen_s = Vec::new();
    // A sharded run keeps its producer and every shard worker busy.
    let threads = if w.shards > 1 { w.shards + 1 } else { 1 };
    let mut summaries = Vec::new();
    let mut stats = Vec::new();
    for _ in 0..runs(w, traced) {
        stats.clear();
        let mut out = Vec::new();
        let timer = SpanTimer::start(threads);
        let reader = BufReader::new(File::open(input)?);
        summaries.push(mrl_cli::run_with_stats(
            &args, reader, &mut out, &mut stats,
        )?);
        let (wall, stolen) = timer.stop();
        run_samples.push(wall);
        run_stolen_s.push(stolen);
        probe_s.push(probe());
    }
    let peak_rss_mb = peak_rss_mb()?;

    // Outside the timed region: the exact check, then the replay of the
    // same values through the sketch the CLI drives.
    let values = values();
    let mut checked = Vec::new();
    let mut answers: Vec<Vec<T>> = Vec::with_capacity(summaries.len());
    for summary in &summaries {
        if summary.n != values.len() as u64 {
            return Err(io::Error::other(format!(
                "the CLI consumed {} values of {}",
                summary.n,
                values.len()
            )));
        }
        let mut parsed = Vec::with_capacity(summary.quantiles.len());
        for (phi, rendered) in &summary.quantiles {
            let value = T::parse_answer(rendered)
                .ok_or_else(|| io::Error::other(format!("unparseable answer {rendered:?}")))?;
            checked.push(check_answer(&values, *phi, &value, rendered, w.epsilon));
            parsed.push(value);
        }
        answers.push(parsed);
    }
    let (summary, answers) = (&summaries[0], &answers[0]);
    let shard_values = deal(&values, w.shards);
    // A plain repetition first runs one untimed pass of the replays, so
    // the timed passes find the heap and caches warm, then repeats the
    // pass for more latency samples, spread over more time.
    let mut replays: Vec<CoreReplay<T>> = Vec::with_capacity(w.shards);
    let (mut insert_us, mut query_us) = (Vec::new(), Vec::new());
    let warm_up = usize::from(!traced);
    probe_s.push(probe());
    for pass in 0..warm_up + if traced { 1 } else { w.replays_per_rep } {
        replays.clear();
        for v in &shard_values {
            replays.push(CoreReplay::run(&config, seed, v, w, traced));
            probe_s.push(probe());
        }
        if pass >= warm_up {
            for r in &replays {
                insert_us.extend_from_slice(&r.insert_us);
                query_us.extend_from_slice(&r.probe_us);
            }
        }
    }
    if w.shards == 1 && replays[0].answers != *answers {
        return Err(io::Error::other(
            "the core replay answered differently from the CLI",
        ));
    }

    let mut rep = Rep {
        setup_s,
        setup_stolen_s,
        peak_rss_mb,
        sketch_mem_elems: summary.memory_elements,
        checked,
        run_samples,
        run_stolen_s,
        insert_us,
        query_us,
        probe_s,
        ..Rep::default()
    };
    if !traced {
        return Ok(rep);
    }

    let report = last_stats_report(&stats)?;
    let mut l = zero_layers();
    let run_s = rep.run_s();
    l.insert("analysis.optimize_s", optimize_s);
    l.insert("cli.run_s", run_s);
    l.insert("cli.values", summary.n as f64);
    l.insert("cli.skipped", summary.skipped as f64);
    add_core_layers(&mut l, &replays);
    let framework_s = l["framework.seal_s"] + l["framework.collapse_s"];
    if w.shards == 1 {
        // The replay is faithful when it drove the engine through the same
        // seals and collapses as the CLI did.
        let replayed = replays[0].snapshot.as_ref().expect("traced replay records");
        for key in [
            engine_keys::SEAL_PRESORTED,
            engine_keys::SEAL_RUN_MERGE,
            engine_keys::SEAL_PARKED_RAW,
            engine_keys::COLLAPSES,
            engine_keys::COLLAPSE_RAW_FAST_PATH,
        ] {
            if counter(&report.metrics, key) != counter(replayed, key) {
                return Err(io::Error::other(format!(
                    "replay diverged from the CLI on {key}"
                )));
            }
        }
        let final_query_s = replays[0].final_query_s;
        l.insert("core.query_s", final_query_s);
        l.insert("core.queries", 1.0);
        let core_s = l["core.insert_s"] + final_query_s;
        let cli_self_s = run_s - core_s;
        l.insert("cli.self_s", cli_self_s);
        rep.self_times = BTreeMap::from([
            ("cli", cli_self_s),
            ("core", core_s - framework_s),
            ("framework", framework_s),
        ]);
    } else {
        let parallel = ParallelReplay::run(&config, seed, &values, w)?;
        if parallel.answers != *answers {
            return Err(io::Error::other(
                "the sharded replay answered differently from the CLI",
            ));
        }
        let pipeline = report
            .pipeline
            .as_ref()
            .ok_or_else(|| io::Error::other("sharded stats report without pipeline telemetry"))?;
        for (i, (shard, replay)) in pipeline.per_shard.iter().zip(&replays).enumerate() {
            if shard.elements != replay.n || shard.collapses != replay.collapses {
                return Err(io::Error::other(format!(
                    "replay diverged from shard {i}: {} elements, {} collapses vs {} and {}",
                    shard.elements, shard.collapses, replay.n, replay.collapses
                )));
            }
            rep.shard_elements.push(shard.elements);
        }
        let elems = &rep.shard_elements;
        let mean = elems.iter().sum::<u64>() as f64 / elems.len() as f64;
        let max = elems.iter().copied().max().unwrap_or(0) as f64;
        l.insert("parallel.self_s", parallel.total_s);
        l.insert(
            "parallel.stalls",
            counter(&report.metrics, pipeline_keys::DISPATCH_STALLS) as f64,
        );
        l.insert(
            "parallel.stall_s",
            histogram_s(&report.metrics, pipeline_keys::STALL_NS),
        );
        l.insert(
            "parallel.shard_busy_s.0",
            histogram_s(&report.metrics, Key::labeled(pipeline_keys::BATCH_NS, 0)),
        );
        l.insert(
            "parallel.shard_busy_s.1",
            histogram_s(&report.metrics, Key::labeled(pipeline_keys::BATCH_NS, 1)),
        );
        l.insert("parallel.shard_elems_skew", max / mean - 1.0);
        let cli_self_s = run_s - parallel.total_s;
        l.insert("cli.self_s", cli_self_s);
        // Shard workers seal and collapse beside the producer thread; only
        // the producer's own path blocks the answer.
        rep.self_times = BTreeMap::from([("cli", cli_self_s), ("parallel", parallel.total_s)]);
    }
    finish_layers(&mut rep, l);
    Ok(rep)
}

fn online_rep(w: &Workload, seed: u64, traced: bool) -> io::Result<Rep> {
    let Setup {
        config,
        sketch,
        optimize_s,
        setup_s,
        setup_stolen_s,
        mut probe_s,
    } = setup::<u64>(w, seed);
    let recorder = traced.then(|| Arc::new(InMemoryRecorder::new()));
    let values = w.u64_values(seed);
    probe_s.push(probe());
    let mut first = Some(sketch);
    let mut runs_done: Vec<OnlineRun> = Vec::new();
    for _ in 0..runs(w, traced) {
        // Each run after the first fills a fresh sketch; building it is
        // setup, so it stays outside the run.
        let mut sketch = first
            .take()
            .unwrap_or_else(|| UnknownN::from_config(config.clone(), Workload::sketch_seed(seed)));
        if let Some(r) = &recorder {
            sketch.set_metrics(MetricsHandle::new(r.clone()));
        }
        runs_done.push(OnlineRun::run(w, sketch, &values));
        probe_s.push(probe());
    }
    let peak_rss_mb = peak_rss_mb()?;

    // Same seed, same input: the runs answer alike, so each distinct set
    // of answers is checked once and its verdicts counted for every run.
    let mut per_run: Vec<Vec<Checked>> = Vec::with_capacity(runs_done.len());
    for (i, run) in runs_done.iter().enumerate() {
        let verdicts = match runs_done[..i].iter().position(|r| r.answers == run.answers) {
            Some(j) => per_run[j].clone(),
            None => run.check(&values, w.epsilon),
        };
        per_run.push(verdicts);
    }
    let checked = per_run.concat();

    let last = runs_done.last().expect("at least one run");
    let (insert_s, query_s) = (
        last.insert_us.iter().sum::<f64>() / 1e6,
        last.query_us.iter().sum::<f64>() / 1e6,
    );
    let (insert_calls, query_count) = (last.insert_us.len(), last.query_us.len());
    let mut rep = Rep {
        setup_s,
        setup_stolen_s,
        peak_rss_mb,
        sketch_mem_elems: last.memory,
        checked,
        run_samples: runs_done.iter().map(|r| r.run_s).collect(),
        run_stolen_s: runs_done.iter().map(|r| r.stolen_s).collect(),
        insert_us: runs_done
            .iter()
            .flat_map(|r| r.insert_us.iter().copied())
            .collect(),
        query_us: runs_done
            .iter()
            .flat_map(|r| r.query_us.iter().copied())
            .collect(),
        probe_s,
        ..Rep::default()
    };
    if let Some(recorder) = recorder {
        let mut l = zero_layers();
        l.insert("analysis.optimize_s", optimize_s);
        l.insert("core.insert_s", insert_s);
        l.insert("core.insert_calls", insert_calls as f64);
        l.insert("core.query_s", query_s);
        l.insert("core.queries", query_count as f64);
        add_engine_layers(&mut l, &[(&recorder.snapshot(), last.rate)]);
        let framework_s = l["framework.seal_s"] + l["framework.collapse_s"];
        // What is left of run_s after the timed calls is the loop itself;
        // it is no layer, so it shows as the gap.
        rep.self_times = BTreeMap::from([
            ("core", insert_s + query_s - framework_s),
            ("framework", framework_s),
        ]);
        finish_layers(&mut rep, l);
    }
    Ok(rep)
}

/// One timed pass of the online workload over a fresh sketch.
struct OnlineRun {
    run_s: f64,
    /// Steal within `run_s`.
    stolen_s: f64,
    insert_us: Vec<f64>,
    query_us: Vec<f64>,
    /// `(prefix length, answers)` of the sampled interim queries and the
    /// final one.
    answers: Vec<(usize, Option<Vec<u64>>)>,
    memory: usize,
    rate: u64,
}

impl OnlineRun {
    fn run(w: &Workload, mut sketch: UnknownN<u64>, values: &[u64]) -> Self {
        let batches = values.len().div_ceil(CHUNK);
        let queries = batches / w.query_every;
        // A fixed sample of interim answers is checked against its prefix:
        // the queries a quarter, half and three quarters of the way in.
        let sampled = [queries / 4, queries / 2, 3 * queries / 4];
        let mut insert_us = Vec::with_capacity(batches);
        let mut query_us = Vec::with_capacity(queries + 1);
        let mut answers = Vec::with_capacity(sampled.len() + 1);

        let run = SpanTimer::start(1);
        for (i, chunk) in values.chunks(CHUNK).enumerate() {
            let t = Instant::now();
            sketch.insert_batch(chunk);
            insert_us.push(micros(t.elapsed()));
            if (i + 1) % w.query_every == 0 {
                let t = Instant::now();
                let got = sketch.query_many(&PROBE_PHIS);
                query_us.push(micros(t.elapsed()));
                if sampled.contains(&(query_us.len() - 1)) {
                    answers.push((sketch.n() as usize, got));
                }
            }
        }
        let t = Instant::now();
        let got = sketch.query_many(&PROBE_PHIS);
        query_us.push(micros(t.elapsed()));
        let (run_s, stolen_s) = run.stop();
        answers.push((sketch.n() as usize, got));
        OnlineRun {
            run_s,
            stolen_s,
            insert_us,
            query_us,
            answers,
            memory: sketch.memory_bound_elements(),
            rate: sketch.current_rate(),
        }
    }

    fn check(&self, values: &[u64], epsilon: f64) -> Vec<Checked> {
        let mut checked = Vec::new();
        for (n, answers) in &self.answers {
            let answers = answers.as_deref().unwrap_or_default();
            for (phi, v) in PROBE_PHIS.iter().zip(answers) {
                checked.push(check_answer(
                    &values[..*n],
                    *phi,
                    v,
                    &v.to_string(),
                    epsilon,
                ));
            }
            // A query that returned nothing fails every φ it was asked.
            for phi in PROBE_PHIS.iter().skip(answers.len()) {
                checked.push(Checked {
                    n: *n,
                    phi: *phi,
                    value: String::new(),
                    rank_error: f64::INFINITY,
                    ok: false,
                });
            }
        }
        checked
    }
}

/// Timed runs in one process: every run after the first re-measures
/// `run_s` with setup already paid. A traced repetition runs once.
fn runs(w: &Workload, traced: bool) -> usize {
    if traced {
        1
    } else {
        w.runs_per_rep
    }
}

/// The values each shard of a `ShardedSketch` receives: the pipeline
/// deals consecutive batches of `DEFAULT_SHARD_BATCH` round-robin.
fn deal<T: Clone>(values: &[T], shards: usize) -> Vec<Vec<T>> {
    let mut out = vec![Vec::with_capacity(values.len() / shards + 1); shards];
    for (i, batch) in values.chunks(DEFAULT_SHARD_BATCH).enumerate() {
        out[i % shards].extend_from_slice(batch);
    }
    out
}

/// The workload's values (or one shard's share of them) replayed through
/// one `UnknownN` with the CLI's seed and chunks. Every `query_every`
/// batches an 11-φ query runs on a clone: its latency is that of a query
/// after fresh inserts, while the replayed sketch itself goes through
/// exactly the CLI's seals and collapses.
struct CoreReplay<T> {
    insert_us: Vec<f64>,
    probe_us: Vec<f64>,
    final_query_s: f64,
    answers: Vec<T>,
    n: u64,
    collapses: u64,
    rate: u64,
    snapshot: Option<MetricsSnapshot>,
}

impl<T: BenchValue> CoreReplay<T> {
    fn run(config: &UnknownNConfig, seed: u64, values: &[T], w: &Workload, traced: bool) -> Self {
        let mut sketch = UnknownN::from_config(config.clone(), Workload::sketch_seed(seed));
        let recorder = traced.then(|| Arc::new(InMemoryRecorder::new()));
        if let Some(r) = &recorder {
            sketch.set_metrics(MetricsHandle::new(r.clone()));
        }
        let mut insert_us = Vec::with_capacity(values.len() / CHUNK + 1);
        let mut probe_us = Vec::new();
        for (i, chunk) in values.chunks(CHUNK).enumerate() {
            let t = Instant::now();
            sketch.insert_batch(chunk);
            insert_us.push(micros(t.elapsed()));
            if (i + 1) % w.query_every == 0 {
                let probe = sketch.clone();
                let t = Instant::now();
                std::hint::black_box(probe.query_many(&PROBE_PHIS));
                probe_us.push(micros(t.elapsed()));
            }
        }
        let (n, rate) = (sketch.n(), sketch.current_rate());
        let (final_query_s, answers, collapses) = if w.shards == 1 {
            let t = Instant::now();
            let answers = sketch.query_many(w.final_phis()).unwrap_or_default();
            (secs(t.elapsed()), answers, sketch.stats().collapses)
        } else {
            // A shard worker ends by shipping its buffers to the
            // coordinator, which seals and collapses once more.
            let (_, stats, _) = sketch.into_shipment_with_stats();
            (0.0, Vec::new(), stats.collapses)
        };
        CoreReplay {
            insert_us,
            probe_us,
            final_query_s,
            answers,
            n,
            collapses,
            rate,
            snapshot: recorder.map(|r| r.snapshot()),
        }
    }
}

/// The values replayed through a `ShardedSketch` with the CLI's seed and
/// chunks: the producer thread's share of a sharded run without parsing.
struct ParallelReplay<T> {
    total_s: f64,
    answers: Vec<T>,
}

impl<T: BenchValue> ParallelReplay<T> {
    fn run(config: &UnknownNConfig, seed: u64, values: &[T], w: &Workload) -> io::Result<Self> {
        let t = Instant::now();
        let mut sketch =
            ShardedSketch::from_config(config.clone(), w.shards, Workload::sketch_seed(seed));
        for chunk in values.chunks(CHUNK) {
            sketch.insert_batch(chunk);
        }
        let outcome = sketch
            .finish()
            .map_err(|e| io::Error::other(format!("{e:?}")))?;
        let answers = outcome.query_many(w.final_phis()).unwrap_or_default();
        Ok(ParallelReplay {
            total_s: secs(t.elapsed()),
            answers,
        })
    }
}

fn add_core_layers<T>(l: &mut BTreeMap<&'static str, f64>, replays: &[CoreReplay<T>]) {
    let calls: usize = replays.iter().map(|r| r.insert_us.len()).sum();
    let insert_s: f64 = replays.iter().flat_map(|r| &r.insert_us).sum::<f64>() / 1e6;
    l.insert("core.insert_s", insert_s);
    l.insert("core.insert_calls", calls as f64);
    let engines: Vec<(&MetricsSnapshot, u64)> = replays
        .iter()
        .map(|r| (r.snapshot.as_ref().expect("traced replay records"), r.rate))
        .collect();
    add_engine_layers(l, &engines);
}

/// Framework and sampling counts summed over engines (one per shard);
/// the final rate is the highest any engine reached.
fn add_engine_layers(l: &mut BTreeMap<&'static str, f64>, engines: &[(&MetricsSnapshot, u64)]) {
    let sum = |f: &dyn Fn(&MetricsSnapshot) -> f64| engines.iter().map(|(s, _)| f(s)).sum::<f64>();
    let counters = [
        ("framework.seal.presorted", engine_keys::SEAL_PRESORTED),
        ("framework.seal.run_merge", engine_keys::SEAL_RUN_MERGE),
        ("framework.seal.parked_raw", engine_keys::SEAL_PARKED_RAW),
        ("framework.collapses", engine_keys::COLLAPSES),
        (
            "framework.collapse.raw_fast_path",
            engine_keys::COLLAPSE_RAW_FAST_PATH,
        ),
        ("sampling.rate_transitions", engine_keys::RATE_TRANSITIONS),
    ];
    for (name, key) in counters {
        l.insert(name, sum(&|s| counter(s, key) as f64));
    }
    l.insert(
        "framework.seal_s",
        sum(&|s| histogram_s(s, engine_keys::SEAL_NS)),
    );
    l.insert(
        "framework.collapse_s",
        sum(&|s| histogram_s(s, engine_keys::COLLAPSE_NS)),
    );
    l.insert(
        "sampling.draws",
        sum(&|s| {
            s.gauges
                .get(&engine_keys::SAMPLER_DRAWS.to_string())
                .copied()
                .unwrap_or(0.0)
        }),
    );
    let rate = engines.iter().map(|(_, r)| *r).max().unwrap_or(1);
    l.insert("sampling.rate_final", rate as f64);
}

fn zero_layers() -> BTreeMap<&'static str, f64> {
    LAYER_METRICS[..LAYER_METRICS.len() - 1]
        .iter()
        .map(|&name| (name, 0.0))
        .collect()
}

fn finish_layers(rep: &mut Rep, mut l: BTreeMap<&'static str, f64>) {
    let run_s = rep.run_s();
    let sum: f64 = rep.self_times.values().sum();
    l.insert("obs.layer_sum_gap_frac", (run_s - sum) / run_s);
    rep.layers = l;
}

fn counter(s: &MetricsSnapshot, key: Key) -> u64 {
    s.counters.get(&key.to_string()).copied().unwrap_or(0)
}

fn histogram_s(s: &MetricsSnapshot, key: Key) -> f64 {
    s.histograms
        .get(&key.to_string())
        .map_or(0.0, |h| h.sum as f64 / 1e9)
}

/// The final `--stats json` report of a CLI run.
fn last_stats_report(stats: &[u8]) -> io::Result<StatsReport> {
    let text = std::str::from_utf8(stats).map_err(io::Error::other)?;
    let line = text
        .lines()
        .last()
        .ok_or_else(|| io::Error::other("the CLI wrote no stats report"))?;
    serde_json::from_str(line).map_err(io::Error::other)
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
