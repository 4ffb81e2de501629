//! The line-oriented streaming driver: read numbers, feed the sketch,
//! report quantiles (optionally at a cadence — the online-aggregation
//! mode). Supports integer (default) and floating-point (`--float`)
//! inputs.

use std::io::{BufRead, Write};
use std::sync::Arc;

use mrl_core::{EpsilonAudit, OptimizerOptions, OrderedF64, UnknownN};
use mrl_obs::{
    install_panic_hook, EventJournal, InMemoryRecorder, JournalHandle, MetricsHandle,
    MetricsSnapshot,
};
use mrl_parallel::{PipelineTelemetry, ShardedSketch};
use serde::{Deserialize, Serialize};

use crate::args::{Args, StatsFormat};
use crate::ingest::{cut_lines, ingest, CliValue, LineBatch, CHUNK};

/// What a run saw and concluded.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Parsed input values consumed.
    pub n: u64,
    /// Lines skipped because they did not parse.
    pub skipped: u64,
    /// Final `(phi, rendered estimate)` pairs (empty input ⇒ empty).
    pub quantiles: Vec<(f64, String)>,
    /// The sketch's memory bound in elements.
    pub memory_elements: usize,
}

/// One telemetry report as emitted by `--stats` (the JSON form is one of
/// these per line). `audit` is present in the single-sketch modes,
/// `pipeline` in the sharded mode; interim reports carry whatever is live
/// at that point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StatsReport {
    /// `true` for cadence reports, `false` for the end-of-run report.
    pub interim: bool,
    /// Parsed values consumed when the report was taken — except in a
    /// sharded interim report, where it counts the input lines dispatched
    /// to the shard workers (they, not the producer, parse the values).
    pub n: u64,
    /// Live ε-audit (single-sketch modes only).
    pub audit: Option<EpsilonAudit>,
    /// Merged pipeline telemetry (sharded mode, final report only).
    pub pipeline: Option<PipelineTelemetry>,
    /// The recorder's counter/gauge/histogram snapshot.
    pub metrics: MetricsSnapshot,
}

/// Telemetry plumbing for one run: owns the recorder (when `--stats` or
/// `--prom` is on), the flight-recorder journal (when `--trace` is on),
/// and the stream reports are written to.
struct StatsSink<S: Write> {
    format: Option<StatsFormat>,
    recorder: Option<Arc<InMemoryRecorder>>,
    journal: Option<Arc<EventJournal>>,
    trace_path: Option<String>,
    prom_path: Option<String>,
    out: S,
}

impl<S: Write> StatsSink<S> {
    fn new(args: &Args, out: S) -> Self {
        let journal = args.trace.as_ref().map(|_| {
            let journal = Arc::new(EventJournal::new());
            // A panicking run still yields diagnostics: the hook drains the
            // journal's tail to stderr before the default backtrace.
            install_panic_hook(&journal);
            journal
        });
        Self {
            format: args.stats,
            recorder: (args.stats.is_some() || args.prom.is_some())
                .then(|| Arc::new(InMemoryRecorder::new())),
            journal,
            trace_path: args.trace.clone(),
            prom_path: args.prom.clone(),
            out,
        }
    }

    /// The handle instrumented code should publish through: a real one
    /// when `--stats` or `--prom` is on, otherwise the zero-overhead
    /// disabled handle.
    fn handle(&self) -> MetricsHandle {
        match &self.recorder {
            Some(r) => MetricsHandle::new(r.clone()),
            None => MetricsHandle::disabled(),
        }
    }

    /// The flight-recorder handle: recording when `--trace` is on,
    /// otherwise the one-branch disabled handle.
    fn journal_handle(&self) -> JournalHandle {
        match &self.journal {
            Some(j) => JournalHandle::new(Arc::clone(j)),
            None => JournalHandle::disabled(),
        }
    }

    /// End-of-run artefact export: the chrome-trace JSON (`--trace`) and
    /// the Prometheus text-exposition snapshot (`--prom`).
    fn export(&self) -> std::io::Result<()> {
        if let (Some(path), Some(journal)) = (&self.trace_path, &self.journal) {
            std::fs::write(path, mrl_obs::export::perfetto::to_chrome_trace(journal))?;
        }
        if let (Some(path), Some(recorder)) = (&self.prom_path, &self.recorder) {
            std::fs::write(path, recorder.snapshot().to_prometheus())?;
        }
        Ok(())
    }

    fn emit(
        &mut self,
        n: u64,
        audit: Option<EpsilonAudit>,
        pipeline: Option<PipelineTelemetry>,
        interim: bool,
    ) -> std::io::Result<()> {
        let Some(format) = self.format else {
            return Ok(());
        };
        let recorder = self.recorder.as_ref().expect("format implies recorder");
        let report = StatsReport {
            interim,
            n,
            audit,
            pipeline,
            metrics: recorder.snapshot(),
        };
        match format {
            StatsFormat::Json => {
                let line = serde_json::to_string(&report)
                    .map_err(|e| std::io::Error::other(format!("stats serialization: {e}")))?;
                writeln!(self.out, "{line}")
            }
            StatsFormat::Text => {
                let tag = if interim { " (interim)" } else { "" };
                writeln!(self.out, "# stats{tag} n={n}")?;
                if let Some(a) = &report.audit {
                    writeln!(
                        self.out,
                        "  audit.headroom     {:.4}  (tree_bound {} / allowed {:.1}, alpha {})",
                        a.headroom, a.tree_bound, a.allowed_error, a.alpha
                    )?;
                    writeln!(self.out, "  audit.hoeffding_x  {:.1}", a.hoeffding_x)?;
                    writeln!(
                        self.out,
                        "  audit.rate         {} (sampling_started: {})",
                        a.current_rate, a.sampling_started
                    )?;
                }
                if let Some(p) = &report.pipeline {
                    writeln!(
                        self.out,
                        "  pipeline           {} shards, merged elements {}, collapses {}",
                        p.per_shard.len(),
                        p.merged.elements,
                        p.merged.collapses
                    )?;
                }
                self.out
                    .write_all(report.metrics.render_text().as_bytes())?;
                if report.metrics.dropped > 0 {
                    writeln!(
                        self.out,
                        "  warning: recorder dropped {} metric updates (key table \
                         full); the series above undercount",
                        report.metrics.dropped
                    )?;
                }
                Ok(())
            }
        }
    }
}

/// Run the tool: read numbers line by line from `input`, write reports to
/// `output`. Separated from `main` for testing. Telemetry (if requested
/// via `--stats`) is discarded; use [`run_with_stats`] to capture it.
pub fn run<R: BufRead, W: Write>(args: &Args, input: R, output: W) -> std::io::Result<Summary> {
    run_with_stats(args, input, output, std::io::sink())
}

/// As [`run`], with an explicit stream for `--stats` telemetry reports
/// (`main` passes stderr so stdout stays pure quantile output).
pub fn run_with_stats<R: BufRead, W: Write, S: Write>(
    args: &Args,
    input: R,
    output: W,
    stats: S,
) -> std::io::Result<Summary> {
    if args.float {
        run_typed::<OrderedF64, R, W, S>(args, input, output, stats)
    } else {
        run_typed::<i64, R, W, S>(args, input, output, stats)
    }
}

fn run_typed<T: CliValue, R: BufRead, W: Write, S: Write>(
    args: &Args,
    input: R,
    mut output: W,
    stats: S,
) -> std::io::Result<Summary> {
    let mut stats = StatsSink::new(args, stats);
    let journal = stats.journal_handle();
    journal.name_thread("driver", None);
    let opts = OptimizerOptions::default();

    if args.report_every > 0 {
        // Online-aggregation mode: per-element inserts so the interim
        // report cadence lands exactly on every `report_every`-th value.
        let mut sketch =
            UnknownN::<T>::with_options(args.epsilon, args.delta, opts).with_seed(args.seed);
        sketch.set_metrics(stats.handle());
        sketch.set_journal(journal.clone());
        let skipped = ingest(input, &mut Vec::new(), CHUNK, |chunk: &[T]| {
            for v in chunk {
                sketch.insert(v.clone());
                let n = sketch.n();
                if n.is_multiple_of(args.report_every) {
                    report(
                        sketch.query_many(&args.phis),
                        n,
                        &args.phis,
                        &mut output,
                        true,
                    )?;
                }
                if args.stats_interval > 0 && n.is_multiple_of(args.stats_interval) {
                    stats.emit(n, Some(sketch.audit()), None, true)?;
                }
            }
            Ok(())
        })?;
        let quantiles = report(
            sketch.query_many(&args.phis),
            sketch.n(),
            &args.phis,
            &mut output,
            false,
        )?;
        report_skipped(skipped, &mut output)?;
        stats.emit(sketch.n(), Some(sketch.publish_audit()), None, false)?;
        stats.export()?;
        Ok(Summary {
            n: sketch.n(),
            skipped,
            quantiles,
            memory_elements: sketch.memory_bound_elements(),
        })
    } else if args.shards > 1 {
        // Sharded bulk mode: the producer cuts the input into batches of
        // `DEFAULT_SHARD_BATCH` lines and deals them round-robin to a
        // worker pool over bounded channels; each worker parses its
        // batches, and the shards' final buffers merge at a §6 coordinator.
        let mut sketch = ShardedSketch::<T, LineBatch>::new_with_obs(
            args.shards,
            args.epsilon,
            args.delta,
            opts,
            args.seed,
            stats.handle(),
            journal.clone(),
        );
        let mut next_emit = interval_start(args.stats_interval);
        cut_lines(input, sketch.spare_batch(), |batch| {
            sketch.send_batch(batch);
            let lines = sketch.n();
            if lines >= next_emit {
                next_emit = next_threshold(lines, args.stats_interval);
                // Per-shard audits only exist once workers finish, so the
                // interim report is the live metrics snapshot alone, at
                // the count of lines dispatched.
                stats.emit(lines, None, None, true)?;
            }
            Ok(sketch.spare_batch())
        })?;
        let memory_elements = sketch.memory_bound_elements();
        let outcome = sketch.finish()?;
        let skipped = outcome.rejected();
        let quantiles = report(
            outcome.query_many(&args.phis),
            outcome.total_n(),
            &args.phis,
            &mut output,
            false,
        )?;
        report_skipped(skipped, &mut output)?;
        stats.emit(
            outcome.total_n(),
            None,
            Some(outcome.telemetry().clone()),
            false,
        )?;
        stats.export()?;
        Ok(Summary {
            n: outcome.total_n(),
            skipped,
            quantiles,
            memory_elements,
        })
    } else {
        // Bulk mode: gather parsed values and feed the sketch's batched
        // fast path.
        let mut sketch =
            UnknownN::<T>::with_options(args.epsilon, args.delta, opts).with_seed(args.seed);
        sketch.set_metrics(stats.handle());
        sketch.set_journal(journal.clone());
        let mut next_emit = interval_start(args.stats_interval);
        let skipped = ingest(input, &mut Vec::new(), CHUNK, |chunk: &[T]| {
            sketch.insert_batch(chunk);
            if sketch.n() >= next_emit {
                next_emit = next_threshold(sketch.n(), args.stats_interval);
                stats.emit(sketch.n(), Some(sketch.audit()), None, true)?;
            }
            Ok(())
        })?;
        let quantiles = report(
            sketch.query_many(&args.phis),
            sketch.n(),
            &args.phis,
            &mut output,
            false,
        )?;
        report_skipped(skipped, &mut output)?;
        stats.emit(sketch.n(), Some(sketch.publish_audit()), None, false)?;
        stats.export()?;
        Ok(Summary {
            n: sketch.n(),
            skipped,
            quantiles,
            memory_elements: sketch.memory_bound_elements(),
        })
    }
}

/// First ingest count at which an interim stats report is due
/// (`u64::MAX` disables the cadence entirely).
fn interval_start(interval: u64) -> u64 {
    if interval > 0 {
        interval
    } else {
        u64::MAX
    }
}

/// Next report threshold after one fired at ingest count `n` (chunked
/// ingestion can jump several multiples of `interval` at once; exactly
/// one report is emitted per crossing).
fn next_threshold(n: u64, interval: u64) -> u64 {
    (n / interval + 1).saturating_mul(interval)
}

fn report_skipped<W: Write>(skipped: u64, output: &mut W) -> std::io::Result<()> {
    if skipped > 0 {
        writeln!(output, "# skipped {skipped} unparseable lines")?;
    }
    Ok(())
}

fn report<T: CliValue, W: Write>(
    answers: Option<Vec<T>>,
    n: u64,
    phis: &[f64],
    output: &mut W,
    interim: bool,
) -> std::io::Result<Vec<(f64, String)>> {
    let Some(answers) = answers else {
        writeln!(output, "# empty input")?;
        return Ok(Vec::new());
    };
    let pairs: Vec<(f64, String)> = phis
        .iter()
        .copied()
        .zip(answers.iter().map(CliValue::render))
        .collect();
    let tag = if interim {
        format!("@{n} ")
    } else {
        String::new()
    };
    for (phi, v) in &pairs {
        writeln!(output, "{tag}p{phi}\t{v}")?;
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(input: &str, args: &Args) -> (Summary, String) {
        let mut out = Vec::new();
        let summary = run(args, input.as_bytes(), &mut out).expect("io on buffers");
        (summary, String::from_utf8(out).expect("utf8 output"))
    }

    fn args_with_phis(phis: &[f64]) -> Args {
        Args {
            epsilon: 0.05,
            delta: 0.01,
            phis: phis.to_vec(),
            ..Args::default()
        }
    }

    #[test]
    fn small_input_is_exact() {
        let input = "5\n1\n4\n2\n3\n";
        let (summary, out) = run_on(input, &args_with_phis(&[0.5, 1.0]));
        assert_eq!(summary.n, 5);
        assert_eq!(summary.skipped, 0);
        assert_eq!(
            summary.quantiles,
            vec![(0.5, "3".to_string()), (1.0, "5".to_string())]
        );
        assert!(out.contains("p0.5\t3"));
        assert!(out.contains("p1\t5"));
    }

    #[test]
    fn unparseable_lines_are_counted_not_fatal() {
        let input = "10\nhello\n20\n\n30\nNaN\n";
        let (summary, out) = run_on(input, &args_with_phis(&[0.5]));
        assert_eq!(summary.n, 3);
        assert_eq!(summary.skipped, 2); // blank lines are ignored silently
        assert!(out.contains("# skipped 2"));
    }

    #[test]
    fn negative_numbers_are_ordered_correctly() {
        let input = "-5\n-1\n-3\n0\n2\n";
        let (summary, _) = run_on(input, &args_with_phis(&[0.0, 1.0]));
        assert_eq!(
            summary.quantiles,
            vec![(0.0, "-5".to_string()), (1.0, "2".to_string())]
        );
    }

    #[test]
    fn float_mode_parses_and_orders() {
        let mut args = args_with_phis(&[0.0, 0.5, 1.0]);
        args.float = true;
        let input = "2.5\n-0.5\n1.25\n1e3\nNaN\n";
        let (summary, out) = run_on(input, &args);
        assert_eq!(summary.n, 4);
        assert_eq!(summary.skipped, 1, "NaN must be skipped: {out}");
        assert_eq!(summary.quantiles[0].1, "-0.5");
        assert_eq!(summary.quantiles[2].1, "1000");
    }

    #[test]
    fn integer_mode_rejects_floats() {
        let (summary, _) = run_on("1.5\n2\n", &args_with_phis(&[0.5]));
        assert_eq!(summary.n, 1);
        assert_eq!(summary.skipped, 1);
    }

    #[test]
    fn empty_input_reports_gracefully() {
        let (summary, out) = run_on("", &args_with_phis(&[0.5]));
        assert_eq!(summary.n, 0);
        assert!(summary.quantiles.is_empty());
        assert!(out.contains("# empty input"));
    }

    #[test]
    fn interim_reports_at_cadence() {
        let mut args = args_with_phis(&[0.5]);
        args.report_every = 10;
        let input: String = (1..=25).map(|i| format!("{i}\n")).collect();
        let (summary, out) = run_on(&input, &args);
        assert_eq!(summary.n, 25);
        assert!(out.contains("@10 p0.5"));
        assert!(out.contains("@20 p0.5"));
    }

    #[test]
    fn sharded_mode_matches_bulk_accounting_and_accuracy() {
        let input: String = (0..60_000u64)
            .map(|i| format!("{}\n", (i * 2654435761) % 60_000))
            .collect();
        let mut args = args_with_phis(&[0.5]);
        args.shards = 3;
        let (summary, out) = run_on(&input, &args);
        assert_eq!(summary.n, 60_000);
        assert_eq!(summary.skipped, 0);
        let med: f64 = summary.quantiles[0].1.parse().unwrap();
        assert!(
            (med - 30_000.0).abs() <= 0.05 * 60_000.0 + 1.0,
            "median {med}: {out}"
        );
    }

    #[test]
    fn sharded_mode_counts_skipped_lines() {
        let mut args = args_with_phis(&[0.5]);
        args.shards = 2;
        let (summary, out) = run_on("1\nnope\n2\n3\nbad\n", &args);
        assert_eq!(summary.n, 3);
        assert_eq!(summary.skipped, 2);
        assert!(out.contains("# skipped 2"));
    }

    /// 30 000 lines that mix values with blank, junk, CRLF, padded and
    /// non-UTF-8 lines, so the line batches hold uneven value counts.
    fn hostile_input() -> Vec<u8> {
        let mut input = Vec::new();
        for i in 0..30_000u64 {
            match i % 17 {
                3 => input.extend_from_slice(b"junk"),
                5 => {}
                7 => input.extend_from_slice(b"\xff\xfe"),
                11 => input.extend_from_slice(b" \x0B "),
                _ => {
                    input.extend_from_slice(format!(" {}\r", (i * 2654435761) % 30_000).as_bytes())
                }
            }
            input.push(b'\n');
        }
        input
    }

    #[test]
    fn sharded_modes_count_values_and_skips_like_bulk_mode() {
        let input = hostile_input();
        let mut args = args_with_phis(&[0.5]);
        let mut out = Vec::new();
        let bulk = run(&args, &input[..], &mut out).expect("io on buffers");
        let junk = (0..30_000).filter(|i| matches!(i % 17, 3 | 7)).count();
        assert_eq!(bulk.skipped, junk as u64);
        for shards in [2, 3] {
            args.shards = shards;
            let sharded = run(&args, &input[..], &mut out).expect("io on buffers");
            assert_eq!(sharded.n, bulk.n, "--shards {shards}");
            assert_eq!(sharded.skipped, bulk.skipped, "--shards {shards}");
        }
    }

    /// The CLI's `--shards 2` answers equal those of a `ShardedSketch` of
    /// `Vec<T>` batches fed the parsed values with the same seed: the line
    /// batches deal the same values to the same shards, each batch in one
    /// `insert_batch`.
    fn assert_sharded_cli_matches_value_pipeline<T: CliValue>(
        input: &str,
        values: &[T],
        mut args: Args,
    ) {
        args.shards = 2;
        args.seed = 17;
        let (summary, _) = run_on(input, &args);
        let mut reference = ShardedSketch::<T>::new(
            2,
            args.epsilon,
            args.delta,
            OptimizerOptions::default(),
            args.seed,
        );
        for chunk in values.chunks(CHUNK) {
            reference.insert_batch(chunk);
        }
        let outcome = reference.finish().expect("no shard panicked");
        assert!(
            outcome.telemetry().merged.sampling_onset_n.is_some(),
            "the stream must push the shards past sampling rate 1"
        );
        let expected: Vec<(f64, String)> = args
            .phis
            .iter()
            .copied()
            .zip(
                outcome
                    .query_many(&args.phis)
                    .expect("non-empty")
                    .iter()
                    .map(CliValue::render),
            )
            .collect();
        assert_eq!(summary.n, values.len() as u64);
        assert_eq!(summary.quantiles, expected);
    }

    #[test]
    fn sharded_cli_answers_equal_the_value_pipeline_on_i64_input() {
        let values: Vec<i64> = (0..300_001i64)
            .map(|i| (i * 2654435761) % 1_000_003 - 500_000)
            .collect();
        let input: String = values.iter().map(|v| format!("{v}\n")).collect();
        let args = Args {
            epsilon: 0.05,
            phis: vec![0.01, 0.25, 0.5, 0.75, 0.99],
            ..Args::default()
        };
        assert_sharded_cli_matches_value_pipeline(&input, &values, args);
    }

    #[test]
    fn sharded_cli_answers_equal_the_value_pipeline_on_f64_input() {
        let values: Vec<OrderedF64> = (0..300_001u64)
            .map(|i| {
                let u = ((i * 2654435761) % 1_000_003) as f64 / 1_000_003.0;
                OrderedF64::new((u - 0.5) / (1.0 - u)).expect("finite")
            })
            .collect();
        let input: String = values.iter().map(|v| format!("{}\n", v.get())).collect();
        let args = Args {
            epsilon: 0.05,
            phis: vec![0.01, 0.25, 0.5, 0.75, 0.99],
            float: true,
            ..Args::default()
        };
        assert_sharded_cli_matches_value_pipeline(&input, &values, args);
    }

    fn run_with_stats_on(input: &str, args: &Args) -> (Summary, String, String) {
        let mut out = Vec::new();
        let mut stats = Vec::new();
        let summary =
            run_with_stats(args, input.as_bytes(), &mut out, &mut stats).expect("io on buffers");
        (
            summary,
            String::from_utf8(out).expect("utf8 output"),
            String::from_utf8(stats).expect("utf8 stats"),
        )
    }

    #[test]
    fn stats_json_reports_audit_headroom_and_metrics() {
        let mut args = args_with_phis(&[0.5]);
        args.stats = Some(StatsFormat::Json);
        let input: String = (0..20_000u64)
            .map(|i| format!("{}\n", (i * 2654435761) % 20_000))
            .collect();
        let (summary, _, stats) = run_with_stats_on(&input, &args);
        assert_eq!(summary.n, 20_000);
        let lines: Vec<&str> = stats.lines().collect();
        assert_eq!(lines.len(), 1, "final report only: {stats}");
        let report: StatsReport = serde_json::from_str(lines[0]).expect("valid JSON stats line");
        assert!(!report.interim);
        assert_eq!(report.n, 20_000);
        let audit = report
            .audit
            .expect("single-sketch mode publishes the audit");
        assert_eq!(audit.n, 20_000);
        assert!(audit.headroom >= 0.0, "headroom gauge: {}", audit.headroom);
        assert!(report.pipeline.is_none());
        assert!(report.metrics.counters.contains_key("engine.collapses"));
        assert_eq!(
            report.metrics.gauges.get("audit.headroom").copied(),
            Some(audit.headroom),
            "publish_audit must mirror the audit into the recorder"
        );
    }

    #[test]
    fn stats_interval_emits_interim_reports_in_bulk_mode() {
        let mut args = args_with_phis(&[0.5]);
        args.stats = Some(StatsFormat::Json);
        args.stats_interval = 5_000;
        let input: String = (0..12_000u64).map(|i| format!("{i}\n")).collect();
        let (_, _, stats) = run_with_stats_on(&input, &args);
        let reports: Vec<StatsReport> = stats
            .lines()
            .map(|l| serde_json::from_str(l).expect("valid JSONL"))
            .collect();
        // Crossings at 5k and 10k (chunk granularity) plus the final report.
        assert_eq!(reports.len(), 3, "{stats}");
        assert!(reports[0].interim && reports[1].interim && !reports[2].interim);
        assert!(reports[0].n >= 5_000 && reports[0].n < 5_000 + 1024);
        assert!(reports[1].n >= 10_000 && reports[1].n < 10_000 + 1024);
        assert_eq!(reports[2].n, 12_000);
        for r in &reports {
            assert!(r.audit.is_some());
        }
    }

    #[test]
    fn stats_interval_in_sharded_mode_counts_lines_dispatched() {
        let mut args = args_with_phis(&[0.5]);
        args.stats = Some(StatsFormat::Json);
        args.stats_interval = 5_000;
        args.shards = 2;
        // Every fourth line is blank: 12 000 lines hold 9 000 values.
        let input: String = (0..12_000u64)
            .map(|i| {
                if i % 4 == 3 {
                    "\n".into()
                } else {
                    format!("{i}\n")
                }
            })
            .collect();
        let (summary, _, stats) = run_with_stats_on(&input, &args);
        assert_eq!(summary.n, 9_000);
        let reports: Vec<StatsReport> = stats
            .lines()
            .map(|l| serde_json::from_str(l).expect("valid JSONL"))
            .collect();
        // The producer deals 4096-line batches: the cadence fires at the
        // crossings after 8192 and 12 000 lines dispatched, then the final
        // report carries the values.
        let ns: Vec<(bool, u64)> = reports.iter().map(|r| (r.interim, r.n)).collect();
        assert_eq!(
            ns,
            vec![(true, 8_192), (true, 12_000), (false, 9_000)],
            "{stats}"
        );
    }

    #[test]
    fn stats_text_mode_renders_audit_and_snapshot() {
        let mut args = args_with_phis(&[0.5]);
        args.stats = Some(StatsFormat::Text);
        let input: String = (0..5_000u64).map(|i| format!("{i}\n")).collect();
        let (_, out, stats) = run_with_stats_on(&input, &args);
        assert!(!out.contains("# stats"), "stats stay off stdout: {out}");
        assert!(stats.contains("# stats n=5000"), "{stats}");
        assert!(stats.contains("audit.headroom"), "{stats}");
        assert!(stats.contains("engine.collapses"), "{stats}");
    }

    #[test]
    fn stats_in_sharded_mode_carries_pipeline_telemetry() {
        let mut args = args_with_phis(&[0.5]);
        args.stats = Some(StatsFormat::Json);
        args.shards = 2;
        let input: String = (0..30_000u64).map(|i| format!("{i}\n")).collect();
        let (summary, _, stats) = run_with_stats_on(&input, &args);
        assert_eq!(summary.n, 30_000);
        let report: StatsReport =
            serde_json::from_str(stats.lines().last().unwrap()).expect("valid JSON");
        let pipeline = report.pipeline.expect("sharded mode reports telemetry");
        assert_eq!(pipeline.merged.elements, 30_000);
        assert_eq!(pipeline.per_shard.len(), 2);
        assert!(report
            .metrics
            .counters
            .contains_key("pipeline.shard.batches[0]"));
    }

    #[test]
    fn stats_in_every_mode_follows_its_own_cadence() {
        let mut args = args_with_phis(&[0.5]);
        args.stats = Some(StatsFormat::Json);
        args.stats_interval = 40;
        args.report_every = 25;
        let input: String = (1..=100u64).map(|i| format!("{i}\n")).collect();
        let (_, out, stats) = run_with_stats_on(&input, &args);
        assert!(out.contains("@25 p0.5"), "{out}");
        let reports: Vec<StatsReport> = stats
            .lines()
            .map(|l| serde_json::from_str(l).expect("valid JSONL"))
            .collect();
        // Interim at exactly n = 40 and 80 (per-element mode), then final.
        assert_eq!(reports.len(), 3, "{stats}");
        assert_eq!(reports[0].n, 40);
        assert_eq!(reports[1].n, 80);
        assert_eq!(reports[2].n, 100);
    }

    #[test]
    fn trace_flag_writes_chrome_trace_json_with_shard_tracks() {
        let path = std::env::temp_dir().join(format!("mrl_cli_trace_{}.json", std::process::id()));
        let mut args = args_with_phis(&[0.5]);
        args.shards = 2;
        args.trace = Some(path.to_string_lossy().into_owned());
        let input: String = (0..20_000u64).map(|i| format!("{i}\n")).collect();
        let (summary, _) = run_on(&input, &args);
        assert_eq!(summary.n, 20_000);
        let text = std::fs::read_to_string(&path).expect("--trace wrote the file");
        std::fs::remove_file(&path).ok();
        assert!(text.starts_with("{\"traceEvents\":["), "{text}");
        assert!(text.contains("\"name\":\"driver\""), "producer ring named");
        assert!(text.contains("\"name\":\"shard[0]\""), "worker rings named");
        assert!(text.contains("\"name\":\"shard.dispatch\""), "{summary:?}");
        assert!(
            text.contains("\"name\":\"seal\""),
            "engine events flow through"
        );
        let parsed: serde::Value = serde_json::from_str(&text).expect("valid JSON trace");
        assert!(matches!(parsed, serde::Value::Object(_)));
    }

    #[test]
    fn prom_flag_writes_exposition_text_without_stats() {
        let path = std::env::temp_dir().join(format!("mrl_cli_prom_{}.prom", std::process::id()));
        let mut args = args_with_phis(&[0.5]);
        args.prom = Some(path.to_string_lossy().into_owned());
        assert!(args.stats.is_none(), "--prom alone must create a recorder");
        let input: String = (0..20_000u64).map(|i| format!("{i}\n")).collect();
        run_on(&input, &args);
        let text = std::fs::read_to_string(&path).expect("--prom wrote the file");
        std::fs::remove_file(&path).ok();
        assert!(text.contains("# TYPE"), "{text}");
        assert!(text.contains("engine_collapses"), "{text}");
        assert!(text.contains("mrl_obs_dropped_updates"), "{text}");
    }

    #[test]
    fn same_seed_runs_are_bitwise_identical_across_modes() {
        let input: String = (0..40_000u64)
            .map(|i| format!("{}\n", (i * 2654435761) % 40_000))
            .collect();
        for shards in [1usize, 3] {
            let mut args = args_with_phis(&[0.1, 0.5, 0.9]);
            args.shards = shards;
            args.seed = 42;
            let (s1, out1) = run_on(&input, &args);
            let (s2, out2) = run_on(&input, &args);
            assert_eq!(out1, out2, "--seed must pin the output (shards={shards})");
            assert_eq!(s1.quantiles, s2.quantiles);
            assert_eq!(s1.n, s2.n);
        }
    }

    #[test]
    fn large_stream_is_approximately_right() {
        let input: String = (0..50_000u64)
            .map(|i| format!("{}\n", (i * 48271) % 50_000))
            .collect();
        let (summary, _) = run_on(&input, &args_with_phis(&[0.5]));
        let med: f64 = summary.quantiles[0].1.parse().unwrap();
        assert!(
            (med - 25_000.0).abs() <= 0.05 * 50_000.0 + 1.0,
            "median {med}"
        );
    }
}
