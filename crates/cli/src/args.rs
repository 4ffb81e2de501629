//! Hand-rolled argument parsing for `mrl-quantiles` (no CLI-framework
//! dependency; the surface is five flags).

use std::fmt;

/// Rendering for the `--stats` telemetry report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatsFormat {
    /// Human-readable aligned text.
    Text,
    /// One JSON object per report line (machine-readable).
    Json,
}

/// Parsed command-line options.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Approximation guarantee ε.
    pub epsilon: f64,
    /// Failure probability δ.
    pub delta: f64,
    /// Quantiles to report.
    pub phis: Vec<f64>,
    /// Sketch seed.
    pub seed: u64,
    /// Print running estimates every `report_every` lines (0 = only at
    /// end-of-stream).
    pub report_every: u64,
    /// Shard ingestion across this many worker threads (1 = in-process).
    pub shards: usize,
    /// Parse input as floating-point numbers instead of integers.
    pub float: bool,
    /// Emit a telemetry report (metrics snapshot + live ε-audit) to the
    /// stats stream at end-of-run, in the given format.
    pub stats: Option<StatsFormat>,
    /// Also emit interim telemetry every `stats_interval` parsed values
    /// (0 = final report only). Requires `--stats`. With `shards > 1` the
    /// shard workers parse, so the cadence and each interim report's `n`
    /// count input lines dispatched instead.
    pub stats_interval: u64,
    /// Attach the flight recorder and write a chrome-trace
    /// (Perfetto-loadable) JSON file here at end-of-run.
    pub trace: Option<String>,
    /// Write the final metrics snapshot here in Prometheus text
    /// exposition format at end-of-run.
    pub prom: Option<String>,
    /// Print the help text and exit.
    pub help: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            epsilon: 0.01,
            delta: 1e-4,
            phis: vec![0.5],
            seed: 0,
            report_every: 0,
            shards: 1,
            float: false,
            stats: None,
            stats_interval: 0,
            trace: None,
            prom: None,
            help: false,
        }
    }
}

/// A malformed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// The usage text.
pub const USAGE: &str = "\
mrl-quantiles: single-pass approximate quantiles over stdin (MRL99)

USAGE:
    <numbers on stdin, one per line> | mrl-quantiles [OPTIONS]

OPTIONS:
    --eps <float>     rank-error guarantee epsilon in (0,1)   [default: 0.01]
    --delta <float>   failure probability delta in (0,1)      [default: 1e-4]
    --phi <list>      comma-separated quantiles in [0,1]      [default: 0.5]
    --seed <u64>      sampler seed                            [default: 0]
    --every <u64>     also report every N input lines         [default: off]
    --shards <usize>  parallel ingestion worker threads       [default: 1]
    --float           parse input as floating-point numbers
    --stats[=FORMAT]  emit a telemetry report (metrics + live eps-audit)
                      to stderr; FORMAT is text (default) or json
    --stats-interval <u64>
                      also emit interim telemetry every N parsed values
                      (with --shards: every N input lines dispatched, as
                      the workers parse); requires --stats  [default: off]
    --trace <path>    attach the flight recorder and write a chrome-trace
                      JSON file (open in https://ui.perfetto.dev)
    --prom <path>     write the final metrics snapshot in Prometheus text
                      exposition format
    --help            show this text

Input lines that do not parse, including lines that are not valid UTF-8,
are counted and skipped; blank lines are ignored. Values are read as i64
by default (negative numbers welcome) or as f64 with --float (NaN lines
are skipped).";

impl Args {
    /// Parse `argv[1..]`.
    pub fn parse<I, S>(argv: I) -> Result<Args, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut args = Args::default();
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let flag = flag.as_ref();
            let mut value_for = |name: &str| -> Result<String, ParseError> {
                it.next()
                    .map(|v| v.as_ref().to_string())
                    .ok_or_else(|| ParseError(format!("{name} requires a value")))
            };
            match flag {
                "--eps" => {
                    args.epsilon = value_for("--eps")?
                        .parse()
                        .map_err(|e| ParseError(format!("--eps: {e}")))?;
                }
                "--delta" => {
                    args.delta = value_for("--delta")?
                        .parse()
                        .map_err(|e| ParseError(format!("--delta: {e}")))?;
                }
                "--phi" => {
                    let raw = value_for("--phi")?;
                    let mut phis = Vec::new();
                    for part in raw.split(',') {
                        let phi: f64 = part
                            .trim()
                            .parse()
                            .map_err(|e| ParseError(format!("--phi '{part}': {e}")))?;
                        if !(0.0..=1.0).contains(&phi) {
                            return Err(ParseError(format!("--phi {phi} outside [0, 1]")));
                        }
                        phis.push(phi);
                    }
                    if phis.is_empty() {
                        return Err(ParseError("--phi needs at least one value".into()));
                    }
                    args.phis = phis;
                }
                "--seed" => {
                    args.seed = value_for("--seed")?
                        .parse()
                        .map_err(|e| ParseError(format!("--seed: {e}")))?;
                }
                "--every" => {
                    args.report_every = value_for("--every")?
                        .parse()
                        .map_err(|e| ParseError(format!("--every: {e}")))?;
                }
                "--shards" => {
                    args.shards = value_for("--shards")?
                        .parse()
                        .map_err(|e| ParseError(format!("--shards: {e}")))?;
                }
                "--float" => args.float = true,
                "--stats" => args.stats = Some(StatsFormat::Text),
                "--stats=text" => args.stats = Some(StatsFormat::Text),
                "--stats=json" => args.stats = Some(StatsFormat::Json),
                "--stats-interval" => {
                    args.stats_interval = value_for("--stats-interval")?
                        .parse()
                        .map_err(|e| ParseError(format!("--stats-interval: {e}")))?;
                }
                "--trace" => args.trace = Some(value_for("--trace")?),
                "--prom" => args.prom = Some(value_for("--prom")?),
                "--help" | "-h" => args.help = true,
                other if other.starts_with("--stats=") => {
                    return Err(ParseError(format!(
                        "--stats format must be text or json, got '{}'",
                        &other["--stats=".len()..]
                    )));
                }
                other => return Err(ParseError(format!("unknown flag: {other}"))),
            }
        }
        if !(args.epsilon > 0.0 && args.epsilon < 1.0) {
            return Err(ParseError(format!("--eps {} outside (0, 1)", args.epsilon)));
        }
        if !(args.delta > 0.0 && args.delta < 1.0) {
            return Err(ParseError(format!("--delta {} outside (0, 1)", args.delta)));
        }
        if args.shards == 0 {
            return Err(ParseError("--shards must be at least 1".into()));
        }
        if args.shards > 1 && args.report_every > 0 {
            return Err(ParseError(
                "--shards > 1 is incompatible with --every (interim reports \
                 need a single in-process sketch)"
                    .into(),
            ));
        }
        if args.stats_interval > 0 && args.stats.is_none() {
            return Err(ParseError(
                "--stats-interval requires --stats (nothing to emit otherwise)".into(),
            ));
        }
        if args.trace.as_deref() == Some("") {
            return Err(ParseError("--trace requires a non-empty path".into()));
        }
        if args.prom.as_deref() == Some("") {
            return Err(ParseError("--prom requires a non-empty path".into()));
        }
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_when_no_flags() {
        let a = Args::parse(Vec::<String>::new()).unwrap();
        assert_eq!(a, Args::default());
    }

    #[test]
    fn parses_all_flags() {
        let a = Args::parse([
            "--eps",
            "0.05",
            "--delta",
            "0.001",
            "--phi",
            "0.25,0.5,0.99",
            "--seed",
            "7",
            "--every",
            "1000",
        ])
        .unwrap();
        assert_eq!(a.epsilon, 0.05);
        assert_eq!(a.delta, 0.001);
        assert_eq!(a.phis, vec![0.25, 0.5, 0.99]);
        assert_eq!(a.seed, 7);
        assert_eq!(a.report_every, 1000);
    }

    #[test]
    fn rejects_bad_epsilon() {
        assert!(Args::parse(["--eps", "1.5"]).is_err());
        assert!(Args::parse(["--eps", "0"]).is_err());
        assert!(Args::parse(["--eps", "abc"]).is_err());
    }

    #[test]
    fn rejects_out_of_range_phi() {
        assert!(Args::parse(["--phi", "1.2"]).is_err());
        assert!(Args::parse(["--phi", ""]).is_err());
    }

    #[test]
    fn rejects_unknown_flag_and_missing_value() {
        assert!(Args::parse(["--frobnicate"]).is_err());
        assert!(Args::parse(["--eps"]).is_err());
    }

    #[test]
    fn parses_shards_and_rejects_bad_values() {
        assert_eq!(Args::parse(["--shards", "4"]).unwrap().shards, 4);
        assert_eq!(Args::parse(Vec::<String>::new()).unwrap().shards, 1);
        assert!(Args::parse(["--shards", "0"]).is_err());
        assert!(Args::parse(["--shards", "x"]).is_err());
    }

    #[test]
    fn shards_conflict_with_interim_reports() {
        assert!(Args::parse(["--shards", "2", "--every", "100"]).is_err());
        // shards=1 with --every stays fine.
        assert!(Args::parse(["--shards", "1", "--every", "100"]).is_ok());
    }

    #[test]
    fn float_flag() {
        assert!(Args::parse(["--float"]).unwrap().float);
        assert!(!Args::parse(Vec::<String>::new()).unwrap().float);
    }

    #[test]
    fn stats_flag_forms() {
        assert_eq!(Args::parse(Vec::<String>::new()).unwrap().stats, None);
        assert_eq!(
            Args::parse(["--stats"]).unwrap().stats,
            Some(StatsFormat::Text)
        );
        assert_eq!(
            Args::parse(["--stats=text"]).unwrap().stats,
            Some(StatsFormat::Text)
        );
        assert_eq!(
            Args::parse(["--stats=json"]).unwrap().stats,
            Some(StatsFormat::Json)
        );
        assert!(Args::parse(["--stats=yaml"]).is_err());
    }

    #[test]
    fn stats_interval_requires_stats() {
        let a = Args::parse(["--stats=json", "--stats-interval", "5000"]).unwrap();
        assert_eq!(a.stats_interval, 5000);
        assert!(Args::parse(["--stats-interval", "5000"]).is_err());
        assert!(Args::parse(["--stats", "--stats-interval", "x"]).is_err());
    }

    #[test]
    fn trace_and_prom_take_paths() {
        let a = Args::parse(["--trace", "/tmp/t.json", "--prom", "/tmp/m.prom"]).unwrap();
        assert_eq!(a.trace.as_deref(), Some("/tmp/t.json"));
        assert_eq!(a.prom.as_deref(), Some("/tmp/m.prom"));
        let d = Args::parse(Vec::<String>::new()).unwrap();
        assert_eq!(d.trace, None);
        assert_eq!(d.prom, None);
        assert!(Args::parse(["--trace"]).is_err());
        assert!(Args::parse(["--prom"]).is_err());
        assert!(Args::parse(["--trace", ""]).is_err());
        assert!(Args::parse(["--prom", ""]).is_err());
    }

    #[test]
    fn help_flag() {
        assert!(Args::parse(["--help"]).unwrap().help);
        assert!(Args::parse(["-h"]).unwrap().help);
    }
}
