//! Accuracy evaluation: run a sketch over a workload, score observed rank
//! errors against the guarantee, and estimate failure rates over seeded
//! trials.

use mrl_core::{UnknownN, UnknownNConfig};
use mrl_datagen::Workload;
use mrl_exact::rank_error;
use serde::Serialize;

/// One (workload, seed, φ) measurement.
#[derive(Clone, Debug, Serialize)]
pub struct Trial {
    /// Workload label (`distribution/order`).
    pub workload: String,
    /// Stream length.
    pub n: u64,
    /// Sketch seed.
    pub seed: u64,
    /// Queried quantile.
    pub phi: f64,
    /// Observed normalised rank error.
    pub error: f64,
}

/// Summary over a batch of trials.
#[derive(Clone, Debug, Serialize)]
pub struct ErrorSummary {
    /// Workload label.
    pub workload: String,
    /// Number of measurements.
    pub trials: usize,
    /// Mean observed error.
    pub mean_error: f64,
    /// Max observed error.
    pub max_error: f64,
    /// Fraction of measurements whose error exceeded ε.
    pub failure_rate: f64,
}

/// Run the unknown-`N` sketch over `workload` once per seed, querying each
/// φ, and return every measurement.
pub fn observed_errors(
    workload: &Workload,
    config: &UnknownNConfig,
    phis: &[f64],
    seeds: std::ops::Range<u64>,
) -> Vec<Trial> {
    let data = workload.generate();
    let mut out = Vec::new();
    for seed in seeds {
        let mut sketch = UnknownN::<u64>::from_config(config.clone(), seed);
        sketch.extend(data.iter().copied());
        let answers = sketch.query_many(phis).expect("nonempty stream");
        for (phi, ans) in phis.iter().zip(answers) {
            out.push(Trial {
                workload: workload.label(),
                n: workload.n,
                seed,
                phi: *phi,
                error: rank_error(&data, &ans, *phi),
            });
        }
    }
    out
}

/// Summarise trials against the guarantee ε.
pub fn failure_rate(trials: &[Trial], epsilon: f64) -> ErrorSummary {
    assert!(!trials.is_empty(), "no trials to summarise");
    let workload = trials[0].workload.clone();
    let n = trials.len();
    let mean = trials.iter().map(|t| t.error).sum::<f64>() / n as f64;
    let max = trials.iter().map(|t| t.error).fold(0.0f64, f64::max);
    let failures = trials.iter().filter(|t| t.error > epsilon).count();
    ErrorSummary {
        workload,
        trials: n,
        mean_error: mean,
        max_error: max,
        failure_rate: failures as f64 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrl_core::OptimizerOptions;
    use mrl_datagen::{ArrivalOrder, ValueDistribution};

    #[test]
    fn observed_errors_stay_within_epsilon_on_easy_workload() {
        let workload = Workload {
            values: ValueDistribution::Uniform { range: 1 << 20 },
            order: ArrivalOrder::Random,
            n: 100_000,
            seed: 5,
        };
        let config =
            mrl_analysis::optimizer::optimize_unknown_n_with(0.05, 0.01, OptimizerOptions::fast());
        let trials = observed_errors(&workload, &config, &[0.5], 0..3);
        assert_eq!(trials.len(), 3);
        let summary = failure_rate(&trials, 0.05);
        assert_eq!(summary.failure_rate, 0.0, "summary: {summary:?}");
        assert!(summary.max_error <= 0.05);
    }
}
