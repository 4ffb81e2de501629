//! Timing on a shared host: stolen time and the host-speed probe.
//!
//! The benchmark runs on small shared VMs, where the neighbours cost a
//! span time in two ways. The hypervisor holds a vCPU back ("steal", at
//! times a third of a run's wall time), and a busy neighbour on the same
//! core slows every instruction, so throughput drifts by up to 2× over
//! minutes while the process stays on-CPU. A [`SpanTimer`] takes the first
//! out: it reports wall time minus the steal `/proc/stat` counts on the
//! CPUs the span kept busy. The probe takes the second out: it is a fixed
//! piece of work timed before and after every span, and a repetition whose
//! probes took `p` seconds (median) reports a span of `t` seconds as
//! `t · PROBE_REF_S / p`, the time it would take on a host where the probe
//! takes [`PROBE_REF_S`]. A probe is too short for the 10 ms steal count,
//! so it is timed in wall time; the median passes over the few that steal
//! lands in.
//!
//! The probe's work is the benchmark's own, written against `std` only
//! (decimal parsing, a sort, a mixing loop), so no change to the program
//! under test changes it.

use std::fmt::Write as _;
use std::time::Instant;

use crate::workload::SplitMix64;

/// The probe time the scaled times are reported at, in seconds: about
/// what one probe takes on a 2-vCPU x86-64 VM in a quiet phase of its
/// host, so scaled times read close to that machine's wall times.
pub const PROBE_REF_S: f64 = 0.05;

/// Lines of decimal text the probe parses and sorts per pass: few enough
/// that the probe's ~100 KB never set the process's peak memory.
const LINES: usize = 1 << 12;
/// Parse-and-sort passes per probe.
const PASSES: usize = 96;
/// SplitMix64 draws per probe.
const DRAWS: usize = 16_000_000;

/// `/proc/stat` counts in USER_HZ ticks, which Linux fixes at 100 per
/// second.
const USER_HZ: f64 = 100.0;

/// Time one probe, in seconds.
pub fn probe() -> f64 {
    let mut rng = SplitMix64(0x5EED);
    let mut text = String::with_capacity(LINES * 14);
    for _ in 0..LINES {
        let _ = writeln!(text, "{}", rng.next_u64() >> 24);
    }
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..PASSES {
        let mut values: Vec<u64> = text.lines().filter_map(|l| l.parse().ok()).collect();
        values.sort_unstable();
        acc = acc.wrapping_add(values[values.len() / 2]);
    }
    for _ in 0..DRAWS {
        acc ^= rng.next_u64();
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Seconds of steal each CPU has counted so far (empty where
/// `/proc/stat` is unreadable).
fn steal_per_cpu() -> Vec<f64> {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return Vec::new();
    };
    stat.lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .map(|l| {
            l.split_whitespace()
                .nth(8)
                .and_then(|v| v.parse::<f64>().ok())
                .map_or(0.0, |ticks| ticks / USER_HZ)
        })
        .collect()
}

/// Times a span in wall seconds and in the steal it suffered.
pub struct SpanTimer {
    start: Instant,
    steal: Vec<f64>,
    busy_cpus: usize,
}

impl SpanTimer {
    /// Start timing a span that keeps `threads` threads busy.
    pub fn start(threads: usize) -> Self {
        let steal = steal_per_cpu();
        let busy_cpus = threads.clamp(1, steal.len().max(1));
        SpanTimer {
            start: Instant::now(),
            steal,
            busy_cpus,
        }
    }

    /// Wall seconds since [`start`](Self::start), and the seconds of it
    /// the hypervisor held the span back: the steal counted on all CPUs
    /// over the number the span kept busy. An idle vCPU counts none, so
    /// a one-thread span is charged the steal of the CPU it ran on.
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.start.elapsed().as_secs_f64();
        let now = steal_per_cpu();
        let stolen = if now.len() == self.steal.len() {
            let total: f64 = now.iter().zip(&self.steal).map(|(b, a)| b - a).sum();
            (total / self.busy_cpus as f64).clamp(0.0, wall)
        } else {
            0.0
        };
        (wall, stolen)
    }
}

/// The factor that scales times measured among `probe_s` to the
/// reference host speed: [`PROBE_REF_S`] over their (lower) median.
pub fn scale(probe_s: &[f64]) -> f64 {
    let mut sorted = probe_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    PROBE_REF_S / sorted[(sorted.len() - 1) / 2]
}
