//! The three workloads and their seeded input generators.
//!
//! Inputs come from a private SplitMix64 stream, never from the sketch's
//! own RNG, so a change to the product cannot change what is measured.

use std::io::{self, Write};

use mrl_core::OrderedF64;

/// The φ list both CLI workloads pass with `--phi`.
pub const CLI_PHIS: [f64; 3] = [0.01, 0.5, 0.99];

/// The 11 φ of every mid-stream `query_many` (and of the online final one).
pub const PROBE_PHIS: [f64; 11] = [
    0.001, 0.01, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99, 0.999,
];

/// Values per `insert_batch` call: the CLI's chunk size, which the
/// online workload and every replay reuse.
pub const CHUNK: usize = 1024;

/// What a workload drives, over which values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `mrl_cli::run_with_stats` over uniform 40-bit integer lines.
    CliI64,
    /// `mrl_cli::run_with_stats --float` over symmetric Pareto(α = 1.1)
    /// float lines.
    CliF64,
    /// An in-process `UnknownN<u64>` with queries mixed into the inserts,
    /// over `u64` in four equal order phases: uniform, ascending,
    /// descending, sawtooth.
    OnlineU64,
}

/// One benchmark workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// What the workload drives, over which values.
    pub kind: Kind,
    /// Input length `N`.
    pub n: usize,
    /// Rank-error guarantee ε.
    pub epsilon: f64,
    /// Failure probability δ.
    pub delta: f64,
    /// `--shards` of the CLI run (1 for the online workload).
    pub shards: usize,
    /// Batches between two mid-stream 11-φ queries.
    pub query_every: usize,
    /// Timed runs per process: `run_s` is re-measured after the one cold
    /// setup, so a repetition yields several samples of it.
    pub runs_per_rep: usize,
    /// Timed passes of a CLI workload's latency replay per process, after
    /// one untimed warm-up pass (the online workload times its latencies
    /// in its runs).
    pub replays_per_rep: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 3] = [
    Workload {
        name: "cli_i64_10m",
        kind: Kind::CliI64,
        n: 10_000_000,
        epsilon: 0.01,
        delta: 1e-4,
        shards: 1,
        query_every: 64,
        runs_per_rep: 5,
        replays_per_rep: 5,
    },
    Workload {
        name: "cli_f64_10m_shards2",
        kind: Kind::CliF64,
        n: 10_000_000,
        epsilon: 0.001,
        delta: 1e-4,
        shards: 2,
        query_every: 64,
        runs_per_rep: 5,
        replays_per_rep: 1,
    },
    Workload {
        name: "online_u64_mixed",
        kind: Kind::OnlineU64,
        n: 20_000_000,
        epsilon: 0.001,
        delta: 1e-4,
        shards: 1,
        query_every: 64,
        runs_per_rep: 4,
        replays_per_rep: 0,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.iter().find(|w| w.name == name).cloned()
    }

    /// The same workload over `n` values (tests run it small).
    #[must_use]
    pub fn with_n(mut self, n: usize) -> Workload {
        self.n = n;
        self
    }

    /// Whether the workload runs the CLI over a generated text file.
    pub fn is_cli(&self) -> bool {
        self.kind != Kind::OnlineU64
    }

    /// φ list of the run's final answer.
    pub fn final_phis(&self) -> &'static [f64] {
        if self.is_cli() {
            &CLI_PHIS
        } else {
            &PROBE_PHIS
        }
    }

    /// The sketch seed a workload seed maps to.
    pub fn sketch_seed(seed: u64) -> u64 {
        SplitMix64(seed ^ 0x5EED_5EED_5EED_5EED).next_u64()
    }

    /// Write a CLI workload's input as text lines, as a user would pipe it
    /// into `mrl-quantiles`.
    pub fn write_text<W: Write>(&self, seed: u64, out: W) -> io::Result<()> {
        let mut out = io::BufWriter::with_capacity(1 << 20, out);
        match self.kind {
            Kind::CliI64 => {
                for v in self.i64_values(seed) {
                    writeln!(out, "{v}")?;
                }
            }
            Kind::CliF64 => {
                // `Display` prints the shortest text that parses back to
                // the same bits, so the replay sees exactly these values.
                for v in self.f64_values(seed) {
                    writeln!(out, "{}", v.get())?;
                }
            }
            Kind::OnlineU64 => {
                return Err(io::Error::other(format!("{} reads no file", self.name)));
            }
        }
        out.flush()
    }

    /// The `cli_i64_10m` input.
    pub fn i64_values(&self, seed: u64) -> Vec<i64> {
        let mut rng = SplitMix64(seed);
        (0..self.n).map(|_| (rng.next_u64() >> 24) as i64).collect()
    }

    /// The `cli_f64_10m_shards2` input: `±(1 − u)^(−1/1.1)`, so most values
    /// sit near ±1 and the largest reach ~10⁶ at N = 10M.
    pub fn f64_values(&self, seed: u64) -> Vec<OrderedF64> {
        let mut rng = SplitMix64(seed);
        (0..self.n)
            .map(|_| {
                let bits = rng.next_u64();
                // 53 uniform bits in [0, 1); the low bit picks the sign.
                let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                let magnitude = (1.0 - u).powf(-1.0 / 1.1);
                let v = if bits & 1 == 0 { magnitude } else { -magnitude };
                OrderedF64::new(v).expect("finite by construction")
            })
            .collect()
    }

    /// The `online_u64_mixed` input: four phases of `N/4` values. The
    /// ordered phases carry a seeded jitter below their step, so their
    /// order is exact while their values still depend on the seed. Each
    /// sawtooth tooth is 4096 values long, so a fill of any buffer size
    /// above 4096 holds at most a few sorted runs.
    pub fn u64_values(&self, seed: u64) -> Vec<u64> {
        const STEP_BITS: u32 = 20;
        const TOOTH: u64 = 4096;
        let mut rng = SplitMix64(seed);
        let phase = self.n / 4;
        let mut out = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let jitter = rng.next_u64() >> (64 - STEP_BITS);
            let v = match (i / phase.max(1)).min(3) {
                0 => rng.next_u64(),
                1 => ((i - phase) as u64) << STEP_BITS | jitter,
                2 => ((3 * phase - i) as u64) << STEP_BITS | jitter,
                _ => ((i as u64) % TOOTH) << STEP_BITS | jitter,
            };
            out.push(v);
        }
        out
    }
}

/// SplitMix64 (Steele, Lea & Flood 2014): tiny, seedable, and fixed here
/// so the inputs never change under the benchmark.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
