//! `mrl-quantiles`: approximate quantiles of integers on stdin, in one
//! pass and bounded memory, without knowing how much input is coming —
//! the MRL99 algorithm as a shell tool.
//!
//! ```sh
//! seq 1 1000000 | shuf | mrl-quantiles --eps 0.01 --phi 0.5,0.9,0.99
//! ```

use std::io::{self, BufReader, BufWriter};
use std::process::ExitCode;

use mrl_cli::{args::USAGE, run_with_stats, Args};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    // 64 KiB per read syscall; `StdinLock` alone reads 8 KiB at a time.
    let stdin = BufReader::with_capacity(64 * 1024, io::stdin().lock());
    let stdout = BufWriter::new(io::stdout().lock());
    // Telemetry shares stderr with the run summary so stdout stays pure
    // quantile output (pipe-friendly); `--stats json` lines start with
    // `{` and are trivially separable from `#`-prefixed notes.
    match run_with_stats(&args, stdin, stdout, io::stderr()) {
        Ok(summary) => {
            eprintln!(
                "# n={} memory_bound={} elements (eps={}, delta={})",
                summary.n, summary.memory_elements, args.epsilon, args.delta
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("io error: {e}");
            ExitCode::FAILURE
        }
    }
}
