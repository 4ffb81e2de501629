//! Library backing the `mrl-quantiles` command-line tool: argument
//! parsing and the line-oriented streaming driver, factored out of
//! `main.rs` so they can be unit-tested.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod args;
pub mod driver;
mod ingest;

pub use args::{Args, ParseError, StatsFormat};
pub use driver::{run, run_with_stats, StatsReport, Summary};
