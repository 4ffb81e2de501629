//! `perfbench`: the benchmark's measuring binary. `run.py` drives it.
//!
//! ```text
//! perfbench describe --workload <name>
//! perfbench gen      --workload <name> --seed <n> --out <file>
//! perfbench rep      --workload <name> --seed <n> [--input <file>] [--traced]
//! ```
//!
//! `rep` runs one repetition and prints one JSON line: its setup time,
//! peak memory, sketch size, run and latency samples, the per-layer
//! metrics when traced, and every answer that missed its exact rank by
//! more than ε·n. Setup and run times leave out steal, and they and the
//! latencies are at the reference host speed (see `speed.rs`); the wall
//! times and steal of setup and runs and every probe time are printed
//! beside them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::measure::{run_rep, LAYER_SUM_TOLERANCE};
use perfbench::workload::Workload;

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing subcommand")?;
    let (mut workload, mut seed, mut path, mut traced) = (None, None, None, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::by_name(&name).ok_or(format!("no workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--out" | "--input" => path = Some(PathBuf::from(value()?)),
            "--traced" => traced = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let w = workload.ok_or("--workload is required")?;
    match command.as_str() {
        "describe" => Ok(describe(&w)),
        "gen" => {
            let seed = seed.ok_or("--seed is required")?;
            let out = path.ok_or("--out is required")?;
            let file = File::create(&out).map_err(|e| format!("{}: {e}", out.display()))?;
            w.write_text(seed, file).map_err(|e| e.to_string())?;
            Ok(describe(&w))
        }
        "rep" => {
            let seed = seed.ok_or("--seed is required")?;
            let rep = run_rep(&w, seed, path.as_deref(), traced).map_err(|e| e.to_string())?;
            let failed: Vec<String> = rep
                .checked
                .iter()
                .filter(|c| !c.ok)
                .map(|c| {
                    format!(
                        "{{\"n\":{},\"phi\":{},\"value\":{:?},\"rank_error\":{}}}",
                        c.n,
                        c.phi,
                        c.value,
                        num(c.rank_error)
                    )
                })
                .collect();
            let mut out = String::from("{");
            // Times at the reference host speed, and the wall times beside.
            let scale = rep.speed_scale();
            let scaled =
                |values: &[f64]| -> Vec<f64> { values.iter().map(|v| v * scale).collect() };
            let _ = write!(
                out,
                "\"setup_s\":{},",
                num((rep.setup_s - rep.setup_stolen_s) * scale)
            );
            let _ = write!(out, "\"setup_wall_s\":{},", num(rep.setup_s));
            let _ = write!(out, "\"setup_stolen_s\":{},", num(rep.setup_stolen_s));
            let _ = write!(out, "\"peak_rss_mb\":{},", num(rep.peak_rss_mb));
            let _ = write!(out, "\"sketch_mem_elems\":{},", rep.sketch_mem_elems);
            let _ = write!(out, "\"layers\":{},", object(&rep.layers));
            let _ = write!(out, "\"self_times\":{},", object(&rep.self_times));
            if traced {
                let _ = write!(out, "\"layer_sum_ok\":{},", rep.layer_sum_ok());
            }
            let unstolen: Vec<f64> = rep
                .run_samples
                .iter()
                .zip(&rep.run_stolen_s)
                .map(|(wall, stolen)| wall - stolen)
                .collect();
            let _ = write!(out, "\"run_samples\":{},", array(&scaled(&unstolen)));
            let _ = write!(out, "\"run_wall_samples\":{},", array(&rep.run_samples));
            let _ = write!(out, "\"run_stolen_s\":{},", array(&rep.run_stolen_s));
            let _ = write!(out, "\"probe_s\":{},", array(&rep.probe_s));
            let _ = write!(out, "\"insert_us\":{},", array(&scaled(&rep.insert_us)));
            let _ = write!(out, "\"query_us\":{},", array(&scaled(&rep.query_us)));
            let _ = write!(out, "\"answers\":{},", rep.checked.len());
            let _ = write!(out, "\"failed\":[{}]}}", failed.join(","));
            Ok(out)
        }
        other => Err(format!("unknown subcommand {other}")),
    }
}

/// The workload's parameters, recorded with every result.
fn describe(w: &Workload) -> String {
    let answers_per_run = if w.is_cli() {
        w.final_phis().len()
    } else {
        // The final answer plus three sampled interim ones.
        4 * w.final_phis().len()
    };
    let answers_per_rep = answers_per_run * w.runs_per_rep;
    format!(
        "{{\"workload\":\"{}\",\"n\":{},\"epsilon\":{},\"delta\":{},\"shards\":{},\"needs_input\":{},\"answers_per_rep\":{},\"layer_sum_tolerance\":{}}}",
        w.name,
        w.n,
        w.epsilon,
        w.delta,
        w.shards,
        w.is_cli(),
        answers_per_rep,
        LAYER_SUM_TOLERANCE
    )
}

fn object(map: &BTreeMap<&'static str, f64>) -> String {
    let fields: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| num(v)).collect();
    format!("[{}]", items.join(","))
}

/// A JSON number with every digit, or `null` where none exists.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
