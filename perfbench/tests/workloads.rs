//! Each workload still exercises the layer it was chosen for.
//!
//! The checks that mirror a real configuration run only in release
//! builds, where the CLI searches the same optimizer grid as a user's
//! build does: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};

use mrl_analysis::optimizer::optimize_unknown_n;
use mrl_core::UnknownN;
use perfbench::measure::{run_rep, Rep, LAYER_METRICS};
use perfbench::workload::{Workload, ALL, CHUNK};

fn workload(name: &str) -> Workload {
    Workload::by_name(name).expect("a workload of BENCHMARK.json")
}

fn text(w: &Workload, seed: u64) -> Vec<u8> {
    let mut out = Vec::new();
    w.write_text(seed, &mut out).expect("writes to memory");
    out
}

/// Write `w`'s input under the test target directory and run one traced
/// repetition over it.
fn traced_rep(w: &Workload, seed: u64) -> Rep {
    let input = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{seed}.txt", w.name));
    w.write_text(seed, std::fs::File::create(&input).expect("create input"))
        .expect("write input");
    let rep = run_rep(w, seed, Some(&input), true).expect("repetition runs");
    std::fs::remove_file(&input).expect("remove input");
    assert!(rep.checked.iter().all(|c| c.ok), "{:?}", rep.checked);
    assert!(
        rep.layer_sum_ok(),
        "{:?} vs {:?}",
        rep.self_times,
        rep.run_s()
    );
    rep
}

#[test]
fn the_same_seed_gives_byte_identical_inputs() {
    for w in ALL.iter().filter(|w| w.is_cli()) {
        let w = w.clone().with_n(20_000);
        let first = text(&w, 7);
        assert_eq!(first, text(&w, 7), "{}", w.name);
        assert_ne!(first, text(&w, 8), "{}: the seed must matter", w.name);
        assert_eq!(first.iter().filter(|&&b| b == b'\n').count(), 20_000);
    }
    let online = workload("online_u64_mixed").with_n(20_000);
    assert_eq!(online.u64_values(7), online.u64_values(7));
    assert_ne!(online.u64_values(7), online.u64_values(8));
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec: serde::Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("JSON");
    let names = |section: &str| -> Vec<String> {
        let Some(serde::Value::Array(entries)) = spec.get(section) else {
            panic!("{section} is a list");
        };
        entries
            .iter()
            .map(|e| match e.get("name") {
                Some(serde::Value::Str(name)) => name.clone(),
                other => panic!("{section} entry without a name: {other:?}"),
            })
            .collect()
    };
    assert_eq!(names("per_layer"), LAYER_METRICS);
    let workloads = names("workloads");
    assert_eq!(workloads, ALL.map(|w| w.name.to_string()));
    let mut all = names("end_to_end");
    all.extend(names("per_layer"));
    all.extend(workloads);
    for name in all {
        assert!(
            !name.is_empty()
                && name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
            "{name} does not match [A-Za-z0-9_.-]+"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "mirrors the release configuration; run with --release"
)]
fn online_mixed_fires_all_three_seal_kernels() {
    let w = workload("online_u64_mixed").with_n(1 << 20);
    let rep = run_rep(&w, 3, None, true).expect("repetition runs");
    assert!(rep.checked.iter().all(|c| c.ok), "{:?}", rep.checked);
    assert!(
        rep.layer_sum_ok(),
        "{:?} vs {:?}",
        rep.self_times,
        rep.run_s()
    );
    for kernel in ["presorted", "run_merge", "parked_raw"] {
        let seals = rep.layers[format!("framework.seal.{kernel}").as_str()];
        assert!(seals > 0.0, "no {kernel} seal: {:?}", rep.layers);
    }
    // A traced repetition reports every per-layer metric but the tracing
    // overhead, which `run.py` computes across repetitions.
    let reported: Vec<&str> = rep.layers.keys().copied().collect();
    let mut expected = LAYER_METRICS[..LAYER_METRICS.len() - 1].to_vec();
    expected.sort_unstable();
    assert_eq!(reported, expected);
    // One timed run: every batch and every query timed once.
    assert_eq!(rep.run_samples.len(), 1);
    assert_eq!(rep.insert_us.len(), w.n / CHUNK);
    assert_eq!(rep.query_us.len(), w.n / CHUNK / w.query_every + 1);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "mirrors the release configuration; run with --release"
)]
fn cli_i64_climbs_past_sampling_rate_one() {
    let rep = traced_rep(&workload("cli_i64_10m").with_n(2_000_000), 5);
    assert!(rep.layers["sampling.rate_final"] > 1.0, "{:?}", rep.layers);
    assert!(rep.layers["sampling.draws"] > 0.0, "{:?}", rep.layers);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "mirrors the release configuration; run with --release"
)]
fn eps_0001_workloads_stay_at_rate_one_at_full_size() {
    let online = workload("online_u64_mixed");
    let sharded = workload("cli_f64_10m_shards2");
    assert_eq!(online.epsilon, sharded.epsilon);
    let config = optimize_unknown_n(online.epsilon, online.delta);

    // The rate schedule depends on the stream length alone, and no shard
    // of the sharded run sees more than the online run's N.
    assert!(sharded.n / sharded.shards <= online.n);
    let mut sketch = UnknownN::from_config(config, 1);
    for chunk in online.u64_values(1).chunks(CHUNK) {
        sketch.insert_batch(chunk);
    }
    assert_eq!(sketch.n(), online.n as u64);
    assert_eq!(sketch.current_rate(), 1);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "mirrors the release configuration; run with --release"
)]
fn sharded_per_shard_elements_sum_to_n() {
    let w = workload("cli_f64_10m_shards2").with_n(300_001);
    let rep = traced_rep(&w, 9);
    assert_eq!(rep.shard_elements.len(), w.shards);
    assert_eq!(rep.shard_elements.iter().sum::<u64>(), w.n as u64);
    assert!(
        rep.layers["parallel.shard_busy_s.0"] > 0.0,
        "{:?}",
        rep.layers
    );
    assert!(
        rep.layers["parallel.shard_busy_s.1"] > 0.0,
        "{:?}",
        rep.layers
    );
    assert_eq!(rep.layers["sampling.rate_final"], 1.0);
}
