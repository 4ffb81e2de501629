//! The observability layer end to end: attach an [`InMemoryRecorder`] to
//! a sketch and a sharded pipeline, watch the live ε-audit while the
//! stream runs, print the final metrics snapshot in its text, JSON and
//! Prometheus renderings, and record the whole run into the flight
//! recorder — spans included — exporting a Perfetto-loadable chrome
//! trace at the end.
//!
//! ```sh
//! cargo run --release --example telemetry
//! ```

use std::sync::Arc;

use mrl::datagen::{ValueDistribution, WorkloadStream};
use mrl::obs::{EventJournal, InMemoryRecorder, JournalHandle, MetricsHandle};
use mrl::parallel::ShardedSketch;
use mrl::sketch::{OptimizerOptions, UnknownN};

fn main() {
    let opts = OptimizerOptions::default();
    let (epsilon, delta) = (0.01, 1e-3);
    let total: usize = if cfg!(debug_assertions) {
        500_000
    } else {
        4_000_000
    };

    // --- Flight recorder shared by everything below ---------------------
    // One journal serves the whole process: each recording thread claims
    // its own ring, so the single sketch, the pipeline producer and every
    // shard worker get separate tracks in the exported trace. The panic
    // hook dumps the journal tail to stderr if anything goes wrong.
    let journal = Arc::new(EventJournal::new());
    mrl::obs::install_panic_hook(&journal);
    let flight = JournalHandle::new(Arc::clone(&journal));
    flight.name_thread("example", None);

    // --- Single sketch with a recorder attached -------------------------
    let recorder = Arc::new(InMemoryRecorder::new());
    let mut sketch = UnknownN::<u64>::with_options(epsilon, delta, opts).with_seed(5);
    sketch.set_metrics(MetricsHandle::new(recorder.clone()));
    sketch.set_journal(flight.clone());

    let stream = WorkloadStream::new(
        ValueDistribution::Normal {
            mean: 500_000.0,
            sigma: 100_000.0,
        },
        31,
    );

    println!("live eps-audit (headroom = tree_bound / (eps*N), certified while <= alpha):");
    println!(
        "{:>10}  {:>10}  {:>9}  {:>13}  rate",
        "N", "tree_bound", "headroom", "hoeffding_X"
    );
    let report_every = total / 5;
    // Wrap each reporting segment in a scoped span: the exported trace
    // shows five `ingest.segment` bars with the seals and collapses each
    // one triggered nested underneath.
    let mut segment = Some(flight.span("ingest.segment"));
    for (i, v) in stream.take(total).enumerate() {
        sketch.insert(v);
        if (i + 1) % report_every == 0 {
            segment.take();
            if i + 1 < total {
                segment = Some(flight.span("ingest.segment"));
            }
            let audit = sketch.publish_audit();
            println!(
                "{:>10}  {:>10}  {:>9.4}  {:>13.1}  {}",
                audit.n, audit.tree_bound, audit.headroom, audit.hoeffding_x, audit.current_rate
            );
            assert!(
                audit.within_deterministic_share(),
                "tree error must stay inside its alpha share of the eps budget"
            );
        }
    }

    let snapshot = recorder.snapshot();
    println!(
        "\nfinal metrics snapshot ({} series, text rendering):",
        snapshot.series_count()
    );
    print!("{}", snapshot.render_text());
    println!("\nsame snapshot as one JSON line:\n{}", snapshot.to_json());

    // --- Sharded pipeline telemetry -------------------------------------
    let recorder = Arc::new(InMemoryRecorder::new());
    let mut pipeline = ShardedSketch::<u64>::new_with_obs(
        4,
        epsilon,
        delta,
        opts,
        5,
        MetricsHandle::new(recorder.clone()),
        flight.clone(),
    );
    let stream = WorkloadStream::new(ValueDistribution::Uniform { range: 1_000_000 }, 7);
    let values: Vec<u64> = stream.take(total).collect();
    for chunk in values.chunks(4096) {
        pipeline.insert_batch(chunk);
    }
    let outcome = pipeline.finish().expect("no shard panicked");
    let telemetry = outcome.telemetry();
    println!(
        "\nsharded run: {} elements over {} shards, merged collapses {}",
        telemetry.total_n,
        telemetry.per_shard.len(),
        telemetry.merged.collapses
    );
    for (shard, stats) in telemetry.per_shard.iter().enumerate() {
        println!(
            "  shard {shard}: {} elements, {} leaves, {} collapses",
            stats.elements, stats.leaves, stats.collapses
        );
    }
    println!("pipeline metrics snapshot (per-shard batch latency, queue depth):");
    let pipeline_snapshot = recorder.snapshot();
    print!("{}", pipeline_snapshot.render_text());

    // --- Prometheus exposition ------------------------------------------
    println!("\nsame snapshot in Prometheus text exposition format (first lines):");
    for line in pipeline_snapshot.to_prometheus().lines().take(10) {
        println!("  {line}");
    }

    // --- Flight-recorder trace export -----------------------------------
    let dump = journal.drain();
    let trace = mrl::obs::export::perfetto::to_chrome_trace(&journal);
    let path = std::env::temp_dir().join("mrl_telemetry_trace.json");
    std::fs::write(&path, &trace).expect("write trace");
    println!(
        "\nflight recorder: {} events across {} thread rings ({} lost); \
         chrome trace written to {} — open it at https://ui.perfetto.dev",
        dump.event_count(),
        dump.rings.len(),
        dump.lost(),
        path.display()
    );
}
