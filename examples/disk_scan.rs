//! Quantiles of a disk-resident table column in one buffered pass
//! (the paper's "online or disk-resident datasets", §1).
//!
//! Writes a synthetic 10M-row binary column to a temp file, then scans it
//! once through the sketch — the file never comes close to fitting in the
//! sketch's memory.
//!
//! ```sh
//! cargo run --release --example disk_scan
//! ```

use mrl::datagen::{ValueDistribution, WorkloadStream};
use mrl::io::{ColumnScan, ColumnWriter};
use mrl::sketch::UnknownN;

fn main() -> std::io::Result<()> {
    let rows: u64 = if cfg!(debug_assertions) {
        1_000_000
    } else {
        10_000_000
    };
    let mut path = std::env::temp_dir();
    path.push(format!("mrl-disk-scan-demo-{}.col", std::process::id()));

    // Write the synthetic table column.
    println!("writing {rows} rows to {} ...", path.display());
    let mut writer = ColumnWriter::create(&path)?;
    writer.extend(
        WorkloadStream::new(
            ValueDistribution::Zipf {
                n: 1_000_000,
                s: 1.07,
            },
            7,
        )
        .take(rows as usize),
    )?;
    writer.finish()?;
    let bytes = std::fs::metadata(&path)?.len();
    println!("file size: {:.1} MiB\n", bytes as f64 / (1024.0 * 1024.0));

    // One buffered pass through the sketch.
    let mut sketch = UnknownN::<u64>::new(0.01, 1e-4).with_seed(3);
    let started = std::time::Instant::now();
    for v in ColumnScan::open(&path)?.values() {
        sketch.insert(v);
    }
    let elapsed = started.elapsed();
    println!(
        "scanned {} rows in {elapsed:.2?} ({:.1} M rows/s) holding {} elements ({} KiB)",
        sketch.n(),
        sketch.n() as f64 / elapsed.as_secs_f64() / 1e6,
        sketch.memory_bound_elements(),
        sketch.memory_bound_elements() * 8 / 1024
    );

    println!("\nphi    estimate   (zipf column: heavy head, long tail)");
    for (phi, est) in sketch
        .query_many(&[0.25, 0.5, 0.9, 0.99, 0.999])
        .unwrap()
        .iter()
        .zip([0.25, 0.5, 0.9, 0.99, 0.999])
        .map(|(e, p)| (p, *e))
    {
        println!("{phi:<6} {est:>8}");
    }

    // Selectivity query, the optimizer use case: what fraction of rows
    // satisfy `value <= 10`?
    let (_, sel) = sketch.rank_of(&10).unwrap();
    println!(
        "\nselectivity of `value <= 10`: {:.1}% of rows",
        sel * 100.0
    );

    std::fs::remove_file(&path)?;
    Ok(())
}
