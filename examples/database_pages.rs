//! Database-integration scenario (§5.1.2 / §6.2): store a TPC-style table
//! in the chunked columnar container under different page sizes, then
//! measure the paper's three primitives — file I/O, decode, scan query —
//! with the same timer as Table 11 (one warm call, then the median of five).
//! A second part streams the same table through the incremental
//! [`ContainerWriter`], commits mid-stream, tears the file, and shows the
//! reader recovering to the last commit point.
//!
//! ```sh
//! cargo run --release --example database_pages
//! ```

use fcbench::core::pool::{PoolConfig, WorkerPool};
use fcbench::core::{Compressor, Precision};
use fcbench::dbsim::{read_container, ColumnData, ContainerWriter, RecoveryOutcome};
use fcbench_bench::codecs::paper_registry;
use fcbench_bench::experiments::time_container;
use std::io::Write as _;

fn main() {
    // An orders-like table: price, quantity, discount columns.
    let rows = 200_000usize;
    let mut seed = 0x9E3779B97F4A7C15u64;
    let mut rnd = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed >> 33) as f64 / (1u64 << 31) as f64
    };
    let price: Vec<f64> = (0..rows)
        .map(|_| (900.0 + rnd() * rnd() * 90_000.0 * 0.01).round() / 1.0)
        .collect();
    let qty: Vec<f64> = (0..rows).map(|_| (1.0 + rnd() * 49.0).floor()).collect();
    let disc: Vec<f64> = (0..rows).map(|_| (rnd() * 8.0).floor() / 100.0).collect();
    let columns = vec![
        ColumnData::from_f64("price", &price),
        ColumnData::from_f64("quantity", &qty),
        ColumnData::from_f64("discount", &disc),
    ];
    let raw_bytes: usize = columns.iter().map(|c| c.bytes.len()).sum();
    println!("table: {rows} rows x 3 columns = {raw_bytes} bytes\n");

    let registry = paper_registry();
    let codecs: Vec<_> = ["gorilla", "chimp128", "bitshuffle-zstd"]
        .iter()
        .map(|name| registry.get(name).expect("registered codec"))
        .collect();
    // One persistent engine serves every codec and page size below: pages
    // are compressed and decoded by warm pool workers, the way a database
    // integration would drive the codecs. `for_host` sizes it from the
    // machine (one worker per hardware thread, serving-depth queue).
    let engine = PoolConfig::for_host();
    let pool = WorkerPool::new(engine);
    println!(
        "execution engine: {} persistent workers, {} job slots\n",
        engine.threads, engine.queue_depth
    );
    // The paper's Table 10 page sizes, in elements (8-byte doubles).
    let pages = [(512usize, "4K"), (8192, "64K"), (1 << 20, "8M")];

    println!(
        "{:<16} {:>6} {:>8} {:>9} {:>9} {:>9}",
        "codec", "page", "ratio", "io ms", "decode ms", "query ms"
    );
    let tmp = std::env::temp_dir();
    for codec in &codecs {
        for (page_elems, label) in pages {
            let path = tmp.join(format!(
                "fcbench-example-{}-{}-{label}",
                std::process::id(),
                codec.info().name
            ));
            let r = time_container(&path, &pool, codec, &columns, page_elems, 5)
                .expect("three primitives");
            assert_eq!(r.recovery, RecoveryOutcome::Clean, "fresh container");
            println!(
                "{:<16} {:>6} {:>8.3} {:>9.2} {:>9.2} {:>9.2}",
                codec.info().name,
                label,
                raw_bytes as f64 / r.compressed_bytes as f64,
                r.io.median * 1e3,
                r.decode.median * 1e3,
                r.query.median * 1e3
            );
            std::fs::remove_file(&path).ok();
        }
    }
    println!(
        "\npaper Observation 8: compressors prefer larger pages — ratios and\n\
         throughput improve from 4K to 64K pages. Observation 9: total read +\n\
         decode time, not ratio alone, decides the right codec for a database."
    );

    // ---- part 2: streaming writes, commit points, crash recovery ----
    //
    // An ingest process appends the table column by column in small
    // pieces; pages are compressed on the shared engine as they fill, so
    // memory stays bounded by the pages in flight — the whole container
    // is never materialized. A commit after each column marks a durable
    // point the reader can fall back to if the file is torn later.
    println!("\nstreaming ingest + crash recovery (gorilla, 8192-element pages):");
    let codec = registry.get("gorilla").expect("registered codec");
    let path = tmp.join(format!("fcbench-example-{}-recovery", std::process::id()));
    let file = std::fs::File::create(&path).expect("create container");
    let mut writer =
        ContainerWriter::new(std::io::BufWriter::new(file), &pool, &codec).expect("open container");
    for col in &columns {
        writer
            .begin_column(&col.name, Precision::Double, 8192)
            .expect("column");
        // Feed in 64 KiB slices, the way rows arrive from an ingest feed.
        for piece in col.bytes.chunks(64 * 1024) {
            writer.write(piece).expect("append");
        }
        writer.commit().expect("commit");
    }
    let sink = writer.finish().expect("finish");
    sink.into_inner().expect("flush").sync_all().expect("sync");

    let clean = read_container(&path).expect("clean read");
    let full_len = std::fs::metadata(&path).expect("len").len();
    println!(
        "  wrote {} columns / {} committed bytes, read back: {:?}",
        clean.table.columns.len(),
        full_len,
        clean.outcome
    );
    assert!(clean.is_clean(), "fresh container must read back clean");

    // Tear the tail off, as if the process died mid-append: the reader
    // scans back to the last valid commit and reports what it dropped.
    let torn_len = full_len * 3 / 5;
    let bytes = std::fs::read(&path).expect("read bytes");
    let mut torn = std::fs::File::create(&path).expect("rewrite");
    torn.write_all(&bytes[..torn_len as usize]).expect("tear");
    drop(torn);

    let recovered = read_container(&path).expect("recovering read");
    match recovered.outcome {
        RecoveryOutcome::Recovered { dropped_records } => {
            let rows_back: u64 = recovered.table.columns.iter().map(|c| c.rows as u64).sum();
            println!(
                "  tore file to {torn_len}/{full_len} bytes: recovered \
                 {} column(s) / {rows_back} values, dropped {dropped_records} \
                 uncommitted record(s)",
                recovered.table.columns.len(),
            );
        }
        other => println!("  tore file to {torn_len}/{full_len} bytes: {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}
