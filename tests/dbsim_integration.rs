//! Cross-crate integration of the simulated database with real codecs:
//! container round trips, query correctness over compressed storage, and
//! the block-size effect of Table 10.

use fcbench::core::pool::{PoolConfig, WorkerPool};
use fcbench::core::Compressor;
use fcbench::cpu::{Bitshuffle, Chimp, Gorilla};
use fcbench::dbsim::{read_container, write_container_pooled, ColumnData, DataFrame};
use std::path::Path;
use std::sync::Arc;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fcbench-it-{}-{name}", std::process::id()))
}

fn pool() -> WorkerPool {
    WorkerPool::new(PoolConfig::with_threads(2))
}

/// Write `cols` to `path` through `codec` at `chunk_elems`-element pages,
/// then read and decode it: the compressed bytes and the scan checksum.
fn store_and_scan(
    path: &Path,
    codec: Arc<dyn Compressor>,
    cols: &[ColumnData],
    chunk_elems: usize,
) -> (u64, usize) {
    let pool = pool();
    write_container_pooled(path, &pool, &codec, cols, chunk_elems).expect("write");
    let table = read_container(path).expect("read").table;
    let compressed = table.columns.iter().map(|c| c.compressed_bytes() as u64);
    let decoded = table
        .columns
        .iter()
        .map(|c| c.decode_pooled(&pool, &codec).expect("decode"));
    let df = DataFrame::from_columns(decoded.collect()).expect("dataframe");
    (compressed.sum(), df.run_scan_benchmark())
}

fn orders_table(rows: usize) -> Vec<ColumnData> {
    let mut x = 0xABCD_EF01u64;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 33) as f64 / (1u64 << 31) as f64
    };
    let price: Vec<f64> = (0..rows)
        .map(|_| ((900.0 + rnd() * 5000.0) * 100.0).round() / 100.0)
        .collect();
    let qty: Vec<f32> = (0..rows)
        .map(|_| (1.0 + rnd() * 49.0).floor() as f32)
        .collect();
    vec![
        ColumnData::from_f64("price", &price),
        ColumnData::from_f32("quantity", &qty),
    ]
}

#[test]
fn container_round_trips_with_real_codecs() {
    let pool = pool();
    for codec in [
        Arc::new(Gorilla::new()) as Arc<dyn Compressor>,
        Arc::new(Chimp::new()),
        Arc::new(Bitshuffle::lz4()),
    ] {
        let path = tmp(codec.info().name);
        let cols = orders_table(5000);
        write_container_pooled(&path, &pool, &codec, &cols, 512).expect("write");
        let read = read_container(&path).expect("read");
        assert!(read.is_clean(), "freshly written container must be clean");
        let table = read.table;
        assert_eq!(table.codec_name, codec.info().name);
        for (orig, comp) in cols.iter().zip(table.columns.iter()) {
            let decoded = comp.decode_pooled(&pool, &codec).expect("decode column");
            assert_eq!(decoded.bytes, orig.bytes, "column {}", orig.name);
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn queries_on_compressed_storage_match_plain_scans() {
    let path = tmp("query");
    let cols = orders_table(20_000);
    // Plain answer first.
    let price_vals: Vec<f64> = cols[0]
        .bytes
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
        .collect();
    let expected = price_vals.iter().filter(|&&v| v <= 2000.0).count();

    let pool = pool();
    let codec: Arc<dyn Compressor> = Arc::new(Chimp::new());
    write_container_pooled(&path, &pool, &codec, &cols, 1024).expect("write");
    let table = read_container(&path).expect("read").table;
    let decoded: Vec<ColumnData> = table
        .columns
        .iter()
        .map(|c| c.decode_pooled(&pool, &codec).expect("decode"))
        .collect();
    let df = DataFrame::from_columns(decoded).expect("dataframe");
    let price = df.column("price").expect("price column");
    assert_eq!(df.scan_le(price, 2000.0), expected);
    std::fs::remove_file(&path).ok();
}

#[test]
fn larger_pages_compress_better() {
    // Observation 8 on the dbsim path: 64K-ish pages beat 4K-ish pages.
    let cols = orders_table(30_000);
    let raw: u64 = cols.iter().map(|c| c.bytes.len() as u64).sum();
    let codec: Arc<dyn Compressor> = Arc::new(Bitshuffle::zzip());

    let small_path = tmp("page-small");
    let (small_bytes, small_scan) = store_and_scan(&small_path, codec.clone(), &cols, 512);
    let big_path = tmp("page-big");
    let (big_bytes, big_scan) = store_and_scan(&big_path, codec, &cols, 8192);
    std::fs::remove_file(&small_path).ok();
    std::fs::remove_file(&big_path).ok();

    let cr_small = raw as f64 / small_bytes as f64;
    let cr_big = raw as f64 / big_bytes as f64;
    assert!(
        cr_big >= cr_small,
        "64K pages ({cr_big:.3}) should not lose to 4K pages ({cr_small:.3})"
    );
    assert_eq!(small_scan, big_scan, "same data, same query answers");
}

#[test]
fn three_primitives_are_all_positive_and_reproducible() {
    let path = tmp("prims");
    let cols = orders_table(10_000);
    let a = store_and_scan(&path, Arc::new(Gorilla::new()), &cols, 2048);
    let b = store_and_scan(&path, Arc::new(Gorilla::new()), &cols, 2048);
    assert_eq!(a.0, b.0, "deterministic compression");
    assert_eq!(a.1, b.1, "deterministic query");
    assert!(a.1 > 0, "the scans match rows");
    std::fs::remove_file(&path).ok();
}
