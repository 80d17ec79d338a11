//! The three-primitive micro-benchmark of §5.1.2 / Table 11:
//! file I/O → decode → full-table-scan query, each timed separately.

use crate::container::{
    read_container, write_container, write_container_pooled, ColumnData, CompressedColumn,
    RecoveryOutcome,
};
use crate::dataframe::DataFrame;
use fcbench_core::pool::WorkerPool;
use fcbench_core::{Compressor, Result};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Timed result of one end-to-end pass (all times in seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreePrimitives {
    /// Reading compressed chunks from disk into memory.
    pub io_seconds: f64,
    /// Decompressing every chunk into dataframe columns.
    pub decode_seconds: f64,
    /// Ten histogram-driven full table scans.
    pub query_seconds: f64,
    /// Compressed size on disk (bytes).
    pub compressed_bytes: u64,
    /// Scan checksum (total matched rows), for verification.
    pub scan_checksum: usize,
    /// How the container read arrived at its table (`Clean` for a file
    /// that was just written; `Recovered` is possible when measuring a
    /// pre-existing path).
    pub recovery: RecoveryOutcome,
}

impl ThreePrimitives {
    /// The Table 11 "read" column: I/O + decode.
    pub fn read_seconds(&self) -> f64 {
        self.io_seconds + self.decode_seconds
    }
}

/// Write `columns` through `codec` at `chunk_elems`, then measure the
/// three primitives by reading it back.
pub fn measure_three_primitives(
    path: &Path,
    codec: &dyn Compressor,
    columns: &[ColumnData],
    chunk_elems: usize,
) -> Result<ThreePrimitives> {
    write_container(path, codec, columns, chunk_elems)?;
    measure_read_side(path, |col| col.decode(codec))
}

/// [`measure_three_primitives`] with both the write and the decode
/// primitive pipelined across the persistent worker-pool engine — what a
/// database integration running on the execution engine would measure.
pub fn measure_three_primitives_pooled(
    path: &Path,
    pool: &WorkerPool,
    codec: &Arc<dyn Compressor>,
    columns: &[ColumnData],
    chunk_elems: usize,
) -> Result<ThreePrimitives> {
    write_container_pooled(path, pool, codec, columns, chunk_elems)?;
    measure_read_side(path, |col| col.decode_pooled(pool, codec))
}

/// Time the three read-side primitives with the given per-column decoder.
fn measure_read_side(
    path: &Path,
    decode_col: impl Fn(&CompressedColumn) -> Result<ColumnData>,
) -> Result<ThreePrimitives> {
    let t0 = Instant::now();
    let read = read_container(path)?;
    let io_seconds = t0.elapsed().as_secs_f64();
    let recovery = read.outcome;
    let table = read.table;
    let compressed_bytes: u64 = table
        .columns
        .iter()
        .map(|c| c.compressed_bytes() as u64)
        .sum();

    let t1 = Instant::now();
    let mut decoded = Vec::with_capacity(table.columns.len());
    for col in &table.columns {
        decoded.push(decode_col(col)?);
    }
    let decode_seconds = t1.elapsed().as_secs_f64();

    let df = DataFrame::from_columns(decoded)?;
    let t2 = Instant::now();
    let scan_checksum = df.run_scan_benchmark();
    let query_seconds = t2.elapsed().as_secs_f64();

    Ok(ThreePrimitives {
        io_seconds,
        decode_seconds,
        query_seconds,
        compressed_bytes,
        scan_checksum,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::{
        CodecClass, CodecInfo, Community, DataDesc, FloatData, Platform, PrecisionSupport,
    };

    struct StoreCodec;

    impl Compressor for StoreCodec {
        fn info(&self) -> CodecInfo {
            CodecInfo {
                name: "store",
                year: 2024,
                community: Community::General,
                class: CodecClass::Delta,
                platform: Platform::Cpu,
                parallel: false,
                precisions: PrecisionSupport::Both,
            }
        }
        fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
            out.clear();
            out.extend_from_slice(data.bytes());
            Ok(out.len())
        }
        fn decompress_into(
            &self,
            payload: &[u8],
            desc: &DataDesc,
            out: &mut FloatData,
        ) -> Result<()> {
            out.refill_from_slice(desc, payload)
        }
    }

    #[test]
    fn primitives_are_measured_and_consistent() {
        let path = std::env::temp_dir().join(format!("fcbench-bench3-{}", std::process::id()));
        let a: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64).collect();
        let cols = vec![ColumnData::from_f64("a", &a)];
        let r = measure_three_primitives(&path, &StoreCodec, &cols, 1024).unwrap();
        assert!(r.io_seconds >= 0.0);
        assert!(r.decode_seconds >= 0.0);
        assert!(r.query_seconds >= 0.0);
        assert_eq!(r.compressed_bytes, 10_000 * 8);
        // Histogram over values 0..=99: 10 scans of increasing selectivity.
        assert!(r.scan_checksum > 0);
        assert!((r.read_seconds() - r.io_seconds - r.decode_seconds).abs() < 1e-12);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pooled_primitives_agree_with_inline() {
        use fcbench_core::pool::{PoolConfig, WorkerPool};
        let p1 = std::env::temp_dir().join(format!("fcbench-bench3p-{}", std::process::id()));
        let a: Vec<f64> = (0..5_000).map(|i| (i % 100) as f64).collect();
        let cols = vec![ColumnData::from_f64("a", &a)];
        let inline = measure_three_primitives(&p1, &StoreCodec, &cols, 512).unwrap();

        let pool = WorkerPool::new(PoolConfig::with_threads(2));
        let codec: Arc<dyn Compressor> = Arc::new(StoreCodec);
        let pooled = measure_three_primitives_pooled(&p1, &pool, &codec, &cols, 512).unwrap();
        assert_eq!(pooled.compressed_bytes, inline.compressed_bytes);
        assert_eq!(pooled.scan_checksum, inline.scan_checksum);
        std::fs::remove_file(&p1).ok();
    }
}
