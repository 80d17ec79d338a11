//! The dbsim registry is process-wide, so its exact counts can only be
//! asserted from a process that does nothing else: this binary holds one
//! test and shares the registry with no sibling.

use fcbench_core::pool::{PoolConfig, WorkerPool};
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, FloatData, Platform, PrecisionSupport,
    Result,
};
use fcbench_dbsim::{read_container, write_container_pooled, ColumnData};
use std::sync::Arc;

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
    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        out.refill_from_slice(desc, payload)
    }
}

#[test]
fn telemetry_counts_commits_and_recovery_outcomes() {
    let reg = fcbench_dbsim::metrics::registry();
    let before = reg.snapshot();
    let c = |s: &fcbench_telemetry::Snapshot, n: &str| s.counter(n).unwrap_or(0);
    let h =
        |s: &fcbench_telemetry::Snapshot, n: &str| s.histogram(n).map(|hs| hs.count()).unwrap_or(0);

    let path = std::env::temp_dir().join(format!("fcbench-dbsim-{}-telemetry", std::process::id()));
    let a: Vec<f64> = (0..64).map(|i| i as f64).collect();
    let pool = WorkerPool::new(PoolConfig::with_threads(2));
    let codec: Arc<dyn Compressor> = Arc::new(StoreCodec);
    let cols = [ColumnData::from_f64("x", &a)];
    write_container_pooled(&path, &pool, &codec, &cols, 32).unwrap();
    assert!(read_container(&path).unwrap().is_clean());
    std::fs::remove_file(&path).ok();

    let after = reg.snapshot();
    assert_eq!(
        c(&after, "dbsim.recovery.clean"),
        c(&before, "dbsim.recovery.clean") + 1
    );
    assert_eq!(
        c(&after, "dbsim.container.commits"),
        c(&before, "dbsim.container.commits") + 1
    );
    // One COLUMN record plus two CHUNK records were made durable.
    assert_eq!(
        c(&after, "dbsim.container.records.committed"),
        c(&before, "dbsim.container.records.committed") + 3
    );
    assert_eq!(
        h(&after, "dbsim.container.commit"),
        h(&before, "dbsim.container.commit") + 1
    );
}
