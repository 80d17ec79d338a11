//! The dbsim registry is process-wide, so its exact counts can only be
//! asserted from a process that does nothing else: this binary holds one
//! test and shares the registry with no sibling.

use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, FloatData, Platform, PrecisionSupport,
    Result,
};
use fcbench_dbsim::{read_container, write_container, ColumnData};

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
    fn compress(&self, data: &FloatData) -> Result<Vec<u8>> {
        Ok(data.bytes().to_vec())
    }
    fn decompress(&self, payload: &[u8], desc: &DataDesc) -> Result<FloatData> {
        FloatData::from_bytes(desc.clone(), payload.to_vec())
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
    write_container(&path, &StoreCodec, &[ColumnData::from_f64("x", &a)], 32).unwrap();
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
