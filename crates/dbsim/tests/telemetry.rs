//! The dbsim registry is process-wide, so its exact counts can only be
//! asserted from a process that does nothing else: this binary holds one
//! test and shares the registry with no sibling.

use fcbench_core::pool::{PoolConfig, WorkerPool};
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, FloatData, Platform, Precision,
    PrecisionSupport, Result,
};
use fcbench_dbsim::{read_container, write_container_pooled, ColumnData, ContainerWriter};
use fcbench_telemetry::Counter;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// The store codec, except that its `gate`th page waits (at most 30 s)
/// until `syncs` has passed `before`.
struct GatedStore {
    pages: AtomicUsize,
    gate: usize,
    syncs: Counter,
    before: u64,
}

impl Compressor for GatedStore {
    fn info(&self) -> CodecInfo {
        StoreCodec.info()
    }
    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        if self.pages.fetch_add(1, Ordering::Relaxed) == self.gate {
            let start = Instant::now();
            while self.syncs.get() <= self.before && start.elapsed() < Duration::from_secs(30) {
                std::thread::yield_now();
            }
        }
        StoreCodec.compress_into(data, out)
    }
    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        StoreCodec.decompress_into(payload, desc, out)
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
    // One final durability wait per write.
    assert_eq!(
        h(&after, "dbsim.container.sync"),
        h(&before, "dbsim.container.sync") + 1
    );
    assert!(after.counter("dbsim.container.syncs_behind").is_some());

    // A 6 MiB table spills the 1 MiB write buffer six times, and each spill
    // wakes the sync-behind thread. The gated codec's 64th page waits until
    // one sync has run, so at least one runs behind the write; at most one
    // runs per file write (six or seven per table).
    let big: Vec<ColumnData> = (0..3)
        .map(|c| {
            let v: Vec<f64> = (0..1 << 18).map(|i| (i + c) as f64 * 0.25).collect();
            ColumnData::from_f64(format!("c{c}"), &v)
        })
        .collect();
    let syncs = reg.counter("dbsim.container.syncs_behind");
    let (syncs_before, waits_before) = (syncs.get(), h(&reg.snapshot(), "dbsim.container.sync"));
    let gated: Arc<dyn Compressor> = Arc::new(GatedStore {
        pages: AtomicUsize::new(0),
        gate: 64,
        syncs: syncs.clone(),
        before: syncs_before,
    });
    write_container_pooled(&path, &pool, &gated, &big, 4096).unwrap();
    let behind = syncs.get() - syncs_before;
    assert!((1..=8).contains(&behind), "{behind} syncs behind one write");
    assert_eq!(h(&reg.snapshot(), "dbsim.container.sync"), waits_before + 1);
    assert!(read_container(&path).unwrap().is_clean());
    std::fs::remove_file(&path).ok();

    // The writer's pages in flight report beside the cursor's: both of the
    // column's pages sit in the window until the column ends.
    let in_flight = || reg.snapshot().gauge("dbsim.container.chunks_in_flight");
    let mut w = ContainerWriter::new(Vec::new(), &pool, &codec).unwrap();
    w.begin_column("x", Precision::Double, 32).unwrap();
    w.write(&cols[0].bytes).unwrap();
    assert_eq!(in_flight(), Some(2));
    w.finish().unwrap();
    assert_eq!(in_flight(), Some(0));
}
