//! Armed fail-point coverage: each named seam fails with a typed error
//! exactly on its armed schedule, the subsystem around it survives, and
//! the registry's `hits`/`fired` accounting is exact. The fail-point
//! registry is process-global, so every test serializes on one gate and
//! leaves the registry disarmed.

use fcbench_bench::codecs::paper_registry;
use fcbench_chaos::{failpoints, FaultPlan};
use fcbench_codecs_cpu::Gorilla;
use fcbench_core::fault::Rng;
use fcbench_core::pool::{PoolConfig, WorkerPool};
use fcbench_core::stream::FrameWriter;
use fcbench_core::{CodecInfo, Compressor, DataDesc, Domain, Error, FloatData, Precision};
use fcbench_dbsim::{
    parse_container, read_container, write_container_pooled, ColumnData, ContainerWriter,
    RecoveryOutcome,
};
use fcbench_serve::{Client, ServeConfig, Server};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One armed registry per process: serialize every test through this gate
/// and start each from a disarmed state.
fn armed_registry_gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    let guard = GATE.lock().unwrap_or_else(|p| p.into_inner());
    failpoints::disarm_all();
    guard
}

fn sample_data(n: usize) -> FloatData {
    let vals: Vec<f64> = (0..n).map(|i| 20.0 + (i as f64 * 0.01).sin()).collect();
    FloatData::from_f64(&vals, vec![n], Domain::TimeSeries).expect("data")
}

fn column(name: &str, n: usize) -> ColumnData {
    let vals: Vec<f32> = (0..n).map(|i| (i as f32 * 0.31).sin()).collect();
    ColumnData::from_f32(name, &vals)
}

/// `pool.submit` fires a typed error on its schedule; the pool keeps
/// dispatching afterwards.
#[test]
fn pool_submit_failpoint_is_typed_and_survivable() {
    let _gate = armed_registry_gate();
    let pool = WorkerPool::new(PoolConfig::with_threads(1));
    let codec: Arc<dyn Compressor> = Arc::new(Gorilla::new());
    let data = sample_data(256);

    failpoints::arm("pool.submit", 0, 1);
    let err = match pool.submit_compress(&codec, data.desc(), data.bytes()) {
        Ok(_) => panic!("armed point must fail the submit"),
        Err(e) => e,
    };
    assert!(matches!(err, Error::Io(_)), "typed: {err}");
    assert!(err.to_string().contains("pool.submit"), "names its seam");
    assert_eq!(failpoints::hits("pool.submit"), 1);
    assert_eq!(failpoints::fired("pool.submit"), 1);

    // The schedule is spent: the pool dispatches and completes normally.
    let ticket = pool
        .submit_compress(&codec, data.desc(), data.bytes())
        .expect("pool survives the injected fault");
    let len = ticket.collect(|b| b.len()).expect("job completes");
    assert!(len > 0);
    assert_eq!(failpoints::hits("pool.submit"), 2);
    assert_eq!(failpoints::fired("pool.submit"), 1);
    failpoints::disarm_all();
}

/// `frame.write` fails one write with a typed error without corrupting the
/// writer's inflight accounting; a fresh stream then round-trips.
#[test]
fn frame_write_failpoint_is_typed_and_survivable() {
    let _gate = armed_registry_gate();
    let codec: Arc<dyn Compressor> = Arc::new(Gorilla::new());
    let data = sample_data(512);

    failpoints::arm("frame.write", 0, 1);
    let mut w = FrameWriter::new(
        Vec::new(),
        Arc::clone(&codec),
        data.desc().clone(),
        64,
        None,
    )
    .expect("prologue write is not the armed seam");
    let err = w
        .write(data.bytes())
        .expect_err("armed point must fail the frame write");
    assert!(matches!(err, Error::Io(_)), "typed: {err}");
    assert_eq!(failpoints::fired("frame.write"), 1);
    drop(w);

    // Fresh stream, schedule spent: the full write-finish cycle works.
    let mut w = FrameWriter::new(
        Vec::new(),
        Arc::clone(&codec),
        data.desc().clone(),
        64,
        None,
    )
    .expect("prologue");
    w.write(data.bytes()).expect("stream survives");
    let bytes = w.finish().expect("finish");
    assert!(!bytes.is_empty());
    failpoints::disarm_all();
}

/// `container.commit` refuses the commit with a typed error **before**
/// any commit framing lands in the sink: what was written recovers as
/// uncommitted records, never a torn commit.
#[test]
fn container_commit_failpoint_recovers_to_uncommitted() {
    let _gate = armed_registry_gate();
    let pool = WorkerPool::new(PoolConfig::with_threads(2));
    let codec: Arc<dyn Compressor> = Arc::new(Gorilla::new());
    let mut sink = Vec::new();

    failpoints::arm("container.commit", 0, u64::MAX);
    {
        let mut w = ContainerWriter::new(&mut sink, &pool, &codec).expect("prologue");
        let col = column("sensor", 200);
        w.begin_column(&col.name, Precision::Single, 64)
            .expect("column");
        w.write(&col.bytes).expect("write");
        let err = w.commit().expect_err("armed point must fail the commit");
        assert!(matches!(err, Error::Io(_)), "typed: {err}");
    }
    failpoints::disarm_all();

    // Every record is on disk but none are committed: recovery drops them
    // all and hands back the empty (pre-commit) table.
    let read = parse_container(&sink).expect("recovery never errors here");
    assert!(
        matches!(read.outcome, RecoveryOutcome::Recovered { dropped_records } if dropped_records > 0),
        "uncommitted records are counted: {:?}",
        read.outcome
    );
    assert!(read.table.columns.is_empty(), "nothing was committed");
}

/// Gorilla, except that its `gate`th page waits (at most 30 s) until the
/// `container.sync_behind` point has been reached: the pages before it
/// have spilled the write buffer, so the sync thread is awake.
struct GatedGorilla {
    pages: AtomicUsize,
    gate: usize,
}

impl Compressor for GatedGorilla {
    fn info(&self) -> CodecInfo {
        Gorilla.info()
    }
    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> fcbench_core::Result<usize> {
        if self.pages.fetch_add(1, Ordering::Relaxed) == self.gate {
            let start = Instant::now();
            while failpoints::hits("container.sync_behind") == 0
                && start.elapsed() < Duration::from_secs(30)
            {
                std::thread::yield_now();
            }
        }
        Gorilla.compress_into(data, out)
    }
    fn decompress_into(
        &self,
        payload: &[u8],
        desc: &DataDesc,
        out: &mut FloatData,
    ) -> fcbench_core::Result<()> {
        Gorilla.decompress_into(payload, desc, out)
    }
}

/// `container.sync_behind` fails the sync a pooled container write runs
/// behind its compression: the write still lands every byte, joins its
/// sync thread and returns that typed error instead of reporting a
/// durable file.
#[test]
fn container_sync_behind_failpoint_is_returned_typed() {
    let _gate = armed_registry_gate();
    let pool = WorkerPool::new(PoolConfig::with_threads(2));
    let cols: Vec<ColumnData> = (0..3).map(|i| column(&format!("c{i}"), 1 << 20)).collect();
    let path = std::env::temp_dir().join(format!(
        "fcbench-chaos-{}-sync-behind.fcdb",
        std::process::id()
    ));

    // 768 pages of 16 KiB; page 200 waits for the point.
    failpoints::arm("container.sync_behind", 0, u64::MAX);
    let gated: Arc<dyn Compressor> = Arc::new(GatedGorilla {
        pages: AtomicUsize::new(0),
        gate: 200,
    });
    let err = write_container_pooled(&path, &pool, &gated, &cols, 4096)
        .expect_err("the armed sync fails the write");
    assert!(matches!(err, Error::Io(_)), "typed: {err}");
    assert!(err.to_string().contains("container.sync_behind"), "{err}");
    // The first failed sync ends the thread: one hit, one error.
    assert_eq!(failpoints::hits("container.sync_behind"), 1);
    assert_eq!(failpoints::fired("container.sync_behind"), 1);
    failpoints::disarm_all();
    assert!(read_container(&path).expect("read").is_clean());

    let codec: Arc<dyn Compressor> = Arc::new(Gorilla::new());
    write_container_pooled(&path, &pool, &codec, &cols, 4096).expect("disarmed write");
    assert!(read_container(&path).expect("read").is_clean());
    std::fs::remove_file(&path).ok();
}

/// `serve.reply_write` kills one OK reply mid-connection: the client sees
/// a typed error, the server keeps accepting and serving.
#[test]
fn serve_reply_write_failpoint_is_typed_and_survivable() {
    let _gate = armed_registry_gate();
    let registry = Arc::new(paper_registry());
    let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(1)));
    let running = Server::bind("127.0.0.1:0", registry, pool, ServeConfig::default())
        .expect("bind")
        .spawn();
    let addr = running.addr();

    // Skip the handshake's hello reply; fail the next OK reply once.
    failpoints::arm("serve.reply_write", 1, 1);
    let mut client = Client::connect(addr).expect("handshake passes the skip");
    let err = client
        .list_codecs()
        .expect_err("the injected reply failure surfaces typed");
    assert!(
        matches!(err, Error::Io(_) | Error::Corrupt(_)),
        "typed: {err}"
    );
    assert!(failpoints::hits("serve.reply_write") >= 2);
    assert_eq!(failpoints::fired("serve.reply_write"), 1);
    failpoints::disarm_all();

    // The server shrugged it off.
    let mut fresh = Client::connect(addr).expect("server keeps accepting");
    let data = sample_data(128);
    let compressed = fresh
        .compress("gorilla", &data, 64)
        .expect("server keeps serving");
    let restored = fresh.decompress(&compressed).expect("roundtrip");
    assert_eq!(restored.bytes(), data.bytes());
    drop(client);
    drop(fresh);
    running.shutdown().expect("shutdown");
}

/// Seeded random schedules over the commit seam: whatever skip/fail
/// pattern a plan derives, the writer either completes or fails typed,
/// and the sink always recovers to its last commit.
#[test]
fn seeded_commit_schedules_always_recover() {
    let _gate = armed_registry_gate();
    let pool = WorkerPool::new(PoolConfig::with_threads(2));
    let codec: Arc<dyn Compressor> = Arc::new(Gorilla::new());
    for seed in 0..32u64 {
        let plan = FaultPlan::from_seed(seed);
        plan.note_seed();
        let mut rng = Rng::new(plan.seed());
        let skip = rng.below(4);
        let fail = 1 + rng.below(3);
        failpoints::arm("container.commit", skip, fail);

        let mut sink = Vec::new();
        let mut committed = 0u64;
        {
            let mut w = ContainerWriter::new(&mut sink, &pool, &codec).expect("prologue");
            let result = (|| {
                for i in 0..4 {
                    let col = column(&format!("c{i}"), 120 + 30 * i);
                    w.begin_column(&col.name, Precision::Single, 64)?;
                    w.write(&col.bytes)?;
                    w.commit()?;
                    committed += 1;
                }
                Ok::<(), Error>(())
            })();
            if let Err(e) = result {
                assert!(matches!(e, Error::Io(_)), "{plan}: typed: {e}");
            }
        }
        failpoints::disarm_all();

        let read = parse_container(&sink)
            .unwrap_or_else(|e| panic!("{plan}: recovery must not error: {e}"));
        assert_eq!(
            read.table.columns.len() as u64,
            committed,
            "{plan}: exactly the committed columns survive"
        );
        if skip >= 4 {
            assert_eq!(
                read.outcome,
                RecoveryOutcome::Clean,
                "{plan}: untouched run"
            );
        }
    }
}
