//! Model-check scenarios: small, closed concurrent programs over the real
//! engine types, run under the deterministic scheduler in
//! [`fcbench_core::sync::model`].
//!
//! Each scenario is a plain `fn()` executed once per explored schedule. A
//! scenario *passes* a schedule by returning; it *fails* it by panicking
//! (assertion) or by deadlocking (every registered thread blocked —
//! including the lost-wakeup shape, since the model's condvars never wake
//! spuriously). Configurations are deliberately tiny — two workers, two
//! slots, two jobs — because exhaustive interleaving coverage of a small
//! instance catches ordering bugs that stress tests miss at any size.
//!
//! The two `toy-*` scenarios are the checker's own self-test: a condvar
//! protocol with a textbook lost-wakeup window that exploration must
//! refute, and its repaired form that must verify clean. They keep the
//! checker honest — if the buggy one stops failing, the scheduler has lost
//! coverage, and `tests/model_check.rs` pins that.

use fcbench_core::stream::{FrameReader, FrameWriter, WriterPump};
use fcbench_core::sync::{lock, wait, Condvar, Mutex};
use fcbench_core::telemetry::InflightGauge;
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, Domain, Error, FloatData, Platform,
    PoolConfig, Precision, PrecisionSupport, Result, WorkerPool,
};
use fcbench_dbsim::{parse_container, ContainerWriter};
use std::io::Read;
use std::sync::Arc;

/// A registered scenario.
pub struct Scenario {
    pub name: &'static str,
    pub about: &'static str,
    pub run: fn(),
    /// The checker is expected to find a failure (self-test scenarios).
    pub expect_failure: bool,
}

/// Every registered scenario, in documentation order.
pub fn all() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "pool-submit-shutdown",
            about: "2 workers / 2 slots: submit two jobs, collect both, shutdown, join; \
                    jobs_completed must equal 2 on every schedule",
            run: pool_submit_shutdown,
            expect_failure: false,
        },
        Scenario {
            name: "pool-worker-panic",
            about: "a codec panic inside a worker surfaces as a typed error from collect \
                    and the pool keeps serving (the poison-policy regression)",
            run: pool_worker_panic,
            expect_failure: false,
        },
        Scenario {
            name: "pool-abandon",
            about: "dropping a ticket abandons the job; the slot is recycled and \
                    accounting still balances",
            run: pool_abandon,
            expect_failure: false,
        },
        Scenario {
            name: "window-writer-saturated",
            about: "two writer pumps on two threads share a 2-slot pool, three blocks each: \
                    no schedule deadlocks and each pump emits its own blocks in order",
            run: window_writer_saturated,
            expect_failure: false,
        },
        Scenario {
            name: "window-failure-abandons",
            about: "a failing block fails its writer pump sticky: later calls refuse, the \
                    tickets behind it are abandoned, drain returns and every slot is free",
            run: window_failure_abandons,
            expect_failure: false,
        },
        Scenario {
            name: "reader-read-ahead-saturated",
            about: "a pooled FrameReader reads three blocks on a 2-slot pool while a peer \
                    thread's ticket holds a slot and it submits again: the read-ahead \
                    declines while its window holds a ticket, blocks only when empty, \
                    and yields every block in order; each record is read into its \
                    acquired slot with a scheduling point mid-fill",
            run: reader_read_ahead_saturated,
            expect_failure: false,
        },
        Scenario {
            name: "cursor-read-ahead",
            about: "a ColumnCursor (the reader pump) with read-ahead 1 over two pages \
                    its ContainerWriter (the writer pump) just wrote on the same engine \
                    yields both pages in order",
            run: cursor_read_ahead,
            expect_failure: false,
        },
        Scenario {
            name: "toy-missed-notify",
            about: "SELF-TEST (expected to fail): flag checked outside the critical \
                    section that waits — the notify can land in the window and be lost",
            run: toy_missed_notify,
            expect_failure: true,
        },
        Scenario {
            name: "toy-fixed-notify",
            about: "SELF-TEST (expected clean): the same protocol with the canonical \
                    while-wait loop under one guard",
            run: toy_fixed_notify,
            expect_failure: false,
        },
    ]
}

/// Look up a scenario by name.
pub fn by_name(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

// ---------------------------------------------------------------------------
// Tiny codecs for driving the pool inside the model.

/// Identity codec: payload = element bytes.
struct StoreCodec;

impl Compressor for StoreCodec {
    fn info(&self) -> CodecInfo {
        CodecInfo {
            name: "mc-store",
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

/// Codec that panics in `compress_into` — the worker-panic injection.
struct PanicCodec;

impl Compressor for PanicCodec {
    fn info(&self) -> CodecInfo {
        CodecInfo {
            name: "mc-panic",
            year: 2024,
            community: Community::General,
            class: CodecClass::Delta,
            platform: Platform::Cpu,
            parallel: false,
            precisions: PrecisionSupport::Both,
        }
    }
    fn compress_into(&self, _data: &FloatData, _out: &mut Vec<u8>) -> Result<usize> {
        panic!("injected codec panic");
    }
    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        StoreCodec.decompress_into(payload, desc, out)
    }
}

/// Stores blocks like [`StoreCodec`], but panics compressing a block that
/// starts with a negative value.
struct MarkedPanic;

impl Compressor for MarkedPanic {
    fn info(&self) -> CodecInfo {
        PanicCodec.info()
    }
    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        if data.bytes()[7] & 0x80 != 0 {
            panic!("injected codec panic");
        }
        StoreCodec.compress_into(data, out)
    }
    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        StoreCodec.decompress_into(payload, desc, out)
    }
}

fn sample() -> FloatData {
    match FloatData::from_f64(&[1.0, 2.0, 3.0, 4.0], vec![4], Domain::Hpc) {
        Ok(d) => d,
        Err(e) => panic!("scenario setup: {e}"),
    }
}

fn must<T>(r: Result<T>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("scenario step failed: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Engine scenarios.

fn pool_submit_shutdown() {
    let pool = WorkerPool::new(PoolConfig::with_threads(2).queue_depth(2));
    let codec: Arc<dyn Compressor> = Arc::new(StoreCodec);
    let data = sample();
    let t1 = must(pool.submit_compress(&codec, data.desc(), data.bytes()));
    let t2 = must(pool.submit_compress(&codec, data.desc(), data.bytes()));
    let n1 = must(t1.collect(|p| p.len()));
    let n2 = must(t2.collect(|p| p.len()));
    assert_eq!(n1, data.bytes().len(), "store codec must echo the input");
    assert_eq!(n2, data.bytes().len());
    pool.shutdown();
    drop(pool); // joins the workers
}

fn pool_worker_panic() {
    let pool = WorkerPool::new(PoolConfig::with_threads(1).queue_depth(1));
    let bad: Arc<dyn Compressor> = Arc::new(PanicCodec);
    let good: Arc<dyn Compressor> = Arc::new(StoreCodec);
    let data = sample();
    let t = must(pool.submit_compress(&bad, data.desc(), data.bytes()));
    match t.collect(|p| p.len()) {
        Err(Error::WorkerPanic(_)) => {}
        Err(e) => panic!("worker panic must surface as Error::WorkerPanic, got {e}"),
        Ok(_) => panic!("a panicking codec must surface as a typed error"),
    }
    // The pool must still serve after the panic (no poisoned-lock wedge,
    // no dead worker): this is the regression for the shared poison policy
    // in fcbench_core::sync::{lock, wait}.
    let t = must(pool.submit_compress(&good, data.desc(), data.bytes()));
    let n = must(t.collect(|p| p.len()));
    assert_eq!(n, data.bytes().len(), "pool must survive a worker panic");
}

fn pool_abandon() {
    let pool = WorkerPool::new(PoolConfig::with_threads(1).queue_depth(2));
    let codec: Arc<dyn Compressor> = Arc::new(StoreCodec);
    let data = sample();
    let t1 = must(pool.submit_compress(&codec, data.desc(), data.bytes()));
    drop(t1); // abandon: result discarded, slot recycled by the worker
    let t2 = must(pool.submit_compress(&codec, data.desc(), data.bytes()));
    let n = must(t2.collect(|p| p.len()));
    assert_eq!(n, data.bytes().len());
    pool.drain();
    assert_eq!(
        pool.jobs_completed(),
        2,
        "abandoned jobs still count as completed work"
    );
}

/// A writer pump of one-element blocks of [`sample`]'s shape on `pool`.
fn one_value_blocks(codec: Arc<dyn Compressor>, pool: &WorkerPool) -> WriterPump<&WorkerPool> {
    WriterPump::new(
        codec,
        Some(pool),
        sample().desc(),
        1,
        InflightGauge::detached(),
    )
}

/// Three blocks through one writer pump, written in one piece and then
/// finished; returns the blocks' values in the order they were emitted.
fn push_three(pool: &WorkerPool, codec: &Arc<dyn Compressor>, base: f64) -> Vec<f64> {
    let mut pump = one_value_blocks(Arc::clone(codec), pool);
    let bytes: Vec<u8> = (0..3)
        .flat_map(|k| (base + k as f64).to_le_bytes())
        .collect();
    let mut seen = Vec::new();
    let mut emit = |payload: &[u8], elems: usize| {
        assert_eq!((payload.len(), elems), (8, 1), "a block came back resized");
        let mut value = [0u8; 8];
        value.copy_from_slice(payload);
        seen.push(f64::from_le_bytes(value));
        Ok(())
    };
    must(pump.write(&bytes, &mut emit));
    must(pump.finish(&mut emit));
    seen
}

fn window_writer_saturated() {
    // Between them the two pumps want six slots of a pool that has two:
    // whichever holds tickets when the pool saturates must collect its own
    // oldest rather than wait on the other.
    let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(1).queue_depth(2)));
    let codec: Arc<dyn Compressor> = Arc::new(StoreCodec);
    let (pool2, codec2) = (Arc::clone(&pool), Arc::clone(&codec));
    let peer = fcbench_core::sync::thread::Builder::new()
        .name("mc-window-peer".into())
        .spawn(move || push_three(&pool2, &codec2, 10.0));
    let peer = match peer {
        Ok(h) => h,
        Err(e) => panic!("spawn peer: {e}"),
    };
    assert_eq!(push_three(&pool, &codec, 1.0), [1.0, 2.0, 3.0]);
    match peer.join() {
        Ok(seen) => assert_eq!(seen, [10.0, 11.0, 12.0]),
        Err(_) => panic!("peer pump panicked"),
    }
}

fn window_failure_abandons() {
    let pool = WorkerPool::new(PoolConfig::with_threads(1).queue_depth(3));
    let good: Arc<dyn Compressor> = Arc::new(StoreCodec);
    let data = sample();
    // Three blocks in flight at once, the first of which panics.
    let mut pump = one_value_blocks(Arc::new(MarkedPanic), &pool);
    let bytes: Vec<u8> = [-1.0f64, 2.0, 3.0]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    must(pump.write(&bytes, |_, _| {
        panic!("nothing is emitted before the pool saturates")
    }));
    match pump.finish(|_, _| Ok(())) {
        Err(Error::WorkerPanic(_)) => {}
        Err(e) => panic!("the failed block must surface its own error, got {e}"),
        Ok(()) => panic!("a panicking block must not be emitted"),
    }
    assert!(
        matches!(pump.finish(|_, _| Ok(())), Err(Error::Corrupt(_))),
        "a failed pump refuses instead of emitting out of order"
    );
    pool.drain();
    // Every slot is back on the free list, whether its job was abandoned
    // while queued, while running, or after it finished: filling the pool
    // again would block forever on a leaked one.
    let tickets: Vec<_> = (0..pool.queue_depth())
        .map(|_| must(pool.submit_compress(&good, data.desc(), data.bytes())))
        .collect();
    for t in tickets {
        must(t.collect(|p| p.len()));
    }
}

/// A byte source whose every read is a scheduling point: the model
/// explores the peer and the worker running while the reader holds a slot
/// it acquired and has not yet queued.
struct Gated<'a> {
    src: &'a [u8],
    gate: Mutex<()>,
}

impl Read for Gated<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        drop(lock(&self.gate));
        self.src.read(buf)
    }
}

fn reader_read_ahead_saturated() {
    let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(1).queue_depth(2)));
    let codec: Arc<dyn Compressor> = Arc::new(StoreCodec);
    // Three one-value blocks, framed inline.
    let data = must(FloatData::from_f64(&[1.0, 2.0, 3.0], vec![3], Domain::Hpc));
    let mut w = must(FrameWriter::new(
        Vec::new(),
        Arc::clone(&codec),
        data.desc().clone(),
        1,
        None,
    ));
    must(w.write(data.bytes()));
    let frame = must(w.finish());
    // The peer holds one slot with its first ticket while it submits a
    // second: between them the two threads want more slots than there are,
    // so the reader must never block holding a ticket of its own.
    let (pool2, codec2) = (Arc::clone(&pool), Arc::clone(&codec));
    let peer = fcbench_core::sync::thread::Builder::new()
        .name("mc-reader-peer".into())
        .spawn(move || {
            let data = sample();
            let first = must(pool2.submit_compress(&codec2, data.desc(), data.bytes()));
            let second = must(pool2.submit_compress(&codec2, data.desc(), data.bytes()));
            must(first.collect(|p| p.len())) + must(second.collect(|p| p.len()))
        });
    let peer = match peer {
        Ok(h) => h,
        Err(e) => panic!("spawn peer: {e}"),
    };
    let src = Gated {
        src: &frame,
        gate: Mutex::new(()),
    };
    let mut reader = must(FrameReader::new(src, codec, Some(Arc::clone(&pool))));
    let mut seen = Vec::new();
    while let Some(block) = must(reader.next_block()) {
        seen.extend_from_slice(block);
    }
    assert_eq!(
        seen,
        data.bytes(),
        "blocks must come back complete and in order"
    );
    match peer.join() {
        Ok(n) => assert_eq!(n, 2 * sample().bytes().len()),
        Err(_) => panic!("peer panicked"),
    }
}

fn cursor_read_ahead() {
    let pool = WorkerPool::new(PoolConfig::with_threads(1).queue_depth(2));
    let codec: Arc<dyn Compressor> = Arc::new(StoreCodec);
    // Two 2-element f64 pages, stored uncompressed by StoreCodec.
    let want: Vec<u8> = [1.0f64, 2.0, 3.0, 4.0]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let mut w = must(ContainerWriter::new(Vec::new(), &pool, &codec));
    must(w.begin_column("mc", Precision::Double, 2));
    must(w.write(&want));
    let table = must(parse_container(&must(w.finish()))).table;
    let mut cursor = must(table.columns[0].cursor(&pool, &codec)).max_in_flight(1);
    let mut seen = Vec::new();
    loop {
        match cursor.next_chunk() {
            Ok(Some(page)) => seen.extend_from_slice(page),
            Ok(None) => break,
            Err(e) => panic!("cursor failed: {e}"),
        }
    }
    assert_eq!(seen, want, "pages must come back complete and in order");
}

// ---------------------------------------------------------------------------
// Self-test scenarios.

/// BUGGY: the flag is sampled in one critical section and the wait happens
/// in another. A schedule where the setter runs in between loses the
/// notify, and the waiter blocks forever — which the model reports as a
/// deadlock with the reproducing seed.
fn toy_missed_notify() {
    let m = Arc::new(Mutex::new(false));
    let cv = Arc::new(Condvar::new());
    let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
    let waiter = fcbench_core::sync::thread::Builder::new()
        .name("mc-waiter".into())
        .spawn(move || {
            let set = *lock(&m2);
            if !set {
                // lost-wakeup window: the notify can land right here
                let g = lock(&m2);
                let _g = wait(&cv2, g);
            }
        });
    let waiter = match waiter {
        Ok(h) => h,
        Err(e) => panic!("spawn waiter: {e}"),
    };
    *lock(&m) = true;
    cv.notify_one();
    let _ = waiter.join();
}

/// FIXED: the canonical form — recheck the predicate under the same guard
/// the wait releases. No schedule can lose the wakeup.
fn toy_fixed_notify() {
    let m = Arc::new(Mutex::new(false));
    let cv = Arc::new(Condvar::new());
    let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
    let waiter = fcbench_core::sync::thread::Builder::new()
        .name("mc-waiter".into())
        .spawn(move || {
            let mut g = lock(&m2);
            while !*g {
                g = wait(&cv2, g);
            }
        });
    let waiter = match waiter {
        Ok(h) => h,
        Err(e) => panic!("spawn waiter: {e}"),
    };
    *lock(&m) = true;
    cv.notify_one();
    let _ = waiter.join();
}
