//! Persistent worker-pool execution engine.
//!
//! FCBench's throughput comparisons are only meaningful when the harness
//! measures codec work, not thread spawn and allocator churn. The
//! [`WorkerPool`] therefore spawns its workers **once** and keeps them alive
//! for the pool's whole lifetime: every compress/decompress job is pushed
//! onto a bounded queue, executed by a long-lived worker whose reusable
//! scratch (including codec-internal thread-local state such as chimp's
//! window buffers) is warmed on the first job and reused by every later one,
//! and collected in submission order. In steady state a `submit`/`collect`
//! round performs **zero thread spawns and ~zero heap allocations** — the
//! regression test in `crates/bench/tests/alloc_into.rs` holds the gorilla
//! and chimp paths to exactly that.
//!
//! # Model
//!
//! The pool owns `queue_depth` recyclable **job slots**. [`submit_compress`]
//! / [`submit_decompress`](WorkerPool::submit_decompress) copy the input block
//! into a free slot (blocking while every slot is in flight — natural
//! backpressure for the streaming frame I/O built on top) and return a
//! [`Ticket`]. Workers pop slots off the queue and run the codec against
//! slot-owned buffers. [`Ticket::collect`] blocks until that job finished,
//! hands the output bytes to a caller closure, and recycles the slot.
//! Dropping a ticket without collecting it abandons the job: its result is
//! discarded and the slot returns to the free list on completion.
//!
//! A caller that keeps several jobs in flight — the writer and reader
//! [block pumps](crate::stream::WriterPump) under every frame stream,
//! container writer and column cursor — holds its tickets in a `Window`,
//! which bounds them, collects them in order, and never lets the caller
//! block in a submit while it pins slots of a pool others share. The
//! reader side acquires its slot first and then has the caller fill the
//! slot's input buffer in place, so a record read off a source is copied
//! once, into the slot; the caller holds that acquired, not yet queued
//! slot for as long as its fill runs, and a fill that fails gives it back.
//!
//! Shutdown is graceful: [`WorkerPool::shutdown`] (or dropping the pool)
//! lets workers finish every queued job before exiting, and outstanding
//! tickets stay collectable. A panicking codec does not poison the pool: the
//! worker catches the panic, surfaces it to the collector as the typed
//! [`Error::WorkerPanic`], and keeps serving jobs.
//!
//! [`submit_compress`]: WorkerPool::submit_compress
//!
//! ```
//! use fcbench_core::pool::{PoolConfig, WorkerPool};
//! use fcbench_core::{Domain, FloatData};
//! # use fcbench_core::{codec::{CodecClass, CodecInfo, Community, Platform, PrecisionSupport},
//! #                    Compressor, DataDesc, Result};
//! # use std::sync::Arc;
//! # struct Store;
//! # impl Compressor for Store {
//! #     fn info(&self) -> CodecInfo {
//! #         CodecInfo { name: "store", year: 2024, community: Community::General,
//! #                     class: CodecClass::Delta, platform: Platform::Cpu,
//! #                     parallel: false, precisions: PrecisionSupport::Both }
//! #     }
//! #     fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
//! #         out.clear();
//! #         out.extend_from_slice(data.bytes());
//! #         Ok(out.len())
//! #     }
//! #     fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
//! #         out.refill_from_slice(desc, payload)
//! #     }
//! # }
//! let pool = WorkerPool::new(PoolConfig::with_threads(2));
//! let codec: Arc<dyn Compressor> = Arc::new(Store);
//!
//! let data = FloatData::from_f64(&[1.0, 2.0, 3.0], vec![3], Domain::Hpc).unwrap();
//! let ticket = pool
//!     .submit_compress(&codec, data.desc(), data.bytes())
//!     .unwrap();
//! let payload = ticket.collect(|bytes| bytes.to_vec()).unwrap();
//!
//! let ticket = pool
//!     .submit_decompress(&codec, data.desc(), &payload)
//!     .unwrap();
//! let back = ticket.collect(|bytes| bytes.to_vec()).unwrap();
//! assert_eq!(back, data.bytes());
//! ```

use crate::codec::Compressor;
use crate::data::{DataDesc, FloatData};
use crate::error::{Error, Result};
use crate::sync::thread::JoinHandle;
use crate::sync::{lock, wait, AtomicU64, Condvar, Mutex};
use fcbench_telemetry::{Counter, Gauge, Histogram, HistogramFamily, InflightGauge, Registry};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a [`WorkerPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Persistent worker threads (clamped to at least 1).
    pub threads: usize,
    /// Job slots — the maximum number of in-flight jobs before `submit`
    /// blocks (clamped to at least 1). This bounds the memory a streaming
    /// producer can pin: at most `queue_depth` blocks exist at once.
    pub queue_depth: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig::with_threads(1)
    }
}

impl PoolConfig {
    /// A configuration with `threads` workers and a `2 * threads` slot
    /// queue.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        PoolConfig {
            threads,
            queue_depth: 2 * threads,
        }
    }

    /// A configuration sized for the machine the process is running on:
    /// one worker per available hardware thread (via
    /// [`std::thread::available_parallelism`], falling back to 2 when the
    /// host won't say) and a `4 * threads` slot queue clamped to `[8, 256]`.
    ///
    /// The deeper-than-default queue is deliberate: a host-sized pool is
    /// what serving front-ends share across many concurrent streams, and
    /// each stream pins at most its own in-flight window — extra slots keep
    /// workers fed while any one stream is stalled on its client.
    pub fn for_host() -> Self {
        let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
        PoolConfig::with_threads(threads).queue_depth((threads * 4).clamp(8, 256))
    }

    /// Builder-style queue-depth override (clamped to at least 1).
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }
}

/// What a job slot asks its worker to do.
#[derive(Clone, Copy, PartialEq, Eq)]
enum JobKind {
    Compress,
    Decompress,
}

/// Buffers owned by one job slot. Slots are recycled: every field keeps its
/// capacity across jobs, so a warm slot serves a steady-state job without
/// touching the allocator.
struct Slot {
    kind: JobKind,
    codec: Option<Arc<dyn Compressor>>,
    /// Block descriptor, rewritten in place (dims capacity reused).
    desc: DataDesc,
    /// Compress: the input block. Decompress: the decoded output.
    data: FloatData,
    /// Compress: the produced payload. Decompress: the input payload.
    buf: Vec<u8>,
    /// Stamped at enqueue; the worker turns it into the queue-wait sample.
    enqueued_at: Option<Instant>,
}

impl Slot {
    fn new() -> Self {
        Slot {
            kind: JobKind::Compress,
            codec: None,
            desc: FloatData::scratch().desc().clone(),
            data: FloatData::scratch(),
            buf: Vec::new(),
            enqueued_at: None,
        }
    }

    /// Rewrite `self.desc` from `src` without allocating once the dims
    /// vector has capacity.
    fn set_desc(&mut self, src: &DataDesc) {
        self.desc.precision = src.precision;
        self.desc.domain = src.domain;
        self.desc.dims.clear();
        self.desc.dims.extend_from_slice(&src.dims);
    }

    /// Run this slot's job; called on a worker thread.
    fn execute(&mut self) -> Result<usize> {
        // Every dispatch_* fills `codec` before enqueueing; a bare slot
        // here is an internal bug, surfaced as a typed error rather than a
        // panic so it cannot take a worker down.
        let Some(codec) = self.codec.as_ref().map(Arc::clone) else {
            return Err(Error::Unsupported(
                "internal: queued slot carries no codec".into(),
            ));
        };
        match self.kind {
            JobKind::Compress => codec.compress_into(&self.data, &mut self.buf),
            JobKind::Decompress => {
                // The descriptor is untrusted on this path (frames and
                // containers hand it over from the wire): gate the claimed
                // output size against the payload before the codec can
                // reserve it.
                crate::blocks::check_decode_claim(&self.desc, self.buf.len())?;
                codec.decompress_into(&self.buf, &self.desc, &mut self.data)?;
                if self.data.bytes().len() != self.desc.byte_len() {
                    return Err(Error::Corrupt("job decoded to a wrong size".into()));
                }
                Ok(self.data.bytes().len())
            }
        }
    }

    /// The output bytes of a completed job.
    fn output(&self, n: usize) -> &[u8] {
        match self.kind {
            JobKind::Compress => &self.buf[..n],
            JobKind::Decompress => self.data.bytes(),
        }
    }
}

/// Lifecycle of a slot, tracked under the pool lock.
enum JobState {
    /// On the free list.
    Free,
    /// Queued or running; `abandoned` means the ticket was dropped and the
    /// result should be discarded on completion.
    Pending { abandoned: bool },
    /// Finished; result waiting for its collector.
    Done(Result<usize>),
}

struct Inner {
    /// Slot indices ready for a worker, in submission order.
    queue: VecDeque<usize>,
    /// Recyclable slot indices.
    free: Vec<usize>,
    /// Per-slot lifecycle state.
    states: Vec<JobState>,
    /// Jobs submitted but not yet finished (queued + running).
    unfinished: usize,
    /// Set by [`WorkerPool::shutdown`] / `Drop`; workers drain the queue
    /// and exit, and further submits fail.
    shutdown: bool,
}

/// Pre-resolved telemetry handles: every record below is a handful of
/// relaxed atomic ops, so instrumentation never shows up in the profiles
/// it feeds (the alloc test in `crates/bench/tests/alloc_into.rs` holds
/// warm submits to zero allocations with all of this enabled).
struct PoolMetrics {
    registry: Arc<Registry>,
    /// `pool.queue_wait` — enqueue to worker pickup, nanoseconds.
    queue_wait: Histogram,
    /// `pool.exec` — codec execution time inside the worker.
    exec: Histogram,
    /// `pool.exec.codec.<name>` — per-codec job timing.
    exec_codec: HistogramFamily,
    /// `pool.drain.stalls` — saturated submits that collected their own
    /// oldest job before getting a slot.
    drain_stalls: Counter,
    /// `pool.slots.occupied` — slots currently in flight (acquired, queued,
    /// running, or awaiting collection).
    slots_occupied: Gauge,
}

impl PoolMetrics {
    fn new() -> Self {
        let registry = Arc::new(Registry::new());
        PoolMetrics {
            queue_wait: registry.histogram("pool.queue_wait"),
            exec: registry.histogram("pool.exec"),
            exec_codec: registry.histogram_family("pool.exec.codec"),
            drain_stalls: registry.counter("pool.drain.stalls"),
            slots_occupied: registry.gauge("pool.slots.occupied"),
            registry,
        }
    }
}

struct Shared {
    inner: Mutex<Inner>,
    /// Workers wait here for queued jobs.
    work: Condvar,
    /// Collectors and `drain` wait here for completions.
    done: Condvar,
    /// Submitters wait here for a free slot.
    free: Condvar,
    /// Slot buffers, locked individually so workers and collectors touch
    /// them without holding the pool lock.
    slots: Box<[Mutex<Slot>]>,
    /// Jobs executed over the pool's lifetime (includes abandoned ones).
    jobs_done: AtomicU64,
    metrics: PoolMetrics,
}

// Lock poisoning: the pool uses the engine-wide policy implemented by
// [`crate::sync::lock`] / [`crate::sync::wait`] — recover the guard. The
// pool's invariants are maintained under the lock by straight-line code,
// and worker panics are caught before they can unwind through a guard
// (see `worker_loop`), so a poisoned mutex only ever reflects a panic in a
// caller-supplied collect or fill closure; the regression tests
// `worker_panic_is_a_typed_error_and_pool_survives`,
// `panicking_collect_closures_do_not_leak_slots` and
// `failing_fills_give_their_slots_back` pin this down.

impl Shared {
    /// Refresh the occupancy gauge from the free-list length; called under
    /// the pool lock at every point the free list changes.
    fn note_occupancy(&self, inner: &Inner) {
        self.metrics
            .slots_occupied
            .set((self.slots.len() - inner.free.len()) as u64);
    }

    /// Mark `idx` finished (or recycle it if abandoned) and wake waiters.
    fn complete(&self, idx: usize, result: Result<usize>) {
        let mut inner = lock(&self.inner);
        let abandoned = matches!(
            inner.states[idx],
            JobState::Pending {
                abandoned: true,
                ..
            }
        );
        if abandoned {
            inner.states[idx] = JobState::Free;
            inner.free.push(idx);
            self.note_occupancy(&inner);
            self.free.notify_all();
        } else {
            inner.states[idx] = JobState::Done(result);
        }
        inner.unfinished -= 1;
        self.jobs_done.fetch_add(1, Ordering::Relaxed);
        self.done.notify_all();
    }
}

/// Worker main loop: pop jobs until shutdown *and* the queue is drained.
fn worker_loop(shared: &Shared) {
    loop {
        let idx = {
            let mut inner = lock(&shared.inner);
            loop {
                if let Some(idx) = inner.queue.pop_front() {
                    break idx;
                }
                if inner.shutdown {
                    return;
                }
                inner = wait(&shared.work, inner);
            }
        };

        // Execute outside the pool lock. A panicking codec must not take
        // the worker (or the pool) down with it: catch it and surface a
        // typed error to the collector.
        let result = {
            let mut slot = lock(&shared.slots[idx]);
            if let Some(enqueued) = slot.enqueued_at.take() {
                shared
                    .metrics
                    .queue_wait
                    .record_duration(enqueued.elapsed());
            }
            let codec_name = slot.codec.as_ref().map(|c| c.info().name);
            let started = Instant::now();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| slot.execute()))
                .unwrap_or_else(|panic| {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "worker panicked".to_string());
                    Err(Error::WorkerPanic(msg))
                });
            let elapsed = started.elapsed();
            shared.metrics.exec.record_duration(elapsed);
            if let Some(h) = codec_name.and_then(|name| shared.metrics.exec_codec.get(name)) {
                h.record_duration(elapsed);
            }
            result
        };
        shared.complete(idx, result);
    }
}

/// A long-lived pool of compression workers; see the [module docs](self).
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    config: PoolConfig,
}

impl WorkerPool {
    /// Spawn `config.threads` persistent workers. This is the **only** place
    /// the pool creates threads; no submit ever spawns again.
    pub fn new(config: PoolConfig) -> Self {
        let threads = config.threads.max(1);
        let depth = config.queue_depth.max(1);
        let config = PoolConfig {
            threads,
            queue_depth: depth,
        };
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(depth),
                free: (0..depth).rev().collect(),
                states: (0..depth).map(|_| JobState::Free).collect(),
                unfinished: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            free: Condvar::new(),
            slots: (0..depth).map(|_| Mutex::new(Slot::new())).collect(),
            jobs_done: AtomicU64::new(0),
            metrics: PoolMetrics::new(),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                crate::sync::thread::Builder::new()
                    .name(format!("fcbench-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            config,
        }
    }

    /// The effective configuration (after clamping).
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Number of persistent workers.
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// Number of job slots (maximum in-flight jobs).
    pub fn queue_depth(&self) -> usize {
        self.config.queue_depth
    }

    /// Threads spawned over the pool's lifetime — always exactly
    /// [`threads`](Self::threads): submits never spawn.
    pub fn threads_spawned(&self) -> usize {
        self.handles.len()
    }

    /// Jobs executed so far (including abandoned ones).
    pub fn jobs_completed(&self) -> u64 {
        self.shared.jobs_done.load(Ordering::Relaxed)
    }

    /// The pool's telemetry registry: `pool.queue_wait`, `pool.exec`,
    /// `pool.exec.codec.<name>`, `pool.drain.stalls`, and
    /// `pool.slots.occupied`. Layers built on the pool (frame streams, the
    /// FCS1 server) register their own metrics here so one registry spans
    /// the whole stack.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.shared.metrics.registry
    }

    /// Acquire a free slot, blocking while all are in flight.
    ///
    /// Deadlock discipline: a caller that already holds uncollected
    /// [`Ticket`]s must not block here — with every slot pinned by ticket
    /// holders, nobody would ever free one. The block pumps therefore
    /// submit through a [`Window`], which collects its own oldest job when
    /// the pool is saturated and only blocks when it holds nothing.
    fn acquire_slot(&self) -> Result<usize> {
        let mut inner = lock(&self.shared.inner);
        loop {
            if inner.shutdown {
                return Err(Error::Unsupported("worker pool is shut down".into()));
            }
            if let Some(idx) = inner.free.pop() {
                self.shared.note_occupancy(&inner);
                return Ok(idx);
            }
            inner = wait(&self.shared.free, inner);
        }
    }

    /// Like [`acquire_slot`](Self::acquire_slot) but returns `Ok(None)`
    /// instead of blocking when every slot is in flight.
    fn try_acquire_slot(&self) -> Result<Option<usize>> {
        let mut inner = lock(&self.shared.inner);
        if inner.shutdown {
            return Err(Error::Unsupported("worker pool is shut down".into()));
        }
        let idx = inner.free.pop();
        if idx.is_some() {
            self.shared.note_occupancy(&inner);
        }
        Ok(idx)
    }

    /// Enqueue the filled slot `idx` and wake a worker.
    fn enqueue(&self, idx: usize) {
        let mut inner = lock(&self.shared.inner);
        inner.states[idx] = JobState::Pending { abandoned: false };
        inner.queue.push_back(idx);
        inner.unfinished += 1;
        drop(inner);
        self.shared.work.notify_one();
    }

    /// Set acquired slot `idx` up for a `kind` job, `fill` its input, and
    /// enqueue it. Until it is queued the slot goes back to the free list
    /// on any exit: a fill that fails or unwinds does not leak it.
    fn dispatch(
        &self,
        idx: usize,
        kind: JobKind,
        codec: &Arc<dyn Compressor>,
        desc: &DataDesc,
        fill: impl FnOnce(&mut Slot) -> Result<()>,
    ) -> Result<Ticket> {
        let unqueued = Recycle {
            shared: &self.shared,
            idx,
        };
        {
            let mut slot = lock(&self.shared.slots[idx]);
            slot.kind = kind;
            slot.codec = Some(Arc::clone(codec));
            slot.set_desc(desc);
            fill(&mut slot)?;
            slot.enqueued_at = Some(Instant::now());
        }
        std::mem::forget(unqueued);
        self.enqueue(idx);
        Ok(Ticket::new(Arc::clone(&self.shared), idx))
    }

    /// Fill acquired slot `idx` with a compress job over `bytes` and
    /// enqueue it.
    fn dispatch_compress(
        &self,
        idx: usize,
        codec: &Arc<dyn Compressor>,
        desc: &DataDesc,
        bytes: &[u8],
    ) -> Result<Ticket> {
        self.dispatch(idx, JobKind::Compress, codec, desc, |slot| {
            slot.data.refill_from_slice(&slot.desc, bytes)
        })
    }

    /// Fill acquired slot `idx` with a decompress job and enqueue it:
    /// `fill` writes the payload into the slot's emptied input buffer.
    fn dispatch_decompress(
        &self,
        idx: usize,
        codec: &Arc<dyn Compressor>,
        desc: &DataDesc,
        fill: impl FnOnce(&mut Vec<u8>) -> Result<()>,
    ) -> Result<Ticket> {
        self.dispatch(idx, JobKind::Decompress, codec, desc, |slot| {
            slot.buf.clear();
            fill(&mut slot.buf)
        })
    }

    fn check_compress_job(desc: &DataDesc, bytes: &[u8]) -> Result<()> {
        if bytes.len() != desc.byte_len() {
            return Err(Error::BadDescriptor(format!(
                "job holds {} bytes but descriptor implies {}",
                bytes.len(),
                desc.byte_len()
            )));
        }
        Ok(())
    }

    /// Submit a compression job over `bytes`, a little-endian element
    /// buffer shaped like `desc` (`bytes.len()` must equal
    /// `desc.byte_len()`). Blocks while every slot is in flight — callers
    /// that keep several jobs in flight should stream through a
    /// [`WriterPump`](crate::stream::WriterPump) instead. The returned
    /// ticket's [`collect`](Ticket::collect) sees the compressed payload.
    pub fn submit_compress(
        &self,
        codec: &Arc<dyn Compressor>,
        desc: &DataDesc,
        bytes: &[u8],
    ) -> Result<Ticket> {
        crate::fault::fail_point("pool.submit")?;
        Self::check_compress_job(desc, bytes)?;
        let idx = self.acquire_slot()?;
        self.dispatch_compress(idx, codec, desc, bytes)
    }

    /// Submit a decompression job: `payload` was produced by `codec` for
    /// data shaped like `desc`. The descriptor is treated as untrusted —
    /// the worker rejects implausible output claims before the codec can
    /// reserve them. Blocks while every slot is in flight (same caveat as
    /// [`submit_compress`](Self::submit_compress)). The ticket's
    /// [`collect`](Ticket::collect) sees the decoded element bytes.
    pub fn submit_decompress(
        &self,
        codec: &Arc<dyn Compressor>,
        desc: &DataDesc,
        payload: &[u8],
    ) -> Result<Ticket> {
        crate::fault::fail_point("pool.submit")?;
        let idx = self.acquire_slot()?;
        self.dispatch_decompress(idx, codec, desc, |buf| {
            buf.extend_from_slice(payload);
            Ok(())
        })
    }

    /// Compress `data` through the pool as one job, replacing `out` with
    /// the payload (capacity reused). Returns the payload length. This is
    /// the single-call form the benchmark runner routes cells through.
    pub fn run_compress(
        &self,
        codec: &Arc<dyn Compressor>,
        data: &FloatData,
        out: &mut Vec<u8>,
    ) -> Result<usize> {
        let ticket = self.submit_compress(codec, data.desc(), data.bytes())?;
        ticket.collect(|payload| {
            out.clear();
            out.extend_from_slice(payload);
            out.len()
        })
    }

    /// Decompress `payload` through the pool as one job into the reusable
    /// container `out`.
    pub fn run_decompress(
        &self,
        codec: &Arc<dyn Compressor>,
        payload: &[u8],
        desc: &DataDesc,
        out: &mut FloatData,
    ) -> Result<()> {
        let ticket = self.submit_decompress(codec, desc, payload)?;
        ticket.collect(|bytes| out.refill_from_slice(desc, bytes))?
    }

    /// Block until every submitted job has finished executing (collected or
    /// not). Queued jobs keep running; this does not shut the pool down.
    pub fn drain(&self) {
        let mut inner = lock(&self.shared.inner);
        while inner.unfinished > 0 {
            inner = wait(&self.shared.done, inner);
        }
    }

    /// Begin a graceful shutdown: workers finish every queued job, then
    /// exit. Outstanding tickets remain collectable; new submits fail with
    /// a typed error. Dropping the pool implies this and joins the workers.
    pub fn shutdown(&self) {
        let mut inner = lock(&self.shared.inner);
        inner.shutdown = true;
        drop(inner);
        self.shared.work.notify_all();
        self.shared.free.notify_all();
        self.shared.done.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
        for h in self.handles.drain(..) {
            // Workers catch job panics themselves; a join error would mean
            // a bug in the pool, which Drop has no way to report.
            let _ = h.join();
        }
    }
}

/// Pushes slot `idx` back onto the free list when dropped, so an owner
/// that holds it outside the queue — a dispatch filling it, a collector
/// reading it — gives it back on every exit, an unwind included: leaked
/// slots would shrink the queue until every submit blocks forever.
struct Recycle<'a> {
    shared: &'a Shared,
    idx: usize,
}

impl Drop for Recycle<'_> {
    fn drop(&mut self) {
        let mut inner = lock(&self.shared.inner);
        inner.free.push(self.idx);
        self.shared.note_occupancy(&inner);
        drop(inner);
        self.shared.free.notify_all();
    }
}

/// A handle to one submitted job. Collect it to obtain the result and
/// recycle the slot; dropping it abandons the job (the result is discarded
/// and the slot is recycled once the worker finishes).
pub struct Ticket {
    shared: Arc<Shared>,
    slot: usize,
    live: bool,
}

impl Ticket {
    fn new(shared: Arc<Shared>, slot: usize) -> Self {
        Ticket {
            shared,
            slot,
            live: true,
        }
    }

    /// Has this job finished executing? A `true` here means
    /// [`collect`](Ticket::collect) will not block. Lets pipelined callers
    /// flush completed work opportunistically (e.g. while waiting on a slow
    /// input source) instead of pinning finished slots.
    pub(crate) fn is_finished(&self) -> bool {
        matches!(
            lock(&self.shared.inner).states[self.slot],
            JobState::Done(_)
        )
    }

    /// Wait for the job to finish. On success, hand the output bytes
    /// (compressed payload or decoded elements, by job kind) to `f` and
    /// return its value; on failure return the job's error. The slot is
    /// recycled either way.
    pub fn collect<R>(mut self, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.live = false;
        let shared = Arc::clone(&self.shared);
        let idx = self.slot;

        let result = {
            let mut inner = lock(&shared.inner);
            loop {
                let state = std::mem::replace(&mut inner.states[idx], JobState::Free);
                match state {
                    JobState::Done(result) => break result,
                    other => inner.states[idx] = other,
                }
                inner = wait(&shared.done, inner);
            }
        };

        // Recycle the slot on every exit from here on, an unwind out of the
        // caller's closure included.
        let _recycle = Recycle {
            shared: &shared,
            idx,
        };

        // The worker finished and released the slot lock; this ticket is the
        // slot's sole owner until the guard pushes it back onto the free
        // list.
        match result {
            Ok(n) => {
                let slot = lock(&shared.slots[idx]);
                Ok(f(slot.output(n)))
            }
            Err(e) => Err(e),
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let mut inner = lock(&self.shared.inner);
        match &mut inner.states[self.slot] {
            // Still queued or running: the worker recycles it on completion.
            JobState::Pending { abandoned, .. } => *abandoned = true,
            // Already done and never collected: recycle here.
            state @ JobState::Done(_) => {
                *state = JobState::Free;
                inner.free.push(self.slot);
                self.shared.note_occupancy(&inner);
                drop(inner);
                self.shared.free.notify_all();
            }
            JobState::Free => {}
        }
    }
}

/// One consumer's bounded window of in-flight jobs — the discipline every
/// pipelined user of a shared [`WorkerPool`] has to follow, enforced in one
/// place, under the two block pumps of [`crate::stream`]:
///
/// - **Bounded.** At most `min(queue_depth, max_in_flight)` jobs are in
///   flight, so one consumer's footprint — and its share of a pool many
///   consumers share — never depends on how much data passes through.
/// - **Never block in submit while holding a ticket.** With every slot
///   pinned by ticket holders nobody would ever free one, so a saturated
///   submit collects this window's own oldest job instead (counted in
///   `pool.drain.stalls`) and blocks only when the window holds nothing —
///   the slots are then pinned by other consumers, which will release them.
/// - **In order.** Jobs are collected strictly in submission order.
/// - **Sticky failure.** The first error — from a submit, a job, or a
///   consumer's collect closure — abandons every outstanding ticket (their
///   slots recycle as the workers finish) and every later call refuses,
///   so nothing is ever yielded out of order past a failure.
///
/// `T` is a per-job tag handed back with the job's output (the block's
/// element count in the writer pump, `()` in the reader pump).
pub(crate) struct Window<T = ()> {
    pending: VecDeque<(Ticket, T)>,
    /// The consumer's own cap on `pending.len()`; the pool's queue depth
    /// bounds it from above.
    cap: usize,
    failed: bool,
    /// This window's share of a gauge of in-flight jobs, kept equal to
    /// `pending.len()`.
    inflight: InflightGauge,
    /// Counts the [`pop`](Self::pop)s that had to wait for a job that had
    /// not finished — a read-ahead not keeping up with its consumer.
    wait_stalls: Option<Counter>,
}

impl<T> Window<T> {
    /// An empty window reporting its depth into `inflight` and, when given,
    /// its blocking pops into `wait_stalls`.
    pub(crate) fn new(inflight: InflightGauge, wait_stalls: Option<Counter>) -> Self {
        Window {
            pending: VecDeque::new(),
            cap: usize::MAX,
            failed: false,
            inflight,
            wait_stalls,
        }
    }

    /// Cap this window at `cap` in-flight jobs (clamped to at least 1).
    /// When many independent consumers share one host-sized engine — a
    /// serving front-end's connections — per-consumer caps stop any single
    /// one from pinning every job slot.
    pub(crate) fn set_max_in_flight(&mut self, cap: usize) {
        self.cap = cap.max(1);
    }

    /// The typed refusal every call makes once the window has failed.
    pub(crate) fn check(&self) -> Result<()> {
        if self.failed {
            return Err(Error::Corrupt(
                "in-flight window is in a failed state (an earlier job errored)".into(),
            ));
        }
        Ok(())
    }

    /// Fold a step's outcome into the window's state: on error, enter the
    /// failed state — abandon every outstanding ticket and refuse all later
    /// calls. Every window operation ends here; consumers pass the outcome
    /// of their own steps through too, so a failure outside the window (a
    /// sink error, an input error) releases their slots right away instead
    /// of leaving them pinned until the consumer is dropped.
    pub(crate) fn settle<R>(&mut self, r: Result<R>) -> Result<R> {
        if r.is_err() {
            self.pending.clear();
            self.failed = true;
        }
        self.inflight.sync(self.pending.len());
        r
    }

    /// Collect the oldest job through `f`; `None` when nothing is in flight.
    fn take_front<R>(&mut self, f: impl FnOnce(&[u8], T) -> Result<R>) -> Result<Option<R>> {
        let Some((ticket, tag)) = self.pending.pop_front() else {
            return Ok(None);
        };
        ticket.collect(|bytes| f(bytes, tag))?.map(Some)
    }

    /// Submit a compression job (see [`WorkerPool::submit_compress`]) that
    /// must be accepted now — a writer's next block. Whenever the window or
    /// the pool is full, this window's own oldest jobs are collected
    /// through `on_oldest` (output bytes, tag) to make room.
    pub(crate) fn push_compress(
        &mut self,
        pool: &WorkerPool,
        codec: &Arc<dyn Compressor>,
        desc: &DataDesc,
        bytes: &[u8],
        tag: T,
        mut on_oldest: impl FnMut(&[u8], T) -> Result<()>,
    ) -> Result<()> {
        self.check()?;
        let r = (|| -> Result<()> {
            while self.pending.len() >= self.cap {
                self.take_front(&mut on_oldest)?;
            }
            crate::fault::fail_point("pool.submit")?;
            WorkerPool::check_compress_job(desc, bytes)?;
            let idx = loop {
                if let Some(idx) = pool.try_acquire_slot()? {
                    break idx;
                }
                if self.take_front(&mut on_oldest)?.is_none() {
                    break pool.acquire_slot()?;
                }
                pool.shared.metrics.drain_stalls.inc();
            };
            let ticket = pool.dispatch_compress(idx, codec, desc, bytes)?;
            self.pending.push_back((ticket, tag));
            Ok(())
        })();
        self.settle(r)
    }

    /// Submit a decompression job (see [`WorkerPool::submit_decompress`])
    /// that may wait — a reader's read-ahead. The slot is acquired first,
    /// then `fill` writes the payload into its emptied input buffer, so the
    /// payload is read once, straight into the slot; a failed fill gives
    /// the slot back. The reader holds that one acquired, unqueued slot
    /// for as long as `fill` runs. Returns `Ok(false)` without acquiring a
    /// slot or calling `fill` when the window is full, or when the pool is
    /// saturated while this window holds tickets (collecting its front
    /// frees a slot).
    pub(crate) fn try_push_decompress(
        &mut self,
        pool: &WorkerPool,
        codec: &Arc<dyn Compressor>,
        desc: &DataDesc,
        fill: impl FnOnce(&mut Vec<u8>) -> Result<()>,
        tag: T,
    ) -> Result<bool> {
        self.check()?;
        if self.pending.len() >= pool.queue_depth().min(self.cap) {
            return Ok(false);
        }
        let r = (|| -> Result<bool> {
            crate::fault::fail_point("pool.submit")?;
            let idx = match pool.try_acquire_slot()? {
                Some(idx) => idx,
                None if self.pending.is_empty() => pool.acquire_slot()?,
                None => return Ok(false),
            };
            let ticket = pool.dispatch_decompress(idx, codec, desc, fill)?;
            self.pending.push_back((ticket, tag));
            Ok(true)
        })();
        self.settle(r)
    }

    /// Wait for the oldest job and hand its output bytes and tag to `f`;
    /// `None` when nothing is in flight.
    pub(crate) fn pop<R>(&mut self, f: impl FnOnce(&[u8], T) -> Result<R>) -> Result<Option<R>> {
        self.check()?;
        if let (Some(stalls), Some((ticket, _))) = (&self.wait_stalls, self.pending.front()) {
            if !ticket.is_finished() {
                stalls.inc();
            }
        }
        let r = self.take_front(f);
        self.settle(r)
    }

    /// [`pop`](Self::pop) only if the oldest job has already finished:
    /// never waits. Lets a consumer blocked on a slow input source hand
    /// completed work on, releasing its slots to other consumers.
    pub(crate) fn pop_ready<R>(
        &mut self,
        f: impl FnOnce(&[u8], T) -> Result<R>,
    ) -> Result<Option<R>> {
        self.check()?;
        if !self.pending.front().is_some_and(|(t, _)| t.is_finished()) {
            return Ok(None);
        }
        self.pop(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CodecInfo;
    use crate::data::Domain;
    use crate::testing::{info, Store};
    use std::sync::atomic::AtomicUsize;

    /// Sleeps per call and counts executions — for shutdown/drain tests.
    struct Slow(Arc<AtomicUsize>);

    impl Compressor for Slow {
        fn info(&self) -> CodecInfo {
            info("slow")
        }
        fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
            std::thread::sleep(std::time::Duration::from_millis(5));
            self.0.fetch_add(1, Ordering::SeqCst);
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

    struct Panicker;

    impl Compressor for Panicker {
        fn info(&self) -> CodecInfo {
            info("panicker")
        }
        fn compress_into(&self, _data: &FloatData, _out: &mut Vec<u8>) -> Result<usize> {
            panic!("deliberate test panic");
        }
        fn decompress_into(&self, _p: &[u8], _d: &DataDesc, _o: &mut FloatData) -> Result<()> {
            panic!("deliberate test panic");
        }
    }

    fn sample(n: usize) -> FloatData {
        let vals: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
        FloatData::from_f64(&vals, vec![n], Domain::TimeSeries).unwrap()
    }

    fn arc(c: impl Compressor + 'static) -> Arc<dyn Compressor> {
        Arc::new(c)
    }

    #[test]
    fn round_trips_through_the_pool() {
        let pool = WorkerPool::new(PoolConfig::with_threads(4));
        let codec = arc(Store);
        let data = sample(257);
        for _ in 0..3 {
            let t = pool
                .submit_compress(&codec, data.desc(), data.bytes())
                .unwrap();
            let payload = t.collect(|b| b.to_vec()).unwrap();
            assert_eq!(payload, data.bytes());
            let t = pool
                .submit_decompress(&codec, data.desc(), &payload)
                .unwrap();
            let back = t.collect(|b| b.to_vec()).unwrap();
            assert_eq!(back, data.bytes());
        }
        assert_eq!(pool.threads_spawned(), 4);
        assert_eq!(pool.jobs_completed(), 6);
    }

    #[test]
    fn run_helpers_reuse_buffers() {
        let pool = WorkerPool::new(PoolConfig::with_threads(2));
        let codec = arc(Store);
        let mut payload = Vec::new();
        let mut out = FloatData::scratch();
        for n in [10usize, 300, 17] {
            let data = sample(n);
            let len = pool.run_compress(&codec, &data, &mut payload).unwrap();
            assert_eq!(len, data.bytes().len());
            pool.run_decompress(&codec, &payload[..len], data.desc(), &mut out)
                .unwrap();
            assert_eq!(out.bytes(), data.bytes());
        }
    }

    #[test]
    fn many_in_flight_jobs_respect_backpressure_and_order() {
        let pool = WorkerPool::new(PoolConfig::with_threads(3).queue_depth(4));
        let codec = arc(Store);
        let data = sample(64);
        // Submit far more jobs than slots, collecting in submission order.
        let mut pending = VecDeque::new();
        let mut seen = 0usize;
        for i in 0..40usize {
            if pending.len() == pool.queue_depth() {
                let t: Ticket = pending.pop_front().unwrap();
                t.collect(|b| assert_eq!(b, data.bytes())).unwrap();
                seen += 1;
            }
            let t = pool
                .submit_compress(&codec, data.desc(), data.bytes())
                .unwrap();
            pending.push_back(t);
            let _ = i;
        }
        while let Some(t) = pending.pop_front() {
            t.collect(|b| assert_eq!(b, data.bytes())).unwrap();
            seen += 1;
        }
        assert_eq!(seen, 40);
    }

    #[test]
    fn worker_panic_is_a_typed_error_and_pool_survives() {
        let pool = WorkerPool::new(PoolConfig::with_threads(2));
        let bad = arc(Panicker);
        let good = arc(Store);
        let data = sample(32);

        let t = pool
            .submit_compress(&bad, data.desc(), data.bytes())
            .unwrap();
        let err = t.collect(|_| ()).unwrap_err();
        assert!(matches!(err, Error::WorkerPanic(_)), "got {err:?}");
        assert!(err.to_string().contains("deliberate test panic"));

        // The worker that caught the panic keeps serving jobs.
        for _ in 0..8 {
            let t = pool
                .submit_compress(&good, data.desc(), data.bytes())
                .unwrap();
            t.collect(|b| assert_eq!(b, data.bytes())).unwrap();
        }
    }

    #[test]
    fn shutdown_finishes_queued_jobs_and_rejects_new_ones() {
        let executed = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(PoolConfig::with_threads(1).queue_depth(8));
        let codec = arc(Slow(Arc::clone(&executed)));
        let data = sample(16);

        let tickets: Vec<Ticket> = (0..6)
            .map(|_| {
                pool.submit_compress(&codec, data.desc(), data.bytes())
                    .unwrap()
            })
            .collect();
        pool.shutdown();

        // New submits fail with a typed error...
        assert!(matches!(
            pool.submit_compress(&codec, data.desc(), data.bytes()),
            Err(Error::Unsupported(_))
        ));
        // ...but every queued job still runs to completion and collects.
        for t in tickets {
            t.collect(|b| assert_eq!(b, data.bytes())).unwrap();
        }
        assert_eq!(executed.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn dropping_the_pool_drains_the_queue_gracefully() {
        let executed = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(PoolConfig::with_threads(2).queue_depth(8));
            let codec = arc(Slow(Arc::clone(&executed)));
            let data = sample(16);
            // Abandon all tickets; Drop must still run every queued job.
            for _ in 0..8 {
                drop(
                    pool.submit_compress(&codec, data.desc(), data.bytes())
                        .unwrap(),
                );
            }
        }
        assert_eq!(executed.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn panicking_collect_closures_do_not_leak_slots() {
        let pool = WorkerPool::new(PoolConfig::with_threads(1).queue_depth(2));
        let codec = arc(Store);
        let data = sample(16);
        // Panic inside the collect closure more times than there are slots:
        // if any panic leaked its slot, the later submits would block
        // forever instead of completing.
        for _ in 0..4 {
            let t = pool
                .submit_compress(&codec, data.desc(), data.bytes())
                .unwrap();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                t.collect(|_| panic!("collector bug"))
            }));
            assert!(r.is_err());
        }
        // Every slot is still usable.
        let tickets: Vec<Ticket> = (0..pool.queue_depth())
            .map(|_| {
                pool.submit_compress(&codec, data.desc(), data.bytes())
                    .unwrap()
            })
            .collect();
        for t in tickets {
            t.collect(|b| assert_eq!(b, data.bytes())).unwrap();
        }
    }

    #[test]
    fn failing_fills_give_their_slots_back() {
        let pool = WorkerPool::new(PoolConfig::with_threads(1).queue_depth(2));
        let codec = arc(Store);
        let data = sample(16);
        // Fail and panic inside the fill of an acquired slot more times
        // than there are slots: a leaked one would block a later acquire.
        for k in 0..4 {
            let idx = pool.acquire_slot().unwrap();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.dispatch_decompress(idx, &codec, data.desc(), |buf| {
                    buf.push(7);
                    if k % 2 == 0 {
                        panic!("fill bug");
                    }
                    Err(Error::Corrupt("short record".into()))
                })
            }));
            match r {
                Err(_) => assert_eq!(k % 2, 0, "only the even fills panic"),
                Ok(r) => assert!(matches!(r, Err(Error::Corrupt(_)))),
            }
        }
        let snap = pool.telemetry().snapshot();
        assert_eq!(snap.gauge("pool.slots.occupied"), Some(0));
        let tickets: Vec<Ticket> = (0..pool.queue_depth())
            .map(|_| {
                pool.submit_decompress(&codec, data.desc(), data.bytes())
                    .unwrap()
            })
            .collect();
        for t in tickets {
            t.collect(|b| assert_eq!(b, data.bytes())).unwrap();
        }
    }

    #[test]
    fn draining_submits_make_progress_on_a_saturated_pool() {
        // Twelve pushes through a 2-slot pool: every saturated push must
        // collect the window's own oldest job, in submission order.
        let pool = WorkerPool::new(PoolConfig::with_threads(2).queue_depth(2));
        let codec = arc(Store);
        let mut w = Window::new(InflightGauge::detached(), None);
        let mut collected = Vec::new();
        for i in 0..12usize {
            let data = sample(8 + i);
            w.push_compress(&pool, &codec, data.desc(), data.bytes(), i, |b, tag| {
                assert_eq!(b.len(), (8 + tag) * 8);
                collected.push(tag);
                Ok(())
            })
            .unwrap();
        }
        while let Some(tag) = w.pop(|_, tag| Ok(tag)).unwrap() {
            collected.push(tag);
        }
        assert_eq!(collected, (0..12).collect::<Vec<_>>());
        let stalls = pool.telemetry().snapshot().counter("pool.drain.stalls");
        assert_eq!(stalls, Some(10), "every push past the second drained one");
    }

    #[test]
    fn abandoned_tickets_recycle_their_slots() {
        let pool = WorkerPool::new(PoolConfig::with_threads(2).queue_depth(2));
        let codec = arc(Store);
        let data = sample(8);
        // 3x the slot count: if abandonment leaked slots this would hang.
        for _ in 0..6 {
            drop(
                pool.submit_compress(&codec, data.desc(), data.bytes())
                    .unwrap(),
            );
        }
        pool.drain();
        let t = pool
            .submit_compress(&codec, data.desc(), data.bytes())
            .unwrap();
        t.collect(|b| assert_eq!(b, data.bytes())).unwrap();
    }

    #[test]
    fn drain_waits_for_all_submitted_work() {
        let executed = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(PoolConfig::with_threads(2).queue_depth(4));
        let codec = arc(Slow(Arc::clone(&executed)));
        let data = sample(16);
        let tickets: Vec<Ticket> = (0..4)
            .map(|_| {
                pool.submit_compress(&codec, data.desc(), data.bytes())
                    .unwrap()
            })
            .collect();
        pool.drain();
        assert_eq!(executed.load(Ordering::SeqCst), 4);
        for t in tickets {
            t.collect(|_| ()).unwrap();
        }
    }

    #[test]
    fn hostile_decompress_descriptor_is_rejected_in_the_worker() {
        let pool = WorkerPool::new(PoolConfig::with_threads(1));
        let codec = arc(Store);
        // 2^50 doubles claimed from an 8-byte payload.
        let huge =
            DataDesc::new(crate::data::Precision::Double, vec![1 << 50], Domain::Hpc).unwrap();
        let t = pool.submit_decompress(&codec, &huge, &[0u8; 8]).unwrap();
        assert!(matches!(t.collect(|_| ()), Err(Error::Corrupt(_))));
    }

    #[test]
    fn compress_length_mismatch_is_a_typed_error() {
        let pool = WorkerPool::new(PoolConfig::default());
        let codec = arc(Store);
        let desc = DataDesc::new(crate::data::Precision::Double, vec![4], Domain::Hpc).unwrap();
        assert!(matches!(
            pool.submit_compress(&codec, &desc, &[0u8; 7]),
            Err(Error::BadDescriptor(_))
        ));
    }

    #[test]
    fn for_host_sizes_from_the_machine() {
        let c = PoolConfig::for_host();
        assert!(c.threads >= 1);
        assert!((8..=256).contains(&c.queue_depth));
        assert!(c.queue_depth >= c.threads.min(256));
        // It must build a working pool.
        let pool = WorkerPool::new(c);
        let codec = arc(Store);
        let data = sample(16);
        let t = pool
            .submit_compress(&codec, data.desc(), data.bytes())
            .unwrap();
        t.collect(|b| assert_eq!(b, data.bytes())).unwrap();
    }

    #[test]
    fn telemetry_counts_jobs_and_settles_occupancy() {
        let pool = WorkerPool::new(PoolConfig::with_threads(2));
        let codec = arc(Store);
        let data = sample(64);
        for _ in 0..5 {
            let t = pool
                .submit_compress(&codec, data.desc(), data.bytes())
                .unwrap();
            t.collect(|_| ()).unwrap();
        }
        let snap = pool.telemetry().snapshot();
        assert_eq!(snap.histogram("pool.exec").map(|h| h.count()), Some(5));
        assert_eq!(
            snap.histogram("pool.queue_wait").map(|h| h.count()),
            Some(5)
        );
        assert_eq!(
            snap.histogram("pool.exec.codec.store").map(|h| h.count()),
            Some(5)
        );
        assert_eq!(
            snap.gauge("pool.slots.occupied"),
            Some(0),
            "every slot recycled after collect"
        );
    }

    #[test]
    fn config_clamps() {
        let p = WorkerPool::new(PoolConfig {
            threads: 0,
            queue_depth: 0,
        });
        assert_eq!(p.threads(), 1);
        assert_eq!(p.queue_depth(), 1);
        let c = PoolConfig::with_threads(3).queue_depth(9);
        assert_eq!(c.threads, 3);
        assert_eq!(c.queue_depth, 9);
    }
}
