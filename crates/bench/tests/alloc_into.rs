//! Hard regression guarantee behind the zero-copy API: once buffers reach
//! steady state, the `compress_into`/`decompress_into` loops of gorilla and
//! chimp perform **zero** heap allocations. The counting allocator is
//! installed as this test binary's global allocator, so any hidden
//! allocation in the hot path fails the assertion.
//!
//! Runs without the libtest harness (`harness = false` in Cargo.toml): the
//! allocation counter is process-global, and libtest's own threads would
//! allocate inside the measured windows and fail the assertions spuriously.

use fcbench_bench::alloc_track::{self, CountingAllocator};
use fcbench_bench::codecs::{full_registry, paper_registry};
use fcbench_core::pool::{PoolConfig, WorkerPool};
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, Domain, FloatData, Platform, Precision,
    PrecisionSupport, Result,
};
use fcbench_dbsim::ContainerWriter;
use fcbench_telemetry::{Registry, Snapshot};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    gorilla_and_chimp_steady_state_loops_do_not_allocate();
    println!("test gorilla_and_chimp_steady_state_loops_do_not_allocate ... ok");
    compress_into_reserves_once_even_on_a_fresh_buffer();
    println!("test compress_into_reserves_once_even_on_a_fresh_buffer ... ok");
    runner_reuses_buffers_across_repetitions();
    println!("test runner_reuses_buffers_across_repetitions ... ok");
    warm_pool_submits_do_not_allocate_or_spawn();
    println!("test warm_pool_submits_do_not_allocate_or_spawn ... ok");
    predictor_family_reserves_once_and_pools_cleanly();
    println!("test predictor_family_reserves_once_and_pools_cleanly ... ok");
    streaming_container_writes_do_not_allocate_per_record();
    println!("test streaming_container_writes_do_not_allocate_per_record ... ok");
    streaming_container_writer_memory_stays_bounded();
    println!("test streaming_container_writer_memory_stays_bounded ... ok");
    telemetry_records_and_warm_snapshots_do_not_allocate();
    println!("test telemetry_records_and_warm_snapshots_do_not_allocate ... ok");
    bitshuffle_block_claims_are_bounded_by_the_descriptor();
    println!("test bitshuffle_block_claims_are_bounded_by_the_descriptor ... ok");
    bitshuffle_round_trips_do_not_allocate_per_block();
    println!("test bitshuffle_round_trips_do_not_allocate_per_block ... ok");
    huffman_symbol_claims_are_bounded_by_the_stream();
    println!("test huffman_symbol_claims_are_bounded_by_the_stream ... ok");
    compress_into_allocates_less_than_compress_on_every_paper_row();
    println!("test compress_into_allocates_less_than_compress_on_every_paper_row ... ok");
}

/// A Huffman stream's symbol count is a wire `u32`, and it sizes the decode
/// buffer. It is held to what the bitstream can carry (every code is at
/// least one bit), so a 4 Gi-symbol claim behind a few bytes of bitstream
/// is a typed error that allocates next to nothing.
fn huffman_symbol_claims_are_bounded_by_the_stream() {
    use fcbench_entropy::huffman;
    alloc_track::mark_installed();
    let mut stream = huffman::encode(b"abracadabra");
    stream[128..132].copy_from_slice(&u32::MAX.to_le_bytes());
    let (peak, result) = alloc_track::measure_peak(|| huffman::decode(&stream));
    assert!(result.is_err(), "a 4 Gi-symbol claim must be rejected");
    assert!(
        peak < 64 << 10,
        "a hostile symbol count peaked at {peak} bytes"
    );
}

/// `bitshuffle-lz4` codes each block through per-thread scratch and decodes
/// each straight into its slice of the output: a warm inline round trip of
/// four blocks allocates no more than one of a single block does.
fn bitshuffle_round_trips_do_not_allocate_per_block() {
    alloc_track::mark_installed();
    let registry = paper_registry();
    let codec = registry.get("bitshuffle-lz4").expect("registered codec");
    // 64 KiB blocks of doubles; four stay under the inline threshold.
    let round_trip = |data: &FloatData| {
        let (mut payload, mut out) = (Vec::new(), FloatData::scratch());
        let mut once = || {
            let n = codec.compress_into(data, &mut payload).expect("compress");
            codec
                .decompress_into(&payload[..n], data.desc(), &mut out)
                .expect("decompress");
        };
        once();
        let (allocs, _) = alloc_track::count_allocations(&mut once);
        assert_eq!(out.bytes(), data.bytes(), "round trip");
        allocs
    };
    let one = round_trip(&telemetry(8192));
    let four = round_trip(&telemetry(4 * 8192));
    assert!(
        four <= one,
        "bitshuffle-lz4 allocates per block: {one} allocs for 1 block vs {four} for 4"
    );
}

/// A bitshuffle block carries its own raw length, and that length sizes the
/// block's decode buffer. It is held to the bytes the descriptor still has
/// left, so a 4 GiB claim in a few-byte block is a typed error that
/// allocates next to nothing — not one 4 GiB reservation per block.
fn bitshuffle_block_claims_are_bounded_by_the_descriptor() {
    alloc_track::mark_installed();
    let registry = paper_registry();
    let data = telemetry(20_000); // 160 KB: three 64 KiB blocks
    for name in ["bitshuffle-lz4", "bitshuffle-zstd"] {
        let codec = registry.get(name).expect("registered codec");
        let mut payload = Vec::new();
        codec.compress_into(&data, &mut payload).expect("compress");
        assert_eq!(payload[..4], 3u32.to_le_bytes(), "{name}: block count");
        // `u32 nblocks | 3 x u32 size`, then the first block's raw length.
        payload[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut out = FloatData::scratch();
        let (peak, result) =
            alloc_track::measure_peak(|| codec.decompress_into(&payload, data.desc(), &mut out));
        assert!(
            result.is_err(),
            "{name}: a 4 GiB block claim must be rejected"
        );
        assert!(
            peak < 2 * data.desc().byte_len(),
            "{name}: a hostile block claim peaked at {peak} bytes"
        );
    }
}

/// The telemetry spine's overhead contract: recording through a
/// pre-resolved handle (counter bump, gauge set, scoped gauge guard,
/// histogram record/span) is a handful of relaxed atomics — **zero**
/// allocations — and a warm [`Registry::snapshot_into`] refreshes every
/// row in place without touching the allocator either. The warm-pool test
/// above doubles as the end-to-end proof: pool submits stay at zero
/// allocations *with* queue-wait/exec histograms recording on every job.
fn telemetry_records_and_warm_snapshots_do_not_allocate() {
    alloc_track::mark_installed();
    let registry = Registry::new();
    let counter = registry.counter("alloc.test.counter");
    let gauge = registry.gauge("alloc.test.gauge");
    let hist = registry.histogram("alloc.test.latency");

    let (allocs, _) = alloc_track::count_allocations(|| {
        for i in 0..1000u64 {
            counter.inc();
            gauge.set(i);
            let _held = gauge.inc_scoped();
            hist.record(i * 37 + 1);
            let _span = hist.start_span();
        }
    });
    assert_eq!(allocs, 0, "telemetry record hot path must not allocate");

    // First snapshot sizes the rows and bucket boxes; after that the
    // refresh is in-place.
    let mut snap = Snapshot::default();
    registry.snapshot_into(&mut snap);
    let (allocs, _) = alloc_track::count_allocations(|| {
        for _ in 0..10 {
            registry.snapshot_into(&mut snap);
        }
    });
    assert_eq!(allocs, 0, "warm snapshot_into must not allocate");
    assert_eq!(snap.counter("alloc.test.counter"), Some(1000));
    let latency = snap.histogram("alloc.test.latency").expect("histogram row");
    // 1000 explicit records + 1000 span drops.
    assert_eq!(latency.count(), 2000);
}

fn telemetry(n: usize) -> FloatData {
    let vals: Vec<f64> = (0..n)
        .map(|i| 20.0 + 5.0 * (i as f64 * 0.01).sin() + (i % 7) as f64 * 0.125)
        .collect();
    FloatData::from_f64(&vals, vec![n], Domain::TimeSeries).unwrap()
}

fn gorilla_and_chimp_steady_state_loops_do_not_allocate() {
    alloc_track::mark_installed();
    let registry = paper_registry();
    let data = telemetry(4096);

    for name in ["gorilla", "chimp128"] {
        let codec = registry.get(name).expect("registered codec");
        let mut payload = Vec::new();
        let mut out = FloatData::scratch();

        // Warm-up: buffers grow to steady-state capacity, chimp's
        // thread-local window scratch is sized, and `out` takes the shape
        // of the data so later refills skip the descriptor clone.
        for _ in 0..2 {
            let n = codec.compress_into(&data, &mut payload).expect("compress");
            codec
                .decompress_into(&payload[..n], data.desc(), &mut out)
                .expect("decompress");
        }
        assert_eq!(out.bytes(), data.bytes(), "{name}: warm-up round trip");

        // Steady state: the whole loop must not touch the allocator.
        let (compress_allocs, _) = alloc_track::count_allocations(|| {
            for _ in 0..10 {
                std::hint::black_box(codec.compress_into(&data, &mut payload).expect("compress"));
            }
        });
        assert_eq!(
            compress_allocs, 0,
            "{name}: steady-state compress_into loop must not allocate"
        );

        let n = payload.len();
        let (decompress_allocs, _) = alloc_track::count_allocations(|| {
            for _ in 0..10 {
                codec
                    .decompress_into(&payload[..n], data.desc(), &mut out)
                    .expect("decompress");
            }
        });
        assert_eq!(
            decompress_allocs, 0,
            "{name}: steady-state decompress_into loop must not allocate"
        );
        assert_eq!(out.bytes(), data.bytes(), "{name}: still bit-exact");
    }
}

/// The bit-engine reserve guarantee: gorilla and chimp size their output
/// from a `DataDesc`-derived worst-case bit estimate before the first
/// word spills, so even a **fresh** (zero-capacity) buffer sees exactly
/// one allocation — the up-front reserve — and the accumulator's word
/// spills never regrow the vector mid-stream.
fn compress_into_reserves_once_even_on_a_fresh_buffer() {
    alloc_track::mark_installed();
    let registry = paper_registry();
    let data = telemetry(4096);

    for name in ["gorilla", "chimp128"] {
        let codec = registry.get(name).expect("registered codec");
        // Warm per-thread state (chimp's window scratch) with a throwaway
        // buffer so only the fresh output vector allocates below.
        let mut warm = Vec::new();
        codec.compress_into(&data, &mut warm).expect("compress");

        let mut payload = Vec::new();
        let (allocs, _) = alloc_track::count_allocations(|| {
            std::hint::black_box(codec.compress_into(&data, &mut payload).expect("compress"));
        });
        assert_eq!(
            allocs, 1,
            "{name}: a fresh-buffer compress_into must allocate exactly once \
             (the worst-case reserve), word spills must never regrow"
        );
        let cap = payload.capacity();
        codec.compress_into(&data, &mut payload).expect("compress");
        assert_eq!(
            cap,
            payload.capacity(),
            "{name}: steady-state calls must never resize the reserved buffer"
        );
    }
}

/// The execution-engine guarantee behind the worker-pool refactor: once a
/// pool is warm (slot buffers sized, worker thread-locals such as chimp's
/// window scratch built), a steady-state `submit`/`collect` round performs
/// **zero** heap allocations and **zero** thread spawns for gorilla and
/// chimp — the pool executes codec work, nothing else.
fn warm_pool_submits_do_not_allocate_or_spawn() {
    alloc_track::mark_installed();
    let registry = paper_registry();
    let data = telemetry(4096);

    // One worker: deterministic — every job (and chimp's thread-local
    // window state) lands on the same warm worker.
    let pool = WorkerPool::new(PoolConfig::with_threads(1).queue_depth(2));
    for name in ["gorilla", "chimp128"] {
        let codec = registry.get(name).expect("registered codec");
        let mut payload = Vec::new();
        let mut out = FloatData::scratch();

        // Warm-up rounds: slot buffers, worker thread-locals, output shape.
        for _ in 0..3 {
            let n = pool
                .run_compress(&codec, &data, &mut payload)
                .expect("compress");
            pool.run_decompress(&codec, &payload[..n], data.desc(), &mut out)
                .expect("decompress");
        }
        assert_eq!(out.bytes(), data.bytes(), "{name}: warm-up round trip");
        let spawned_before = pool.threads_spawned();

        let (compress_allocs, _) = alloc_track::count_allocations(|| {
            for _ in 0..10 {
                std::hint::black_box(
                    pool.run_compress(&codec, &data, &mut payload)
                        .expect("compress"),
                );
            }
        });
        assert_eq!(
            compress_allocs, 0,
            "{name}: steady-state pool compress submits must not allocate"
        );

        let n = payload.len();
        let (decompress_allocs, _) = alloc_track::count_allocations(|| {
            for _ in 0..10 {
                pool.run_decompress(&codec, &payload[..n], data.desc(), &mut out)
                    .expect("decompress");
            }
        });
        assert_eq!(
            decompress_allocs, 0,
            "{name}: steady-state pool decompress submits must not allocate"
        );
        assert_eq!(out.bytes(), data.bytes(), "{name}: still bit-exact");
        assert_eq!(
            pool.threads_spawned(),
            spawned_before,
            "{name}: submits must never spawn threads"
        );
    }

    // Worker-local state aside (gorilla keeps none), the guarantee holds on
    // a multi-worker pool too: slots are recycled LIFO, so a single
    // in-flight job reuses one warm slot whichever worker serves it.
    let pool = WorkerPool::new(PoolConfig::with_threads(2));
    // Sequential warm-up jobs can all be served by one worker, leaving the
    // other's thread start-up and first job to land inside the counted
    // window. Two jobs that finish only once both are executing prove both
    // workers have run before anything is counted.
    let rendezvous: std::sync::Arc<dyn Compressor> =
        std::sync::Arc::new(Rendezvous(std::sync::Barrier::new(2)));
    let both: Vec<_> = (0..2)
        .map(|_| {
            pool.submit_compress(&rendezvous, data.desc(), data.bytes())
                .expect("submit")
        })
        .collect();
    for ticket in both {
        ticket.collect(|_| ()).expect("rendezvous job");
    }
    let gorilla = registry.get("gorilla").expect("registered codec");
    let mut payload = Vec::new();
    for _ in 0..4 {
        pool.run_compress(&gorilla, &data, &mut payload)
            .expect("compress");
    }
    let (allocs, _) = alloc_track::count_allocations(|| {
        for _ in 0..10 {
            std::hint::black_box(
                pool.run_compress(&gorilla, &data, &mut payload)
                    .expect("compress"),
            );
        }
    });
    assert_eq!(
        allocs, 0,
        "gorilla: two-worker warm pool submits must not allocate"
    );
    assert_eq!(pool.threads_spawned(), 2);
}

/// A store codec whose `compress_into` returns only once two calls are
/// executing at the same time — on a two-worker pool, one on each worker.
struct Rendezvous(std::sync::Barrier);

impl Compressor for Rendezvous {
    fn info(&self) -> CodecInfo {
        CodecInfo {
            name: "rendezvous",
            year: 2024,
            community: Community::General,
            class: CodecClass::Delta,
            platform: Platform::Cpu,
            parallel: false,
            precisions: PrecisionSupport::Both,
        }
    }
    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        self.0.wait();
        out.clear();
        out.extend_from_slice(data.bytes());
        Ok(out.len())
    }
    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        out.refill_from_slice(desc, payload)
    }
}

/// The predictor codec family holds the same allocation discipline as the
/// bit-engine codecs: `compress_into` makes one worst-case reservation up
/// front (header + codes + full-width residuals + tail), so a fresh buffer
/// allocates exactly once, and warm-pool submits — DFCM's thread-local
/// table scratch included — touch neither the allocator nor the spawner.
fn predictor_family_reserves_once_and_pools_cleanly() {
    alloc_track::mark_installed();
    let registry = full_registry();
    let data = telemetry(4096);
    let pool = WorkerPool::new(PoolConfig::with_threads(1).queue_depth(2));
    // The counter is process-wide and a starting worker thread allocates:
    // a finished job proves the worker is up before anything is counted.
    let first = registry.get("last-value").expect("registered codec");
    pool.run_compress(&first, &data, &mut Vec::new())
        .expect("compress");

    for name in ["last-value", "last-stride", "dfcm"] {
        let codec = registry.get(name).expect("registered codec");

        // Fresh-buffer discipline. Warm per-thread state (dfcm's table and
        // touched-slot scratch) with a throwaway buffer first, so only the
        // fresh output vector allocates below.
        let mut warm = Vec::new();
        codec.compress_into(&data, &mut warm).expect("compress");
        let mut payload = Vec::new();
        let (allocs, _) = alloc_track::count_allocations(|| {
            std::hint::black_box(codec.compress_into(&data, &mut payload).expect("compress"));
        });
        assert_eq!(
            allocs, 1,
            "{name}: a fresh-buffer compress_into must allocate exactly once \
             (the worst-case reserve)"
        );

        // Warm-pool discipline: steady-state submits are allocation- and
        // spawn-free in both directions.
        let mut out = FloatData::scratch();
        for _ in 0..3 {
            let n = pool
                .run_compress(&codec, &data, &mut payload)
                .expect("compress");
            pool.run_decompress(&codec, &payload[..n], data.desc(), &mut out)
                .expect("decompress");
        }
        assert_eq!(out.bytes(), data.bytes(), "{name}: warm-up round trip");
        let spawned_before = pool.threads_spawned();

        let (compress_allocs, _) = alloc_track::count_allocations(|| {
            for _ in 0..10 {
                std::hint::black_box(
                    pool.run_compress(&codec, &data, &mut payload)
                        .expect("compress"),
                );
            }
        });
        assert_eq!(
            compress_allocs, 0,
            "{name}: steady-state pool compress submits must not allocate"
        );

        let n = payload.len();
        let (decompress_allocs, _) = alloc_track::count_allocations(|| {
            for _ in 0..10 {
                pool.run_decompress(&codec, &payload[..n], data.desc(), &mut out)
                    .expect("decompress");
            }
        });
        assert_eq!(
            decompress_allocs, 0,
            "{name}: steady-state pool decompress submits must not allocate"
        );
        assert_eq!(out.bytes(), data.bytes(), "{name}: still bit-exact");
        assert_eq!(
            pool.threads_spawned(),
            spawned_before,
            "{name}: submits must never spawn threads"
        );
    }
}

/// The FCDB2 streaming-writer guarantee: a warm container write on a warm
/// engine costs a fixed number of allocations per **column** (writer
/// setup, metadata vectors, the commit directory), never per **record** —
/// pages compress in the pool's reused slots and record framing streams
/// straight to the sink. 4x the chunk records must not mean 4x the
/// allocations.
fn streaming_container_writes_do_not_allocate_per_record() {
    alloc_track::mark_installed();
    let registry = paper_registry();
    let pool = WorkerPool::new(PoolConfig::with_threads(2));
    const CHUNK: usize = 128;

    for name in ["gorilla", "chimp128"] {
        let codec = registry.get(name).expect("registered codec");
        let few = telemetry(64 * CHUNK);
        let many = telemetry(256 * CHUNK);

        // Warm-up: learn the sink capacity for the big container and size
        // any codec thread-locals (chimp's window scratch).
        let mut w = ContainerWriter::new(Vec::new(), &pool, &codec).expect("prologue");
        w.begin_column("t", Precision::Double, CHUNK).expect("col");
        w.write(many.bytes()).expect("write");
        let mut sink = w.finish().expect("finish");

        let mut count = |data: &FloatData| {
            sink.clear(); // keeps capacity: the sink itself stays warm
            let taken = std::mem::take(&mut sink);
            let (allocs, done) = alloc_track::count_allocations(|| {
                let mut w = ContainerWriter::new(taken, &pool, &codec).expect("prologue");
                w.begin_column("t", Precision::Double, CHUNK).expect("col");
                w.write(data.bytes()).expect("write");
                w.finish().expect("finish")
            });
            sink = done;
            allocs
        };
        let allocs_few = count(&few);
        let allocs_many = count(&many);
        assert!(
            allocs_many <= allocs_few + 24,
            "{name}: container writes must not allocate per record: \
             {allocs_few} allocs for 64 chunks vs {allocs_many} for 256"
        );
    }
}

/// The acceptance bound behind the FCDB2 refactor: streaming an 8 MiB
/// column through the pooled writer to disk peaks far below the body —
/// memory is the in-flight window (pages being compressed) plus framing
/// scratch, never the container.
fn streaming_container_writer_memory_stays_bounded() {
    alloc_track::mark_installed();
    let registry = paper_registry();
    let codec = registry.get("gorilla").expect("registered codec");
    let pool = WorkerPool::new(PoolConfig::with_threads(1).queue_depth(2));
    let data = telemetry(1 << 20); // 8 MiB of doubles
    let raw = data.bytes().len();
    let path = std::env::temp_dir().join(format!("fcbench-alloc-fcdb2-{}", std::process::id()));

    let file = std::fs::File::create(&path).expect("create");
    let (peak, written) = alloc_track::measure_peak(|| {
        let mut w = ContainerWriter::new(std::io::BufWriter::new(file), &pool, &codec)
            .expect("prologue")
            .max_in_flight(2);
        w.begin_column("t", Precision::Double, 4096).expect("col");
        // Feed the body in page-sized slices, as an ingest stream would.
        for piece in data.bytes().chunks(4096 * 8) {
            w.write(piece).expect("write");
        }
        let bytes = w.bytes_written();
        w.finish().expect("finish");
        bytes
    });
    let on_disk = std::fs::metadata(&path).expect("meta").len();
    std::fs::remove_file(&path).ok();
    assert!(written > 0 && on_disk > 0);
    assert!(
        peak < raw / 8,
        "streaming an {raw}-byte body must stay bounded by the in-flight \
         window, peaked at {peak} bytes"
    );
}

fn runner_reuses_buffers_across_repetitions() {
    alloc_track::mark_installed();
    use fcbench_bench::runner::run_cell;
    let registry = paper_registry();
    let data = telemetry(2048);
    let codec = registry.get("gorilla").expect("registered codec");

    // Warm the allocator-side caches once.
    let _ = run_cell(&codec, &data, 3);

    // A multi-repetition cell allocates only its one-time buffers (payload,
    // scratch, the timing samples), not per repetition: the delta between 2
    // and 20 repetitions stays far below 18x the per-call warm-up cost.
    let (allocs_few, _) = alloc_track::count_allocations(|| run_cell(&codec, &data, 2));
    let (allocs_many, _) = alloc_track::count_allocations(|| run_cell(&codec, &data, 20));
    assert!(
        allocs_many <= allocs_few + 4,
        "repetitions must reuse buffers: {allocs_few} allocs at 2 reps vs \
         {allocs_many} at 20"
    );
}

/// The buffer-reusing form pays off on every paper row: with warm buffers,
/// `compress_into` makes strictly fewer allocator calls per call than the
/// allocating `compress` on msg-bt (at least the output `Vec` it reuses).
fn compress_into_allocates_less_than_compress_on_every_paper_row() {
    alloc_track::mark_installed();
    let spec = fcbench_datasets::find("msg-bt").expect("catalog dataset");
    let data = fcbench_datasets::generate(&spec, 1 << 14);
    const CALLS: usize = 5;
    let registry = paper_registry();
    assert_eq!(registry.len(), 14);
    for entry in registry.iter() {
        let codec = entry.codec();
        let mut out = Vec::new();
        // Warm both paths so buffers reach steady-state capacity.
        codec.compress_into(&data, &mut out).expect("compress_into");
        codec.compress(&data).expect("compress");
        let (alloc_calls, _) = alloc_track::count_allocations(|| {
            for _ in 0..CALLS {
                std::hint::black_box(codec.compress(&data).expect("compress"));
            }
        });
        let (into_calls, _) = alloc_track::count_allocations(|| {
            for _ in 0..CALLS {
                std::hint::black_box(codec.compress_into(&data, &mut out).expect("compress_into"));
            }
        });
        assert!(
            into_calls < alloc_calls,
            "{}: compress_into makes {:.1} allocator calls per warm call, compress {:.1}",
            entry.name(),
            into_calls as f64 / CALLS as f64,
            alloc_calls as f64 / CALLS as f64
        );
    }
}
