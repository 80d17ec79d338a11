//! Pool-warmup smoke: the recorded number behind the execution-engine
//! refactor. For every registered codec, compare the **cold** first
//! pipeline call on a fresh `WorkerPool` (pays thread spawn, slot-buffer
//! growth, codec thread-local construction) against the **warm**
//! steady-state call on the same pool — the delta is exactly what the
//! per-call scoped threads used to re-pay on every single call.
//!
//! Runs without the Criterion harness (`harness = false`): it prints one
//! table and exits, sized for a CI smoke budget. `FCBENCH_QUICK_BENCH=1`
//! shrinks the input.

use fcbench_bench::codecs::paper_registry;
use fcbench_core::pool::{PoolConfig, WorkerPool};
use fcbench_core::{FloatData, Pipeline};
use fcbench_datasets::{find, generate};
use std::sync::Arc;
use std::time::Instant;

fn quick() -> bool {
    std::env::var_os("FCBENCH_QUICK_BENCH").is_some_and(|v| v != "0")
}

fn main() {
    let elems = if quick() { 1 << 12 } else { 1 << 16 };
    let warm_iters = if quick() { 3 } else { 10 };
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    let spec = find("msg-bt").expect("catalog dataset");
    let data = generate(&spec, elems);

    println!(
        "pool warm-up delta ({} elements, {} workers, warm = best of {}):",
        elems, threads, warm_iters
    );
    println!(
        "{:<16} {:>12} {:>12} {:>8}",
        "codec", "cold ms", "warm ms", "delta"
    );
    let registry = paper_registry();
    let mut frame = Vec::new();
    let mut out = FloatData::scratch();
    for entry in registry.iter() {
        // A fresh pool per codec, CPU or GPU-simulated: the first call is
        // genuinely cold.
        let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(threads)));
        let pipeline = Pipeline::with_pool(Arc::clone(entry.codec()), pool).block_elems(16 * 1024);

        let t0 = Instant::now();
        if pipeline.compress_into(&data, &mut frame).is_err() {
            println!("{:<16} {:>12} {:>12} {:>8}", entry.name(), "-", "-", "-");
            continue; // the paper's "-" cells
        }
        let cold = t0.elapsed().as_secs_f64();

        let mut warm = f64::INFINITY;
        for _ in 0..warm_iters {
            let t = Instant::now();
            pipeline
                .compress_into(&data, &mut frame)
                .expect("warm compress");
            warm = warm.min(t.elapsed().as_secs_f64());
        }
        pipeline
            .decompress_into(&frame, &mut out)
            .expect("decompress");
        assert_eq!(out.bytes(), data.bytes(), "{}: lossless", entry.name());

        println!(
            "{:<16} {:>12.3} {:>12.3} {:>7.2}x",
            entry.name(),
            cold * 1e3,
            warm * 1e3,
            cold / warm.max(f64::MIN_POSITIVE)
        );
    }
    println!(
        "\n(cold/warm > 1 is the spawn+allocation tax the persistent pool pays\n\
         once instead of per call; the zero-alloc steady state is asserted by\n\
         crates/bench/tests/alloc_into.rs)"
    );
}
