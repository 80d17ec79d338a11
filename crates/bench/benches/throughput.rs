//! Criterion benches behind Table 5 / Figure 8: per-codec compression and
//! decompression throughput on a representative dataset from each domain,
//! plus an allocation-tracked `compress` vs `compress_into` pair so the
//! zero-copy API's allocation savings are a recorded, regression-checkable
//! number.
//!
//! Set `FCBENCH_QUICK_BENCH=1` to shrink inputs and time budgets to a
//! CI-smoke scale (single dataset, milliseconds per bench).
//!
//! The gorilla/chimp rows here are the end-to-end view of the bitstream
//! engine (`fcbench_entropy::bits`): their inner loops are almost pure
//! bit I/O, so movement on these rows tracks the `bitstream` microbench.
//! The perf ledger is the ladder in `benchmark/` (its `codec_matrix`
//! workload runs the same codecs at 1 Mi elements); this bench is the quick
//! per-codec view.
//!
//! The counting allocator is installed binary-wide (it is a `#[global_allocator]`,
//! there is no narrower scope), adding a few relaxed atomic ops per allocation
//! to the throughput groups too. That matches the `fcbench` binary, which runs
//! with the same allocator for Figure 10, and is noise at the multi-ms
//! per-iteration scale measured here; the codecs the alloc pair certifies as
//! zero-allocation pay nothing inside the timed loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fcbench_bench::alloc_track::{self, CountingAllocator};
use fcbench_bench::codecs::paper_registry;
use fcbench_core::FloatData;
use fcbench_datasets::{find, generate};
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn quick() -> bool {
    std::env::var_os("FCBENCH_QUICK_BENCH").is_some_and(|v| v != "0")
}

fn elems() -> usize {
    if quick() {
        1 << 10
    } else {
        1 << 14
    }
}

fn budget_ms() -> (u64, u64) {
    if quick() {
        (20, 60)
    } else {
        (300, 900)
    }
}

fn datasets() -> &'static [&'static str] {
    if quick() {
        &["msg-bt"]
    } else {
        &["msg-bt", "citytemp", "acs-wht", "tpcDS-store"]
    }
}

fn bench_compress(c: &mut Criterion) {
    let registry = paper_registry();
    let (warm, meas) = budget_ms();
    let mut group = c.benchmark_group("compress");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(warm))
        .measurement_time(Duration::from_millis(meas));
    let mut payload = Vec::new();
    for ds in datasets() {
        let spec = find(ds).expect("catalog dataset");
        let data = generate(&spec, elems());
        group.throughput(Throughput::Bytes(data.bytes().len() as u64));
        for entry in registry.iter() {
            let codec = entry.codec();
            if codec.compress_into(&data, &mut payload).is_err() {
                continue; // paper's "-" cells
            }
            group.bench_with_input(BenchmarkId::new(entry.name(), ds), &data, |b, data| {
                b.iter(|| codec.compress_into(data, &mut payload).expect("compress"))
            });
        }
    }
    group.finish();
}

fn bench_decompress(c: &mut Criterion) {
    let registry = paper_registry();
    let (warm, meas) = budget_ms();
    let mut group = c.benchmark_group("decompress");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(warm))
        .measurement_time(Duration::from_millis(meas));
    let spec = find("msg-bt").expect("catalog dataset");
    let data = generate(&spec, elems());
    group.throughput(Throughput::Bytes(data.bytes().len() as u64));
    let mut out = FloatData::scratch();
    for entry in registry.iter() {
        let codec = entry.codec();
        let Ok(payload) = codec.compress(&data) else {
            continue;
        };
        group.bench_function(BenchmarkId::new(entry.name(), "msg-bt"), |b| {
            b.iter(|| {
                codec
                    .decompress_into(&payload, data.desc(), &mut out)
                    .expect("decompress")
            })
        });
    }
    group.finish();
}

/// The recorded allocation numbers: steady-state allocator calls per
/// iteration for the allocating `compress` vs the buffer-reusing
/// `compress_into`, per codec. `compress_into` for gorilla/chimp must be
/// zero — `crates/bench/tests/alloc_into.rs` turns that into a hard
/// regression test.
fn bench_alloc_pair(_c: &mut Criterion) {
    alloc_track::mark_installed();
    let registry = paper_registry();
    let spec = find("msg-bt").expect("catalog dataset");
    let data = generate(&spec, elems());
    let iters = if quick() { 5 } else { 20 };

    println!("\nallocator calls per iteration (steady state, msg-bt):");
    println!("{:<16} {:>10} {:>14}", "codec", "compress", "compress_into");
    for entry in registry.iter() {
        let codec = entry.codec();
        let mut out = Vec::new();
        // Warm up both paths so buffers reach steady-state capacity.
        if codec.compress_into(&data, &mut out).is_err() {
            continue;
        }
        let _ = codec.compress(&data);

        let (alloc_calls, _) = alloc_track::count_allocations(|| {
            for _ in 0..iters {
                std::hint::black_box(codec.compress(&data).expect("compress"));
            }
        });
        let (into_calls, _) = alloc_track::count_allocations(|| {
            for _ in 0..iters {
                std::hint::black_box(codec.compress_into(&data, &mut out).expect("compress"));
            }
        });
        println!(
            "{:<16} {:>10.1} {:>14.1}",
            entry.name(),
            alloc_calls as f64 / iters as f64,
            into_calls as f64 / iters as f64
        );
    }
}

criterion_group!(benches, bench_compress, bench_decompress, bench_alloc_pair);
criterion_main!(benches);
