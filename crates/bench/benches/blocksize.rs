//! Criterion bench behind Table 10: block/page size effect (4 KB vs 64 KB
//! vs 8 MB) on compression throughput for block-capable codecs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fcbench_core::blocks::{BLOCK_4K, BLOCK_64K, BLOCK_8M};
use fcbench_core::{Compressor, Pipeline};
use fcbench_datasets::{find, generate};
use std::sync::Arc;
use std::time::Duration;

fn bench_block_sizes(c: &mut Criterion) {
    let spec = find("tpcH-order").expect("catalog dataset");
    let data = generate(&spec, 1 << 15);
    let mut group = c.benchmark_group("block_size");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900));
    group.throughput(Throughput::Bytes(data.bytes().len() as u64));

    let esize = data.desc().precision.bytes();
    let codecs: [(&str, Arc<dyn Compressor>); 3] = [
        ("gorilla", Arc::new(fcbench_codecs_cpu::Gorilla::new())),
        ("chimp128", Arc::new(fcbench_codecs_cpu::Chimp::new())),
        ("spdp", Arc::new(fcbench_codecs_cpu::Spdp::new())),
    ];
    for (label, bytes) in [("4K", BLOCK_4K), ("64K", BLOCK_64K), ("8M", BLOCK_8M)] {
        for (name, codec) in &codecs {
            let blocked = Pipeline::with_codec(Arc::clone(codec)).block_elems(bytes / esize);
            group.bench_with_input(BenchmarkId::new(*name, label), &data, |b, data| {
                b.iter(|| blocked.compress(data).expect("compress"))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_block_sizes);
criterion_main!(benches);
