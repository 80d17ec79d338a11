//! Compression as a service: start an `FCS1` server on loopback with one
//! host-sized worker-pool engine, then drive it like a fleet of database
//! nodes would — concurrent clients compressing sensor pages, reading them
//! back byte-exact, querying the codec catalogue, and finally pulling the
//! server's live STATS and full STATS_V2 telemetry (latency quantiles per
//! layer, plus the greppable text exposition) before a graceful shutdown.
//!
//! ```sh
//! cargo run --release --example compression_service
//! ```

use fcbench::core::pool::{PoolConfig, WorkerPool};
use fcbench::core::{Domain, FloatData};
use fcbench::serve::{Client, ServeConfig, Server};
use fcbench_bench::codecs::paper_registry;
use std::sync::Arc;

fn sensor_page(n: usize, phase: f64) -> FloatData {
    let vals: Vec<f64> = (0..n)
        .map(|i| ((21.5 + 4.0 * (i as f64 * 0.002 + phase).sin()) * 100.0).round() / 100.0)
        .collect();
    FloatData::from_f64(&vals, vec![n], Domain::TimeSeries).expect("consistent dims")
}

fn main() {
    // One warm engine for the whole process, sized from the machine.
    let engine = PoolConfig::for_host();
    let pool = Arc::new(WorkerPool::new(engine));
    let registry = Arc::new(paper_registry());
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        pool,
        ServeConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let running = server.spawn();
    println!(
        "fcbench-serve listening on {addr} ({} workers, {} job slots)\n",
        engine.threads, engine.queue_depth
    );

    // The catalogue, straight off the wire.
    let mut admin = Client::connect(addr).expect("connect");
    let listed = admin.list_codecs().expect("LIST_CODECS");
    // The thread-scalable flag reports Table 1's platform split; every
    // codec's blocks run on the pool.
    let names = |cpu: bool| {
        let rows = listed.iter().filter(|l| l.thread_scalable == cpu);
        rows.map(|l| l.name.as_str()).collect::<Vec<_>>().join(", ")
    };
    println!(
        "{} codecs served, all on the pool\n  CPU: {}\n  GPU-simulated: {}",
        listed.len(),
        names(true),
        names(false)
    );

    // A burst of concurrent clients, each a "storage node" flushing sensor
    // pages through its favourite codec and reading one back.
    let codecs = [
        "gorilla",
        "chimp128",
        "bitshuffle-zstd",
        "spdp",
        "nvcomp-bitcomp",
    ];
    let workers: Vec<_> = (0..8)
        .map(|i| {
            let name = codecs[i % codecs.len()];
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let page = sensor_page(50_000 + 1_000 * i, i as f64);
                let compressed = client
                    .compress(name, &page, 8 * 1024)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                let restored = client.decompress(&compressed).expect("decompress");
                assert_eq!(restored.bytes(), page.bytes(), "byte-exact round trip");
                (name, page.bytes().len(), compressed.len())
            })
        })
        .collect();
    println!(
        "\n{:<16} {:>12} {:>12} {:>8}",
        "codec", "raw", "wire", "ratio"
    );
    for w in workers {
        let (name, raw, wire) = w.join().expect("client thread");
        println!(
            "{name:<16} {raw:>12} {wire:>12} {:>8.3}",
            raw as f64 / wire as f64
        );
    }

    // A bad request fails typed — and the service shrugs it off.
    let err = admin
        .compress("lz4-but-misspelled", &sensor_page(100, 0.0), 64)
        .expect_err("unknown codec must fail");
    println!("\nunknown codec reply: {err}");

    // STATS_V2: the whole telemetry registry over the wire — serving
    // counters, frame-stream occupancy, and pool latency in one mergeable
    // snapshot.
    let v2 = admin.stats_v2().expect("STATS_V2");
    let count = |name: &str| v2.counter(name).unwrap_or(0);
    println!(
        "\nSTATS_V2: {} ok / {} failed requests over {} connections \
         ({} bytes in, {} bytes out)",
        count("serve.requests.ok"),
        count("serve.requests.failed"),
        count("serve.connections.accepted"),
        count("serve.bytes.in"),
        count("serve.bytes.out")
    );
    for (name, n) in v2.counters.iter().filter(|(_, n)| *n > 0) {
        if let Some(codec) = name.strip_prefix("serve.requests.codec.") {
            println!("  {codec:<16} {n} requests");
        }
    }
    assert!(count("serve.requests.ok") >= 17); // 8x(compress+decompress) + list
    assert!(count("serve.requests.failed") >= 1);

    // The client takes its own quantiles from the sparse bucket rows.
    println!("\nSTATS_V2 latency (client-side quantiles, µs):");
    println!(
        "{:<26} {:>8} {:>10} {:>10}",
        "histogram", "count", "p50", "p99"
    );
    for name in [
        "serve.request.compress",
        "serve.request.decompress",
        "serve.phase.engine",
        "pool.queue_wait",
        "pool.exec",
    ] {
        let h = v2.histogram(name).expect("layered histogram");
        assert!(h.count() > 0, "{name} must have recorded");
        println!(
            "{name:<26} {:>8} {:>10.1} {:>10.1}",
            h.count(),
            h.p50() as f64 / 1e3,
            h.p99() as f64 / 1e3
        );
    }

    // The same registry, server-side, as greppable text exposition.
    println!("\n--- text exposition ---");
    print!("{}", running.handle().telemetry().render_text());

    drop(admin);
    running.shutdown().expect("graceful shutdown");
    println!("\nserver drained and shut down cleanly");
}
