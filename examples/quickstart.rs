//! Quickstart: look codecs up in the registry, compress a floating-point
//! series losslessly through the zero-copy `_into` API, inspect the ratio,
//! decompress, verify bit-exactness — then run the same data through the
//! block-parallel pipeline (backed by the persistent worker-pool engine)
//! and its self-describing `FCB3` frame, and finally stream the same frame
//! chunk-by-chunk through the `FrameWriter`/`FrameReader` pair.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fcbench::core::{Compressor, Domain, FloatData, Pipeline};
use fcbench_bench::codecs::paper_registry;

fn main() {
    // A sensor-like series: slow oscillation plus a small random walk,
    // rounded to two decimals (typical IoT telemetry).
    let mut walk = 0.0f64;
    let mut seed = 0x2545F4914F6CDD1Du64;
    let values: Vec<f64> = (0..100_000)
        .map(|i| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            walk += (seed >> 60) as f64 * 0.01 - 0.075;
            let v = 20.0 + 5.0 * (i as f64 * 0.001).sin() + walk;
            (v * 100.0).round() / 100.0
        })
        .collect();
    let data = FloatData::from_f64(&values, vec![values.len()], Domain::TimeSeries)
        .expect("consistent dims");
    println!(
        "input: {} values, {} bytes",
        values.len(),
        data.bytes().len()
    );

    // The registry is the single catalogue of methods: look codecs up by
    // their Table 1 names and reuse one payload/output buffer pair across
    // all of them (the steady-state loop allocates nothing for gorilla
    // and chimp).
    let registry = paper_registry();
    let mut payload = Vec::new();
    let mut restored = FloatData::scratch();
    for name in ["gorilla", "chimp128", "bitshuffle-zstd"] {
        let codec = registry.get(name).expect("registered codec");
        let t0 = std::time::Instant::now();
        let n = codec.compress_into(&data, &mut payload).expect("compress");
        let dt = t0.elapsed();
        codec
            .decompress_into(&payload[..n], data.desc(), &mut restored)
            .expect("decompress");
        assert_eq!(restored.bytes(), data.bytes(), "lossless round trip");
        println!(
            "{:<16} ratio {:.3}  ({} -> {} bytes, {:.1} ms, bit-exact)",
            name,
            data.bytes().len() as f64 / n as f64,
            data.bytes().len(),
            n,
            dt.as_secs_f64() * 1e3
        );
    }

    // Self-describing frames carry codec + shape, so a reader needs no
    // out-of-band metadata. A single-shot frame is a one-block stream.
    let gorilla = Pipeline::new(&registry, "gorilla")
        .expect("registered codec")
        .block_elems(values.len());
    let framed = gorilla.compress(&data).expect("frame");
    let back = gorilla.decompress(&framed).expect("unframe");
    assert_eq!(back.bytes(), data.bytes());
    println!(
        "\nframed stream: {} bytes (self-describing FCB3 frame, one block)",
        framed.len()
    );

    // The pipeline splits the stream into fixed-size blocks and submits
    // them to a persistent worker pool (spawned once, on the first call;
    // later calls reuse the warm workers), emitting one record per block.
    let threads = fcbench::core::PoolConfig::for_host().threads.min(8);
    let pipeline = Pipeline::new(&registry, "chimp128")
        .expect("registered codec")
        .block_elems(16 * 1024)
        .threads(threads);
    let mut chunked = Vec::new();
    let mut cold = std::time::Duration::ZERO;
    let mut warm = std::time::Duration::ZERO;
    for round in 0..2 {
        let t0 = std::time::Instant::now();
        pipeline
            .compress_into(&data, &mut chunked)
            .expect("pipeline compress");
        let dt = t0.elapsed();
        if round == 0 {
            cold = dt; // includes the one-time pool spawn + buffer growth
        } else {
            warm = dt; // steady state: warm workers, reused slots
        }
    }
    let back = pipeline.decompress(&chunked).expect("pipeline decompress");
    assert_eq!(back.bytes(), data.bytes());
    println!(
        "pipeline (chimp128, 16Ki-element blocks, {threads} pool workers): \
         {} bytes FCB3 frame; cold call {:.1} ms, warm call {:.1} ms",
        chunked.len(),
        cold.as_secs_f64() * 1e3,
        warm.as_secs_f64() * 1e3
    );

    // Streaming: the same engine writes the same frame chunk-by-chunk, so
    // neither the raw data nor the compressed frame is ever fully resident
    // (here the "file" is just a Vec for demonstration).
    let mut writer = pipeline
        .frame_writer(data.desc(), Vec::new())
        .expect("frame writer");
    for chunk in data.bytes().chunks(64 * 1024) {
        writer.write(chunk).expect("stream write");
    }
    let stored = writer.finish().expect("finish stream");
    assert_eq!(stored, chunked, "one frame format, however it is written");
    let mut reader = pipeline.frame_reader(&stored[..]).expect("frame reader");
    let mut restored = Vec::new();
    while let Some(block) = reader.next_block().expect("stream read") {
        restored.extend_from_slice(block);
    }
    assert_eq!(restored, data.bytes());
    println!(
        "streamed FCB3: {} bytes on the wire, decoded block-by-block, bit-exact",
        stored.len()
    );
}
