//! The chunked block-parallel pipeline must round-trip byte-exactly for
//! every registered codec across a sweep of block sizes (including the
//! degenerate 1-element block and the off-by-one sizes around the input
//! length) and worker-thread counts — with IEEE-754 landmines (NaN
//! payloads, signed zeros, subnormals, infinities) in the stream. The
//! engine never changes a byte: at every worker count the pooled frame is
//! the inline frame.

use fcbench::core::frame::decode_stream_header;
use fcbench::core::{Compressor, Domain, FloatData, Pipeline, PoolConfig, WorkerPool};
use fcbench_bench::codecs::paper_registry;
use std::sync::Arc;

const LEN: usize = 1000;

fn block_sizes() -> [usize; 5] {
    [1, LEN - 1, LEN, LEN + 1, 64 * 1024]
}

/// One shared engine per pooled worker count.
fn pools() -> Vec<Arc<WorkerPool>> {
    [2, 8]
        .map(|t| Arc::new(WorkerPool::new(PoolConfig::with_threads(t))))
        .to_vec()
}

/// `codec`'s pipelines by worker count: the inline `with_codec` one first,
/// then one `with_pool` pipeline per pool.
fn pipelines(
    codec: &Arc<dyn Compressor>,
    pools: &[Arc<WorkerPool>],
    block: usize,
) -> Vec<(usize, Pipeline)> {
    let inline = Pipeline::with_codec(Arc::clone(codec)).block_elems(block);
    let pooled = pools.iter().map(|pool| {
        let p = Pipeline::with_pool(Arc::clone(codec), Arc::clone(pool)).block_elems(block);
        (pool.threads(), p)
    });
    std::iter::once((1, inline)).chain(pooled).collect()
}

/// Specials-laden doubles: NaN payloads, ±0, subnormals, infinities mixed
/// into a drifting series.
fn special_data() -> FloatData {
    let specials = [
        f64::from_bits(0x7FF8_0000_0000_0001), // NaN with payload
        -0.0,
        5e-324,
        -5e-324,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
    ];
    let vals: Vec<f64> = (0..LEN)
        .map(|i| {
            if i % 11 == 3 {
                specials[i % specials.len()]
            } else {
                20.0 + (i as f64) * 0.125
            }
        })
        .collect();
    FloatData::from_f64(&vals, vec![LEN], Domain::TimeSeries).unwrap()
}

/// Benign two-decimal telemetry every codec (including BUFF) accepts.
fn decimal_data() -> FloatData {
    let vals: Vec<f64> = (0..LEN)
        .map(|i| ((20.0 + (i as f64 * 0.37).sin()) * 100.0).round() / 100.0)
        .collect();
    FloatData::from_f64(&vals, vec![LEN], Domain::TimeSeries).unwrap()
}

#[test]
fn pipeline_sweep_over_full_registry_with_specials() {
    let registry = paper_registry();
    let data = special_data();
    let pools = pools();
    for entry in registry.iter() {
        for block in block_sizes() {
            let runs = pipelines(entry.codec(), &pools, block);
            let Ok(frame) = runs[0].1.compress(&data) else {
                // A typed refusal (BUFF rejects non-finite input) is the
                // paper's "-" cell, not a failure; the engine refuses too.
                for (threads, p) in &runs[1..] {
                    let refused = p.compress(&data).is_err();
                    assert!(refused, "{} block {block} threads {threads}", entry.name());
                }
                continue;
            };
            for (threads, p) in &runs {
                let what = format!("{} block {block} threads {threads}", entry.name());
                let again = p.compress(&data).unwrap_or_else(|e| panic!("{what}: {e}"));
                assert!(again == frame, "{what}: the engine changed a frame byte");
                let back = p
                    .decompress(&frame)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(back.bytes(), data.bytes(), "{what}: byte-exact round trip");
                assert_eq!(back.desc(), data.desc());
            }
        }
    }
}

#[test]
fn pipeline_sweep_every_codec_succeeds_on_decimal_telemetry() {
    let registry = paper_registry();
    let data = decimal_data();
    let pools = pools();
    for entry in registry.iter() {
        // One representative block size per codec keeps the run fast; the
        // full cross-product runs on the specials sweep above.
        let runs = pipelines(entry.codec(), &pools, 64);
        let frame = runs[0]
            .1
            .compress(&data)
            .unwrap_or_else(|e| panic!("{} must accept decimals: {e}", entry.name()));

        // The frame is self-describing and names the codec.
        let (codec, desc, block_elems) =
            decode_stream_header(&mut &frame[..]).expect("valid prologue");
        assert_eq!(codec, entry.name());
        assert_eq!(&desc, data.desc());
        assert_eq!(block_elems, 64);

        for (threads, p) in &runs {
            let what = format!("{} threads {threads}", entry.name());
            let again = p.compress(&data).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(again == frame, "{what}: the engine changed a frame byte");
            let reader = p.frame_reader(&frame[..]).expect("valid frame");
            assert_eq!(reader.blocks_total(), LEN.div_ceil(64));

            let back = p.decompress(&frame).expect("decompress");
            assert_eq!(back.bytes(), data.bytes(), "{what}");
        }
    }
}

#[test]
fn pipeline_rejects_frames_from_other_codecs() {
    let registry = paper_registry();
    let data = decimal_data();
    let gorilla = Pipeline::new(&registry, "gorilla")
        .unwrap()
        .block_elems(128);
    let chimp = Pipeline::new(&registry, "chimp128")
        .unwrap()
        .block_elems(128);
    let frame = gorilla.compress(&data).expect("compress");
    assert!(chimp.decompress(&frame).is_err());
}
