//! Streaming frame I/O must round-trip byte-exactly for every registered
//! codec across worker-thread counts 1/2/8 and block sizes including the
//! off-by-one sizes around the input length — driven chunk-by-chunk
//! through `FrameWriter`/`FrameReader` so neither side ever holds the
//! whole frame. Plus pool-lifecycle integration: a panicking codec
//! surfaces a typed error mid-stream and the engine keeps serving the
//! remaining codecs.

use fcbench::core::pool::{PoolConfig, WorkerPool};
use fcbench::core::{Compressor, Domain, Error, FloatData, Pipeline};
use fcbench_bench::codecs::paper_registry;
use std::sync::Arc;

const LEN: usize = 1000;

fn block_sizes() -> [usize; 5] {
    [1, LEN - 1, LEN, LEN + 1, 64 * 1024]
}

const THREADS: [usize; 3] = [1, 2, 8];

/// Benign two-decimal telemetry every codec (including BUFF) accepts.
fn decimal_data() -> FloatData {
    let vals: Vec<f64> = (0..LEN)
        .map(|i| ((20.0 + (i as f64 * 0.37).sin()) * 100.0).round() / 100.0)
        .collect();
    FloatData::from_f64(&vals, vec![LEN], Domain::TimeSeries).unwrap()
}

#[test]
fn streaming_sweep_over_full_registry() {
    let registry = paper_registry();
    let data = decimal_data();
    for entry in registry.iter() {
        for block in block_sizes() {
            for threads in THREADS {
                let pipeline = Pipeline::with_codec(entry.codec().clone())
                    .block_elems(block)
                    .threads(threads);

                // Write in deliberately awkward 313-byte chunks.
                let mut writer = pipeline
                    .frame_writer(data.desc(), Vec::new())
                    .unwrap_or_else(|e| panic!("{}: writer: {e}", entry.name()));
                let mut ok = true;
                for chunk in data.bytes().chunks(313) {
                    if writer.write(chunk).is_err() {
                        // A typed refusal (BUFF would reject non-finite
                        // input; none here) is a "-" cell, not a failure.
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    continue;
                }
                let stored = writer.finish().unwrap_or_else(|e| {
                    panic!("{} block {block} threads {threads}: {e}", entry.name())
                });

                let mut reader = pipeline
                    .frame_reader(&stored[..])
                    .unwrap_or_else(|e| panic!("{}: reader: {e}", entry.name()));
                assert_eq!(reader.desc(), data.desc());
                assert_eq!(reader.blocks_total(), LEN.div_ceil(block));
                let mut restored = Vec::with_capacity(data.bytes().len());
                loop {
                    match reader.next_block() {
                        Ok(Some(b)) => restored.extend_from_slice(b),
                        Ok(None) => break,
                        Err(e) => {
                            panic!("{} block {block} threads {threads}: {e}", entry.name())
                        }
                    }
                }
                assert_eq!(
                    restored,
                    data.bytes(),
                    "{} block {block} threads {threads}: byte-exact stream round trip",
                    entry.name()
                );
            }
        }
    }
}

#[test]
fn one_shared_engine_serves_every_codec_with_zero_respawns() {
    let registry = paper_registry();
    let data = decimal_data();
    let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(4)));
    for entry in registry.iter() {
        let pipeline =
            Pipeline::with_pool(entry.codec().clone(), Arc::clone(&pool)).block_elems(128);
        let frame = pipeline
            .compress(&data)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name()));
        let back = pipeline.decompress(&frame).unwrap();
        assert_eq!(back.bytes(), data.bytes(), "{}", entry.name());
    }
    // The engine's workers were spawned once for the whole registry.
    assert_eq!(pool.threads_spawned(), 4);
    assert!(pool.jobs_completed() > 0);
}

/// The serving front-end feeds `FrameReader` state straight from untrusted
/// sockets, so a stream cut anywhere — mid-prologue, mid-record-length,
/// mid-payload — must surface a typed error (never a panic or a hang) and
/// fail sticky, on both the inline and the pooled path.
#[test]
fn truncated_streams_from_untrusted_sources_fail_typed() {
    let registry = paper_registry();
    let data = decimal_data();
    let gorilla = registry.get("gorilla").expect("registered codec");
    let pipeline = Pipeline::with_codec(Arc::clone(&gorilla)).block_elems(50);
    let mut writer = pipeline.frame_writer(data.desc(), Vec::new()).unwrap();
    writer.write(data.bytes()).unwrap();
    let stored = writer.finish().unwrap();

    let prologue_len = {
        let mut cursor = &stored[..];
        fcbench::core::frame::decode_stream_header(&mut cursor).unwrap();
        stored.len() - cursor.len()
    };
    let len0 = u64::from_le_bytes(
        stored[prologue_len..prologue_len + 8]
            .try_into()
            .expect("8 bytes"),
    ) as usize;

    let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(2)));
    let cuts = [
        prologue_len + 4,                // mid first record length
        prologue_len + 8,                // record length read, zero payload bytes
        prologue_len + 8 + len0 / 2,     // mid first payload
        prologue_len + 8 + len0 + 3,     // mid second record length
        prologue_len + 8 + len0 + 8 + 1, // mid second payload
    ];
    for cut in cuts {
        assert!(cut < stored.len(), "cut {cut} must truncate the stream");
        for pooled in [false, true] {
            let engine = pooled.then(|| Arc::clone(&pool));
            let mut reader =
                fcbench::core::FrameReader::new(&stored[..cut], Arc::clone(&gorilla), engine)
                    .expect("prologue is intact at these cuts");
            let mut result = Ok(());
            loop {
                match reader.next_block() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            let err = result.expect_err("typed error required");
            assert!(
                matches!(err, Error::Corrupt(_) | Error::Io(_)),
                "cut {cut} pooled {pooled}: got {err:?}"
            );
            // Sticky: later reads refuse instead of yielding blocks out of
            // order (and must never panic on the drained read-ahead).
            assert!(reader.next_block().is_err(), "cut {cut} pooled {pooled}");
        }
    }

    // A record length claiming almost-u64::MAX payload bytes mid-stream is
    // rejected before the reader allocates for it.
    let mut hostile = stored[..prologue_len + 8 + len0].to_vec();
    hostile.extend_from_slice(&u64::MAX.to_le_bytes());
    hostile.extend_from_slice(&[0u8; 32]);
    for pooled in [false, true] {
        let engine = pooled.then(|| Arc::clone(&pool));
        let mut reader =
            fcbench::core::FrameReader::new(&hostile[..], Arc::clone(&gorilla), engine).unwrap();
        let mut result = Ok(());
        loop {
            match reader.next_block() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        assert!(
            matches!(result, Err(Error::Corrupt(_))),
            "pooled {pooled}: petabyte record claim must be Corrupt, got {result:?}"
        );
    }
}

/// A codec that panics on every call — the worker must catch it, surface a
/// typed error to the stream, and stay alive for the next codec.
struct PanicCodec;

impl fcbench::core::Compressor for PanicCodec {
    fn info(&self) -> fcbench::core::CodecInfo {
        fcbench::core::CodecInfo {
            name: "panicker",
            year: 2024,
            community: fcbench::core::Community::General,
            class: fcbench::core::CodecClass::Delta,
            platform: fcbench::core::Platform::Cpu,
            parallel: false,
            precisions: fcbench::core::PrecisionSupport::Both,
        }
    }
    fn compress_into(&self, _d: &FloatData, _o: &mut Vec<u8>) -> fcbench::core::Result<usize> {
        panic!("deliberate stream panic");
    }
    fn decompress_into(
        &self,
        _p: &[u8],
        _d: &fcbench::core::DataDesc,
        _o: &mut FloatData,
    ) -> fcbench::core::Result<()> {
        panic!("deliberate stream panic");
    }
}

#[test]
fn panicking_codec_mid_stream_is_a_typed_error_and_engine_survives() {
    let data = decimal_data();
    let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(2)));

    let bad = Pipeline::with_pool(Arc::new(PanicCodec), Arc::clone(&pool)).block_elems(100);
    let mut writer = bad.frame_writer(data.desc(), Vec::new()).unwrap();
    let mut err = None;
    for chunk in data.bytes().chunks(512) {
        if let Err(e) = writer.write(chunk) {
            err = Some(e);
            break;
        }
    }
    let err = match err {
        Some(e) => e,
        None => writer.finish().expect_err("panicking codec cannot finish"),
    };
    assert!(matches!(err, Error::WorkerPanic(_)), "got {err:?}");

    // The engine is still healthy: a real codec streams fine afterwards.
    let registry = paper_registry();
    let gorilla = Pipeline::with_pool(
        registry.get("gorilla").expect("registered codec"),
        Arc::clone(&pool),
    )
    .block_elems(100);
    let mut writer = gorilla.frame_writer(data.desc(), Vec::new()).unwrap();
    writer.write(data.bytes()).unwrap();
    let stored = writer.finish().unwrap();
    let mut reader = gorilla.frame_reader(&stored[..]).unwrap();
    let mut out = FloatData::scratch();
    reader.read_to_end(&mut out).unwrap();
    assert_eq!(out.bytes(), data.bytes());
    assert_eq!(pool.threads_spawned(), 2);
}
