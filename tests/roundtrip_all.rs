//! Cross-crate integration: every codec round-trips every domain's data
//! bit-exactly, through both raw payloads and self-describing frames.

use fcbench::core::frame::decode_stream_header;
use fcbench::core::{Compressor, Domain, FloatData, Pipeline};
use fcbench::datasets::{catalog, generate};

/// All 14 paper methods, consumed through the shared registry.
fn all_codecs() -> Vec<Box<dyn Compressor>> {
    fcbench_bench::codecs::paper_registry()
        .codecs()
        .map(|c| Box::new(c.clone()) as Box<dyn Compressor>)
        .collect()
}

/// One dataset per domain, small enough for a fast test run.
fn sample_datasets() -> Vec<FloatData> {
    [
        "msg-bt",
        "phone-gyro",
        "acs-wht",
        "tpcDS-store",
        "astro-mhd",
    ]
    .iter()
    .map(|name| {
        let spec = catalog()
            .into_iter()
            .find(|s| s.name == *name)
            .expect("catalog name");
        generate(&spec, 16_384)
    })
    .collect()
}

#[test]
fn every_codec_round_trips_every_domain() {
    let datasets = sample_datasets();
    for codec in all_codecs() {
        for data in &datasets {
            let payload = match codec.compress(data) {
                Ok(p) => p,
                // Legitimate refusals (BUFF on non-decimal data) are fine;
                // they are the paper's "-" cells.
                Err(_) => continue,
            };
            let back = codec
                .decompress(&payload, data.desc())
                .unwrap_or_else(|e| panic!("{}: decompress failed: {e}", codec.info().name));
            assert_eq!(
                back.bytes(),
                data.bytes(),
                "{}: round trip must be bit-exact",
                codec.info().name
            );
        }
    }
}

#[test]
fn framed_streams_are_self_describing() {
    let datasets = sample_datasets();
    for codec in fcbench_bench::codecs::paper_registry().codecs() {
        let data = &datasets[0];
        // A single-shot frame: the whole dataset as one block.
        let single = Pipeline::with_codec(codec.clone()).block_elems(data.elements());
        let framed = single.compress(data).expect("frame");
        let (name, desc, block_elems) =
            decode_stream_header(&mut &framed[..]).expect("decode prologue");
        assert_eq!(name, codec.info().name);
        assert_eq!(&desc, data.desc());
        assert_eq!(block_elems, data.elements());
        let back = single.decompress(&framed).expect("unframe");
        assert_eq!(back.bytes(), data.bytes());
    }
}

#[test]
fn wrong_codec_refuses_foreign_frames() {
    let data = sample_datasets().remove(0);
    let registry = fcbench_bench::codecs::paper_registry();
    let gorilla = registry.get("gorilla").expect("registered");
    let chimp = registry.get("chimp128").expect("registered");
    let framed = Pipeline::with_codec(gorilla)
        .compress(&data)
        .expect("frame");
    assert!(Pipeline::with_codec(chimp).decompress(&framed).is_err());
}

#[test]
fn special_value_gauntlet_across_all_codecs() {
    // NaN payloads, signed zeros, denormals, infinities, and extremes in
    // one buffer; every codec must reproduce the exact bit patterns or
    // refuse cleanly.
    let specials = [
        0.0f64,
        -0.0,
        f64::NAN,
        f64::from_bits(0x7FF8_0000_0000_0001), // NaN with payload
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -5e-324,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        1.0,
    ];
    // Pad to exercise chunked paths.
    let mut values = Vec::new();
    for _ in 0..700 {
        values.extend_from_slice(&specials);
    }
    let data = FloatData::from_f64(&values, vec![values.len()], Domain::Hpc).unwrap();
    for codec in all_codecs() {
        match codec.compress(&data) {
            Ok(payload) => {
                let back = codec.decompress(&payload, data.desc()).expect("decompress");
                assert_eq!(back.bytes(), data.bytes(), "{}", codec.info().name);
            }
            Err(_) => {
                // BUFF rejects non-finite input — the documented behaviour.
                assert_eq!(codec.info().name, "buff");
            }
        }
    }
}

#[test]
fn truncated_payloads_never_panic() {
    let data = sample_datasets().remove(0);
    for codec in all_codecs() {
        let Ok(payload) = codec.compress(&data) else {
            continue;
        };
        for cut in [0, 1, 4, payload.len() / 2, payload.len().saturating_sub(1)] {
            // Must return an error (or, for self-delimiting tails, a wrong
            // but well-formed result is impossible given the length checks)
            // — never panic.
            let _ = codec.decompress(&payload[..cut], data.desc());
        }
    }
}
