//! Unit tests of the roofline model and the dzip codec, at the crate-root
//! path they had when each was a crate of its own (`tests::paper_ceilings`).

use crate::dzip::*;
use crate::roofline::*;
use fcbench_core::{CodecClass, Compressor, Domain, Error, FloatData};

// ---- roofline ----

#[test]
fn paper_ceilings() {
    let cpu = MachineModel::xeon_gold_6126();
    assert!((cpu.dram_roof() - 214.5).abs() < 1e-9);
    let gpu = MachineModel::rtx_6000();
    assert!((gpu.dram_roof() - 621.5).abs() < 1e-9);
    assert!((gpu.attainable(1000.0) - 13_325.8).abs() < 1e-9);
}

#[test]
fn attainable_is_min_of_roofs() {
    let m = MachineModel::xeon_gold_6126();
    // Low intensity: bandwidth-limited.
    assert!((m.attainable(0.1) - 21.45).abs() < 1e-9);
    // High intensity: compute-limited (highest ceiling = 191).
    assert!((m.attainable(100.0) - 191.0).abs() < 1e-9);
    // Ridge point continuity.
    let ridge = m.ridge_intensity();
    assert!((m.attainable(ridge) - 191.0).abs() < 1e-6);
}

#[test]
fn placement_from_profile() {
    let profile = OpProfile {
        int_ops: 3_000_000,
        float_ops: 0,
        bytes_moved: 1_000_000,
    };
    // 3 ops/byte, 1 ms => 3 GOP/s.
    let p = RooflinePoint::from_profile("x", &profile, 1e-3);
    assert!((p.intensity - 3.0).abs() < 1e-12);
    assert!((p.performance - 3.0).abs() < 1e-9);
}

#[test]
fn float_axis_used_for_float_kernels() {
    let profile = OpProfile {
        int_ops: 10,
        float_ops: 2_000_000,
        bytes_moved: 1_000_000,
    };
    let p = RooflinePoint::from_profile("f", &profile, 1e-3);
    assert!((p.intensity - 2.0).abs() < 1e-12);
}

#[test]
fn classification_bands() {
    let m = MachineModel::xeon_gold_6126();
    // Memory-bound: low intensity, performance at the bandwidth roof.
    let fast_low = RooflinePoint {
        name: "bitshuffle-ish".into(),
        intensity: 0.5,
        performance: m.attainable(0.5) * 0.9,
    };
    assert_eq!(fast_low.classify(&m, 0.5), Bound::MemoryBound);
    // Compute-bound: beyond the ridge, near the ceiling.
    let ridge = m.ridge_intensity();
    let fast_high = RooflinePoint {
        name: "ndzip-ish".into(),
        intensity: ridge * 4.0,
        performance: 191.0 * 0.8,
    };
    assert_eq!(fast_high.classify(&m, 0.5), Bound::ComputeBound);
    // Serial codecs sit far below both roofs (§6.3 analysis (1)).
    let slow = RooflinePoint {
        name: "fpzip-ish".into(),
        intensity: 1.0,
        performance: 0.5,
    };
    assert_eq!(slow.classify(&m, 0.5), Bound::Underutilized);
}

#[test]
fn zero_bytes_profile_is_safe() {
    let profile = OpProfile {
        int_ops: 10,
        float_ops: 0,
        bytes_moved: 0,
    };
    let p = RooflinePoint::from_profile("z", &profile, 1.0);
    assert_eq!(p.intensity, 0.0);
}

// ---- dzip ----

fn round_trip(vals: &[f64]) -> usize {
    let data = FloatData::from_f64(vals, vec![vals.len()], Domain::TimeSeries).unwrap();
    let d = Dzip::with_bootstrap(1, 4096);
    let c = d.compress(&data).unwrap();
    let back = d.decompress(&c, data.desc()).unwrap();
    assert_eq!(back.bytes(), data.bytes());
    c.len()
}

#[test]
fn small_repetitive_stream_round_trips() {
    let vals: Vec<f64> = (0..400).map(|i| (i % 4) as f64).collect();
    round_trip(&vals);
}

#[test]
fn random_bytes_round_trip() {
    let mut x = 0xBADC0FFEEu64;
    let vals: Vec<f64> = (0..200)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f64::from_bits(x)
        })
        .collect();
    round_trip(&vals);
}

#[test]
fn special_values() {
    round_trip(&[
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
    ]);
}

#[test]
fn model_learns_skewed_streams() {
    // A stream of almost all zeros must beat 1 byte/byte by a margin,
    // even after paying for the shipped bootstrap weights.
    let vals = vec![0.0f64; 2000];
    let n = round_trip(&vals);
    let raw = 2000 * 8;
    let weights = 256 * (HIDDEN + 1) * 8;
    assert!(
        n < weights + raw / 8,
        "skewed stream: {n} bytes vs raw {raw} + weights {weights}"
    );
}

#[test]
fn quantized_distribution_is_valid() {
    let mut probs = [0.0f64; 256];
    probs[7] = 0.9;
    for (i, p) in probs.iter_mut().enumerate() {
        if i != 7 {
            *p = 0.1 / 255.0;
        }
    }
    let (freqs, total) = quantize(&probs);
    assert!(total <= PROB_TOTAL + 256);
    assert!(freqs.iter().all(|&f| f >= 1));
    assert_eq!(freqs.iter().sum::<u32>(), total);
    assert!(freqs[7] > freqs[8] * 100);
}

#[test]
fn corrupt_payload_rejected() {
    let data = FloatData::from_f64(&[1.0, 2.0, 3.0], vec![3], Domain::Hpc).unwrap();
    let d = Dzip::with_bootstrap(1, 4096);
    let c = d.compress(&data).unwrap();
    assert!(d.decompress(&c[..8], data.desc()).is_err());
    let mut bad = c.clone();
    bad[0] ^= 0xFF; // break the weight length
    assert!(d.decompress(&bad, data.desc()).is_err());
}

#[test]
fn every_truncation_is_a_typed_error() {
    let vals: Vec<f64> = (0..64).map(|i| (i as f64 * 0.1).sin()).collect();
    let data = FloatData::from_f64(&vals, vec![vals.len()], Domain::Hpc).unwrap();
    let d = Dzip::with_bootstrap(1, 4096);
    let c = d.compress(&data).unwrap();
    let weights_end = 4 + 256 * (HIDDEN + 1) * 8;
    let stream_start = weights_end + 8;
    assert!(c.len() > stream_start + 16, "a stream worth cutting");

    // Each header field's boundary ±1 byte, then a stride through the
    // weights and through the range-coded stream.
    let mut cuts: Vec<usize> = [0, 4, weights_end, stream_start, c.len()]
        .iter()
        .flat_map(|&b| [b.saturating_sub(1), b, b + 1])
        .filter(|&cut| cut < c.len())
        .collect();
    cuts.extend((4..weights_end).step_by(997));
    cuts.extend((stream_start..c.len()).step_by(7));
    for cut in cuts {
        match d.decompress(&c[..cut], data.desc()) {
            Err(Error::Corrupt(_)) => {}
            Err(e) => panic!("cut at {cut}: untyped {e}"),
            Ok(_) => panic!("cut at {cut} decoded without an error"),
        }
    }

    // Bytes after the stream are no more this stream than a cut one.
    let mut long = c.clone();
    long.push(0);
    assert!(d.decompress(&long, data.desc()).is_err());
    assert_eq!(d.decompress(&c, data.desc()).unwrap().bytes(), data.bytes());
}

#[test]
fn reservoir_is_deterministic() {
    let a = Reservoir::seeded();
    let b = Reservoir::seeded();
    let h = [0.1; HIDDEN];
    assert_eq!(a.step(42, &h), b.step(42, &h));
}

#[test]
fn info_marks_prediction_class() {
    let info = Dzip::with_bootstrap(2, 1 << 16).info();
    assert_eq!(info.name, "dzip");
    assert_eq!(info.class, CodecClass::Prediction);
    assert_eq!(info.year, 2021);
}
