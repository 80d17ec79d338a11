//! Gorilla value compression (Pelkonen et al., VLDB 2015; paper §3.4).
//!
//! Facebook's in-memory TSDB compresses each value by XOR-ing it with the
//! previous value and encoding the residual with three control forms:
//!
//! - `0` — residual is all zeros (value repeats);
//! - `10` — the residual's meaningful bits fall inside the previous
//!   leading/trailing-zero window: store just those bits;
//! - `11` — new window: 5 bits of leading-zero count, 6 bits of
//!   meaningful-bit length, then the bits.
//!
//! The paper's datasets are value arrays (no timestamps), so only the value
//! stream is implemented; the timestamp delta-of-delta path is not exercised
//! by any FCBench experiment. Works on both precisions via bit-pattern
//! words (Table 4 runs Gorilla on fp32 datasets too).

use crate::common::{u32_words, u64_words};
use fcbench_core::wire::Cursor;
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, Error, FloatData, Platform, Precision,
    PrecisionSupport, Result,
};
use fcbench_entropy::{BitReader, BitSink};

/// Gorilla's XOR value codec.
#[derive(Debug, Default, Clone)]
pub struct Gorilla;

impl Gorilla {
    pub fn new() -> Self {
        Gorilla
    }
}

/// Per-word-width constants.
#[derive(Clone, Copy)]
struct Layout {
    bits: u32,
    /// Field width of the leading-zero count (5 bits, clamped to 31, per
    /// the original design; sufficient for 32-bit words too).
    lz_field: u32,
    /// Field width of the meaningful-length count (stores `len - 1`).
    len_field: u32,
}

const L64: Layout = Layout {
    bits: 64,
    lz_field: 5,
    len_field: 6,
};
const L32: Layout = Layout {
    bits: 32,
    lz_field: 5,
    len_field: 5,
};

/// Worst-case payload bytes for `elements` values: the 8-byte count header
/// plus a stream where every value after the first emits a fresh
/// full-width `11` window. Reserving this up front keeps the bit sink's
/// word spills from ever growing the buffer.
fn worst_case_bytes(lay: Layout, elements: usize) -> usize {
    let per_value = (2 + lay.lz_field + lay.len_field + lay.bits) as usize;
    let stream_bits = lay.bits as usize + elements.saturating_sub(1) * per_value;
    8 + stream_bits.div_ceil(8)
}

fn encode_words(mut words: impl Iterator<Item = u64>, lay: Layout, w: &mut BitSink<'_>) {
    let Some(first) = words.next() else {
        return;
    };
    w.push_bits(first, lay.bits);
    let mut prev = first;
    // The active meaningful-bit window from the last `11` form; `win_len`
    // is hoisted so the hot `10` path does no per-value recomputation.
    let mut win_lz = 0u32;
    let mut win_tz = 0u32;
    let mut win_len = lay.bits;
    let mut have_window = false;
    // Width of the fused `11` + lz-count + length header (13 bits for f64).
    let hdr_bits = 2 + lay.lz_field + lay.len_field;

    for cur in words {
        let xor = prev ^ cur;
        prev = cur;
        if xor == 0 {
            w.push_bit(false);
            continue;
        }
        // leading_zeros is computed on u64; shift out the unused high bits
        // for 32-bit words, then clamp to the 5-bit field maximum of 31.
        let lz = (xor.leading_zeros() - (64 - lay.bits)).min(31);
        let tz = xor.trailing_zeros().min(lay.bits - 1);

        if have_window && lz >= win_lz && tz >= win_tz {
            // `10`: reuse previous window, control + payload in one push
            // whenever they fit a single 64-bit field.
            let payload = xor >> win_tz;
            if win_len <= 62 {
                w.push_bits((0b10u64 << win_len) | payload, win_len + 2);
            } else {
                w.push_bits(0b10, 2);
                w.push_bits(payload, win_len);
            }
        } else {
            // `11`: emit a fresh window; the control bits, lz count, and
            // stored length fuse into one push.
            let len = lay.bits - lz - tz;
            let hdr = (0b11u64 << (lay.lz_field + lay.len_field))
                | ((lz as u64) << lay.len_field)
                | (len - 1) as u64;
            w.push_bits(hdr, hdr_bits);
            w.push_bits(xor >> tz, len);
            win_lz = lz;
            win_tz = tz;
            win_len = len;
            have_window = true;
        }
    }
}

fn decode_words(
    r: &mut BitReader<'_>,
    count: usize,
    lay: Layout,
    mut emit: impl FnMut(u64),
) -> Result<()> {
    if count == 0 {
        return Ok(());
    }
    let first = r
        .read_bits(lay.bits)
        .ok_or_else(|| Error::Corrupt("gorilla: missing first value".into()))?;
    emit(first);
    let mut decoded = 1usize;
    let mut prev = first;
    let mut win_tz = 0u32;
    let mut win_len = lay.bits;
    let len_mask = (1u64 << lay.len_field) - 1;

    while decoded < count {
        // One peek covers the whole control prefix; `consume` still
        // bounds-checks, so truncated control bits surface as errors.
        let ctrl = r.peek_bits(2);
        if ctrl & 0b10 == 0 {
            r.consume(1)
                .ok_or_else(|| Error::Corrupt("gorilla: truncated control bit".into()))?;
            emit(prev);
            decoded += 1;
            continue;
        }
        r.consume(2)
            .ok_or_else(|| Error::Corrupt("gorilla: truncated control form".into()))?;
        let xor = if ctrl == 0b10 {
            // `10`: previous window.
            let bits = r
                .read_bits(win_len)
                .ok_or_else(|| Error::Corrupt("gorilla: truncated windowed bits".into()))?;
            bits << win_tz
        } else {
            // `11`: new window; lz count and stored length in one read.
            let hdr = r
                .read_bits(lay.lz_field + lay.len_field)
                .ok_or_else(|| Error::Corrupt("gorilla: truncated window header".into()))?;
            let lz = (hdr >> lay.len_field) as u32;
            let len = (hdr & len_mask) as u32 + 1;
            if lz + len > lay.bits {
                return Err(Error::Corrupt("gorilla: window exceeds word".into()));
            }
            let tz = lay.bits - lz - len;
            let bits = r
                .read_bits(len)
                .ok_or_else(|| Error::Corrupt("gorilla: truncated new-window bits".into()))?;
            win_tz = tz;
            win_len = len;
            bits << tz
        };
        prev ^= xor;
        emit(prev);
        decoded += 1;
    }
    Ok(())
}

impl Compressor for Gorilla {
    fn info(&self) -> CodecInfo {
        CodecInfo {
            name: "gorilla",
            year: 2015,
            community: Community::Database,
            class: CodecClass::Delta,
            platform: Platform::Cpu,
            parallel: false,
            precisions: PrecisionSupport::Both,
        }
    }

    /// Zero-allocation in steady state: the stream is emitted straight into
    /// `out` through a [`BitSink`], and words are read from the payload
    /// bytes without an intermediate vector. The reserve covers the
    /// worst-case stream (every value a fresh full-width window), so the
    /// sink's word spills never reallocate — even on the first call with a
    /// fresh buffer.
    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        let lay = match data.desc().precision {
            Precision::Double => L64,
            Precision::Single => L32,
        };
        out.clear();
        out.reserve(worst_case_bytes(lay, data.elements()));
        out.extend_from_slice(&(data.elements() as u64).to_le_bytes());
        let mut w = BitSink::new(out);
        match data.desc().precision {
            Precision::Double => encode_words(u64_words(data.bytes()), L64, &mut w),
            Precision::Single => encode_words(u32_words(data.bytes()).map(u64::from), L32, &mut w),
        }
        w.finish(); // spill the staged partial word before reading out.len()
        Ok(out.len())
    }

    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        // The descriptor is untrusted (the runner and other direct callers
        // hand it over unchecked): reject implausible output claims before
        // anything is reserved against them.
        fcbench_core::blocks::check_decode_claim(desc, payload.len())?;
        let mut cur = Cursor::new("gorilla", payload);
        let count = cur.len64("element count")?;
        if count != desc.elements() {
            return Err(Error::Corrupt(format!(
                "gorilla: stream holds {count} elements, descriptor expects {}",
                desc.elements()
            )));
        }
        out.refill(desc, |bytes| {
            bytes.reserve(desc.byte_len());
            let mut r = BitReader::new(cur.rest());
            match desc.precision {
                Precision::Double => decode_words(&mut r, count, L64, |w| {
                    bytes.extend_from_slice(&w.to_le_bytes())
                }),
                Precision::Single => decode_words(&mut r, count, L32, |w| {
                    bytes.extend_from_slice(&(w as u32).to_le_bytes())
                }),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::Domain;

    fn round_trip_f64(vals: &[f64]) -> usize {
        let data = FloatData::from_f64(vals, vec![vals.len().max(1)], Domain::TimeSeries)
            .unwrap_or_else(|_| FloatData::from_f64(&[0.0], vec![1], Domain::TimeSeries).unwrap());
        let g = Gorilla::new();
        let c = g.compress(&data).unwrap();
        let d = g.decompress(&c, data.desc()).unwrap();
        assert_eq!(d.bytes(), data.bytes());
        c.len()
    }

    fn round_trip_f32(vals: &[f32]) -> usize {
        let data = FloatData::from_f32(vals, vec![vals.len()], Domain::TimeSeries).unwrap();
        let g = Gorilla::new();
        let c = g.compress(&data).unwrap();
        let d = g.decompress(&c, data.desc()).unwrap();
        assert_eq!(d.bytes(), data.bytes());
        c.len()
    }

    #[test]
    fn constant_series_compresses_to_bits() {
        let vals = vec![42.5f64; 10_000];
        let n = round_trip_f64(&vals);
        // 1 control bit per repeat: ~1250 bytes + first value + header.
        assert!(n < 1400, "constant series took {n} bytes");
    }

    #[test]
    fn slowly_varying_sensor_series() {
        let vals: Vec<f64> = (0..5000).map(|i| 20.0 + 0.001 * (i % 10) as f64).collect();
        let n = round_trip_f64(&vals);
        assert!(n < 5000 * 8, "should compress below raw size");
    }

    #[test]
    fn random_values_survive() {
        let mut x = 0x2545F4914F6CDD1Du64;
        let vals: Vec<f64> = (0..3000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f64::from_bits((x >> 12) | 0x3FF0_0000_0000_0000)
            })
            .collect();
        round_trip_f64(&vals);
    }

    #[test]
    fn special_values_round_trip() {
        round_trip_f64(&[
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
        ]);
    }

    #[test]
    fn single_element() {
        round_trip_f64(&[std::f64::consts::E]);
    }

    #[test]
    fn single_precision_round_trip() {
        let vals: Vec<f32> = (0..4000).map(|i| (i as f32 * 0.25).sin()).collect();
        round_trip_f32(&vals);
    }

    #[test]
    fn single_precision_specials() {
        round_trip_f32(&[0.0, -0.0, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE]);
    }

    #[test]
    fn window_reuse_beats_fresh_windows_on_stable_data() {
        // Values whose XOR stays in the same bit window: form `10` dominates.
        let base = 1000.0f64;
        let vals: Vec<f64> = (0..2000).map(|i| base + (i % 4) as f64).collect();
        let n = round_trip_f64(&vals);
        assert!(
            n < 2000 * 8 / 2,
            "window reuse should halve the size, got {n}"
        );
    }

    #[test]
    fn count_mismatch_rejected() {
        let data = FloatData::from_f64(&[1.0, 2.0], vec![2], Domain::TimeSeries).unwrap();
        let g = Gorilla::new();
        let c = g.compress(&data).unwrap();
        let wrong = DataDesc::new(Precision::Double, vec![3], Domain::TimeSeries).unwrap();
        assert!(g.decompress(&c, &wrong).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64 * 1.7).collect();
        let data = FloatData::from_f64(&vals, vec![100], Domain::TimeSeries).unwrap();
        let g = Gorilla::new();
        let c = g.compress(&data).unwrap();
        assert!(g.decompress(&c[..c.len() / 2], data.desc()).is_err());
        assert!(g.decompress(&c[..4], data.desc()).is_err());
    }

    #[test]
    fn info_matches_table1() {
        let info = Gorilla::new().info();
        assert_eq!(info.name, "gorilla");
        assert_eq!(info.year, 2015);
        assert_eq!(info.class, CodecClass::Delta);
        assert_eq!(info.platform, Platform::Cpu);
        assert!(!info.parallel);
    }
}
