//! Chimp128 (Liakos, Papakonstantinopoulou & Kotidis, VLDB 2022; paper §3.5).
//!
//! Chimp refines Gorilla in two ways:
//!
//! 1. **Redesigned control bits.** Trailing zeros are only exploited when
//!    there are more than [`TZ_THRESHOLD`] of them; leading-zero counts are
//!    rounded into a 3-bit bucket code.
//! 2. **A 128-value sliding window** ("evicting queues ... grouped by their
//!    less significant bits"): the reference value for the XOR is the most
//!    recent of the previous 128 values sharing the current value's low
//!    bits, which maximizes trailing zeros of the residual. The chosen
//!    index is stored in ⌈log₂ 128⌉ = 7 bits.
//!
//! Control forms (2 bits each):
//!
//! - `00` — XOR with the indexed previous value is all zeros: 7-bit index;
//! - `01` — indexed reference with > threshold trailing zeros: 7-bit index,
//!   3-bit leading-zero bucket, 6-bit center length, center bits;
//! - `10` — reference is the immediately previous value and its
//!   leading-zero bucket equals the previous one: `bits − lz` bits verbatim;
//! - `11` — like `10` but with a fresh 3-bit leading-zero bucket first.

use crate::common::{u32_words, u64_words};
use fcbench_core::wire::Cursor;
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, Error, FloatData, Platform, Precision,
    PrecisionSupport, Result,
};
use fcbench_entropy::{BitReader, BitSink};
use std::cell::RefCell;

/// Residual trailing zeros must exceed this for the indexed (`01`) form.
pub const TZ_THRESHOLD: u32 = 6;

/// Window size (number of candidate previous values).
pub const WINDOW: usize = 128;

/// Leading-zero bucket boundaries for 64-bit words (the original Chimp
/// rounding table).
const LEADING_BUCKETS_64: [u32; 8] = [0, 8, 12, 16, 18, 20, 22, 24];
/// Scaled buckets for 32-bit words.
const LEADING_BUCKETS_32: [u32; 8] = [0, 4, 6, 8, 9, 10, 11, 12];

/// Chimp128 codec. `window` is configurable for the ablation bench
/// (window = 1 degrades to Gorilla-style previous-value referencing).
#[derive(Debug, Clone)]
pub struct Chimp {
    window: usize,
}

impl Default for Chimp {
    fn default() -> Self {
        Self::new()
    }
}

impl Chimp {
    /// Standard Chimp128.
    pub fn new() -> Self {
        Chimp { window: WINDOW }
    }

    /// Custom window size (must be a power of two, ≥ 1, ≤ 2¹⁶).
    pub fn with_window(window: usize) -> Self {
        assert!(window.is_power_of_two() && (1..=1 << 16).contains(&window));
        Chimp { window }
    }

    fn index_bits(&self) -> u32 {
        self.window.trailing_zeros().max(1)
    }
}

#[derive(Clone, Copy)]
struct Layout {
    bits: u32,
    buckets: &'static [u32; 8],
    /// Low bits of the value used as the similarity key.
    key_bits: u32,
    /// Field width for the center-bit length in the `01` form.
    center_field: u32,
}

const L64: Layout = Layout {
    bits: 64,
    buckets: &LEADING_BUCKETS_64,
    key_bits: 14,
    center_field: 6,
};
const L32: Layout = Layout {
    bits: 32,
    buckets: &LEADING_BUCKETS_32,
    key_bits: 10,
    center_field: 5,
};

/// Round a leading-zero count down to its bucket; returns (code, value).
fn bucket_of(lz: u32, buckets: &[u32; 8]) -> (u32, u32) {
    let mut code = 0;
    for (i, &b) in buckets.iter().enumerate() {
        if lz >= b {
            code = i as u32;
        }
    }
    (code, buckets[code as usize])
}

/// Backing storage for a [`Window`], kept per thread so the sliding-window
/// probe performs no steady-state allocation on a long-lived thread, even
/// when one `Chimp` instance is shared across threads. (The pipeline's
/// scoped workers are born per call, so they size this scratch once per
/// pipeline call, not once per block.)
#[derive(Default)]
struct WindowBufs {
    values: Vec<u64>,
    index: Vec<u64>,
}

thread_local! {
    static WINDOW_SCRATCH: RefCell<WindowBufs> = RefCell::new(WindowBufs::default());
}

/// Borrow this thread's window scratch, reset for `size`/`lay`, and run `f`.
fn with_window<R>(size: usize, lay: Layout, f: impl FnOnce(&mut Window<'_>) -> R) -> R {
    WINDOW_SCRATCH.with(|s| {
        let mut bufs = s.borrow_mut();
        let bufs = &mut *bufs;
        bufs.values.clear();
        bufs.values.resize(size, 0);
        bufs.index.clear();
        bufs.index.resize(1 << lay.key_bits, 0);
        let mut win = Window {
            values: &mut bufs.values,
            index: &mut bufs.index,
            key_mask: (1u64 << lay.key_bits) - 1,
            size,
        };
        f(&mut win)
    })
}

struct Window<'a> {
    values: &'a mut [u64],
    /// Most recent absolute position (+1; 0 = empty) per low-bits key.
    index: &'a mut [u64],
    key_mask: u64,
    size: usize,
}

impl Window<'_> {
    /// Candidate reference for `value` at absolute position `pos`:
    /// `(slot, stored_value)` of the latest same-key value still in the
    /// window, if any.
    fn candidate(&self, value: u64, pos: usize) -> Option<(usize, u64)> {
        let key = (value & self.key_mask) as usize;
        let stored = self.index[key];
        if stored == 0 {
            return None;
        }
        let cand_pos = (stored - 1) as usize;
        if pos - cand_pos > self.size {
            return None;
        }
        let slot = cand_pos % self.size;
        Some((slot, self.values[slot]))
    }

    fn insert(&mut self, value: u64, pos: usize) {
        let key = (value & self.key_mask) as usize;
        self.index[key] = (pos + 1) as u64;
        self.values[pos % self.size] = value;
    }

    fn value_at_slot(&self, slot: usize) -> u64 {
        self.values[slot]
    }
}

fn encode_words(
    mut words: impl Iterator<Item = u64>,
    lay: Layout,
    window_size: usize,
    idx_bits: u32,
    w: &mut BitSink<'_>,
) {
    let Some(first) = words.next() else {
        return;
    };
    with_window(window_size, lay, |win| {
        w.push_bits(first, lay.bits);
        win.insert(first, 0);
        let mut prev = first;
        let mut prev_lz_bucket = u32::MAX;
        // Fused header widths, hoisted out of the per-value loop.
        let hdr00_bits = 2 + idx_bits;
        let hdr01_bits = 2 + idx_bits + 3 + lay.center_field;

        // Emit the previous-value fallback forms: `10` (bucket repeat,
        // fused with the payload when it fits one push) or `11` (fresh
        // 3-bit bucket code fused into a 5-bit header).
        let mut push_prev_form = |w: &mut BitSink<'_>, code: u32, stored: u32, xor: u64| {
            if code == prev_lz_bucket {
                if stored <= 62 {
                    w.push_bits((0b10u64 << stored) | xor, stored + 2);
                } else {
                    w.push_bits(0b10, 2);
                    w.push_bits(xor, stored);
                }
            } else {
                w.push_bits((0b11u64 << 3) | code as u64, 5);
                w.push_bits(xor, stored);
                prev_lz_bucket = code;
            }
        };

        for (k, cur) in words.enumerate().map(|(k, cur)| (k + 1, cur)) {
            // Probe the window for a same-low-bits reference.
            let candidate = win.candidate(cur, k);
            let indexed = candidate.and_then(|(slot, val)| {
                let xor = cur ^ val;
                if xor == 0 || xor.trailing_zeros().min(lay.bits) > TZ_THRESHOLD {
                    Some((slot, xor))
                } else {
                    None
                }
            });

            match indexed {
                Some((slot, 0)) => {
                    // `00`: exact repeat of an in-window value; control and
                    // index in one push.
                    w.push_bits(slot as u64, hdr00_bits);
                }
                Some((slot, xor)) => {
                    // `01`: indexed reference, big trailing-zero run. The
                    // control bits, index, bucket code, and center length
                    // fuse into a single header push (≤ 27 bits).
                    let lz = xor.leading_zeros() - (64 - lay.bits);
                    let (code, lz_rounded) = bucket_of(lz, lay.buckets);
                    let tz = xor.trailing_zeros();
                    let center = lay.bits - lz_rounded - tz;
                    // center ∈ [1, bits − threshold); store center − 1.
                    let hdr = (((0b01u64 << idx_bits) | slot as u64) << 3 | code as u64)
                        << lay.center_field
                        | (center - 1) as u64;
                    w.push_bits(hdr, hdr01_bits);
                    w.push_bits(xor >> tz, center);
                }
                None => {
                    // Fall back to the previous value as reference.
                    let xor = cur ^ prev;
                    if xor == 0 {
                        // Rare (a zero xor with prev would normally hit the
                        // window path), but reachable when the window slot was
                        // overwritten. Use the `10`/`11` forms with full width.
                        let (code, lz_rounded) = bucket_of(lay.bits - 1, lay.buckets);
                        push_prev_form(w, code, lay.bits - lz_rounded, 0);
                    } else {
                        let lz = xor.leading_zeros() - (64 - lay.bits);
                        let (code, lz_rounded) = bucket_of(lz, lay.buckets);
                        push_prev_form(w, code, lay.bits - lz_rounded, xor);
                    }
                }
            }
            win.insert(cur, k);
            prev = cur;
        }
    })
}

fn decode_words(
    r: &mut BitReader<'_>,
    count: usize,
    lay: Layout,
    window_size: usize,
    idx_bits: u32,
    mut emit: impl FnMut(u64),
) -> Result<()> {
    if count == 0 {
        return Ok(());
    }
    let first = r
        .read_bits(lay.bits)
        .ok_or_else(|| Error::Corrupt("chimp: missing first value".into()))?;
    emit(first);
    with_window(window_size, lay, |win| {
        win.insert(first, 0);
        let mut prev = first;
        // Width of the verbatim field for the `10` form; set by each `11`.
        let mut prev_stored = lay.bits;

        for k in 1..count {
            let form = r
                .read_bits(2)
                .ok_or_else(|| Error::Corrupt("chimp: truncated control".into()))?;
            let cur = match form {
                0b00 => {
                    let slot = r
                        .read_bits(idx_bits)
                        .ok_or_else(|| Error::Corrupt("chimp: truncated index".into()))?
                        as usize;
                    if slot >= window_size {
                        return Err(Error::Corrupt("chimp: index out of window".into()));
                    }
                    win.value_at_slot(slot)
                }
                0b01 => {
                    // Index, bucket code, and center length in one read.
                    let hdr = r
                        .read_bits(idx_bits + 3 + lay.center_field)
                        .ok_or_else(|| Error::Corrupt("chimp: truncated 01-form header".into()))?;
                    let slot = (hdr >> (3 + lay.center_field)) as usize;
                    if slot >= window_size {
                        return Err(Error::Corrupt("chimp: index out of window".into()));
                    }
                    let code = ((hdr >> lay.center_field) & 0b111) as usize;
                    let lz = lay.buckets[code];
                    let center = (hdr & ((1u64 << lay.center_field) - 1)) as u32 + 1;
                    if lz + center > lay.bits {
                        return Err(Error::Corrupt("chimp: center exceeds word".into()));
                    }
                    let tz = lay.bits - lz - center;
                    let bits = r
                        .read_bits(center)
                        .ok_or_else(|| Error::Corrupt("chimp: truncated center bits".into()))?;
                    win.value_at_slot(slot) ^ (bits << tz)
                }
                0b10 => {
                    let bits = r
                        .read_bits(prev_stored)
                        .ok_or_else(|| Error::Corrupt("chimp: truncated 10-form bits".into()))?;
                    prev ^ bits
                }
                _ => {
                    let code = r
                        .read_bits(3)
                        .ok_or_else(|| Error::Corrupt("chimp: truncated 11-form code".into()))?
                        as usize;
                    let lz = lay.buckets[code];
                    let stored = lay.bits - lz;
                    prev_stored = stored;
                    let bits = r
                        .read_bits(stored)
                        .ok_or_else(|| Error::Corrupt("chimp: truncated 11-form bits".into()))?;
                    prev ^ bits
                }
            };
            win.insert(cur, k);
            prev = cur;
            emit(cur);
        }
        Ok(())
    })
}

impl Compressor for Chimp {
    fn info(&self) -> CodecInfo {
        CodecInfo {
            name: "chimp128",
            year: 2022,
            community: Community::Database,
            class: CodecClass::Dictionary,
            platform: Platform::Cpu,
            parallel: false,
            precisions: PrecisionSupport::Both,
        }
    }

    /// Zero-allocation in steady state: bits are emitted straight into `out`
    /// through a [`BitSink`], words stream from the payload bytes, and the
    /// 128-value window lives in thread-local scratch. The reserve covers
    /// the worst-case stream (every value an `01` form with a full-width
    /// center), so the sink's word spills never reallocate.
    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        let idx_bits = self.index_bits();
        let lay = match data.desc().precision {
            Precision::Double => L64,
            Precision::Single => L32,
        };
        // Worst case per value across all four forms: the `01` header plus
        // a center as wide as the word.
        let per_value = (2 + idx_bits + 3 + lay.center_field + lay.bits) as usize;
        let stream_bits = lay.bits as usize + data.elements().saturating_sub(1) * per_value;
        out.clear();
        out.reserve(8 + stream_bits.div_ceil(8));
        out.extend_from_slice(&(data.elements() as u64).to_le_bytes());
        let mut w = BitSink::new(out);
        match data.desc().precision {
            Precision::Double => {
                encode_words(u64_words(data.bytes()), L64, self.window, idx_bits, &mut w)
            }
            Precision::Single => encode_words(
                u32_words(data.bytes()).map(u64::from),
                L32,
                self.window,
                idx_bits,
                &mut w,
            ),
        }
        w.finish(); // spill the staged partial word before reading out.len()
        Ok(out.len())
    }

    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        // The descriptor is untrusted (the runner and other direct callers
        // hand it over unchecked): reject implausible output claims before
        // anything is reserved against them.
        fcbench_core::blocks::check_decode_claim(desc, payload.len())?;
        let mut cur = Cursor::new("chimp", payload);
        let count = cur.len64("element count")?;
        if count != desc.elements() {
            return Err(Error::Corrupt("chimp: element count mismatch".into()));
        }
        let idx_bits = self.index_bits();
        out.refill(desc, |bytes| {
            bytes.reserve(desc.byte_len());
            let mut r = BitReader::new(cur.rest());
            match desc.precision {
                Precision::Double => decode_words(&mut r, count, L64, self.window, idx_bits, |w| {
                    bytes.extend_from_slice(&w.to_le_bytes())
                }),
                Precision::Single => decode_words(&mut r, count, L32, self.window, idx_bits, |w| {
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
        let data = FloatData::from_f64(vals, vec![vals.len()], Domain::TimeSeries).unwrap();
        let c = Chimp::new();
        let payload = c.compress(&data).unwrap();
        let back = c.decompress(&payload, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
        payload.len()
    }

    fn round_trip_f32(vals: &[f32]) -> usize {
        let data = FloatData::from_f32(vals, vec![vals.len()], Domain::TimeSeries).unwrap();
        let c = Chimp::new();
        let payload = c.compress(&data).unwrap();
        let back = c.decompress(&payload, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
        payload.len()
    }

    #[test]
    fn constant_series() {
        let n = round_trip_f64(&[std::f64::consts::PI; 5000]);
        // form `00` costs 9 bits per element.
        assert!(n < 5000 * 2, "constant series took {n} bytes");
    }

    #[test]
    fn repeating_cycle_hits_the_window() {
        // A cycle of 32 distinct full-mantissa values: Gorilla sees
        // "changes", Chimp's window finds exact repeats (form 00). The
        // values need distinct low bits for the similarity key to work —
        // sqrt gives dense mantissas.
        let cycle: Vec<f64> = (0..32).map(|i| (2.0 + i as f64).sqrt()).collect();
        let vals: Vec<f64> = (0..8000).map(|i| cycle[i % 32]).collect();
        let chimp_size = round_trip_f64(&vals);

        let data = FloatData::from_f64(&vals, vec![vals.len()], Domain::TimeSeries).unwrap();
        let gorilla = crate::gorilla::Gorilla::new();
        let gorilla_size = gorilla.compress(&data).unwrap().len();
        assert!(
            chimp_size < gorilla_size,
            "chimp ({chimp_size}) should beat gorilla ({gorilla_size}) on cyclic data"
        );
    }

    #[test]
    fn noisy_random_values_survive() {
        let mut x = 88172645463325252u64;
        let vals: Vec<f64> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f64::from_bits((x >> 2) | 0x3FF0_0000_0000_0000)
            })
            .collect();
        round_trip_f64(&vals);
    }

    #[test]
    fn special_values() {
        round_trip_f64(&[
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            1.0,
        ]);
        round_trip_f32(&[0.0, -0.0, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE, -1.5]);
    }

    #[test]
    fn single_precision_series() {
        let vals: Vec<f32> = (0..6000).map(|i| 100.0 + (i % 50) as f32 * 0.5).collect();
        let n = round_trip_f32(&vals);
        assert!(n < 6000 * 4);
    }

    #[test]
    fn window_one_still_round_trips() {
        let c = Chimp::with_window(1);
        let vals: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        let data = FloatData::from_f64(&vals, vec![1000], Domain::TimeSeries).unwrap();
        let payload = c.compress(&data).unwrap();
        let back = c.decompress(&payload, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
    }

    #[test]
    fn larger_windows_help_on_mixed_streams() {
        // Interleaved channels: channel values repeat at stride 8.
        let vals: Vec<f64> = (0..8000)
            .map(|i| {
                let channel = i % 8;
                1000.0 * channel as f64 + ((i / 8) % 3) as f64 * 0.001
            })
            .collect();
        let data = FloatData::from_f64(&vals, vec![8000], Domain::TimeSeries).unwrap();
        let small = Chimp::with_window(2).compress(&data).unwrap().len();
        let big = Chimp::with_window(128).compress(&data).unwrap().len();
        assert!(
            big <= small,
            "window 128 ({big}) should not lose to window 2 ({small})"
        );
    }

    #[test]
    fn truncation_rejected() {
        let vals: Vec<f64> = (0..500).map(|i| i as f64 * 0.37).collect();
        let data = FloatData::from_f64(&vals, vec![500], Domain::TimeSeries).unwrap();
        let c = Chimp::new();
        let payload = c.compress(&data).unwrap();
        assert!(c
            .decompress(&payload[..payload.len() / 3], data.desc())
            .is_err());
        assert!(c.decompress(&[], data.desc()).is_err());
    }

    #[test]
    fn bucket_rounding_is_monotone() {
        for lz in 0..64 {
            let (code, rounded) = bucket_of(lz, &LEADING_BUCKETS_64);
            assert!(rounded <= lz);
            assert!(code < 8);
            if lz >= 24 {
                assert_eq!(rounded, 24);
            }
        }
    }

    #[test]
    fn info_matches_table1() {
        let info = Chimp::new().info();
        assert_eq!(info.name, "chimp128");
        assert_eq!(info.year, 2022);
        assert_eq!(info.class, CodecClass::Dictionary);
    }
}
