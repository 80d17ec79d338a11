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
use fcbench_entropy::BitSink;

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

/// The 128 stream bits from bit `pos` on, MSB-aligned and zero past the
/// end of `buf`: one big-endian load, of which at least the top 121 bits
/// are the stream's, enough for the widest value form.
#[inline(always)]
fn window_at(buf: &[u8], pos: usize) -> u128 {
    let w = match buf.get(pos >> 3..).and_then(|t| t.first_chunk::<16>()) {
        Some(w) => u128::from_be_bytes(*w),
        None => padded(buf, pos >> 3),
    };
    w << (pos & 7)
}

/// The last bytes of `buf` from `at`, zero-padded to sixteen.
#[cold]
fn padded(buf: &[u8], at: usize) -> u128 {
    let mut tmp = [0u8; 16];
    let tail = buf.get(at..).unwrap_or_default();
    let n = tail.len().min(16);
    tmp[..n].copy_from_slice(&tail[..n]);
    u128::from_be_bytes(tmp)
}

/// The `n` (1..=64) stream bits at bit `pos`, MSB first, zero past the end
/// of `buf`.
#[inline(always)]
fn bits_at(buf: &[u8], pos: usize, n: u32) -> u64 {
    (window_at(buf, pos) >> (128 - n)) as u64
}

/// The decoder's running state: the cursor (in bits, never past `total`),
/// the previous value, and the active meaningful-bit window.
struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    total: usize,
    prev: u64,
    win_tz: u32,
    win_len: u32,
    lay: Layout,
}

impl Decoder<'_> {
    /// Bits in the longest value form: `11`, the window header, a full word.
    fn widest(&self) -> usize {
        (2 + self.lay.lz_field + self.lay.len_field + self.lay.bits) as usize
    }

    /// Split a `11` window header into its leading-zero count and length,
    /// rejecting a window wider than the word.
    fn window(&self, hdr: u64) -> Result<(u32, u32)> {
        let lz = (hdr >> self.lay.len_field) as u32;
        let len = (hdr & ((1u64 << self.lay.len_field) - 1)) as u32 + 1;
        if lz + len > self.lay.bits {
            return Err(Error::Corrupt("gorilla: window exceeds word".into()));
        }
        Ok((lz, len))
    }

    /// Decode one value when the widest value form fits the stream, so no
    /// field needs a test of its own: the control bits, the window header
    /// and the value bits all come from one big-endian load at the cursor.
    #[inline(always)]
    fn next_unchecked(&mut self) -> Result<u64> {
        let w = window_at(self.buf, self.pos);
        if w >> 127 == 0 {
            self.pos += 1;
            return Ok(self.prev);
        }
        let xor = if (w >> 126) & 1 == 0 {
            let bits = ((w << 2) >> (128 - self.win_len)) as u64;
            self.pos += 2 + self.win_len as usize;
            bits << self.win_tz
        } else {
            let hdr_field = self.lay.lz_field + self.lay.len_field;
            let (lz, len) = self.window(((w << 2) >> (128 - hdr_field)) as u64)?;
            let head = 2 + hdr_field;
            let bits = ((w << head) >> (128 - len)) as u64;
            self.pos += (head + len) as usize;
            self.win_tz = self.lay.bits - lz - len;
            self.win_len = len;
            bits << self.win_tz
        };
        self.prev ^= xor;
        Ok(self.prev)
    }

    /// Advance past `n` bits the caller is about to read, or fail with
    /// `what` when the stream ends first. Returns the field's position.
    fn take(&mut self, n: u32, what: &str) -> Result<usize> {
        if self.total - self.pos < n as usize {
            return Err(Error::Corrupt(format!("gorilla: truncated {what}")));
        }
        let at = self.pos;
        self.pos += n as usize;
        Ok(at)
    }

    /// Decode one value near the end of the stream, testing each field.
    fn next_checked(&mut self) -> Result<u64> {
        let ctrl = bits_at(self.buf, self.pos, 2);
        if ctrl & 0b10 == 0 {
            self.take(1, "control bit")?;
            return Ok(self.prev);
        }
        self.take(2, "control form")?;
        let xor = if ctrl == 0b10 {
            let at = self.take(self.win_len, "windowed bits")?;
            bits_at(self.buf, at, self.win_len) << self.win_tz
        } else {
            let hdr_field = self.lay.lz_field + self.lay.len_field;
            let at = self.take(hdr_field, "window header")?;
            let (lz, len) = self.window(bits_at(self.buf, at, hdr_field))?;
            let at = self.take(len, "new-window bits")?;
            self.win_tz = self.lay.bits - lz - len;
            self.win_len = len;
            bits_at(self.buf, at, len) << self.win_tz
        };
        self.prev ^= xor;
        Ok(self.prev)
    }
}

/// Decode the value stream `stream` into `out`, one little-endian `W`-byte
/// slot per value (`W` is `lay.bits / 8`). The values whose widest form
/// still fits the stream take one bounds test each; the last few take one
/// per field.
fn decode_words<const W: usize>(stream: &[u8], lay: Layout, out: &mut [u8]) -> Result<()> {
    let mut slots = out.chunks_exact_mut(W);
    let Some(first_slot) = slots.next() else {
        return Ok(());
    };
    let total = stream.len().saturating_mul(8);
    if total < lay.bits as usize {
        return Err(Error::Corrupt("gorilla: missing first value".into()));
    }
    let first = bits_at(stream, 0, lay.bits);
    first_slot.copy_from_slice(&first.to_le_bytes()[..W]);
    let mut d = Decoder {
        buf: stream,
        pos: lay.bits as usize,
        total,
        prev: first,
        win_tz: 0,
        win_len: lay.bits,
        lay,
    };
    let fast_end = total.saturating_sub(d.widest());
    for slot in slots {
        let value = if d.pos <= fast_end {
            d.next_unchecked()?
        } else {
            d.next_checked()?
        };
        slot.copy_from_slice(&value.to_le_bytes()[..W]);
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
            bytes.resize(desc.byte_len(), 0);
            match desc.precision {
                Precision::Double => decode_words::<8>(cur.rest(), L64, bytes),
                Precision::Single => decode_words::<4>(cur.rest(), L32, bytes),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::Domain;
    use fcbench_entropy::BitReader;

    /// The decoder this codec shipped before the one-test-per-value loop,
    /// field by field through a [`BitReader`], kept as the oracle the
    /// shipping decoder is held to.
    fn oracle_words(
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

    /// [`Gorilla::decompress_into`] with the oracle in place of
    /// [`decode_words`].
    fn oracle_decompress(payload: &[u8], desc: &DataDesc) -> Result<Vec<u8>> {
        fcbench_core::blocks::check_decode_claim(desc, payload.len())?;
        let mut cur = Cursor::new("gorilla", payload);
        let count = cur.len64("element count")?;
        if count != desc.elements() {
            return Err(Error::Corrupt(format!(
                "gorilla: stream holds {count} elements, descriptor expects {}",
                desc.elements()
            )));
        }
        let mut r = BitReader::new(cur.rest());
        let mut bytes = Vec::new();
        match desc.precision {
            Precision::Double => oracle_words(&mut r, count, L64, |w| {
                bytes.extend_from_slice(&w.to_le_bytes())
            }),
            Precision::Single => oracle_words(&mut r, count, L32, |w| {
                bytes.extend_from_slice(&(w as u32).to_le_bytes())
            }),
        }?;
        Ok(bytes)
    }

    /// One hostile payload: the shipping decoder returns the oracle's typed
    /// error, or the oracle's bytes at exactly the descriptor's size.
    fn decodes_like_the_oracle(payload: &[u8], desc: &DataDesc, case: &str) {
        match (
            Gorilla::new().decompress(payload, desc),
            oracle_decompress(payload, desc),
        ) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.bytes().len(), desc.byte_len(), "{case}");
                assert_eq!(got.bytes(), &want[..], "{case}");
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "{case}"),
            (got, want) => panic!("{case}: decoder {got:?}, oracle {want:?}"),
        }
    }

    /// Real pages, every truncation and every single-bit flip in the first
    /// and last 64 bytes, on both precisions: no panic, and the oracle's
    /// verdict and bytes.
    #[test]
    fn hostile_payloads_decode_like_the_oracle() {
        let elems = 4096;
        for name in ["tpcH-order", "citytemp"] {
            let spec = fcbench_datasets::find(name).expect("catalogued dataset");
            let full = fcbench_datasets::generate(&spec, elems);
            let esize = full.desc().precision.bytes();
            let desc = DataDesc::new(full.desc().precision, vec![elems], Domain::Database).unwrap();
            let page = FloatData::from_bytes(desc.clone(), full.bytes()[..elems * esize].to_vec())
                .unwrap();
            let payload = Gorilla::new().compress(&page).unwrap();
            decodes_like_the_oracle(&payload, &desc, name);
            for len in 0..payload.len() {
                decodes_like_the_oracle(&payload[..len], &desc, &format!("{name} cut at {len}"));
            }
            let n = payload.len();
            for byte in (0..64.min(n)).chain(n.saturating_sub(64)..n) {
                for bit in 0..8 {
                    let mut bad = payload.clone();
                    bad[byte] ^= 1 << bit;
                    decodes_like_the_oracle(&bad, &desc, &format!("{name} flip {byte}.{bit}"));
                }
            }
        }
    }

    /// A walk whose residuals take every leading-zero count and every
    /// meaningful length a `bits`-wide word allows, each followed by one
    /// inside the same window and a repeat, so the stream holds every `11`
    /// header, `10` reuses and `0`s.
    fn window_walk(bits: u32) -> Vec<u64> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut vals = vec![0u64];
        for lz in 0..bits {
            for len in 1..=bits - lz {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let tz = bits - lz - len;
                let mask = u64::MAX.checked_shr(64 - len).unwrap_or(0) << tz;
                let residual = (x & mask) | 1 << (bits - 1 - lz) | 1 << tz;
                let prev = *vals.last().unwrap();
                vals.push(prev ^ residual);
                vals.push(prev ^ residual ^ (x & mask));
                vals.push(*vals.last().unwrap());
            }
        }
        vals
    }

    #[test]
    fn every_window_shape_decodes_like_the_oracle() {
        let f64s: Vec<f64> = window_walk(64).into_iter().map(f64::from_bits).collect();
        let f32s: Vec<f32> = window_walk(32)
            .into_iter()
            .map(|v| f32::from_bits(v as u32))
            .collect();
        for data in [
            FloatData::from_f64(&f64s, vec![f64s.len()], Domain::TimeSeries).unwrap(),
            FloatData::from_f32(&f32s, vec![f32s.len()], Domain::TimeSeries).unwrap(),
        ] {
            let payload = Gorilla::new().compress(&data).unwrap();
            decodes_like_the_oracle(&payload, data.desc(), "window shapes");
            let out = Gorilla::new().decompress(&payload, data.desc()).unwrap();
            assert_eq!(out.bytes(), data.bytes());
        }
    }

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
