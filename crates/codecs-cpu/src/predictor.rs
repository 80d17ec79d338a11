//! Single-predictor codec family: last-value, last-stride, and DFCM.
//!
//! FPC-style codecs (§3.6) pair *two* hash predictors and spend a selector
//! bit per word. This family isolates one predictor per codec so the
//! benchmark matrix can attribute ratio and throughput to the predictor
//! itself rather than to the selection machinery:
//!
//! | codec | prediction for word *i* |
//! |---|---|
//! | `last-value`  | `w[i-1]` |
//! | `last-stride` | `w[i-1] + (w[i-1] - w[i-2])` (wrapping) |
//! | `dfcm`        | `w[i-1] + table[hash]`, a differential finite-context hash predictor |
//!
//! Like pFPC the stream is processed as raw little-endian u64 words with a
//! verbatim non-multiple-of-8 tail. The prediction is XORed with the true
//! word and the residual stored with a 4-bit leading-zero-byte code
//! (0..=8, no folding — the spare nibble values are simply invalid, which
//! the decoder rejects).
//!
//! Wire: `nwords (u64) | tail_len (u8) | codes (ceil(nwords/2) bytes,
//! high nibble = even word) | residual bytes | tail`.

use crate::common::{pack_nibbles, unpack_nibbles};
use fcbench_core::wire::Cursor;
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, FloatData, Platform, PrecisionSupport,
    Result,
};
use std::cell::RefCell;

/// `u64 nwords | u8 tail_len`.
const HEADER_BYTES: usize = 9;

/// Log2 of the DFCM hash-table size (same sizing as pFPC's tables).
const TABLE_LOG: u32 = 16;
const TABLE_SIZE: usize = 1 << TABLE_LOG;

/// Which predictor a [`Predictor`] instance runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Predict the previous word.
    LastValue,
    /// Predict the previous word plus the previous delta.
    LastStride,
    /// Differential finite-context-method hash predictor.
    Dfcm,
}

/// A single-predictor XOR codec; see the module docs for the family.
#[derive(Debug, Clone, Copy)]
pub struct Predictor {
    kind: PredictorKind,
}

impl Predictor {
    pub(crate) fn new(kind: PredictorKind) -> Self {
        Predictor { kind }
    }

    pub fn last_value() -> Self {
        Self::new(PredictorKind::LastValue)
    }

    pub fn last_stride() -> Self {
        Self::new(PredictorKind::LastStride)
    }

    pub fn dfcm() -> Self {
        Self::new(PredictorKind::Dfcm)
    }
}

/// One step of a word predictor: produce the guess for the next word, then
/// absorb the actual word. Compression and decompression drive the same
/// state machine, so mispredictions cannot diverge between directions.
trait WordModel {
    fn predict(&self) -> u64;
    fn update(&mut self, val: u64);
}

#[derive(Default)]
struct LastValueModel {
    last: u64,
}

impl WordModel for LastValueModel {
    #[inline]
    fn predict(&self) -> u64 {
        self.last
    }

    #[inline]
    fn update(&mut self, val: u64) {
        self.last = val;
    }
}

#[derive(Default)]
struct LastStrideModel {
    last: u64,
    prev: u64,
}

impl WordModel for LastStrideModel {
    #[inline]
    fn predict(&self) -> u64 {
        self.last.wrapping_add(self.last.wrapping_sub(self.prev))
    }

    #[inline]
    fn update(&mut self, val: u64) {
        self.prev = self.last;
        self.last = val;
    }
}

/// DFCM state borrowing the thread-local table. The table carries an
/// all-zero invariant between calls: slots written during a call are
/// recorded and re-zeroed afterwards (including on corrupt-stream error
/// paths), so one 512 KB allocation per thread serves every call without
/// a full clear — the same scratch discipline as pFPC.
struct DfcmModel<'a> {
    table: &'a mut [u64],
    touched: &'a mut Vec<u32>,
    hash: usize,
    last: u64,
}

impl WordModel for DfcmModel<'_> {
    #[inline]
    fn predict(&self) -> u64 {
        self.last.wrapping_add(self.table[self.hash])
    }

    #[inline]
    fn update(&mut self, val: u64) {
        let delta = val.wrapping_sub(self.last);
        self.touched.push(self.hash as u32);
        self.table[self.hash] = delta;
        self.hash = ((self.hash << 2) ^ (delta >> 40) as usize) & (TABLE_SIZE - 1);
        self.last = val;
    }
}

struct DfcmScratch {
    table: Vec<u64>,
    touched: Vec<u32>,
}

/// Run `f` with a fresh DFCM model over the thread's all-zero table, then
/// restore the invariant by clearing exactly the slots `f` wrote.
fn with_dfcm<R>(f: impl FnOnce(DfcmModel<'_>) -> R) -> R {
    DFCM_SCRATCH.with_borrow_mut(|scr| {
        if scr.table.is_empty() {
            scr.table.resize(TABLE_SIZE, 0);
        }
        let result = f(DfcmModel {
            table: &mut scr.table,
            touched: &mut scr.touched,
            hash: 0,
            last: 0,
        });
        for s in scr.touched.drain(..) {
            scr.table[s as usize] = 0;
        }
        result
    })
}

thread_local! {
    static DFCM_SCRATCH: RefCell<DfcmScratch> = const {
        RefCell::new(DfcmScratch {
            table: Vec::new(),
            touched: Vec::new(),
        })
    };
}

/// Append the word region, `codes | residuals`: the nibble is the count of
/// leading zero bytes of `prediction ^ word`, the residual its other bytes.
fn encode_words<M: WordModel>(bytes: &[u8], out: &mut Vec<u8>, mut model: M) {
    pack_nibbles(bytes, out, |val| {
        let xor = val ^ model.predict();
        let lzb = xor.leading_zeros() / 8; // 0..=8
        model.update(val);
        (lzb as u8, xor, (8 - lzb) as usize)
    });
}

/// Decode `count` words from the code/residual regions at `cur`, appending
/// the raw little-endian bytes to `dst`. Accepts exactly the streams
/// [`encode_words`] emits: every nibble must be a valid count and the
/// `nresidual` residual bytes must be consumed exactly.
fn unpack_words<M: WordModel>(
    cur: &mut Cursor<'_>,
    count: usize,
    nresidual: usize,
    dst: &mut Vec<u8>,
    mut model: M,
) -> Result<()> {
    let width = |lzb: u8| 8usize.checked_sub(lzb.into());
    unpack_nibbles(cur, count, nresidual, width, |_, xor| {
        let val = model.predict() ^ xor;
        model.update(val);
        dst.extend_from_slice(&val.to_le_bytes());
    })
}

impl Compressor for Predictor {
    fn info(&self) -> CodecInfo {
        let (name, year, class) = match self.kind {
            PredictorKind::LastValue => ("last-value", 2015, CodecClass::Delta),
            PredictorKind::LastStride => ("last-stride", 2015, CodecClass::Delta),
            PredictorKind::Dfcm => ("dfcm", 2006, CodecClass::Prediction),
        };
        CodecInfo {
            name,
            year,
            community: Community::Database,
            class,
            platform: Platform::Cpu,
            parallel: false,
            precisions: PrecisionSupport::Both,
        }
    }

    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        let bytes = data.bytes();
        let (word_bytes, tail) = bytes.split_at(bytes.len() / 8 * 8);
        let nwords = word_bytes.len() / 8;

        out.clear();
        // Single worst-case reservation (header + codes + full-width
        // residuals + tail): a fresh buffer allocates exactly once.
        out.reserve(HEADER_BYTES + nwords.div_ceil(2) + bytes.len());
        out.extend_from_slice(&(nwords as u64).to_le_bytes());
        out.push(tail.len() as u8);

        match self.kind {
            PredictorKind::LastValue => encode_words(word_bytes, out, LastValueModel::default()),
            PredictorKind::LastStride => encode_words(word_bytes, out, LastStrideModel::default()),
            PredictorKind::Dfcm => with_dfcm(|model| encode_words(word_bytes, out, model)),
        }
        out.extend_from_slice(tail);
        Ok(out.len())
    }

    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        // The descriptor is untrusted: reject implausible output claims
        // before anything is sized against them.
        fcbench_core::blocks::check_decode_claim(desc, payload.len())?;
        let mut cur = Cursor::new("predictor", payload);
        let nwords = cur.len64("word count")?;
        let tail_len = usize::from(cur.u8("tail length")?);
        if nwords != desc.byte_len() / 8 || tail_len != desc.byte_len() % 8 {
            return Err(cur.corrupt(format_args!(
                "stream geometry ({nwords} words + {tail_len}) does not match descriptor"
            )));
        }
        // Everything between the codes and the tail is residual bytes.
        let fixed = HEADER_BYTES + nwords.div_ceil(2) + tail_len;
        let Some(nresidual) = payload.len().checked_sub(fixed) else {
            return Err(cur.corrupt("payload shorter than its codes and tail"));
        };

        out.refill(desc, |bytes| {
            bytes.reserve(desc.byte_len());
            match self.kind {
                PredictorKind::LastValue => unpack_words(
                    &mut cur,
                    nwords,
                    nresidual,
                    bytes,
                    LastValueModel::default(),
                )?,
                PredictorKind::LastStride => unpack_words(
                    &mut cur,
                    nwords,
                    nresidual,
                    bytes,
                    LastStrideModel::default(),
                )?,
                PredictorKind::Dfcm => {
                    with_dfcm(|model| unpack_words(&mut cur, nwords, nresidual, bytes, model))?
                }
            }
            bytes.extend_from_slice(cur.rest());
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::Domain;

    fn all_kinds() -> [Predictor; 3] {
        [
            Predictor::last_value(),
            Predictor::last_stride(),
            Predictor::dfcm(),
        ]
    }

    fn round_trip(data: &FloatData) {
        for p in all_kinds() {
            let c = p.compress(data).unwrap();
            let back = p.decompress(&c, data.desc()).unwrap();
            assert_eq!(
                back.bytes(),
                data.bytes(),
                "{} round trip failed",
                p.info().name
            );
        }
    }

    #[test]
    fn smooth_f64_round_trips_and_compresses() {
        let vals: Vec<f64> = (0..20_000).map(|i| 5e5 + (i as f64) * 0.25).collect();
        let data = FloatData::from_f64(&vals, vec![20_000], Domain::Hpc).unwrap();
        round_trip(&data);
        // A constant-stride ramp is last-stride's home turf.
        let c = Predictor::last_stride().compress(&data).unwrap();
        assert!(
            c.len() < 20_000 * 8 / 4,
            "stride-predictable stream should compress 4x+, got {}",
            c.len()
        );
    }

    #[test]
    fn repeating_values_favor_last_value() {
        let vals: Vec<f64> = (0..8000).map(|_| 37.25).collect();
        let data = FloatData::from_f64(&vals, vec![8000], Domain::Hpc).unwrap();
        round_trip(&data);
        let c = Predictor::last_value().compress(&data).unwrap();
        assert!(
            c.len() < 8000,
            "constant stream should collapse, got {}",
            c.len()
        );
    }

    #[test]
    fn cyclic_deltas_favor_dfcm() {
        // A repeating delta pattern is what the differential context hash
        // learns; plain last-value/last-stride cannot.
        let mut acc = 0u64;
        let vals: Vec<f64> = (0..10_000)
            .map(|i| {
                acc = acc.wrapping_add([3, 8, 1, 5][i % 4]);
                acc as f64
            })
            .collect();
        let data = FloatData::from_f64(&vals, vec![10_000], Domain::Hpc).unwrap();
        round_trip(&data);
        let d = Predictor::dfcm().compress(&data).unwrap();
        let lv = Predictor::last_value().compress(&data).unwrap();
        assert!(
            d.len() < lv.len(),
            "dfcm ({}) should beat last-value ({}) on cyclic deltas",
            d.len(),
            lv.len()
        );
    }

    #[test]
    fn single_precision_with_odd_tail() {
        let vals: Vec<f32> = (0..4001).map(|i| i as f32 * 1.5).collect(); // odd count => 4-byte tail
        let data = FloatData::from_f32(&vals, vec![4001], Domain::Hpc).unwrap();
        round_trip(&data);
    }

    #[test]
    fn special_values() {
        let vals = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            1.0,
        ];
        let data = FloatData::from_f64(&vals, vec![7], Domain::Hpc).unwrap();
        round_trip(&data);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let data = FloatData::from_f64(&[1.5], vec![1], Domain::Hpc).unwrap();
        round_trip(&data);
        let data = FloatData::from_f32(&[2.5], vec![1], Domain::Hpc).unwrap();
        round_trip(&data); // 4 bytes => pure tail, zero words
    }

    #[test]
    fn incompressible_noise_survives() {
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let vals: Vec<f64> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f64::from_bits((x >> 12) | 0x3FF0_0000_0000_0000)
            })
            .collect();
        let data = FloatData::from_f64(&vals, vec![5000], Domain::Hpc).unwrap();
        round_trip(&data);
    }

    #[test]
    fn corruption_rejected() {
        let vals: Vec<f64> = (0..500).map(|i| (i as f64).sqrt()).collect();
        let data = FloatData::from_f64(&vals, vec![500], Domain::Hpc).unwrap();
        for p in all_kinds() {
            let c = p.compress(&data).unwrap();
            assert!(p.decompress(&c[..5], data.desc()).is_err());
            assert!(p.decompress(&c[..c.len() - 2], data.desc()).is_err());
            let mut extra = c.clone();
            extra.push(1);
            assert!(p.decompress(&extra, data.desc()).is_err());
            // Invalid nibble (9..=15 is not a leading-zero-byte count).
            let mut bad = c.clone();
            bad[9] = 0xFF;
            assert!(p.decompress(&bad, data.desc()).is_err());
        }
    }

    #[test]
    fn dfcm_state_clean_after_corrupt_stream() {
        // A rejected stream must not leave table entries behind that would
        // change the next compression on the same thread.
        let vals: Vec<f64> = (0..2000).map(|i| (i as f64) * 1.25).collect();
        let data = FloatData::from_f64(&vals, vec![2000], Domain::Hpc).unwrap();
        let p = Predictor::dfcm();
        let clean = p.compress(&data).unwrap();
        let mut bad = clean.clone();
        let last = bad.len() - 1;
        bad.truncate(last); // truncated residual/tail => corrupt
        assert!(p.decompress(&bad, data.desc()).is_err());
        let again = p.compress(&data).unwrap();
        assert_eq!(clean, again, "corrupt decode leaked predictor state");
    }

    #[test]
    fn info_rows() {
        assert_eq!(Predictor::last_value().info().name, "last-value");
        assert_eq!(Predictor::last_stride().info().name, "last-stride");
        let d = Predictor::dfcm().info();
        assert_eq!(d.name, "dfcm");
        assert_eq!(d.class, CodecClass::Prediction);
        assert_eq!(d.platform, Platform::Cpu);
    }
}
