//! pFPC (Burtscher & Ratanaworabhan, DCC 2009; paper §3.6).
//!
//! FPC predicts each 64-bit word with two hash-table predictors —
//! **FCM** (finite context) and **DFCM** (differential finite context) —
//! XORs the better prediction with the true value, and encodes the result
//! as a 4-bit code (1 bit predictor selector + 3 bits leading-zero-byte
//! count, with the rare count of 4 folded into 3) followed by the non-zero
//! residual bytes. pFPC parallelizes by splitting the input into chunks
//! compressed independently on `threads` OS threads, each with private
//! predictor tables.
//!
//! The stream is processed as raw u64 words regardless of the nominal
//! precision (FPC treats everything as doubles); a non-multiple-of-8 tail
//! is stored verbatim. The paper's §3.6 insight — aligning thread count
//! with data dimensionality preserves per-dimension correlation — is
//! exercised by the `ablation_pfpc` bench via [`Pfpc::with_threads`].
//!
//! Payload: the [`begin_word_frame`] frame, one [`pack_counted`] stream
//! per chunk.

use crate::common::{begin_word_frame, pack_counted, read_word_frame, unpack_counted};
use fcbench_core::wire::{code_chunks, fan_out, Cursor};
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, FloatData, Platform, PrecisionSupport,
    Result,
};
use std::cell::RefCell;

/// Log2 of the predictor hash-table sizes.
const TABLE_LOG: u32 = 16;
const TABLE_SIZE: usize = 1 << TABLE_LOG;

/// Leading-zero-byte counts representable by the 3-bit code.
/// Count 4 is folded down to 3 (the original FPC design: 4 is rare).
const LZB_TABLE: [u32; 8] = [0, 1, 2, 3, 5, 6, 7, 8];

#[inline]
fn lzb_to_code(lzb: u32) -> u32 {
    match lzb {
        0..=3 => lzb,
        4 => 3,
        5..=8 => lzb - 1,
        _ => 7,
    }
}

/// Residual bytes kept for a 3-bit code.
#[inline]
fn residual_bytes(code: u32) -> usize {
    (8 - LZB_TABLE[code as usize & 7]) as usize
}

/// The pFPC codec.
#[derive(Debug, Clone)]
pub struct Pfpc {
    threads: usize,
}

impl Default for Pfpc {
    fn default() -> Self {
        Self::new()
    }
}

impl Pfpc {
    /// Default 8 threads, as in the original release.
    pub fn new() -> Self {
        Pfpc { threads: 8 }
    }

    pub fn with_threads(threads: usize) -> Self {
        Pfpc {
            threads: threads.max(1),
        }
    }
}

/// Reusable FCM/DFCM tables. A chunk touches at most `chunk_len` slots of
/// each 512 KB table, so zeroing the whole pair per chunk costs more than the
/// predictor work at benchmark chunk sizes. Instead the tables live in
/// thread-local scratch with an all-zero invariant: every slot written
/// during a chunk is recorded and re-zeroed afterwards — including on
/// corrupt-stream error paths, so a failed decode cannot poison the next
/// call's predictions.
struct PredictorScratch {
    fcm: Vec<u64>,
    dfcm: Vec<u64>,
    touched_fcm: Vec<u32>,
    touched_dfcm: Vec<u32>,
}

impl PredictorScratch {
    const fn new() -> Self {
        PredictorScratch {
            fcm: Vec::new(),
            dfcm: Vec::new(),
            touched_fcm: Vec::new(),
            touched_dfcm: Vec::new(),
        }
    }

    /// Run one chunk over the all-zero tables, restoring the invariant —
    /// exactly the slots the chunk wrote are cleared — however `chunk` ends.
    fn with<R>(chunk: impl FnOnce(&mut Self) -> R) -> R {
        PFPC_SCRATCH.with_borrow_mut(|scr| {
            if scr.fcm.is_empty() {
                scr.fcm.resize(TABLE_SIZE, 0);
                scr.dfcm.resize(TABLE_SIZE, 0);
            }
            let result = chunk(scr);
            for s in scr.touched_fcm.drain(..) {
                scr.fcm[s as usize] = 0;
            }
            for s in scr.touched_dfcm.drain(..) {
                scr.dfcm[s as usize] = 0;
            }
            result
        })
    }
}

/// One chunk's running predictor state — compression and decompression
/// drive the same two steps, so they cannot diverge. Kept apart from the
/// tables so the three words stay in registers across the chunk loop.
#[derive(Default)]
struct Predictors {
    fcm_hash: usize,
    dfcm_hash: usize,
    last: u64,
}

impl Predictors {
    /// The FCM and DFCM predictions for the next word.
    #[inline]
    fn predict(&self, scr: &PredictorScratch) -> (u64, u64) {
        let dfcm = scr.dfcm[self.dfcm_hash].wrapping_add(self.last);
        (scr.fcm[self.fcm_hash], dfcm)
    }

    /// Absorb the actual word into both tables.
    #[inline]
    fn update(&mut self, scr: &mut PredictorScratch, val: u64) {
        scr.touched_fcm.push(self.fcm_hash as u32);
        scr.fcm[self.fcm_hash] = val;
        self.fcm_hash = ((self.fcm_hash << 6) ^ (val >> 48) as usize) & (TABLE_SIZE - 1);
        let delta = val.wrapping_sub(self.last);
        scr.touched_dfcm.push(self.dfcm_hash as u32);
        scr.dfcm[self.dfcm_hash] = delta;
        self.dfcm_hash = ((self.dfcm_hash << 2) ^ (delta >> 40) as usize) & (TABLE_SIZE - 1);
        self.last = val;
    }
}

thread_local! {
    static PFPC_SCRATCH: RefCell<PredictorScratch> = const { RefCell::new(PredictorScratch::new()) };
}

/// Compress one chunk of words (raw little-endian bytes, length a multiple
/// of 8) with private predictor state, appending the chunk to `out`.
fn compress_chunk_into(bytes: &[u8], out: &mut Vec<u8>) {
    PredictorScratch::with(|scr| {
        let mut state = Predictors::default();
        pack_counted(bytes, out, |val| {
            let (fcm, dfcm) = state.predict(scr);
            let (xf, xd) = (val ^ fcm, val ^ dfcm);
            let (sel, xor) = if xf <= xd { (0, xf) } else { (8, xd) };
            // The code table may claim fewer leading zero bytes than
            // actual (4 -> 3); residual bytes are emitted per the *code*.
            let code = lzb_to_code(xor.leading_zeros() / 8);
            state.update(scr, val);
            (sel | code as u8, xor, residual_bytes(code))
        })
    })
}

/// Decompress one chunk into `dst`, whose length fixes the word count.
fn decompress_chunk_into(payload: &[u8], dst: &mut [u8]) -> Result<()> {
    let mut cur = Cursor::new("pfpc", payload);
    let count = dst.len() / 8;
    let mut words = dst.chunks_exact_mut(8);
    let width = |nibble: u8| Some(residual_bytes(nibble.into()));
    PredictorScratch::with(|scr| {
        let mut state = Predictors::default();
        unpack_counted(&mut cur, count, width, |nibble, xor| {
            let (fcm, dfcm) = state.predict(scr);
            let val = xor ^ if nibble & 8 == 0 { fcm } else { dfcm };
            state.update(scr, val);
            if let Some(word) = words.next() {
                word.copy_from_slice(&val.to_le_bytes());
            }
        })
    })?;
    cur.finish()
}

impl Compressor for Pfpc {
    fn info(&self) -> CodecInfo {
        CodecInfo {
            name: "pfpc",
            year: 2009,
            community: Community::Hpc,
            class: CodecClass::Prediction,
            platform: Platform::Cpu,
            parallel: true,
            precisions: PrecisionSupport::Both,
        }
    }

    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        let bytes = data.bytes();
        let (chunks, tail) = begin_word_frame(out, bytes, self.threads);
        code_chunks(out, chunks.len(), bytes.len(), self.threads, |k, out| {
            compress_chunk_into(chunks[k], out)
        })?;
        out.extend_from_slice(tail);
        Ok(out.len())
    }

    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        // The descriptor is untrusted (the runner and other direct callers
        // hand it over unchecked): reject implausible output claims before
        // anything is reserved against them.
        fcbench_core::blocks::check_decode_claim(desc, payload.len())?;
        let (chunks, tail) = read_word_frame("pfpc", payload, desc)?;
        out.refill(desc, |bytes| {
            bytes.clear();
            bytes.resize(desc.byte_len() / 8 * 8, 0);
            // One slot per chunk: its payload, its disjoint output region,
            // its outcome.
            let mut rest = bytes.as_mut_slice();
            let mut slots = Vec::with_capacity(chunks.len());
            for (chunk, count) in chunks {
                let (dst, after) = std::mem::take(&mut rest).split_at_mut(count * 8);
                rest = after;
                slots.push((chunk, dst, Ok(())));
            }
            fan_out(&mut slots, desc.byte_len(), self.threads, |_, slot| {
                slot.2 = decompress_chunk_into(slot.0, slot.1);
            });
            slots.into_iter().try_for_each(|(_, _, done)| done)?;
            bytes.extend_from_slice(tail);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::Domain;

    fn round_trip_with(data: &FloatData, threads: usize) -> usize {
        let p = Pfpc::with_threads(threads);
        let c = p.compress(data).unwrap();
        let back = p.decompress(&c, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
        c.len()
    }

    #[test]
    fn smooth_data_compresses() {
        let vals: Vec<f64> = (0..20_000).map(|i| 5e5 + (i as f64) * 0.25).collect();
        let data = FloatData::from_f64(&vals, vec![20_000], Domain::Hpc).unwrap();
        let n = round_trip_with(&data, 8);
        assert!(n < 20_000 * 8, "predictable stream must compress, got {n}");
    }

    #[test]
    fn thread_counts_all_round_trip() {
        let vals: Vec<f64> = (0..5000).map(|i| ((i % 100) as f64).powi(2)).collect();
        let data = FloatData::from_f64(&vals, vec![5000], Domain::Hpc).unwrap();
        for t in [1, 2, 3, 7, 8, 16, 48] {
            round_trip_with(&data, t);
        }
    }

    #[test]
    fn cross_thread_payloads_are_compatible() {
        // Compress with 4 threads, decompress with a codec configured for 1:
        // the stream carries its own chunk directory.
        let vals: Vec<f64> = (0..3000).map(|i| (i as f64).sin()).collect();
        let data = FloatData::from_f64(&vals, vec![3000], Domain::Hpc).unwrap();
        let c4 = Pfpc::with_threads(4).compress(&data).unwrap();
        let back = Pfpc::with_threads(1).decompress(&c4, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
    }

    #[test]
    fn single_precision_via_word_reinterpretation() {
        let vals: Vec<f32> = (0..4001).map(|i| i as f32 * 1.5).collect(); // odd count => tail
        let data = FloatData::from_f32(&vals, vec![4001], Domain::Hpc).unwrap();
        round_trip_with(&data, 8);
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
        round_trip_with(&data, 2);
    }

    #[test]
    fn repeating_values_hit_fcm() {
        // A strict cycle is exactly what FCM's context hash learns.
        let vals: Vec<f64> = (0..10_000).map(|i| ((i % 16) as f64) * 3.5).collect();
        let data = FloatData::from_f64(&vals, vec![10_000], Domain::Hpc).unwrap();
        let n = round_trip_with(&data, 1);
        assert!(
            n < 10_000 * 8 / 4,
            "cyclic stream should compress 4x+, got {n}"
        );
    }

    #[test]
    fn lzb_code_folding() {
        assert_eq!(lzb_to_code(0), 0);
        assert_eq!(lzb_to_code(3), 3);
        assert_eq!(lzb_to_code(4), 3); // folded
        assert_eq!(lzb_to_code(5), 4);
        assert_eq!(lzb_to_code(8), 7);
        for lzb in 0..=8u32 {
            let code = lzb_to_code(lzb);
            // The emitted byte count must cover the actual residual bytes.
            assert!(LZB_TABLE[code as usize] <= lzb);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let data = FloatData::from_f64(&[1.5], vec![1], Domain::Hpc).unwrap();
        round_trip_with(&data, 8);
        let data = FloatData::from_f32(&[2.5], vec![1], Domain::Hpc).unwrap();
        round_trip_with(&data, 8); // 4 bytes => pure tail, zero words
    }

    #[test]
    fn corruption_rejected() {
        let vals: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let data = FloatData::from_f64(&vals, vec![500], Domain::Hpc).unwrap();
        let p = Pfpc::new();
        let c = p.compress(&data).unwrap();
        assert!(p.decompress(&c[..10], data.desc()).is_err());
        assert!(p.decompress(&c[..c.len() - 2], data.desc()).is_err());
        let mut extra = c.clone();
        extra.push(1);
        assert!(p.decompress(&extra, data.desc()).is_err());
    }

    #[test]
    fn info_matches_table1() {
        let info = Pfpc::new().info();
        assert_eq!(info.name, "pfpc");
        assert!(info.parallel);
        assert_eq!(info.class, CodecClass::Prediction);
    }
}
