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

use crate::common::{chunk_ranges, push_u32, push_u64, read_u32, read_u64};
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, Error, FloatData, OpProfile, Platform,
    PrecisionSupport, Result,
};
use std::cell::RefCell;

/// Below this many words both directions run their chunks inline on the
/// calling thread: the chunk layout (and therefore the stream) is
/// identical either way, and at benchmark block sizes the per-call spawn
/// cost would dwarf the predictor work itself.
const PARALLEL_WORDS: usize = 1 << 16;

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
/// each 512 KB table, so zeroing the whole pair per chunk (the original
/// `vec![0; TABLE_SIZE]` allocation) costs more than the predictor work at
/// benchmark chunk sizes. Instead the tables live in thread-local scratch
/// with an all-zero invariant: every slot written during a chunk is
/// recorded and re-zeroed afterwards — including on corrupt-stream error
/// paths, so a failed decode cannot poison the next call's predictions.
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

    fn ensure(&mut self) {
        if self.fcm.is_empty() {
            self.fcm.resize(TABLE_SIZE, 0);
            self.dfcm.resize(TABLE_SIZE, 0);
        }
    }

    /// Restore the all-zero invariant by clearing exactly the slots the
    /// finished chunk wrote.
    fn reset(&mut self) {
        for &s in &self.touched_fcm {
            self.fcm[s as usize] = 0;
        }
        for &s in &self.touched_dfcm {
            self.dfcm[s as usize] = 0;
        }
        self.touched_fcm.clear();
        self.touched_dfcm.clear();
    }
}

thread_local! {
    static PFPC_SCRATCH: RefCell<PredictorScratch> = const { RefCell::new(PredictorScratch::new()) };
}

/// Compress one chunk of words (given as raw little-endian bytes, length a
/// multiple of 8) with private predictor state, appending the chunk
/// payload to `out`. Byte-identical to the original per-word
/// implementation: same predictions, same nibble packing, same residual
/// order — but the code region is written in place (its size is known up
/// front) and each residual is one bulk 8-byte store truncated to the
/// width its code claims.
fn compress_chunk_into(bytes: &[u8], out: &mut Vec<u8>) {
    let count = bytes.len() / 8;
    let ncodes = count.div_ceil(2);
    let base = out.len();
    push_u32(out, ncodes as u32);
    push_u32(out, 0); // residual byte count, patched below
    let code_base = out.len();
    out.resize(code_base + ncodes, 0);
    out.reserve(count * 4);

    PFPC_SCRATCH.with_borrow_mut(|scr| {
        scr.ensure();
        let mut fcm_hash = 0usize;
        let mut dfcm_hash = 0usize;
        let mut last = 0u64;
        for (i, w) in bytes.chunks_exact(8).enumerate() {
            let val = u64::from_le_bytes(w.try_into().expect("8 bytes"));
            let xf = val ^ scr.fcm[fcm_hash];
            let xd = val ^ scr.dfcm[dfcm_hash].wrapping_add(last);
            let (sel, xor) = if xf <= xd { (0u32, xf) } else { (1u32, xd) };
            let lzb = (xor.leading_zeros() / 8).min(8);
            // The code table may claim fewer leading zero bytes than
            // actual (4 -> 3); residual bytes are emitted per the *code*.
            let code = lzb_to_code(lzb);
            let nib = (sel << 3) | code;
            if i & 1 == 0 {
                out[code_base + i / 2] = (nib << 4) as u8;
            } else {
                out[code_base + i / 2] |= nib as u8;
            }
            let eb = (8 - LZB_TABLE[code as usize]) as usize;
            let res_start = out.len();
            out.extend_from_slice(&xor.to_le_bytes());
            out.truncate(res_start + eb);

            scr.touched_fcm.push(fcm_hash as u32);
            scr.fcm[fcm_hash] = val;
            fcm_hash = ((fcm_hash << 6) ^ (val >> 48) as usize) & (TABLE_SIZE - 1);
            let delta = val.wrapping_sub(last);
            scr.touched_dfcm.push(dfcm_hash as u32);
            scr.dfcm[dfcm_hash] = delta;
            dfcm_hash = ((dfcm_hash << 2) ^ (delta >> 40) as usize) & (TABLE_SIZE - 1);
            last = val;
        }
        scr.reset();
    });

    let nres = (out.len() - code_base - ncodes) as u32;
    out[base + 4..base + 8].copy_from_slice(&nres.to_le_bytes());
}

/// Decompress one chunk of `count` words into `dst` (`count * 8` bytes).
///
/// Accepts and rejects exactly the same payloads as the original
/// Vec-returning decoder; the decoded words land directly in the caller's
/// output region instead of a per-chunk heap buffer.
fn decompress_chunk_into(payload: &[u8], count: usize, dst: &mut [u8]) -> Result<()> {
    debug_assert_eq!(dst.len(), count * 8);
    let mut pos = 0usize;
    let ncodes = read_u32(payload, &mut pos)
        .ok_or_else(|| Error::Corrupt("pfpc: missing code count".into()))?
        as usize;
    let nres = read_u32(payload, &mut pos)
        .ok_or_else(|| Error::Corrupt("pfpc: missing residual count".into()))?
        as usize;
    let codes = payload
        .get(pos..pos + ncodes)
        .ok_or_else(|| Error::Corrupt("pfpc: code bytes truncated".into()))?;
    let residuals = payload
        .get(pos + ncodes..pos + ncodes + nres)
        .ok_or_else(|| Error::Corrupt("pfpc: residual bytes truncated".into()))?;
    if ncodes != count.div_ceil(2) {
        return Err(Error::Corrupt("pfpc: code count mismatch".into()));
    }

    PFPC_SCRATCH.with_borrow_mut(|scr| {
        scr.ensure();
        let result = (|| {
            let mut fcm_hash = 0usize;
            let mut dfcm_hash = 0usize;
            let mut last = 0u64;
            let mut rpos = 0usize;
            for idx in 0..count {
                let cb = codes[idx / 2];
                let nib = if idx & 1 == 0 {
                    (cb >> 4) as u32
                } else {
                    (cb & 0x0F) as u32
                };
                let sel = nib >> 3;
                let code = nib & 7;
                let eb = (8 - LZB_TABLE[code as usize]) as usize;
                // Word path: one unaligned 8-byte load + mask covers every
                // residual width; the byte-copy loop only runs for the
                // last few residuals of the chunk.
                let xor = if let Some(s) = residuals.get(rpos..rpos + 8) {
                    let w = u64::from_le_bytes(s.try_into().expect("8 bytes"));
                    if eb == 8 {
                        w
                    } else {
                        w & ((1u64 << (8 * eb)) - 1)
                    }
                } else {
                    let rbytes = residuals
                        .get(rpos..rpos + eb)
                        .ok_or_else(|| Error::Corrupt("pfpc: residual stream truncated".into()))?;
                    let mut le = [0u8; 8];
                    le[..eb].copy_from_slice(rbytes);
                    u64::from_le_bytes(le)
                };
                rpos += eb;
                let pred = if sel == 0 {
                    scr.fcm[fcm_hash]
                } else {
                    scr.dfcm[dfcm_hash].wrapping_add(last)
                };
                let val = pred ^ xor;

                scr.touched_fcm.push(fcm_hash as u32);
                scr.fcm[fcm_hash] = val;
                fcm_hash = ((fcm_hash << 6) ^ (val >> 48) as usize) & (TABLE_SIZE - 1);
                let delta = val.wrapping_sub(last);
                scr.touched_dfcm.push(dfcm_hash as u32);
                scr.dfcm[dfcm_hash] = delta;
                dfcm_hash = ((dfcm_hash << 2) ^ (delta >> 40) as usize) & (TABLE_SIZE - 1);
                last = val;

                dst[idx * 8..idx * 8 + 8].copy_from_slice(&val.to_le_bytes());
            }
            if rpos != residuals.len() {
                return Err(Error::Corrupt("pfpc: trailing residual bytes".into()));
            }
            Ok(())
        })();
        scr.reset();
        result
    })
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
        let nwords = bytes.len() / 8;
        let word_bytes = &bytes[..nwords * 8];
        let tail = &bytes[nwords * 8..];

        let ranges = chunk_ranges(nwords, self.threads);
        out.clear();
        push_u64(out, nwords as u64);
        push_u32(out, ranges.len() as u32);
        out.push(tail.len() as u8);
        let dir_base = out.len();

        if nwords < PARALLEL_WORDS {
            // Inline: compress each chunk straight into the frame (no
            // per-chunk buffers, no words materialization), patching the
            // size directory — which precedes the payloads on the wire —
            // as each chunk's length becomes known.
            for _ in 0..ranges.len() {
                push_u32(out, 0);
            }
            for (k, &(start, end)) in ranges.iter().enumerate() {
                let before = out.len();
                compress_chunk_into(&word_bytes[start * 8..end * 8], out);
                let sz = ((out.len() - before) as u32).to_le_bytes();
                out[dir_base + 4 * k..dir_base + 4 * k + 4].copy_from_slice(&sz);
            }
        } else {
            let mut chunk_payloads: Vec<Vec<u8>> = vec![Vec::new(); ranges.len()];
            std::thread::scope(|s| {
                for (slot, &(start, end)) in chunk_payloads.iter_mut().zip(ranges.iter()) {
                    let wb = &word_bytes[start * 8..end * 8];
                    s.spawn(move || {
                        compress_chunk_into(wb, slot);
                    });
                }
            });
            for p in &chunk_payloads {
                push_u32(out, p.len() as u32);
            }
            for p in &chunk_payloads {
                out.extend_from_slice(p);
            }
        }
        out.extend_from_slice(tail);
        Ok(out.len())
    }

    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        // The descriptor is untrusted (the runner and other direct callers
        // hand it over unchecked): reject implausible output claims before
        // anything is reserved against them.
        fcbench_core::blocks::check_decode_claim(desc, payload.len())?;
        let mut pos = 0usize;
        let nwords = read_u64(payload, &mut pos)
            .ok_or_else(|| Error::Corrupt("pfpc: missing word count".into()))?
            as usize;
        let nchunks = read_u32(payload, &mut pos)
            .ok_or_else(|| Error::Corrupt("pfpc: missing chunk count".into()))?
            as usize;
        let tail_len = *payload
            .get(pos)
            .ok_or_else(|| Error::Corrupt("pfpc: missing tail length".into()))?
            as usize;
        pos += 1;
        // Validate against the descriptor before any allocation sized by
        // stream-supplied counts (fuzzed payloads must not OOM).
        if nwords != desc.byte_len() / 8 || tail_len != desc.byte_len() % 8 {
            return Err(Error::Corrupt(format!(
                "pfpc: stream geometry ({nwords} words + {tail_len}) does not match descriptor"
            )));
        }
        if nchunks > nwords.max(1) {
            return Err(Error::Corrupt("pfpc: more chunks than words".into()));
        }
        let mut sizes = Vec::with_capacity(nchunks);
        for _ in 0..nchunks {
            sizes.push(
                read_u32(payload, &mut pos)
                    .ok_or_else(|| Error::Corrupt("pfpc: chunk directory truncated".into()))?
                    as usize,
            );
        }
        let ranges = chunk_ranges(nwords, nchunks.max(1));
        if ranges.len() != nchunks {
            return Err(Error::Corrupt("pfpc: chunk layout mismatch".into()));
        }

        // Slice up the payload per chunk, then decode in parallel.
        let mut chunk_slices = Vec::with_capacity(nchunks);
        for &sz in &sizes {
            let s = payload
                .get(pos..pos + sz)
                .ok_or_else(|| Error::Corrupt("pfpc: chunk payload truncated".into()))?;
            chunk_slices.push(s);
            pos += sz;
        }
        let tail = payload
            .get(pos..pos + tail_len)
            .ok_or_else(|| Error::Corrupt("pfpc: tail truncated".into()))?;
        if pos + tail_len != payload.len() {
            return Err(Error::Corrupt("pfpc: trailing bytes".into()));
        }

        out.refill(desc, |bytes| {
            bytes.clear();
            bytes.resize(nwords * 8, 0);
            if nwords < PARALLEL_WORDS {
                for (slice, &(start, end)) in chunk_slices.iter().zip(ranges.iter()) {
                    decompress_chunk_into(slice, end - start, &mut bytes[start * 8..end * 8])?;
                }
            } else {
                let mut results: Vec<Result<()>> = Vec::with_capacity(nchunks);
                results.resize_with(nchunks, || Ok(()));
                std::thread::scope(|s| {
                    let mut rest: &mut [u8] = bytes;
                    for ((slot, slice), &(start, end)) in results
                        .iter_mut()
                        .zip(chunk_slices.iter())
                        .zip(ranges.iter())
                    {
                        let count = end - start;
                        let (dst, tail_rest) = rest.split_at_mut(count * 8);
                        rest = tail_rest;
                        s.spawn(move || {
                            *slot = decompress_chunk_into(slice, count, dst);
                        });
                    }
                });
                for r in results {
                    r?;
                }
            }
            bytes.extend_from_slice(tail);
            Ok(())
        })
    }

    fn op_profile(&self, desc: &DataDesc) -> Option<OpProfile> {
        // Per word: two table lookups, two XORs, lz count, two table
        // updates, hash mixing — ~18 int ops; moves the word plus two
        // table entries each way.
        let n = (desc.byte_len() / 8) as u64;
        Some(OpProfile {
            int_ops: 18 * n,
            float_ops: 0,
            bytes_moved: 6 * 8 * n,
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
