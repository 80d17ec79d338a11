//! GFC (O'Neil & Burtscher 2011; paper §4.1).
//!
//! GFC divides the input into chunks equal to the number of GPU warps,
//! each chunk into **subchunks of 32 doubles** (one per warp lane, 256
//! bytes). Residuals subtract **the last value of the previous subchunk**
//! from every value of the current one — a deliberately cheap predictor
//! that "sacrifices accuracy to accommodate multidimensional data within
//! fixed-sized subchunks" (the reason GFC ranks last in Fig. 7b). Each
//! residual is coded as 4 bits (sign + leading-zero-byte count) followed
//! by the non-zero bytes.
//!
//! Constraints reproduced from the original: input beyond
//! [`Gfc::DEFAULT_INPUT_LIMIT`] is rejected (the paper's Table 4 dashes),
//! scaled by the harness along with dataset sizes. Like the paper's runs
//! on fp32 datasets, non-double inputs are consumed as a raw u64 word
//! stream with a verbatim tail.
//!
//! Payload: `u64 nwords | u32 nchunks | u8 tail_len | per-chunk u32 size |
//! chunk streams | tail`.

use fcbench_codecs_cpu::common::{chunk_ranges, push_u32, push_u64, read_u32, read_u64};
use fcbench_core::{
    AuxTime, CodecClass, CodecInfo, Community, Compressor, DataDesc, Error, FloatData, OpProfile,
    Platform, PrecisionSupport, Result,
};
use fcbench_gpu_sim::{Dir, Gpu, GpuConfig, TransferLedger};

/// Values per subchunk (one GPU warp of 32 lanes).
pub const SUBCHUNK: usize = 32;

/// The GFC codec on the simulated GPU.
pub struct Gfc {
    gpu: Gpu,
    last_aux: crate::AuxSlot,
    input_limit: usize,
    /// Number of parallel chunks (the original sizes this to the warp
    /// count resident on the device).
    chunks: usize,
}

impl Default for Gfc {
    fn default() -> Self {
        Self::new()
    }
}

impl Gfc {
    /// The original's hardware-era input limit (§4.1).
    pub const DEFAULT_INPUT_LIMIT: usize = 512 * 1024 * 1024;

    pub fn new() -> Self {
        Self::with_config(GpuConfig::default(), Self::DEFAULT_INPUT_LIMIT)
    }

    /// Custom device and input limit (the harness scales the limit with
    /// dataset scale so the paper's failing cells fail here too).
    pub fn with_config(config: GpuConfig, input_limit: usize) -> Self {
        let chunks = config.sm_count * 16; // warps resident across SMs
        Gfc {
            gpu: Gpu::new(config),
            last_aux: crate::AuxSlot::new(),
            input_limit,
            chunks,
        }
    }
}

/// Compress one chunk of words: subchunks of 32, delta against the last
/// value of the previous subchunk.
fn compress_chunk(words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 4);
    let mut codes = Vec::with_capacity(words.len().div_ceil(2));
    let mut residuals = Vec::with_capacity(words.len() * 4);
    let mut nibble_pending: Option<u8> = None;
    let mut prev_last = 0u64;

    for sub in words.chunks(SUBCHUNK) {
        for &w in sub {
            let r = w.wrapping_sub(prev_last) as i64;
            let (sign, mag) = if r < 0 {
                (1u8, r.unsigned_abs())
            } else {
                (0u8, r as u64)
            };
            let lzb = (mag.leading_zeros() / 8).min(7);
            let nib = (sign << 3) | lzb as u8;
            match nibble_pending.take() {
                None => nibble_pending = Some(nib),
                Some(first) => codes.push((first << 4) | nib),
            }
            let nbytes = 8 - lzb as usize;
            residuals.extend_from_slice(&mag.to_le_bytes()[..nbytes]);
        }
        prev_last = *sub.last().expect("chunks are non-empty");
    }
    if let Some(first) = nibble_pending {
        codes.push(first << 4);
    }

    push_u32(&mut out, codes.len() as u32);
    push_u32(&mut out, residuals.len() as u32);
    out.extend_from_slice(&codes);
    out.extend_from_slice(&residuals);
    out
}

fn decompress_chunk(payload: &[u8], count: usize) -> Result<Vec<u64>> {
    let mut pos = 0usize;
    let ncodes = read_u32(payload, &mut pos)
        .ok_or_else(|| Error::Corrupt("gfc: missing code count".into()))? as usize;
    let nres = read_u32(payload, &mut pos)
        .ok_or_else(|| Error::Corrupt("gfc: missing residual count".into()))?
        as usize;
    if ncodes != count.div_ceil(2) {
        return Err(Error::Corrupt("gfc: code count mismatch".into()));
    }
    let codes = payload
        .get(pos..pos + ncodes)
        .ok_or_else(|| Error::Corrupt("gfc: codes truncated".into()))?;
    let residuals = payload
        .get(pos + ncodes..pos + ncodes + nres)
        .ok_or_else(|| Error::Corrupt("gfc: residuals truncated".into()))?;

    let mut words = Vec::with_capacity(count);
    let mut rpos = 0usize;
    let mut prev_last = 0u64;
    for idx in 0..count {
        let cb = codes[idx / 2];
        let nib = if idx % 2 == 0 { cb >> 4 } else { cb & 0x0F };
        let sign = nib >> 3;
        let lzb = (nib & 7) as usize;
        let nbytes = 8 - lzb;
        // Word path: one unaligned 8-byte load + mask covers every
        // residual width; the byte-copy fallback only runs near the end
        // of the chunk's residual stream.
        let mag = if let Some(s) = residuals.get(rpos..rpos + 8) {
            let w = u64::from_le_bytes(s.try_into().expect("8 bytes"));
            if nbytes == 8 {
                w
            } else {
                w & ((1u64 << (8 * nbytes)) - 1)
            }
        } else {
            let raw = residuals
                .get(rpos..rpos + nbytes)
                .ok_or_else(|| Error::Corrupt("gfc: residual stream truncated".into()))?;
            let mut le = [0u8; 8];
            le[..nbytes].copy_from_slice(raw);
            u64::from_le_bytes(le)
        };
        rpos += nbytes;
        let r = if sign == 1 {
            (mag as i64).wrapping_neg()
        } else {
            mag as i64
        };
        let w = prev_last.wrapping_add(r as u64);
        words.push(w);
        // Subchunk boundary bookkeeping.
        if (idx + 1) % SUBCHUNK == 0 || idx + 1 == count {
            prev_last = w;
        }
    }
    if rpos != residuals.len() {
        return Err(Error::Corrupt("gfc: trailing residual bytes".into()));
    }
    Ok(words)
}

impl Compressor for Gfc {
    fn info(&self) -> CodecInfo {
        CodecInfo {
            name: "gfc",
            year: 2011,
            community: Community::Hpc,
            class: CodecClass::Delta,
            platform: Platform::Gpu,
            parallel: true,
            precisions: PrecisionSupport::Both,
        }
    }

    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        if data.bytes().len() > self.input_limit {
            return Err(Error::Unsupported(format!(
                "gfc: input of {} bytes exceeds the {} byte limit",
                data.bytes().len(),
                self.input_limit
            )));
        }
        let ledger = TransferLedger::new();
        ledger.record(self.gpu.config(), Dir::HostToDevice, data.bytes().len());

        let bytes = data.bytes();
        let nwords = bytes.len() / 8;
        let tail = &bytes[nwords * 8..];
        let words: Vec<u64> = bytes[..nwords * 8]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect();

        // Each chunk should hold enough subchunks to amortize its warmup
        // (the first subchunk deltas against zero); the original sizes
        // chunks to the resident warp count on multi-GB inputs.
        let chunks = self.chunks.min(nwords.div_ceil(1024)).max(1);
        let ranges = chunk_ranges(nwords, chunks);
        let items: Vec<&[u64]> = ranges.iter().map(|&(s, e)| &words[s..e]).collect();
        let (streams, _stats) = self.gpu.launch(items, |ctx, chunk| {
            // Delta + leading-zero coding: uniform control flow, no
            // divergence to report (GFC's strength on GPUs).
            ctx.report_instructions(chunk.len() as u64 * 8);
            compress_chunk(chunk)
        });

        out.clear();
        push_u64(out, nwords as u64);
        push_u32(out, streams.len() as u32);
        out.push(tail.len() as u8);
        for s in &streams {
            push_u32(out, s.len() as u32);
        }
        for s in &streams {
            out.extend_from_slice(s);
        }
        out.extend_from_slice(tail);

        ledger.record(self.gpu.config(), Dir::DeviceToHost, out.len());
        self.last_aux.store(&ledger);
        Ok(out.len())
    }

    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        // The descriptor is untrusted (the runner and other direct callers
        // hand it over unchecked): reject implausible output claims before
        // anything is reserved against them.
        fcbench_core::blocks::check_decode_claim(desc, payload.len())?;
        let ledger = TransferLedger::new();
        ledger.record(self.gpu.config(), Dir::HostToDevice, payload.len());

        let mut pos = 0usize;
        let nwords = read_u64(payload, &mut pos)
            .ok_or_else(|| Error::Corrupt("gfc: missing word count".into()))?
            as usize;
        let nchunks = read_u32(payload, &mut pos)
            .ok_or_else(|| Error::Corrupt("gfc: missing chunk count".into()))?
            as usize;
        let tail_len = *payload
            .get(pos)
            .ok_or_else(|| Error::Corrupt("gfc: missing tail length".into()))?
            as usize;
        pos += 1;
        // Validate against the descriptor before any allocation sized by
        // stream-supplied counts (fuzzed payloads must not OOM).
        if nwords != desc.byte_len() / 8 || tail_len != desc.byte_len() % 8 {
            return Err(Error::Corrupt(format!(
                "gfc: stream geometry ({nwords} words + {tail_len}) does not match descriptor"
            )));
        }
        if nchunks > nwords.max(1) {
            return Err(Error::Corrupt("gfc: more chunks than words".into()));
        }
        let mut sizes = Vec::with_capacity(nchunks);
        for _ in 0..nchunks {
            sizes.push(
                read_u32(payload, &mut pos)
                    .ok_or_else(|| Error::Corrupt("gfc: directory truncated".into()))?
                    as usize,
            );
        }
        let ranges = chunk_ranges(nwords, nchunks.max(1));
        if ranges.len() != nchunks {
            return Err(Error::Corrupt("gfc: chunk layout mismatch".into()));
        }
        let mut slices = Vec::with_capacity(nchunks);
        for &sz in &sizes {
            let s = payload
                .get(pos..pos + sz)
                .ok_or_else(|| Error::Corrupt("gfc: chunk truncated".into()))?;
            slices.push(s);
            pos += sz;
        }
        let tail = payload
            .get(pos..pos + tail_len)
            .ok_or_else(|| Error::Corrupt("gfc: tail truncated".into()))?;
        if pos + tail_len != payload.len() {
            return Err(Error::Corrupt("gfc: trailing bytes".into()));
        }

        let items: Vec<(&[u8], usize)> = slices
            .iter()
            .zip(ranges.iter())
            .map(|(&s, &(a, b))| (s, b - a))
            .collect();
        let (results, _stats) = self
            .gpu
            .launch(items, |_ctx, (slice, count)| decompress_chunk(slice, count));

        out.refill(desc, |bytes| {
            bytes.reserve(desc.byte_len());
            for r in results {
                for w in r? {
                    bytes.extend_from_slice(&w.to_le_bytes());
                }
            }
            bytes.extend_from_slice(tail);
            Ok(())
        })?;

        ledger.record(self.gpu.config(), Dir::DeviceToHost, out.bytes().len());
        self.last_aux.store(&ledger);
        Ok(())
    }

    fn last_aux_time(&self) -> AuxTime {
        self.last_aux.get()
    }

    fn op_profile(&self, desc: &DataDesc) -> Option<OpProfile> {
        // Per word: subtract, sign/abs, lz count, nibble pack — ~8 int ops;
        // reads the word, writes ~the word back. FP ops none.
        let n = (desc.byte_len() / 8) as u64;
        Some(OpProfile {
            int_ops: 8 * n,
            float_ops: 0,
            bytes_moved: 2 * 8 * n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::Domain;

    fn small_gfc() -> Gfc {
        Gfc::with_config(GpuConfig::tiny(), Gfc::DEFAULT_INPUT_LIMIT)
    }

    fn round_trip(codec: &Gfc, data: &FloatData) -> usize {
        let c = codec.compress(data).unwrap();
        let back = codec.decompress(&c, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
        c.len()
    }

    #[test]
    fn linear_ramp_compresses() {
        let vals: Vec<f64> = (0..20_000).map(|i| 1e6 + i as f64).collect();
        let data = FloatData::from_f64(&vals, vec![20_000], Domain::Hpc).unwrap();
        let n = round_trip(&small_gfc(), &data);
        assert!(n < 20_000 * 8, "ramp must compress, got {n}");
    }

    #[test]
    fn random_survives() {
        let mut x = 0xC0FFEEu64;
        let vals: Vec<f64> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f64::from_bits(x)
            })
            .collect();
        let data = FloatData::from_f64(&vals, vec![5000], Domain::Database).unwrap();
        round_trip(&small_gfc(), &data);
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
        ];
        let data = FloatData::from_f64(&vals, vec![6], Domain::Hpc).unwrap();
        round_trip(&small_gfc(), &data);
    }

    #[test]
    fn single_precision_via_reinterpretation_with_tail() {
        let vals: Vec<f32> = (0..4001).map(|i| i as f32 * 0.5).collect();
        let data = FloatData::from_f32(&vals, vec![4001], Domain::Hpc).unwrap();
        round_trip(&small_gfc(), &data);
    }

    #[test]
    fn input_limit_enforced() {
        let gfc = Gfc::with_config(GpuConfig::tiny(), 1024);
        let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let data = FloatData::from_f64(&vals, vec![1000], Domain::Hpc).unwrap();
        let err = gfc.compress(&data).unwrap_err();
        assert!(
            matches!(err, Error::Unsupported(_)),
            "8000 bytes > 1024 limit"
        );
    }

    #[test]
    fn aux_time_models_transfers() {
        let gfc = small_gfc();
        let vals: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let data = FloatData::from_f64(&vals, vec![10_000], Domain::Hpc).unwrap();
        let _ = gfc.compress(&data).unwrap();
        let aux = gfc.last_aux_time();
        assert!(aux.h2d_seconds > 0.0, "h2d copy must be modelled");
        assert!(aux.d2h_seconds > 0.0, "d2h copy must be modelled");
        // 80 KB over a 1 GB/s link: h2d ≈ 80 µs.
        assert!(aux.h2d_seconds > 5e-5 && aux.h2d_seconds < 5e-4);
    }

    #[test]
    fn constant_stream_collapses() {
        // Large enough that per-chunk warmup (each chunk's first subchunk
        // deltas against zero) is amortized.
        let vals = vec![42.0f64; 32_000];
        let data = FloatData::from_f64(&vals, vec![32_000], Domain::Hpc).unwrap();
        let n = round_trip(&small_gfc(), &data);
        // Mostly-zero residuals: ~0.5 byte/code + 1 zero byte per value.
        assert!(n < vals.len() * 2, "constant stream should shrink, got {n}");
    }

    #[test]
    fn coarse_predictor_weakness_is_reproduced() {
        // §4.1 insight: GFC "computes all residuals for the current 32
        // values by subtracting the last value from the previous 32", so a
        // stream that is constant *within* each subchunk but jumps between
        // subchunks pays the jump on every one of the 32 values — the
        // reason GFC ranks last in Fig. 7b.
        let mut jumpy = Vec::new();
        for s in 0..1000 {
            jumpy.extend(std::iter::repeat_n((s * 1000) as f64, SUBCHUNK));
        }
        let constant = vec![7.0f64; jumpy.len()];
        let d_jumpy = FloatData::from_f64(&jumpy, vec![jumpy.len()], Domain::Hpc).unwrap();
        let d_const = FloatData::from_f64(&constant, vec![constant.len()], Domain::Hpc).unwrap();
        let n_jumpy = round_trip(&small_gfc(), &d_jumpy);
        let n_const = round_trip(&small_gfc(), &d_const);
        assert!(
            n_jumpy > 2 * n_const,
            "per-subchunk jumps ({n_jumpy}) must cost far more than constant ({n_const})"
        );
    }

    #[test]
    fn corruption_rejected() {
        let gfc = small_gfc();
        let vals: Vec<f64> = (0..500).map(|i| i as f64 * 2.5).collect();
        let data = FloatData::from_f64(&vals, vec![500], Domain::Hpc).unwrap();
        let c = gfc.compress(&data).unwrap();
        assert!(gfc.decompress(&c[..6], data.desc()).is_err());
        assert!(gfc.decompress(&c[..c.len() - 1], data.desc()).is_err());
    }

    #[test]
    fn info_matches_table1() {
        let info = Gfc::new().info();
        assert_eq!(info.name, "gfc");
        assert_eq!(info.platform, Platform::Gpu);
        assert_eq!(info.class, CodecClass::Delta);
        assert_eq!(info.year, 2011);
    }
}
