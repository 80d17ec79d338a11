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
//! chunk streams | tail` (the frame pFPC uses), each chunk a
//! `pack_counted` stream.

use fcbench_codecs_cpu::common::{begin_word_frame, pack_counted, read_word_frame, unpack_counted};
use fcbench_core::wire::{put_chunks, Cursor};
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, Error, FloatData, Platform,
    PrecisionSupport, Result,
};
use fcbench_gpu_sim::{Gpu, GpuConfig};

/// Values per subchunk (one GPU warp of 32 lanes).
pub(crate) const SUBCHUNK: usize = 32;

/// The GFC codec on the simulated GPU.
pub struct Gfc {
    gpu: Gpu,
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
    pub(crate) const DEFAULT_INPUT_LIMIT: usize = 512 * 1024 * 1024;

    pub(crate) fn new() -> Self {
        Self::with_config(GpuConfig::default(), Self::DEFAULT_INPUT_LIMIT)
    }

    /// Custom device and input limit (the harness scales the limit with
    /// dataset scale so the paper's failing cells fail here too).
    pub fn with_config(config: GpuConfig, input_limit: usize) -> Self {
        Gfc {
            chunks: config.sm_count * 16, // warps resident across SMs
            gpu: Gpu::new(config),
            input_limit,
        }
    }
}

/// Compress one chunk of words (raw little-endian bytes): subchunks of 32,
/// delta against the last value of the previous subchunk. The nibble is
/// sign + leading-zero-byte count (at most 7) of the delta's magnitude.
fn compress_chunk(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let (mut prev_last, mut idx) = (0u64, 0usize);
    pack_counted(bytes, &mut out, |w| {
        let r = w.wrapping_sub(prev_last) as i64;
        let mag = r.unsigned_abs();
        let lzb = (mag.leading_zeros() / 8).min(7);
        idx += 1;
        if idx % SUBCHUNK == 0 {
            prev_last = w;
        }
        let sign = if r < 0 { 8 } else { 0 };
        (sign | lzb as u8, mag, (8 - lzb) as usize)
    });
    out
}

/// Inverse of [`compress_chunk`] for `count` words, as raw bytes.
fn decompress_chunk(payload: &[u8], count: usize) -> Result<Vec<u8>> {
    let mut cur = Cursor::new("gfc", payload);
    let mut bytes = Vec::with_capacity(count * 8);
    let mut prev_last = 0u64;
    let width = |nibble: u8| Some(8 - usize::from(nibble & 7));
    unpack_counted(&mut cur, count, width, |nibble, mag| {
        let r = if nibble & 8 != 0 {
            (mag as i64).wrapping_neg()
        } else {
            mag as i64
        };
        let w = prev_last.wrapping_add(r as u64);
        bytes.extend_from_slice(&w.to_le_bytes());
        if bytes.len() % (8 * SUBCHUNK) == 0 {
            prev_last = w;
        }
    })?;
    cur.finish()?;
    Ok(bytes)
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
        let bytes = data.bytes();
        if bytes.len() > self.input_limit {
            return Err(Error::Unsupported(format!(
                "gfc: input of {} bytes exceeds the {} byte limit",
                bytes.len(),
                self.input_limit
            )));
        }
        // Each chunk should hold enough subchunks to amortize its warmup
        // (the first subchunk deltas against zero); the original sizes
        // chunks to the resident warp count on multi-GB inputs.
        let chunks = self.chunks.min((bytes.len() / 8).div_ceil(1024)).max(1);
        let (items, tail) = begin_word_frame(out, bytes, chunks);
        let mut blocks: Vec<_> = items.into_iter().map(|c| (c, Vec::new())).collect();
        self.gpu
            .launch(&mut blocks, bytes.len(), |ctx, (chunk, stream)| {
                // Delta + leading-zero coding: uniform control flow, no
                // divergence to report (GFC's strength on GPUs).
                ctx.report_instructions(chunk.len() as u64); // 8 per 8-byte word
                *stream = compress_chunk(chunk);
            });
        put_chunks(out, blocks.len(), |k, out| {
            out.extend_from_slice(&blocks[k].1)
        })?;
        out.extend_from_slice(tail);
        Ok(out.len())
    }

    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        // The descriptor is untrusted (the runner and other direct callers
        // hand it over unchecked): reject implausible output claims before
        // anything is reserved against them.
        fcbench_core::blocks::check_decode_claim(desc, payload.len())?;
        let (items, tail) = read_word_frame("gfc", payload, desc)?;
        let mut chunks: Vec<_> = items
            .into_iter()
            .map(|(c, n)| (c, n, Ok(Vec::new())))
            .collect();
        self.gpu.launch(
            &mut chunks,
            desc.byte_len(),
            |_ctx, (chunk, count, done)| *done = decompress_chunk(chunk, *count),
        );
        out.refill(desc, |bytes| {
            bytes.reserve(desc.byte_len());
            for (_, _, chunk) in chunks {
                bytes.extend_from_slice(&chunk?);
            }
            bytes.extend_from_slice(tail);
            Ok(())
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
