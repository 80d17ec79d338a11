//! MPC — Massively Parallel Compression (Yang et al. 2015; paper §4.2).
//!
//! Like SPDP, MPC was synthesized from a component search (138,240
//! combinations). The winning four-stage pipeline runs on chunks of 1024
//! words processed in parallel, one thread block each:
//!
//! 1. **LNVᵈs** — residual against the d-th prior value in the chunk,
//!    where d is the data dimensionality (the parameter exercised by the
//!    Table 9 md/1d experiment; the published pipeline is written "LNV6s"
//!    after the search's 6-dimensional training data);
//! 2. **BIT** — bit transpose of the chunk (same operation as bitshuffle);
//! 3. **LNV1s** — residual between consecutive transposed words;
//! 4. **ZE** — a bitmap marking zero words, non-zero words copied.
//!
//! Payload: `u32 nchunks | u8 dim | per-chunk u32 size | chunks | tail`,
//! with a verbatim tail for the last partial chunk.

use crate::{Gpu, GpuConfig};
use fcbench_codecs_cpu::bitshuffle::{bit_transpose, bit_untranspose};
use fcbench_codecs_cpu::common::{load_le, put_words};
use fcbench_codecs_cpu::ndzip::{unzigzag, zigzag};
use fcbench_core::wire::{put_chunks, Cursor};
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, FloatData, Platform, PrecisionSupport,
    Result,
};

/// Words per chunk (one thread block).
pub(crate) const CHUNK_WORDS: usize = 1024;

/// The MPC codec on the simulated GPU.
pub struct Mpc {
    gpu: Gpu,
}

impl Default for Mpc {
    fn default() -> Self {
        Self::new()
    }
}

impl Mpc {
    pub fn new() -> Self {
        Mpc {
            gpu: Gpu::new(GpuConfig::default()),
        }
    }
}

/// Derive the LNV stride from the descriptor: for 2-D tables the column
/// count (interleaved fields), bounded to stay within a chunk; otherwise
/// the original's published default of 6.
fn stride_for(desc: &DataDesc) -> usize {
    match desc.dims.len() {
        2 if desc.dims[1] >= 2 && desc.dims[1] <= 64 => desc.dims[1],
        _ => 6,
    }
}

/// Stage 1 forward: w[i] -= w[i - stride] (within the chunk), in reverse
/// index order so sources stay original.
fn lnv_forward(words: &mut [u64], stride: usize) {
    for i in (stride..words.len()).rev() {
        words[i] = words[i].wrapping_sub(words[i - stride]);
    }
}

fn lnv_inverse(words: &mut [u64], stride: usize) {
    for i in stride..words.len() {
        words[i] = words[i].wrapping_add(words[i - stride]);
    }
}

/// Compress one full chunk of `CHUNK_WORDS` words of `elem_bits` width.
fn compress_chunk(mut words: Vec<u64>, elem_bits: usize, stride: usize) -> Vec<u8> {
    let esize = elem_bits / 8;
    // (1) LNV-stride residuals, zigzag-folded so small negative deltas
    // keep high bit lanes clear for the ZE stage (same role as in ndzip).
    lnv_forward(&mut words, stride);
    for w in words.iter_mut() {
        *w = zigzag(*w & (u64::MAX >> (64 - elem_bits)), elem_bits as u32);
    }
    // (2) BIT transpose over the whole chunk.
    let mut raw = Vec::with_capacity(words.len() * esize);
    put_words(&words, esize, &mut raw);
    let t = bit_transpose(&raw, CHUNK_WORDS, elem_bits);
    // Transposed data = elem_bits lanes of CHUNK_WORDS bits = 128 bytes.
    // (3) LNV1s over the transposed *words* (lane-sized units).
    let lane_bytes = CHUNK_WORDS / 8;
    let nlanes = elem_bits;
    let mut lanes: Vec<Vec<u8>> = (0..nlanes)
        .map(|l| t[l * lane_bytes..(l + 1) * lane_bytes].to_vec())
        .collect();
    for l in (1..nlanes).rev() {
        let (prev, cur) = {
            let (a, b) = lanes.split_at_mut(l);
            (&a[l - 1], &mut b[0])
        };
        for (c, &p) in cur.iter_mut().zip(prev.iter()) {
            *c = c.wrapping_sub(p);
        }
    }
    // (4) ZE: zero-lane bitmap + non-zero lanes.
    let mut bitmap = vec![0u8; nlanes.div_ceil(8)];
    let mut body = Vec::with_capacity(t.len());
    for (l, lane) in lanes.iter().enumerate() {
        if lane.iter().any(|&b| b != 0) {
            bitmap[l / 8] |= 1 << (l % 8);
            body.extend_from_slice(lane);
        }
    }
    let mut out = Vec::with_capacity(bitmap.len() + body.len());
    out.extend_from_slice(&bitmap);
    out.extend_from_slice(&body);
    out
}

fn decompress_chunk(payload: &[u8], elem_bits: usize, stride: usize) -> Result<Vec<u64>> {
    let esize = elem_bits / 8;
    let lane_bytes = CHUNK_WORDS / 8;
    let nlanes = elem_bits;
    let bm_len = nlanes.div_ceil(8);
    let mut cur = Cursor::new("mpc", payload);
    let bitmap = cur.take(bm_len, "bitmap")?;
    let mut lanes: Vec<Vec<u8>> = Vec::with_capacity(nlanes);
    for l in 0..nlanes {
        if bitmap[l / 8] & (1 << (l % 8)) != 0 {
            lanes.push(cur.take(lane_bytes, "lane")?.to_vec());
        } else {
            lanes.push(vec![0u8; lane_bytes]);
        }
    }
    cur.finish()?;
    // Inverse LNV1s over lanes.
    for l in 1..nlanes {
        let (prev, cur) = {
            let (a, b) = lanes.split_at_mut(l);
            (&a[l - 1], &mut b[0])
        };
        for (c, &p) in cur.iter_mut().zip(prev.iter()) {
            *c = c.wrapping_add(p);
        }
    }
    // Inverse BIT.
    let mut t = Vec::with_capacity(nlanes * lane_bytes);
    for lane in &lanes {
        t.extend_from_slice(lane);
    }
    let raw = bit_untranspose(&t, CHUNK_WORDS, elem_bits);
    let mut words: Vec<u64> = raw.chunks_exact(esize).map(load_le).collect();
    // Inverse zigzag, then inverse LNV-stride.
    let mask = u64::MAX >> (64 - elem_bits);
    for w in words.iter_mut() {
        *w = unzigzag(*w, elem_bits as u32);
    }
    lnv_inverse(&mut words, stride);
    for w in words.iter_mut() {
        *w &= mask;
    }
    Ok(words)
}

/// Any-precision data as a `u64` word per element (fp32 zero-extended).
fn words_of(data: &FloatData) -> Vec<u64> {
    let esize = data.desc().precision.bytes();
    data.bytes().chunks_exact(esize).map(load_le).collect()
}

impl Compressor for Mpc {
    fn info(&self) -> CodecInfo {
        CodecInfo {
            name: "mpc",
            year: 2015,
            community: Community::Hpc,
            class: CodecClass::Delta,
            platform: Platform::Gpu,
            parallel: true,
            precisions: PrecisionSupport::Both,
        }
    }

    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        let words = words_of(data);
        let elem_bits = data.desc().precision.bits();
        let stride = stride_for(data.desc());

        let (full, tail_words) = words.split_at(words.len() / CHUNK_WORDS * CHUNK_WORDS);
        let mut chunks: Vec<_> = full.chunks(CHUNK_WORDS).map(|c| (c, Vec::new())).collect();
        self.gpu
            .launch(&mut chunks, data.bytes().len(), |(chunk, stream)| {
                *stream = compress_chunk(chunk.to_vec(), elem_bits, stride)
            });

        out.clear();
        out.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
        out.push(stride as u8);
        put_chunks(out, chunks.len(), |k, out| {
            out.extend_from_slice(&chunks[k].1)
        })?;
        put_words(tail_words, elem_bits / 8, out);
        Ok(out.len())
    }

    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        // The descriptor is untrusted (the runner and other direct callers
        // hand it over unchecked): reject implausible output claims before
        // anything is reserved against them.
        fcbench_core::blocks::check_decode_claim(desc, payload.len())?;
        let elem_bits = desc.precision.bits();
        let esize = elem_bits / 8;
        let total_words = desc.elements();

        let mut cur = Cursor::new("mpc", payload);
        let nchunks = cur.len32("chunk count")?;
        let stride = usize::from(cur.u8("stride")?);
        if stride == 0 || stride >= CHUNK_WORDS {
            return Err(cur.corrupt("invalid stride"));
        }
        if nchunks != total_words / CHUNK_WORDS {
            return Err(cur.corrupt("chunk count mismatch"));
        }
        let chunks = cur.take_chunks(nchunks)?;
        let tail = cur.take((total_words % CHUNK_WORDS) * esize, "tail")?;
        cur.finish()?;

        let mut chunks: Vec<_> = chunks.into_iter().map(|c| (c, Ok(Vec::new()))).collect();
        self.gpu
            .launch(&mut chunks, desc.byte_len(), |(chunk, done)| {
                *done = decompress_chunk(chunk, elem_bits, stride)
            });
        out.refill(desc, |bytes| {
            bytes.reserve(desc.byte_len());
            for (_, chunk) in chunks {
                put_words(&chunk?, esize, bytes);
            }
            bytes.extend_from_slice(tail);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::{Domain, Precision};

    fn round_trip(codec: &Mpc, data: &FloatData) -> usize {
        let c = codec.compress(data).unwrap();
        let back = codec.decompress(&c, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
        c.len()
    }

    #[test]
    fn lnv_inverts() {
        for stride in [1usize, 3, 6] {
            let mut w: Vec<u64> = (0..100).map(|i| (i * i * 31) as u64).collect();
            let orig = w.clone();
            lnv_forward(&mut w, stride);
            lnv_inverse(&mut w, stride);
            assert_eq!(w, orig, "stride {stride}");
        }
    }

    #[test]
    fn chunk_aligned_doubles() {
        let vals: Vec<f64> = (0..4096).map(|i| 100.0 + (i % 6) as f64).collect();
        let data = FloatData::from_f64(&vals, vec![4096], Domain::Hpc).unwrap();
        let n = round_trip(&Mpc::new(), &data);
        // Period-6 signal matches the default stride: residuals vanish
        // except at chunk heads, whose bits smear over a few dozen lanes.
        assert!(n < 8192, "period-6 data should compress 4x+, got {n}");
    }

    #[test]
    fn ragged_tail_round_trips() {
        for n in [1usize, 1000, 1024, 1025, 5000] {
            let vals: Vec<f64> = (0..n).map(|i| i as f64 * 1.5).collect();
            let data = FloatData::from_f64(&vals, vec![n], Domain::Hpc).unwrap();
            round_trip(&Mpc::new(), &data);
        }
    }

    #[test]
    fn single_precision() {
        let vals: Vec<f32> = (0..8192).map(|i| (i as f32 * 0.01).cos()).collect();
        let data = FloatData::from_f32(&vals, vec![8192], Domain::Hpc).unwrap();
        round_trip(&Mpc::new(), &data);
    }

    #[test]
    fn stride_follows_table_columns() {
        // 2-D table with 14 columns (solar-wind-like): stride = 14.
        let d = DataDesc::new(Precision::Single, vec![100, 14], Domain::TimeSeries).unwrap();
        assert_eq!(stride_for(&d), 14);
        // 1-D: default 6.
        let d1 = d.flatten_1d();
        assert_eq!(stride_for(&d1), 6);
        // 3-D grid: default 6.
        let d3 = DataDesc::new(Precision::Single, vec![16, 16, 16], Domain::Hpc).unwrap();
        assert_eq!(stride_for(&d3), 6);
    }

    #[test]
    fn interleaved_table_benefits_from_column_stride() {
        // 8 interleaved channels with slowly-varying values.
        let rows = 2048;
        let cols = 8;
        let mut vals = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                vals.push(1000.0 * c as f64 + (r / 50) as f64);
            }
        }
        let data_md = FloatData::from_f64(&vals, vec![rows, cols], Domain::TimeSeries).unwrap();
        let md = round_trip(&Mpc::new(), &data_md);
        let oned = round_trip(&Mpc::new(), &data_md.flattened_1d());
        assert!(
            md <= oned,
            "column stride ({md}) should not lose to 1-d ({oned})"
        );
    }

    #[test]
    fn special_values() {
        let mut vals = vec![1.0f64; 2048];
        vals[0] = f64::NAN;
        vals[500] = f64::NEG_INFINITY;
        vals[1024] = -0.0;
        vals[2047] = 5e-324;
        let data = FloatData::from_f64(&vals, vec![2048], Domain::Hpc).unwrap();
        round_trip(&Mpc::new(), &data);
    }

    #[test]
    fn corruption_rejected() {
        let mpc = Mpc::new();
        let vals: Vec<f64> = (0..2048).map(|i| (i * 3) as f64).collect();
        let data = FloatData::from_f64(&vals, vec![2048], Domain::Hpc).unwrap();
        let c = mpc.compress(&data).unwrap();
        assert!(mpc.decompress(&c[..3], data.desc()).is_err());
        assert!(mpc.decompress(&c[..c.len() - 1], data.desc()).is_err());
        let mut bad = c.clone();
        bad[4] = 0; // zero the stride byte
        assert!(mpc.decompress(&bad, data.desc()).is_err());
    }

    #[test]
    fn info_matches_table1() {
        let info = Mpc::new().info();
        assert_eq!(info.name, "mpc");
        assert_eq!(info.platform, Platform::Gpu);
        assert_eq!(info.year, 2015);
    }
}
