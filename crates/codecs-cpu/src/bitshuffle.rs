//! Bitshuffle (Masui et al. 2015; paper §3.7).
//!
//! Bitshuffle is a *transform*: within each block, the bits of `m` elements
//! of width `n` bits form an `m × n` matrix that is transposed to `n × m`,
//! so the i-th bits of all elements become contiguous bytes. Exponent bits
//! (nearly constant in floating-point data) then form long runs that
//! downstream dictionary coders exploit.
//!
//! Reference bitshuffle defaults to 4096-byte blocks so a block fits in L1
//! cache (§3.7); the paper's *evaluation* defaults to 64 KB blocks (its
//! Table 10 64K row equals the Table 4 main results), which this codec
//! adopts — the 4096-byte configuration is exercised by the block-size
//! ablation. Blocks are distributed across threads. Two backends mirror the
//! paper's two rows: `bitshuffle::LZ4` and `bitshuffle::zstd` (our
//! zstd-class `zzip`).
//!
//! Payload: `u32 nblocks | per-block u32 compressed size | blocks`, each
//! block `u32 raw length | backend stream`.

use crate::common::{code_chunks, fan_out};
use fcbench_core::wire::Cursor;
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, Error, FloatData, OpProfile, Platform,
    PrecisionSupport, Result,
};
use fcbench_entropy::{lz4, lz77::Lz77Config, zzip};

/// Default block size in bytes — the paper's evaluation block (64 KB).
pub const DEFAULT_BLOCK_BYTES: usize = 64 * 1024;

/// Dictionary backend applied after the bit transpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Our from-scratch LZ4 block codec.
    Lz4,
    /// Our zstd-class LZ77+Huffman codec.
    Zzip,
}

/// The bitshuffle codec.
#[derive(Debug, Clone)]
pub struct Bitshuffle {
    backend: Backend,
    block_bytes: usize,
    threads: usize,
}

impl Bitshuffle {
    /// `bitshuffle::LZ4` with the 4096-byte default block and 8 threads.
    pub fn lz4() -> Self {
        Bitshuffle {
            backend: Backend::Lz4,
            block_bytes: DEFAULT_BLOCK_BYTES,
            threads: 8,
        }
    }

    /// `bitshuffle::zstd`-class with defaults.
    pub fn zzip() -> Self {
        Bitshuffle {
            backend: Backend::Zzip,
            block_bytes: DEFAULT_BLOCK_BYTES,
            threads: 8,
        }
    }

    /// Full configuration (for scaling and block-size ablations).
    pub fn with_config(backend: Backend, block_bytes: usize, threads: usize) -> Self {
        assert!(block_bytes >= 64, "block must hold at least a few elements");
        Bitshuffle {
            backend,
            block_bytes,
            threads: threads.max(1),
        }
    }
}

/// The bit-granular transpose this module's blocked kernel replaced.
///
/// Retained verbatim so differential tests can prove the word-level
/// transpose produces byte-identical planes — the PR-5 discipline. Not
/// used on any production path.
pub mod reference {
    /// Transpose the bits of `elems` elements of `elem_bits` bits each,
    /// one bit per loop iteration.
    pub fn bit_transpose(data: &[u8], elems: usize, elem_bits: usize) -> Vec<u8> {
        debug_assert_eq!(data.len(), elems * elem_bits / 8);
        debug_assert_eq!(elems % 8, 0);
        let mut out = vec![0u8; data.len()];
        for e in 0..elems {
            let base_bit = e * elem_bits;
            for b in 0..elem_bits {
                let in_bit = base_bit + b;
                let byte = data[in_bit / 8];
                let bit = (byte >> (in_bit % 8)) & 1;
                if bit != 0 {
                    // Lane b collects bit b of every element.
                    let out_bit = b * elems + e;
                    out[out_bit / 8] |= 1 << (out_bit % 8);
                }
            }
        }
        out
    }

    /// Inverse of [`bit_transpose`], one bit per loop iteration.
    pub fn bit_untranspose(data: &[u8], elems: usize, elem_bits: usize) -> Vec<u8> {
        debug_assert_eq!(data.len(), elems * elem_bits / 8);
        debug_assert_eq!(elems % 8, 0);
        let mut out = vec![0u8; data.len()];
        for e in 0..elems {
            let base_bit = e * elem_bits;
            for b in 0..elem_bits {
                let in_bit = b * elems + e;
                let byte = data[in_bit / 8];
                let bit = (byte >> (in_bit % 8)) & 1;
                if bit != 0 {
                    let out_bit = base_bit + b;
                    out[out_bit / 8] |= 1 << (out_bit % 8);
                }
            }
        }
        out
    }
}

/// 8x8 bit-matrix transpose of a u64 (byte = row, LSB-first bit = column),
/// via three delta-swap rounds (Hacker's Delight §7-3). Branch-free; an
/// involution.
#[inline]
fn transpose8(x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    let x = x ^ t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    let x = x ^ t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Transpose the bits of `elems` elements of `elem_bits` bits each.
/// `data.len()` must equal `elems * elem_bits / 8`; `elems` must be a
/// multiple of 8 so every output lane is whole bytes.
///
/// Blocked kernel: each group of 8 elements is processed one element-byte
/// column at a time — gather 8 bytes into a u64, `transpose8` it, and
/// scatter the 8 result bytes into 8 consecutive bit-lane planes. Eight
/// bits move per load/store instead of one, and the inner loops are
/// branch-free gather/transpose/scatter the compiler can vectorize.
/// Byte-identical to [`reference::bit_transpose`].
pub fn bit_transpose(data: &[u8], elems: usize, elem_bits: usize) -> Vec<u8> {
    let mut out = Vec::new();
    bit_transpose_into(data, elems, elem_bits, &mut out);
    out
}

/// [`bit_transpose`] into a caller-owned buffer (contents replaced,
/// capacity reused).
pub fn bit_transpose_into(data: &[u8], elems: usize, elem_bits: usize, out: &mut Vec<u8>) {
    debug_assert_eq!(data.len(), elems * elem_bits / 8);
    debug_assert_eq!(elems % 8, 0);
    let elem_size = elem_bits / 8;
    let groups = elems / 8;
    out.clear();
    out.resize(data.len(), 0);
    match elem_size {
        8 => {
            for (g, grp) in data.chunks_exact(64).enumerate() {
                let mut rows = [0u64; 8];
                for (j, r) in grp.chunks_exact(8).enumerate() {
                    rows[j] = u64::from_le_bytes(r.try_into().unwrap());
                }
                let cols = byte_transpose8x8(rows);
                for (k, &x) in cols.iter().enumerate() {
                    let yb = transpose8(x).to_le_bytes();
                    for (t, &b) in yb.iter().enumerate() {
                        out[(8 * k + t) * groups + g] = b;
                    }
                }
            }
        }
        4 => {
            for (g, grp) in data.chunks_exact(32).enumerate() {
                let grp: &[u8; 32] = grp.try_into().unwrap();
                for k in 0..4 {
                    let x = u64::from_le_bytes([
                        grp[k],
                        grp[4 + k],
                        grp[8 + k],
                        grp[12 + k],
                        grp[16 + k],
                        grp[20 + k],
                        grp[24 + k],
                        grp[28 + k],
                    ]);
                    let yb = transpose8(x).to_le_bytes();
                    for (t, &b) in yb.iter().enumerate() {
                        out[(8 * k + t) * groups + g] = b;
                    }
                }
            }
        }
        _ => {
            for (g, grp) in data.chunks_exact(8 * elem_size).enumerate() {
                for k in 0..elem_size {
                    let mut x = 0u64;
                    for j in 0..8 {
                        x |= (grp[j * elem_size + k] as u64) << (8 * j);
                    }
                    let yb = transpose8(x).to_le_bytes();
                    for (t, &b) in yb.iter().enumerate() {
                        out[(8 * k + t) * groups + g] = b;
                    }
                }
            }
        }
    }
}

/// Inverse of [`bit_transpose`]. Byte-identical to
/// [`reference::bit_untranspose`].
pub fn bit_untranspose(data: &[u8], elems: usize, elem_bits: usize) -> Vec<u8> {
    let mut out = Vec::new();
    bit_untranspose_into(data, elems, elem_bits, &mut out);
    out
}

/// [`bit_untranspose`] into a caller-owned buffer (contents replaced,
/// capacity reused). Same blocked kernel as the forward direction with
/// gather and scatter swapped (`transpose8` is an involution).
pub fn bit_untranspose_into(data: &[u8], elems: usize, elem_bits: usize, out: &mut Vec<u8>) {
    debug_assert_eq!(data.len(), elems * elem_bits / 8);
    debug_assert_eq!(elems % 8, 0);
    let elem_size = elem_bits / 8;
    let groups = elems / 8;
    out.clear();
    out.resize(data.len(), 0);
    for g in 0..groups {
        let base = g * 8 * elem_size;
        for k in 0..elem_size {
            let mut y = 0u64;
            for t in 0..8 {
                y |= (data[(8 * k + t) * groups + g] as u64) << (8 * t);
            }
            let xb = transpose8(y).to_le_bytes();
            for (j, &b) in xb.iter().enumerate() {
                out[base + j * elem_size + k] = b;
            }
        }
    }
}

/// Transpose an 8x8 byte matrix held in 8 u64 rows (LE byte = column)
/// with three rounds of block swaps — 24 word ops instead of 64 byte
/// moves. `result[k]` holds byte `k` of every input row.
#[inline]
fn byte_transpose8x8(w: [u64; 8]) -> [u64; 8] {
    let mut m = w;
    // 4x4 byte blocks.
    for i in 0..4 {
        let (a, b) = (m[i], m[i + 4]);
        m[i] = (a & 0x0000_0000_FFFF_FFFF) | (b << 32);
        m[i + 4] = (a >> 32) | (b & 0xFFFF_FFFF_0000_0000);
    }
    // 2x2 byte blocks.
    for i in [0usize, 1, 4, 5] {
        let (a, b) = (m[i], m[i + 2]);
        m[i] = (a & 0x0000_FFFF_0000_FFFF) | ((b & 0x0000_FFFF_0000_FFFF) << 16);
        m[i + 2] = ((a >> 16) & 0x0000_FFFF_0000_FFFF) | (b & 0xFFFF_0000_FFFF_0000);
    }
    // Single bytes.
    for i in [0usize, 2, 4, 6] {
        let (a, b) = (m[i], m[i + 1]);
        m[i] = (a & 0x00FF_00FF_00FF_00FF) | ((b & 0x00FF_00FF_00FF_00FF) << 8);
        m[i + 1] = ((a >> 8) & 0x00FF_00FF_00FF_00FF) | (b & 0xFF00_FF00_FF00_FF00);
    }
    m
}

/// Shuffle one block: whole groups of 8 elements are bit-transposed; a
/// ragged tail is passed through unchanged (as the reference does).
fn shuffle_block_into(block: &[u8], elem_size: usize, out: &mut Vec<u8>) {
    let group = 8 * elem_size; // bytes per 8-element transpose unit
    let whole = block.len() / group * group;
    let elems = whole / elem_size;
    if elems > 0 {
        bit_transpose_into(&block[..whole], elems, elem_size * 8, out);
    } else {
        out.clear();
    }
    out.extend_from_slice(&block[whole..]);
}

fn unshuffle_block(block: &[u8], elem_size: usize) -> Vec<u8> {
    let group = 8 * elem_size;
    let whole = block.len() / group * group;
    let elems = whole / elem_size;
    let mut out = if elems > 0 {
        bit_untranspose(&block[..whole], elems, elem_size * 8)
    } else {
        Vec::new()
    };
    out.extend_from_slice(&block[whole..]);
    out
}

// Per-thread staging buffer for the shuffled block: a scoped worker
// compresses many blocks, so the transpose target is allocated once per
// thread rather than once per block.
thread_local! {
    static SHUFFLE_SCRATCH: std::cell::RefCell<Vec<u8>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Append one block: `u32 raw length | backend stream`.
fn compress_one(block: &[u8], elem_size: usize, backend: Backend, out: &mut Vec<u8>) {
    SHUFFLE_SCRATCH.with_borrow_mut(|shuffled| {
        shuffle_block_into(block, elem_size, shuffled);
        let body = match backend {
            Backend::Lz4 => lz4::compress(shuffled),
            Backend::Zzip => {
                // Blocks are <= 64 KB: a 64 KB window with deep chains gives
                // 2-byte offsets (as tight as LZ4) plus the entropy stage —
                // the slower-but-stronger profile of real zstd.
                zzip::compress_with(
                    shuffled,
                    Lz77Config {
                        window: 1 << 16,
                        chain_depth: 128,
                    },
                )
            }
        };
        out.reserve(4 + body.len());
        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
    })
}

/// Decode one block's backend stream to exactly `raw_len` bytes.
fn decompress_one(
    body: &[u8],
    raw_len: usize,
    elem_size: usize,
    backend: Backend,
) -> Result<Vec<u8>> {
    let shuffled = match backend {
        Backend::Lz4 => {
            lz4::decompress(body, raw_len).map_err(|e| Error::Corrupt(e.to_string()))?
        }
        Backend::Zzip => {
            let out = zzip::decompress(body).map_err(|e| Error::Corrupt(e.to_string()))?;
            if out.len() != raw_len {
                return Err(Error::Corrupt("bitshuffle: block length mismatch".into()));
            }
            out
        }
    };
    Ok(unshuffle_block(&shuffled, elem_size))
}

impl Compressor for Bitshuffle {
    fn info(&self) -> CodecInfo {
        CodecInfo {
            name: match self.backend {
                Backend::Lz4 => "bitshuffle-lz4",
                Backend::Zzip => "bitshuffle-zstd",
            },
            year: 2015,
            community: Community::Hpc,
            class: CodecClass::Dictionary,
            platform: Platform::Cpu,
            parallel: true,
            precisions: PrecisionSupport::Both,
        }
    }

    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        let elem_size = data.desc().precision.bytes();
        let bytes = data.bytes();
        let blocks: Vec<&[u8]> = bytes.chunks(self.block_bytes).collect();
        out.clear();
        out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
        code_chunks(out, blocks.len(), bytes.len(), self.threads, |k, out| {
            compress_one(blocks[k], elem_size, self.backend, out)
        })?;
        Ok(out.len())
    }

    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        // The descriptor is untrusted (the runner and other direct callers
        // hand it over unchecked): reject implausible output claims before
        // anything is reserved against them.
        fcbench_core::blocks::check_decode_claim(desc, payload.len())?;
        let mut cur = Cursor::new("bitshuffle", payload);
        let nblocks = cur.len32("block count")?;
        if nblocks > desc.byte_len().max(1) {
            return Err(cur.corrupt("absurd block count"));
        }
        let blocks = cur.take_chunks(nblocks)?;

        // A block's stored raw length sizes its decode buffer, so it is held
        // to the bytes the descriptor still has left — whatever block size
        // the stream was written with.
        let mut left = desc.byte_len();
        let mut slots = Vec::with_capacity(nblocks);
        for block in blocks {
            let mut block = Cursor::new("bitshuffle", block);
            let raw_len = block.len32("block length")?;
            let Some(after) = left.checked_sub(raw_len) else {
                return Err(cur.corrupt("block claims more bytes than the descriptor has left"));
            };
            left = after;
            slots.push((block.rest(), raw_len, Ok(Vec::new())));
        }
        if left != 0 {
            return Err(cur.corrupt("blocks do not cover the descriptor"));
        }
        cur.finish()?;

        let elem_size = desc.precision.bytes();
        fan_out(
            &mut slots,
            desc.byte_len(),
            self.threads,
            |_, (body, raw_len, done)| {
                *done = decompress_one(body, *raw_len, elem_size, self.backend);
            },
        );
        out.refill(desc, |bytes| {
            bytes.reserve(desc.byte_len());
            for (_, _, done) in slots {
                bytes.extend_from_slice(&done?);
            }
            Ok(())
        })
    }

    fn op_profile(&self, desc: &DataDesc) -> Option<OpProfile> {
        // Dominant kernel is the bit transpose: per element-bit one shift,
        // mask, or — ~3 int ops per bit; the block is read and written once
        // by the transpose and re-read by the dictionary stage. Bitshuffle
        // is memory-bound (§6.3 analysis (3)).
        let bits = (desc.byte_len() * 8) as u64;
        Some(OpProfile {
            int_ops: 3 * bits,
            float_ops: 0,
            bytes_moved: 4 * desc.byte_len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::Domain;

    #[test]
    fn transpose_inverts() {
        for elems in [8usize, 16, 64, 256] {
            for elem_bits in [32usize, 64] {
                let n = elems * elem_bits / 8;
                let data: Vec<u8> = (0..n).map(|i| (i * 131 % 256) as u8).collect();
                let t = bit_transpose(&data, elems, elem_bits);
                let back = bit_untranspose(&t, elems, elem_bits);
                assert_eq!(back, data, "elems {elems} bits {elem_bits}");
            }
        }
    }

    // ---- differential tests against the retained bit-granular reference ----

    fn xorshift_bytes(n: usize, mut x: u32) -> Vec<u8> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 16) as u8
            })
            .collect()
    }

    #[test]
    fn transpose_matches_reference_exhaustive_small() {
        // Every group count through several cache-block shapes, every
        // supported element width (f32, f64, plus the generic-path widths
        // 16 and 24 bits).
        for groups in 1..=24usize {
            let elems = groups * 8;
            for elem_bits in [16usize, 24, 32, 64] {
                let n = elems * elem_bits / 8;
                let data = xorshift_bytes(n, (groups * 31 + elem_bits) as u32 | 1);
                let fast = bit_transpose(&data, elems, elem_bits);
                let slow = reference::bit_transpose(&data, elems, elem_bits);
                assert_eq!(fast, slow, "transpose {elems} x {elem_bits}");
                let back_fast = bit_untranspose(&fast, elems, elem_bits);
                let back_slow = reference::bit_untranspose(&fast, elems, elem_bits);
                assert_eq!(back_fast, back_slow, "untranspose {elems} x {elem_bits}");
                assert_eq!(back_fast, data);
            }
        }
    }

    #[test]
    fn transpose_matches_reference_large_random() {
        for (elems, elem_bits, seed) in [
            (8192usize, 32usize, 7u32),
            (4096, 64, 11),
            (1000 * 8, 64, 13),
        ] {
            let n = elems * elem_bits / 8;
            let data = xorshift_bytes(n, seed);
            assert_eq!(
                bit_transpose(&data, elems, elem_bits),
                reference::bit_transpose(&data, elems, elem_bits)
            );
            let t = bit_transpose(&data, elems, elem_bits);
            assert_eq!(
                bit_untranspose(&t, elems, elem_bits),
                reference::bit_untranspose(&t, elems, elem_bits)
            );
        }
    }

    #[test]
    fn transpose_single_bit_probes_match_reference() {
        // One set bit at every position of a small buffer: catches any
        // single misrouted bit in the blocked gather/scatter mapping.
        let elems = 16usize;
        for elem_bits in [32usize, 64] {
            let n = elems * elem_bits / 8;
            for bit in 0..n * 8 {
                let mut data = vec![0u8; n];
                data[bit / 8] = 1 << (bit % 8);
                assert_eq!(
                    bit_transpose(&data, elems, elem_bits),
                    reference::bit_transpose(&data, elems, elem_bits),
                    "probe bit {bit} at {elem_bits}"
                );
                assert_eq!(
                    bit_untranspose(&data, elems, elem_bits),
                    reference::bit_untranspose(&data, elems, elem_bits),
                    "inverse probe bit {bit} at {elem_bits}"
                );
            }
        }
    }

    #[test]
    fn transpose_collects_constant_bits() {
        // All elements share the same high byte: after transpose, the lanes
        // for those bits are constant runs.
        let words: Vec<u32> = (0..64u32).map(|i| 0x4280_0000 | i).collect();
        let mut data = Vec::new();
        for w in &words {
            data.extend_from_slice(&w.to_le_bytes());
        }
        let t = bit_transpose(&data, 64, 32);
        // Lanes 8..31 (bits of the constant part, LE bit order) are uniform:
        // count lanes that are all-0x00 or all-0xFF.
        let lane_bytes = 64 / 8;
        let uniform = (0..32)
            .filter(|&b| {
                let lane = &t[b * lane_bytes..(b + 1) * lane_bytes];
                lane.iter().all(|&x| x == 0) || lane.iter().all(|&x| x == 0xFF)
            })
            .count();
        assert!(uniform >= 24, "expected >= 24 uniform lanes, got {uniform}");
    }

    fn round_trip(codec: &Bitshuffle, data: &FloatData) -> usize {
        let c = codec.compress(data).unwrap();
        let back = codec.decompress(&c, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
        c.len()
    }

    #[test]
    fn lz4_backend_round_trip() {
        let vals: Vec<f32> = (0..50_000)
            .map(|i| 1.5 + (i % 1000) as f32 * 0.001)
            .collect();
        let data = FloatData::from_f32(&vals, vec![50_000], Domain::Observation).unwrap();
        let n = round_trip(&Bitshuffle::lz4(), &data);
        assert!(n < data.bytes().len(), "must compress, got {n}");
    }

    #[test]
    fn zzip_backend_beats_lz4_on_structured_data() {
        let vals: Vec<f64> = (0..30_000)
            .map(|i| 300.0 + ((i % 365) as f64) * 0.1)
            .collect();
        let data = FloatData::from_f64(&vals, vec![30_000], Domain::TimeSeries).unwrap();
        let l = round_trip(&Bitshuffle::lz4(), &data);
        let z = round_trip(&Bitshuffle::zzip(), &data);
        assert!(z <= l, "zstd-class ({z}) should match or beat LZ4 ({l})");
    }

    #[test]
    fn ragged_sizes_round_trip() {
        for n in [1usize, 7, 8, 9, 1023, 1024, 1025, 4096, 4097] {
            let vals: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let data = FloatData::from_f32(&vals, vec![n], Domain::Hpc).unwrap();
            round_trip(&Bitshuffle::lz4(), &data);
        }
    }

    #[test]
    fn thread_counts_round_trip() {
        let vals: Vec<f64> = (0..20_000).map(|i| (i as f64).sqrt()).collect();
        let data = FloatData::from_f64(&vals, vec![20_000], Domain::Hpc).unwrap();
        for t in [1usize, 2, 5, 16] {
            let codec = Bitshuffle::with_config(Backend::Lz4, 4096, t);
            round_trip(&codec, &data);
        }
    }

    #[test]
    fn block_sizes_round_trip_and_bigger_blocks_help() {
        let vals: Vec<f64> = (0..40_000).map(|i| ((i % 2000) as f64) * 0.5).collect();
        let data = FloatData::from_f64(&vals, vec![40_000], Domain::TimeSeries).unwrap();
        let small = round_trip(&Bitshuffle::with_config(Backend::Lz4, 512, 4), &data);
        let big = round_trip(&Bitshuffle::with_config(Backend::Lz4, 65_536, 4), &data);
        assert!(
            big <= small,
            "64K blocks ({big}) should beat 512B blocks ({small})"
        );
    }

    #[test]
    fn special_values() {
        let vals = [
            f64::NAN,
            f64::INFINITY,
            -0.0,
            0.0,
            5e-324,
            -1.0,
            1.0,
            f64::MAX,
        ];
        let data = FloatData::from_f64(&vals, vec![8], Domain::Hpc).unwrap();
        round_trip(&Bitshuffle::lz4(), &data);
        round_trip(&Bitshuffle::zzip(), &data);
    }

    #[test]
    fn corruption_rejected() {
        let vals: Vec<f32> = (0..5000).map(|i| i as f32).collect();
        let data = FloatData::from_f32(&vals, vec![5000], Domain::Hpc).unwrap();
        let codec = Bitshuffle::lz4();
        let c = codec.compress(&data).unwrap();
        assert!(codec.decompress(&c[..3], data.desc()).is_err());
        assert!(codec.decompress(&c[..c.len() - 1], data.desc()).is_err());
        let mut extra = c.clone();
        extra.push(0);
        assert!(codec.decompress(&extra, data.desc()).is_err());
    }

    #[test]
    fn names_match_paper_rows() {
        assert_eq!(Bitshuffle::lz4().info().name, "bitshuffle-lz4");
        assert_eq!(Bitshuffle::zzip().info().name, "bitshuffle-zstd");
    }
}
