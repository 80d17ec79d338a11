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

use crate::common::{u32_words, u64_words};
use fcbench_core::wire::{code_chunks, fan_out, Cursor};
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, Error, FloatData, Platform,
    PrecisionSupport, Result,
};
use fcbench_entropy::{lz4, lz77::Lz77Config, zzip};
use std::cell::RefCell;

/// Default block size in bytes — the paper's evaluation block (64 KB).
pub(crate) const DEFAULT_BLOCK_BYTES: usize = 64 * 1024;

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
    /// `bitshuffle::LZ4` with the 64 KiB default block
    /// (`DEFAULT_BLOCK_BYTES`) and 8 threads.
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

/// The delta-swap rounds of a 64x64 bit-matrix transpose: round `(j, mask)`
/// swaps the two `j`-wide off-diagonal blocks of every `2j`-row band, `mask`
/// selecting each block's low `j` columns (Hacker's Delight §7-3).
const ROUNDS: [(usize, u64); 6] = [
    (32, 0x0000_0000_FFFF_FFFF),
    (16, 0x0000_FFFF_0000_FFFF),
    (8, 0x00FF_00FF_00FF_00FF),
    (4, 0x0F0F_0F0F_0F0F_0F0F),
    (2, 0x3333_3333_3333_3333),
    (1, 0x5555_5555_5555_5555),
];

/// Transpose in place the bit matrix whose row `r` is `rows[r]` (LSB-first
/// bit = column). With 64 rows that is the whole 64x64 tile; with 32 rows it
/// is the 32x32 halves (columns 0..32 and 32..64) each transposed on its own.
/// An involution either way.
#[inline(always)]
fn transpose_tile<const N: usize>(rows: &mut [u64; N]) {
    for &(j, mask) in &ROUNDS[6 - N.trailing_zeros() as usize..] {
        for band in rows.chunks_exact_mut(2 * j) {
            let (lo, hi) = band.split_at_mut(j);
            for (x, y) in lo.iter_mut().zip(hi) {
                let t = ((*x >> j) ^ *y) & mask;
                *x ^= t << j;
                *y ^= t;
            }
        }
    }
}

/// Rows of an f32 tile of up to 64 elements: row `r` holds element `r` in
/// its low half and element `r + 32` in its high half, so one 32-row
/// [`transpose_tile`] leaves bit plane `c` of the tile in row `c`. Missing
/// elements read as zero.
#[inline(always)]
fn f32_rows(tile: &[u8]) -> [u64; 32] {
    let mut rows = [0u64; 32];
    let (lo, hi) = tile.split_at(tile.len().min(128));
    for (r, w) in rows.iter_mut().zip(u32_words(lo)) {
        *r = u64::from(w);
    }
    for (r, w) in rows.iter_mut().zip(u32_words(hi)) {
        *r |= u64::from(w) << 32;
    }
    rows
}

/// Inverse of [`f32_rows`]: write the tile's elements back from the rows.
#[inline(always)]
fn put_f32_rows(rows: &[u64; 32], tile: &mut [u8]) {
    let (lo, hi) = tile.split_at_mut(tile.len().min(128));
    for (w, &r) in lo.chunks_exact_mut(4).zip(rows) {
        w.copy_from_slice(&(r as u32).to_le_bytes());
    }
    for (w, &r) in hi.chunks_exact_mut(4).zip(rows) {
        w.copy_from_slice(&((r >> 32) as u32).to_le_bytes());
    }
}

/// Store the low `width` bytes of row `c` at byte `at` of bit plane `c`
/// (planes are `plane` bytes long).
#[inline(always)]
fn store_planes(rows: &[u64], width: usize, out: &mut [u8], plane: usize, at: usize) {
    for (c, bits) in rows.iter().enumerate() {
        out[c * plane + at..][..width].copy_from_slice(&bits.to_le_bytes()[..width]);
    }
}

/// Inverse of [`store_planes`]: row `c` from `width` bytes at byte `at` of
/// bit plane `c` (a short read yields zero bits, never a panic).
#[inline(always)]
fn load_planes<const N: usize>(data: &[u8], width: usize, plane: usize, at: usize) -> [u64; N] {
    let mut rows = [0u64; N];
    for (c, bits) in rows.iter_mut().enumerate() {
        let mut le = [0u8; 8];
        if let Some(b) = data.get(c * plane + at..).and_then(|b| b.get(..width)) {
            le[..width].copy_from_slice(b);
        }
        *bits = u64::from_le_bytes(le);
    }
    rows
}

/// Transpose the bits of `elems` elements of `elem_bits` bits each.
/// `data.len()` must equal `elems * elem_bits / 8`; `elems` must be a
/// multiple of 8 so every output lane is whole bytes.
///
/// Tiled kernel: f64 and f32 elements move 64 at a time — one in-place
/// 64x64 bit-matrix transpose (six `u64` delta-swap rounds; f32 packs two
/// elements per row and needs five), then one 8-byte store per bit plane.
/// A remaining 32 f32 elements take one more tile with 4-byte stores; the
/// rest, and every other width, go 8 elements at a time through
/// `transpose8`.
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
    out.clear();
    out.resize(data.len(), 0);
    // Bit plane `c` is bytes `c * plane ..`; the tile of elements from `e`
    // owns bytes `e / 8 ..` of every plane.
    let plane = elems / 8;
    let mut done = 0;
    match elem_bits {
        64 => {
            for tile in data.chunks_exact(512) {
                let mut rows = [0u64; 64];
                for (r, w) in rows.iter_mut().zip(u64_words(tile)) {
                    *r = w;
                }
                transpose_tile(&mut rows);
                store_planes(&rows, 8, out, plane, done / 8);
                done += 64;
            }
        }
        32 => {
            let tiles = data.chunks_exact(256);
            let rest = tiles.remainder();
            for tile in tiles {
                let mut rows = f32_rows(tile);
                transpose_tile(&mut rows);
                store_planes(&rows, 8, out, plane, done / 8);
                done += 64;
            }
            if let Some(half) = rest.first_chunk::<128>() {
                let mut rows = f32_rows(half);
                transpose_tile(&mut rows);
                store_planes(&rows, 4, out, plane, done / 8);
                done += 32;
            }
        }
        _ => {}
    }
    let esize = elem_bits / 8;
    for g in done / 8..plane {
        let grp = &data[8 * esize * g..][..8 * esize];
        for k in 0..esize {
            let mut x = 0u64;
            for j in 0..8 {
                x |= u64::from(grp[j * esize + k]) << (8 * j);
            }
            for (t, b) in transpose8(x).to_le_bytes().into_iter().enumerate() {
                out[(8 * k + t) * plane + g] = b;
            }
        }
    }
}

/// Inverse of [`bit_transpose`].
pub fn bit_untranspose(data: &[u8], elems: usize, elem_bits: usize) -> Vec<u8> {
    let mut out = Vec::new();
    bit_untranspose_into(data, elems, elem_bits, &mut out);
    out
}

/// [`bit_untranspose`] into a caller-owned buffer (contents replaced,
/// capacity reused).
pub fn bit_untranspose_into(data: &[u8], elems: usize, elem_bits: usize, out: &mut Vec<u8>) {
    out.clear();
    out.resize(data.len(), 0);
    untranspose_to(data, elems, elem_bits, out);
}

/// [`bit_untranspose`] into exactly `data.len()` bytes of `out`: the
/// forward tiles with loads and stores swapped (`transpose_tile` and
/// `transpose8` are involutions).
pub(crate) fn untranspose_to(data: &[u8], elems: usize, elem_bits: usize, out: &mut [u8]) {
    debug_assert_eq!(data.len(), elems * elem_bits / 8);
    debug_assert_eq!(out.len(), data.len());
    debug_assert_eq!(elems % 8, 0);
    let plane = elems / 8;
    let mut done = 0;
    match elem_bits {
        64 => {
            for tile in out.chunks_exact_mut(512) {
                let mut rows = load_planes::<64>(data, 8, plane, done / 8);
                transpose_tile(&mut rows);
                for (w, r) in tile.chunks_exact_mut(8).zip(rows) {
                    w.copy_from_slice(&r.to_le_bytes());
                }
                done += 64;
            }
        }
        32 => {
            let mut tiles = out.chunks_exact_mut(256);
            for tile in &mut tiles {
                let mut rows = load_planes::<32>(data, 8, plane, done / 8);
                transpose_tile(&mut rows);
                put_f32_rows(&rows, tile);
                done += 64;
            }
            if let Some(half) = tiles.into_remainder().first_chunk_mut::<128>() {
                let mut rows = load_planes::<32>(data, 4, plane, done / 8);
                transpose_tile(&mut rows);
                put_f32_rows(&rows, half);
                done += 32;
            }
        }
        _ => {}
    }
    let esize = elem_bits / 8;
    for g in done / 8..plane {
        let grp = &mut out[8 * esize * g..][..8 * esize];
        for k in 0..esize {
            let mut y = 0u64;
            for t in 0..8 {
                y |= u64::from(data[(8 * k + t) * plane + g]) << (8 * t);
            }
            for (j, b) in transpose8(y).to_le_bytes().into_iter().enumerate() {
                grp[j * esize + k] = b;
            }
        }
    }
}

/// Shuffle one block: whole groups of 8 elements are bit-transposed; a
/// ragged tail is passed through unchanged (as the reference does).
fn shuffle_block_into(block: &[u8], elem_size: usize, out: &mut Vec<u8>) {
    let whole = block.len() / (8 * elem_size) * (8 * elem_size);
    bit_transpose_into(&block[..whole], whole / elem_size, elem_size * 8, out);
    out.extend_from_slice(&block[whole..]);
}

/// Inverse of [`shuffle_block_into`] into exactly `block.len()` bytes.
fn unshuffle_block_to(block: &[u8], elem_size: usize, out: &mut [u8]) {
    let whole = block.len() / (8 * elem_size) * (8 * elem_size);
    let (planes, tail) = out.split_at_mut(whole);
    untranspose_to(&block[..whole], whole / elem_size, elem_size * 8, planes);
    tail.copy_from_slice(&block[whole..]);
}

// Per-thread staging for one block — the shuffled bytes and, compressing,
// the coded stream — so a scoped worker sizes both once rather than once
// per block.
thread_local! {
    static SCRATCH: RefCell<(Vec<u8>, Vec<u8>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Append one block: `u32 raw length | backend stream`.
fn compress_one(block: &[u8], elem_size: usize, backend: Backend, out: &mut Vec<u8>) {
    SCRATCH.with_borrow_mut(|(shuffled, coded)| {
        shuffle_block_into(block, elem_size, shuffled);
        match backend {
            Backend::Lz4 => lz4::compress_into(shuffled, coded),
            Backend::Zzip => {
                // Blocks are <= 64 KiB: a 64 KiB window with deep chains
                // reaches across the whole block, plus the entropy stage —
                // the slower-but-stronger profile of real zstd. The window
                // is one past `u16::MAX`, so offsets are 3 bytes, not
                // LZ4's 2; the payload is frozen with that width.
                *coded = zzip::compress_with(
                    shuffled,
                    Lz77Config {
                        window: 1 << 16,
                        chain_depth: 128,
                    },
                )
            }
        }
        out.reserve(4 + coded.len());
        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        out.extend_from_slice(coded);
    })
}

/// Decode one block's backend stream into exactly `out.len()` bytes.
fn decompress_one(body: &[u8], elem_size: usize, backend: Backend, out: &mut [u8]) -> Result<()> {
    let corrupt = |e: &dyn std::fmt::Display| Error::Corrupt(e.to_string());
    match backend {
        Backend::Lz4 => SCRATCH.with_borrow_mut(|(shuffled, _)| {
            lz4::decompress_into(body, out.len(), shuffled).map_err(|e| corrupt(&e))?;
            unshuffle_block_to(shuffled, elem_size, out);
            Ok(())
        }),
        Backend::Zzip => {
            let shuffled = zzip::decompress(body).map_err(|e| corrupt(&e))?;
            if shuffled.len() != out.len() {
                return Err(corrupt(&"bitshuffle: block length mismatch"));
            }
            unshuffle_block_to(&shuffled, elem_size, out);
            Ok(())
        }
    }
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

        let elem_size = desc.precision.bytes();
        out.refill(desc, |bytes| {
            // Each block decodes straight into its own slice of the output.
            // Its stored raw length sizes that slice and the block's decode
            // buffer, so it is held to the bytes the descriptor still has
            // left — whatever block size the stream was written with.
            bytes.resize(desc.byte_len(), 0);
            let mut left = bytes.as_mut_slice();
            let mut slots = Vec::with_capacity(nblocks);
            for block in blocks {
                let mut block = Cursor::new("bitshuffle", block);
                let raw_len = block.len32("block length")?;
                let Some((dst, rest)) = std::mem::take(&mut left).split_at_mut_checked(raw_len)
                else {
                    return Err(cur.corrupt("block claims more bytes than the descriptor has left"));
                };
                left = rest;
                slots.push((block.rest(), dst, Ok(())));
            }
            if !left.is_empty() {
                return Err(cur.corrupt("blocks do not cover the descriptor"));
            }
            cur.finish()?;

            fan_out(
                &mut slots,
                desc.byte_len(),
                self.threads,
                |_, (body, dst, done)| *done = decompress_one(body, elem_size, self.backend, dst),
            );
            slots.into_iter().try_for_each(|(_, _, done)| done)
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

    /// The bit-granular transpose the word-level kernels replaced, kept so
    /// the differential tests can prove they produce byte-identical planes.
    mod reference {
        /// Transpose the bits of `elems` elements of `elem_bits` bits each,
        /// one bit per loop iteration.
        pub(crate) fn bit_transpose(data: &[u8], elems: usize, elem_bits: usize) -> Vec<u8> {
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
        pub(crate) fn bit_untranspose(data: &[u8], elems: usize, elem_bits: usize) -> Vec<u8> {
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
        // single misrouted bit in the tile and 8-group mappings. The sizes
        // cover 8-groups alone (16), one 32-element f32 tile (32), one
        // 64-element tile (64), a tile plus a 32-element tile or 8-groups
        // (96), and tiles plus both tails (136).
        for (elems, elem_bits) in [16usize, 32, 64, 96, 136]
            .into_iter()
            .flat_map(|e| [(e, 32usize), (e, 64)])
        {
            let n = elems * elem_bits / 8;
            for bit in 0..n * 8 {
                let mut data = vec![0u8; n];
                data[bit / 8] = 1 << (bit % 8);
                assert_eq!(
                    bit_transpose(&data, elems, elem_bits),
                    reference::bit_transpose(&data, elems, elem_bits),
                    "probe bit {bit} at {elems} x {elem_bits}"
                );
                assert_eq!(
                    bit_untranspose(&data, elems, elem_bits),
                    reference::bit_untranspose(&data, elems, elem_bits),
                    "inverse probe bit {bit} at {elems} x {elem_bits}"
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
