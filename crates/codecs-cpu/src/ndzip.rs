//! ndzip (Knorr, Thoman & Fahringer, DCC 2021; paper §3.8).
//!
//! ndzip targets multi-GB/s throughput on multidimensional grids:
//!
//! 1. The grid is divided into **hypercubes of 4096 elements**
//!    (4096 / 64×64 / 16×16×16 for 1-/2-/3-D).
//! 2. An **integer Lorenzo transform** runs inside each cube — implemented,
//!    as in ndzip, as one forward-difference sweep per dimension over the
//!    two's-complement bit patterns (the sweeps compose to the Lorenzo
//!    operator and invert exactly with wrapping adds).
//! 3. Residuals are cut into chunks of 32 (fp32) or 64 (fp64) values and
//!    **bit-transposed**.
//! 4. **Zero words are removed**: a 32-/64-bit bitmap header marks nonzero
//!    transposed words, which are copied verbatim.
//!
//! Hypercubes compress and decompress independently (thread-level
//! parallelism); elements outside whole cubes (grid borders) are stored
//! verbatim, as in ndzip.
//!
//! Payload: `u32 ncubes | per-cube u32 size | cube streams | border bytes`.

use crate::bitshuffle::{bit_transpose_into, untranspose_to};
use crate::common::{effective_dims, put_words, u32_words, u64_words};
use fcbench_core::wire::{code_chunks, fan_out, Cursor};
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, FloatData, Platform, PrecisionSupport,
    Result,
};
use std::cell::RefCell;
use std::ops::Range;

/// Elements per hypercube.
pub(crate) const CUBE_ELEMS: usize = 4096;

/// The ndzip CPU codec.
#[derive(Debug, Clone)]
pub struct Ndzip {
    threads: usize,
    cube_elems: usize,
}

impl Default for Ndzip {
    fn default() -> Self {
        Self::new()
    }
}

impl Ndzip {
    /// Default: 4096-element cubes, 8 worker threads.
    pub fn new() -> Self {
        Ndzip {
            threads: 8,
            cube_elems: CUBE_ELEMS,
        }
    }

    pub fn with_threads(threads: usize) -> Self {
        Ndzip {
            threads: threads.max(1),
            cube_elems: CUBE_ELEMS,
        }
    }

    /// Custom cube size for the hypercube-size ablation (power of two,
    /// ≥ 64; side lengths must stay integral for 2-D/3-D, so the exponent
    /// must be divisible by 6 for 3-D and 2 for 2-D — 4096 satisfies both).
    pub fn with_cube_elems(cube_elems: usize) -> Self {
        assert!(cube_elems.is_power_of_two() && cube_elems >= 64);
        Ndzip {
            threads: 8,
            cube_elems,
        }
    }

    /// The cube decomposition of a `desc`-shaped grid (at most 3-D: extra
    /// leading axes collapse into the slowest one).
    pub fn plan(&self, desc: &DataDesc) -> Cubes {
        let dims = effective_dims(desc);
        Cubes::new(&dims, &self.cube_sides(dims.len()), desc.precision.bits())
    }

    /// Cube side lengths for dimensionality `nd`.
    fn cube_sides(&self, nd: usize) -> Vec<usize> {
        match nd {
            1 => vec![self.cube_elems],
            2 => {
                let side = (self.cube_elems as f64).sqrt() as usize;
                vec![side, side]
            }
            _ => {
                let side = (self.cube_elems as f64).cbrt().round() as usize;
                vec![side, side, side]
            }
        }
    }
}

/// Zigzag sign fold: maps small-magnitude two's-complement residuals
/// (positive *or* negative) to small unsigned values, so the transposed
/// high bit planes stay zero and the zero-word removal fires. Plays the
/// role of ndzip's residual sign handling — without it, any descending
/// step sets every high plane to ones and nothing is removed.
#[inline]
pub fn zigzag(v: u64, bits: u32) -> u64 {
    let s = (v as i64) << (64 - bits) >> (64 - bits); // sign-extend low `bits`
    (((s << 1) ^ (s >> 63)) as u64) & (u64::MAX >> (64 - bits))
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64, bits: u32) -> u64 {
    let r = ((v >> 1) as i64) ^ -((v & 1) as i64);
    (r as u64) & (u64::MAX >> (64 - bits))
}

/// Forward integer Lorenzo: one wrapping forward-difference sweep per
/// dimension over a row-major cube of `sides` extents, followed by a
/// zigzag sign fold of the residuals. Shared with ndzip-GPU, whose
/// pipeline is identical (§4.4). `bits` is the element width (32/64).
///
/// The sweep along an axis of stride `s` and extent `len` runs block by
/// block (`s * len` words each): every word past a block's first `s` takes
/// the difference to the word `s` before it.
fn lorenzo_forward(words: &mut [u64], sides: &[usize], bits: u32) {
    let mut stride = 1;
    for &len in sides.iter().rev() {
        let block = stride * len;
        for b in words.chunks_exact_mut(block) {
            // From the back, so every subtrahend is still an original word.
            for k in (stride..block).rev() {
                b[k] = b[k].wrapping_sub(b[k - stride]);
            }
        }
        stride = block;
    }
    let mask = u64::MAX >> (64 - bits);
    for w in words.iter_mut() {
        *w = zigzag(*w & mask, bits);
    }
}

/// Inverse integer Lorenzo: unfold signs, then prefix-sum sweeps in the
/// opposite axis order, ascending within each block.
fn lorenzo_inverse(words: &mut [u64], sides: &[usize], bits: u32) {
    for w in words.iter_mut() {
        *w = unzigzag(*w, bits);
    }
    let mask = u64::MAX >> (64 - bits);
    let mut block = words.len();
    for &len in sides {
        let stride = block / len;
        for b in words.chunks_exact_mut(block) {
            for k in stride..block {
                b[k] = b[k].wrapping_add(b[k - stride]) & mask;
            }
        }
        block = stride;
    }
}

/// Append the little-endian `esize`-byte elements of `bytes` as words.
fn extend_words(words: &mut Vec<u64>, bytes: &[u8], esize: usize) {
    match esize {
        4 => words.extend(u32_words(bytes).map(u64::from)),
        _ => words.extend(u64_words(bytes)),
    }
}

/// Store the low `esize` bytes of each word into `dst`, little-endian.
fn store_words(dst: &mut [u8], words: &[u64], esize: usize) {
    match esize {
        4 => {
            for (d, &w) in dst.chunks_exact_mut(4).zip(words) {
                d.copy_from_slice(&(w as u32).to_le_bytes());
            }
        }
        _ => {
            for (d, &w) in dst.chunks_exact_mut(8).zip(words) {
                d.copy_from_slice(&w.to_le_bytes());
            }
        }
    }
}

/// One cube's working set: its words, the same as bytes, and one chunk's
/// bit planes. Kept per thread, so a warm cube allocates nothing.
struct Scratch {
    words: Vec<u64>,
    raw: Vec<u8>,
    planes: Vec<u8>,
}

impl Scratch {
    const fn new() -> Self {
        Scratch {
            words: Vec::new(),
            raw: Vec::new(),
            planes: Vec::new(),
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
}

/// One call's grid geometry: the extent cut into whole cubes plus a
/// border, and the kernels that code one cube of it. Shared with
/// ndzip-GPU, whose pipeline is identical (§4.4) — only the schedule and
/// the directory differ.
///
/// The grid is held as 3-D, padded with leading extents of 1 (`[1, 1, n]`,
/// `[1, ny, nx]`), so a cube is `sides[0] * sides[1]` rows of `sides[2]`
/// contiguous elements, reached row by row from the cube's origin: no
/// per-element index is computed or stored.
pub struct Cubes {
    /// Grid extents, row-major.
    dims: [usize; 3],
    /// Cube side lengths.
    sides: [usize; 3],
    /// Whole cubes along each axis.
    counts: [usize; 3],
    /// The slowest real axis. The cubes sharing one coordinate on it form a
    /// slab, which covers a contiguous run of the grid.
    slab_axis: usize,
    /// Element width in bits (32/64).
    elem_bits: usize,
}

impl Cubes {
    /// The decomposition of a `dims` grid (1- to 3-D) into `sides` cubes.
    fn new(dims: &[usize], sides: &[usize], elem_bits: usize) -> Cubes {
        let slab_axis = 3 - dims.len();
        let pad = |v: &[usize]| {
            let mut padded = [1; 3];
            padded[slab_axis..].copy_from_slice(v);
            padded
        };
        let (dims, sides) = (pad(dims), pad(sides));
        Cubes {
            dims,
            sides,
            counts: std::array::from_fn(|d| dims[d] / sides[d]),
            slab_axis,
            elem_bits,
        }
    }

    fn esize(&self) -> usize {
        self.elem_bits / 8
    }

    /// Number of whole cubes.
    pub fn count(&self) -> usize {
        self.counts.iter().product()
    }

    /// Elements per cube.
    fn cube_elems(&self) -> usize {
        self.sides.iter().product()
    }

    /// The grid index of the first element of each row of cube `k`, in the
    /// cube's row-major order; a row is `sides[2]` elements.
    fn rows(&self, k: usize) -> impl Iterator<Item = usize> + '_ {
        let ([_, c1, c2], [s0, s1, s2], [_, d1, d2]) = (self.counts, self.sides, self.dims);
        let (z0, y0, x0) = (k / (c1 * c2) * s0, k / c2 % c1 * s1, k % c2 * s2);
        (z0..z0 + s0).flat_map(move |z| (y0..y0 + s1).map(move |y| (z * d1 + y) * d2 + x0))
    }

    /// Call `f` on each maximal run of border elements (those in no whole
    /// cube), in ascending order.
    fn border_runs(&self, mut f: impl FnMut(Range<usize>)) {
        let [d0, d1, d2] = self.dims;
        let covered: [usize; 3] = std::array::from_fn(|d| self.counts[d] * self.sides[d]);
        let mut pending = 0..0;
        for z in 0..d0 {
            for y in 0..d1 {
                let row = (z * d1 + y) * d2;
                let from = if z < covered[0] && y < covered[1] {
                    covered[2]
                } else {
                    0
                };
                let run = row + from..row + d2;
                if run.start == pending.end {
                    pending.end = run.end;
                } else {
                    let done = std::mem::replace(&mut pending, run);
                    if !done.is_empty() {
                        f(done);
                    }
                }
            }
        }
        if !pending.is_empty() {
            f(pending);
        }
    }

    /// Code cube `k` of the grid held in `bytes` onto `out`: gather, integer
    /// Lorenzo, then per chunk of `elem_bits` residuals a bit transpose and
    /// a bitmap of the nonzero transposed words followed by those words.
    pub fn encode_cube(&self, k: usize, bytes: &[u8], out: &mut Vec<u8>) {
        let (chunk, esize, row) = (self.elem_bits, self.esize(), self.sides[2]);
        SCRATCH.with_borrow_mut(|Scratch { words, raw, planes }| {
            words.clear();
            for start in self.rows(k) {
                extend_words(words, &bytes[start * esize..(start + row) * esize], esize);
            }
            lorenzo_forward(words, &self.sides, self.elem_bits as u32);
            raw.clear();
            put_words(words, esize, raw);
            out.reserve(raw.len());
            for residuals in raw.chunks(chunk * esize) {
                if residuals.len() < chunk * esize {
                    // Ragged tail of a cube that is no chunk multiple: verbatim.
                    out.extend_from_slice(residuals);
                    continue;
                }
                bit_transpose_into(residuals, chunk, self.elem_bits, planes);
                // The transposed data is `elem_bits` words of `chunk` bits
                // each; word w is bytes [w*esize, (w+1)*esize) since chunk ==
                // elem_bits. The bitmap is patched in once the zero scan is done.
                let mut bitmap = [0u8; 8];
                let bitmap_pos = out.len();
                out.extend_from_slice(&bitmap[..esize]);
                for (w, word) in planes.chunks_exact(esize).enumerate() {
                    if word.iter().any(|&b| b != 0) {
                        bitmap[w / 8] |= 1 << (w % 8);
                        out.extend_from_slice(word);
                    }
                }
                out[bitmap_pos..bitmap_pos + esize].copy_from_slice(&bitmap[..esize]);
            }
        })
    }

    /// Append the border elements of the grid held in `bytes` verbatim.
    pub fn put_border(&self, bytes: &[u8], out: &mut Vec<u8>) {
        let esize = self.esize();
        self.border_runs(|run| out.extend_from_slice(&bytes[run.start * esize..run.end * esize]));
    }

    /// Inverse of [`Cubes::put_border`]: write the border elements `cur`
    /// must end with into the grid `bytes`.
    fn take_border(&self, bytes: &mut [u8], mut cur: Cursor<'_>) -> Result<()> {
        let esize = self.esize();
        let border_elems = self.dims.iter().product::<usize>() - self.count() * self.cube_elems();
        let mut border = cur.take(border_elems * esize, "border")?;
        self.border_runs(|run| {
            let (head, rest) = border.split_at(run.len() * esize);
            bytes[run.start * esize..run.end * esize].copy_from_slice(head);
            border = rest;
        });
        cur.finish()
    }

    /// Inverse of [`Cubes::encode_cube`] into `s.words`, Lorenzo undone.
    /// The stream must be consumed exactly.
    fn decode_words(&self, stream: &[u8], s: &mut Scratch) -> Result<()> {
        let (chunk, esize) = (self.elem_bits, self.esize());
        let Scratch { words, raw, planes } = s;
        raw.clear();
        raw.resize(self.cube_elems() * esize, 0);
        let mut cur = Cursor::new("ndzip", stream);
        let mut chunks = raw.chunks_exact_mut(chunk * esize);
        for residuals in &mut chunks {
            let bitmap = cur.take(esize, "bitmap")?;
            let nset: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
            let mut nonzero = cur.take(nset * esize, "nonzero words")?.chunks_exact(esize);
            planes.clear();
            planes.resize(chunk * esize, 0);
            for (w, word) in planes.chunks_exact_mut(esize).enumerate() {
                if bitmap[w / 8] & (1 << (w % 8)) != 0 {
                    if let Some(stored) = nonzero.next() {
                        word.copy_from_slice(stored);
                    }
                }
            }
            untranspose_to(planes, chunk, self.elem_bits, residuals);
        }
        let tail = chunks.into_remainder();
        tail.copy_from_slice(cur.take(tail.len(), "tail words")?);
        cur.finish()?;
        words.clear();
        extend_words(words, raw, esize);
        lorenzo_inverse(words, &self.sides, self.elem_bits as u32);
        Ok(())
    }

    /// Write cube `k`'s decoded `words` into `grid`, which holds the grid's
    /// elements from index `base` on.
    fn scatter(&self, k: usize, words: &[u64], grid: &mut [u8], base: usize) {
        let (esize, row) = (self.esize(), self.sides[2]);
        for (start, words) in self.rows(k).zip(words.chunks_exact(row)) {
            let at = (start - base) * esize;
            store_words(&mut grid[at..at + row * esize], words, esize);
        }
    }

    /// Inverse of [`Cubes::encode_cube`]: the cube's words, Lorenzo undone.
    /// The stream must be consumed exactly.
    pub fn decode_cube(&self, stream: &[u8]) -> Result<Vec<u64>> {
        let mut s = Scratch::new();
        self.decode_words(stream, &mut s)?;
        Ok(s.words)
    }

    /// Reassemble the grid into `out`: scatter each decoded cube to its
    /// elements, then the verbatim border elements `cur` must end with.
    pub fn assemble(
        &self,
        desc: &DataDesc,
        cubes: impl IntoIterator<Item = Result<Vec<u64>>>,
        cur: Cursor<'_>,
        out: &mut FloatData,
    ) -> Result<()> {
        out.refill(desc, |bytes| {
            bytes.resize(desc.byte_len(), 0);
            for (k, cube) in (0..self.count()).zip(cubes) {
                self.scatter(k, &cube?, bytes, 0);
            }
            self.take_border(bytes, cur)
        })
    }

    /// Decode `streams`, one per cube, and the border `cur` must end with
    /// into `out`. Each slab decodes straight into its stretch of the
    /// output, the slabs through [`fan_out`] under the rule compression
    /// fans out by; the first failing cube in cube order is the error.
    fn decode(
        &self,
        streams: &[&[u8]],
        cur: Cursor<'_>,
        desc: &DataDesc,
        out: &mut FloatData,
        threads: usize,
    ) -> Result<()> {
        let (esize, a) = (self.esize(), self.slab_axis);
        let slab_elems = self.sides[a] * self.dims[a + 1..].iter().product::<usize>();
        let per_slab: usize = self.counts[a + 1..].iter().product();
        out.refill(desc, |bytes| {
            bytes.resize(desc.byte_len(), 0);
            if self.count() > 0 {
                let slabs =
                    bytes[..self.counts[a] * slab_elems * esize].chunks_mut(slab_elems * esize);
                let mut slots: Vec<(&mut [u8], Result<()>)> =
                    slabs.map(|slab| (slab, Ok(()))).collect();
                fan_out(&mut slots, desc.byte_len(), threads, |j, (slab, result)| {
                    *result = SCRATCH.with_borrow_mut(|s| {
                        let first = j * per_slab;
                        for (k, stream) in (first..).zip(&streams[first..first + per_slab]) {
                            self.decode_words(stream, s)?;
                            self.scatter(k, &s.words, slab, j * slab_elems);
                        }
                        Ok(())
                    });
                });
                slots.into_iter().try_for_each(|(_, result)| result)?;
            }
            self.take_border(bytes, cur)
        })
    }
}

impl Compressor for Ndzip {
    fn info(&self) -> CodecInfo {
        CodecInfo {
            name: "ndzip-cpu",
            year: 2021,
            community: Community::Hpc,
            class: CodecClass::Lorenzo,
            platform: Platform::Cpu,
            parallel: true,
            precisions: PrecisionSupport::Both,
        }
    }

    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        let plan = self.plan(data.desc());
        let bytes = data.bytes();
        let ncubes = plan.count();
        out.clear();
        out.extend_from_slice(&(ncubes as u32).to_le_bytes());
        code_chunks(out, ncubes, bytes.len(), self.threads, |k, out| {
            plan.encode_cube(k, bytes, out)
        })?;
        plan.put_border(bytes, out);
        Ok(out.len())
    }

    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        // The descriptor is untrusted (the runner and other direct callers
        // hand it over unchecked): reject implausible output claims before
        // anything is reserved against them.
        fcbench_core::blocks::check_decode_claim(desc, payload.len())?;
        let plan = self.plan(desc);
        let mut cur = Cursor::new("ndzip", payload);
        let ncubes = cur.len32("cube count")?;
        if ncubes != plan.count() {
            return Err(cur.corrupt(format_args!(
                "stream has {ncubes} cubes, geometry implies {}",
                plan.count()
            )));
        }
        let streams = cur.take_chunks(ncubes)?;
        plan.decode(&streams, cur, desc, out, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::{Domain, Precision};

    #[test]
    fn lorenzo_sweeps_invert_1d() {
        let mut w: Vec<u64> = (0..32).map(|i| (i * i) as u64).collect();
        let orig = w.clone();
        lorenzo_forward(&mut w, &[32], 64);
        assert_ne!(w, orig);
        lorenzo_inverse(&mut w, &[32], 64);
        assert_eq!(w, orig);
    }

    #[test]
    fn lorenzo_sweeps_invert_2d_and_3d() {
        let mut w: Vec<u64> = (0..64).map(|i| (i * 31 % 97) as u64).collect();
        let orig = w.clone();
        lorenzo_forward(&mut w, &[8, 8], 64);
        lorenzo_inverse(&mut w, &[8, 8], 64);
        assert_eq!(w, orig);

        let mut w: Vec<u64> = (0..512).map(|i| (i * 2654435761u64) ^ 0xAA55).collect();
        let orig = w.clone();
        lorenzo_forward(&mut w, &[8, 8, 8], 64);
        lorenzo_inverse(&mut w, &[8, 8, 8], 64);
        assert_eq!(w, orig);
    }

    #[test]
    fn lorenzo_on_linear_field_gives_sparse_residuals() {
        // f(i,j) = a*i + b*j: the 2-D Lorenzo residual is zero away from
        // the cube faces.
        let (ny, nx) = (8, 8);
        let mut w = Vec::with_capacity(ny * nx);
        for i in 0..ny {
            for j in 0..nx {
                w.push((100 * i + 7 * j) as u64);
            }
        }
        lorenzo_forward(&mut w, &[ny, nx], 64);
        let zeros = w.iter().filter(|&&x| x == 0).count();
        assert!(zeros >= (ny - 1) * (nx - 1), "{zeros} zeros");
    }

    fn round_trip(codec: &Ndzip, data: &FloatData) -> usize {
        let c = codec.compress(data).unwrap();
        let back = codec.decompress(&c, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
        c.len()
    }

    #[test]
    fn cube_aligned_3d_grid() {
        // 32x32x32 = 8 cubes of 16^3.
        let n = 32 * 32 * 32;
        let vals: Vec<f32> = (0..n).map(|i| (i % 1024) as f32 * 0.5).collect();
        let data = FloatData::from_f32(&vals, vec![32, 32, 32], Domain::Hpc).unwrap();
        round_trip(&Ndzip::new(), &data);
    }

    #[test]
    fn non_aligned_grid_has_borders() {
        let (nz, ny, nx) = (17, 19, 23);
        let vals: Vec<f64> = (0..nz * ny * nx).map(|i| i as f64).collect();
        let data = FloatData::from_f64(&vals, vec![nz, ny, nx], Domain::Hpc).unwrap();
        round_trip(&Ndzip::new(), &data);
    }

    #[test]
    fn one_dimensional_stream() {
        let vals: Vec<f64> = (0..10_000).map(|i| 2.0 * i as f64).collect();
        let data = FloatData::from_f64(&vals, vec![10_000], Domain::TimeSeries).unwrap();
        let n = round_trip(&Ndzip::new(), &data);
        assert!(n < 10_000 * 8, "linear ramp must compress, got {n}");
    }

    #[test]
    fn smooth_2d_field_compresses_well() {
        let (ny, nx) = (128, 128);
        let mut vals = Vec::with_capacity(ny * nx);
        for i in 0..ny {
            for j in 0..nx {
                vals.push((i as f32) * 4.0 + (j as f32) * 0.25);
            }
        }
        let data = FloatData::from_f32(&vals, vec![ny, nx], Domain::Hpc).unwrap();
        let n = round_trip(&Ndzip::new(), &data);
        assert!(n < ny * nx * 4 / 2, "plane should compress 2x+, got {n}");
    }

    #[test]
    fn tiny_inputs_are_all_border() {
        for n in [1usize, 5, 63] {
            let vals: Vec<f64> = (0..n).map(|i| i as f64 * 1.1).collect();
            let data = FloatData::from_f64(&vals, vec![n], Domain::Hpc).unwrap();
            round_trip(&Ndzip::new(), &data);
        }
    }

    #[test]
    fn special_values() {
        let mut vals = vec![0.0f64; 4096];
        vals[0] = f64::NAN;
        vals[100] = f64::INFINITY;
        vals[200] = -0.0;
        vals[4095] = 5e-324;
        let data = FloatData::from_f64(&vals, vec![4096], Domain::Hpc).unwrap();
        round_trip(&Ndzip::new(), &data);
    }

    #[test]
    fn thread_counts_round_trip() {
        let vals: Vec<f32> = (0..50_000).map(|i| (i as f32).sqrt()).collect();
        let data = FloatData::from_f32(&vals, vec![50_000], Domain::Hpc).unwrap();
        for t in [1usize, 2, 6, 16] {
            round_trip(&Ndzip::with_threads(t), &data);
        }
    }

    #[test]
    fn custom_cube_sizes() {
        let vals: Vec<f64> = (0..5000).map(|i| (i / 3) as f64).collect();
        let data = FloatData::from_f64(&vals, vec![5000], Domain::Hpc).unwrap();
        for cube in [64usize, 1024, 4096] {
            round_trip(&Ndzip::with_cube_elems(cube), &data);
        }
    }

    #[test]
    fn corruption_rejected() {
        let vals: Vec<f32> = (0..8192).map(|i| i as f32).collect();
        let data = FloatData::from_f32(&vals, vec![8192], Domain::Hpc).unwrap();
        let codec = Ndzip::new();
        let c = codec.compress(&data).unwrap();
        assert!(codec.decompress(&c[..2], data.desc()).is_err());
        assert!(codec.decompress(&c[..c.len() - 1], data.desc()).is_err());
        let mut extra = c.clone();
        extra.push(9);
        assert!(codec.decompress(&extra, data.desc()).is_err());
    }

    #[test]
    fn zero_cube_is_just_bitmaps() {
        // An all-zero cube compresses to one bitmap per chunk.
        let vals = vec![0.0f32; 4096];
        let data = FloatData::from_f32(&vals, vec![4096], Domain::Hpc).unwrap();
        let c = Ndzip::new().compress(&data).unwrap();
        // 4096/32 = 128 chunks * 4-byte bitmap + directory ≈ small.
        assert!(c.len() < 1024, "all-zero cube took {}", c.len());
    }

    #[test]
    fn info_matches_table1() {
        let info = Ndzip::new().info();
        assert_eq!(info.name, "ndzip-cpu");
        assert_eq!(info.class, CodecClass::Lorenzo);
        assert!(info.parallel);
    }

    #[test]
    fn cube_rows_and_border_runs_cover_the_grid_once() {
        let shapes: [&[usize]; 7] = [
            &[10_000],
            &[5],
            &[72, 130],
            &[100, 12],
            &[20, 18, 17],
            &[32, 32, 32],
            &[2, 40, 40],
        ];
        for dims in shapes {
            let desc = DataDesc::new(Precision::Single, dims.to_vec(), Domain::Hpc).unwrap();
            let plan = Ndzip::new().plan(&desc);
            let mut seen = vec![0u8; desc.elements()];
            for k in 0..plan.count() {
                for start in plan.rows(k) {
                    seen[start..start + plan.sides[2]]
                        .iter_mut()
                        .for_each(|n| *n += 1);
                }
            }
            let mut last = 0;
            plan.border_runs(|run| {
                assert!(run.start >= last && !run.is_empty(), "{dims:?}: {run:?}");
                last = run.end;
                seen[run].iter_mut().for_each(|n| *n += 1);
            });
            assert!(seen.iter().all(|&n| n == 1), "{dims:?}");
        }
    }

    #[test]
    fn fanned_out_decode_matches_the_inline_path() {
        // 64 x 64 x 48 f32 = 768 KiB: above PARALLEL_BYTES, so the default
        // codec decodes its slabs on threads; one thread decodes inline.
        let n = 64 * 64 * 48;
        let vals: Vec<f32> = (0..n).map(|i| (i as f32 * 0.001).sin() * 50.0).collect();
        let data = FloatData::from_f32(&vals, vec![48, 64, 64], Domain::Hpc).unwrap();
        let (fanned, inline) = (Ndzip::new(), Ndzip::with_threads(1));
        let c = fanned.compress(&data).unwrap();
        assert_eq!(inline.compress(&data).unwrap(), c);
        assert_eq!(
            fanned.decompress(&c, data.desc()).unwrap().bytes(),
            data.bytes()
        );

        // Corrupt the first bitmap of a middle cube and of a later one (in
        // another worker's run): both paths must report the middle cube.
        let ncubes = 48;
        let size = |k: usize| u32::from_le_bytes(c[4 + 4 * k..8 + 4 * k].try_into().unwrap());
        let start = |k: usize| 4 + 4 * ncubes + (0..k).map(|j| size(j) as usize).sum::<usize>();
        let corrupt = |cubes: &[usize]| {
            let mut bad = c.clone();
            for &k in cubes {
                bad[start(k)..start(k) + 4]
                    .iter_mut()
                    .for_each(|b| *b ^= 0xA5);
            }
            bad
        };
        let err = |codec: &Ndzip, bad: &[u8]| codec.decompress(bad, data.desc()).unwrap_err();
        let middle = err(&inline, &corrupt(&[20]));
        let later = err(&inline, &corrupt(&[41]));
        assert!(matches!(middle, fcbench_core::Error::Corrupt(_)));
        assert_ne!(middle, later, "the two corruptions must be told apart");
        let both = corrupt(&[20, 41]);
        assert_eq!(err(&inline, &both), middle);
        assert_eq!(err(&fanned, &both), middle);
        assert_eq!(err(&fanned, &corrupt(&[41])), later);
    }
}
