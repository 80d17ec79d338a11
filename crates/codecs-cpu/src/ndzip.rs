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
//! Hypercubes compress independently (thread-level parallelism); elements
//! outside whole cubes (grid borders) are stored verbatim, as in ndzip.
//!
//! Payload: `u32 ncubes | per-cube u32 size | cube streams | border bytes`.

use crate::bitshuffle::{bit_transpose_into, bit_untranspose_into};
use crate::common::{code_chunks, effective_dims, load_le, put_words};
use fcbench_core::wire::Cursor;
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, FloatData, Platform, PrecisionSupport,
    Result,
};

/// Elements per hypercube.
pub const CUBE_ELEMS: usize = 4096;

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
        plan_cubes(&dims, &self.cube_sides(dims.len()), desc.precision.bits())
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
fn lorenzo_forward(words: &mut [u64], sides: &[usize], bits: u32) {
    let nd = sides.len();
    let mut stride = 1usize;
    for d in (0..nd).rev() {
        let len = sides[d];
        // Sweep along dimension d: x[i] -= x[i - stride] within each line.
        // Iterate indices in reverse so earlier values stay original.
        let total = words.len();
        for idx in (0..total).rev() {
            let coord = (idx / stride) % len;
            if coord > 0 {
                words[idx] = words[idx].wrapping_sub(words[idx - stride]);
            }
        }
        stride *= len;
    }
    let mask = u64::MAX >> (64 - bits);
    for w in words.iter_mut() {
        *w = zigzag(*w & mask, bits);
    }
}

/// Inverse integer Lorenzo: unfold signs, then prefix-sum sweeps in the
/// opposite order.
fn lorenzo_inverse(words: &mut [u64], sides: &[usize], bits: u32) {
    for w in words.iter_mut() {
        *w = unzigzag(*w, bits);
    }
    let mask = u64::MAX >> (64 - bits);
    let mut stride = words.len();
    for &len in sides {
        stride /= len;
        for idx in 0..words.len() {
            let coord = (idx / stride) % len;
            if coord > 0 {
                words[idx] = words[idx].wrapping_add(words[idx - stride]) & mask;
            }
        }
    }
}

/// One call's grid geometry: the extent decomposed into whole cubes plus a
/// border set, and the kernels that code one cube of it. Shared with
/// ndzip-GPU, whose pipeline is identical (§4.4) — only the schedule and
/// the directory differ.
pub struct Cubes {
    /// Linear element indices per cube, cube by cube.
    pub cube_indices: Vec<Vec<usize>>,
    /// Linear indices not covered by any whole cube.
    pub border: Vec<usize>,
    /// Cube side lengths per dimension.
    pub sides: Vec<usize>,
    /// Element width in bits (32/64).
    elem_bits: usize,
}

/// Plan the cube decomposition of a `dims` grid with `sides` cubes.
fn plan_cubes(dims: &[usize], sides: &[usize], elem_bits: usize) -> Cubes {
    let nd = dims.len();
    let counts: Vec<usize> = (0..nd).map(|d| dims[d] / sides[d]).collect();
    let mut covered = vec![false; dims.iter().product()];
    let mut cube_indices = Vec::new();

    // Enumerate cube origins in row-major order.
    let ncubes: usize = counts.iter().product();
    if counts.iter().all(|&c| c > 0) {
        for cube_id in 0..ncubes {
            let mut rem = cube_id;
            let mut origin = vec![0usize; nd];
            for d in (0..nd).rev() {
                origin[d] = (rem % counts[d]) * sides[d];
                rem /= counts[d];
            }
            let cube_elems: usize = sides.iter().product();
            let mut idxs = Vec::with_capacity(cube_elems);
            for local in 0..cube_elems {
                let mut rem = local;
                let mut lin = 0usize;
                let mut stride = 1usize;
                // Build coordinates last-dim-fastest.
                let mut coords = vec![0usize; nd];
                for d in (0..nd).rev() {
                    coords[d] = rem % sides[d];
                    rem /= sides[d];
                }
                for d in (0..nd).rev() {
                    lin += (origin[d] + coords[d]) * stride;
                    stride *= dims[d];
                }
                idxs.push(lin);
            }
            for &i in &idxs {
                covered[i] = true;
            }
            cube_indices.push(idxs);
        }
    }
    let border = (0..covered.len()).filter(|&i| !covered[i]).collect();
    Cubes {
        cube_indices,
        border,
        sides: sides.to_vec(),
        elem_bits,
    }
}

impl Cubes {
    fn esize(&self) -> usize {
        self.elem_bits / 8
    }

    /// Code cube `k` of the grid held in `bytes` onto `out`: gather, integer
    /// Lorenzo, then per chunk of `elem_bits` residuals a bit transpose and
    /// a bitmap of the nonzero transposed words followed by those words.
    pub fn encode_cube(&self, k: usize, bytes: &[u8], out: &mut Vec<u8>) {
        let (chunk, esize) = (self.elem_bits, self.esize());
        let element = |&i: &usize| load_le(&bytes[i * esize..(i + 1) * esize]);
        let mut cube: Vec<u64> = self.cube_indices[k].iter().map(element).collect();
        lorenzo_forward(&mut cube, &self.sides, self.elem_bits as u32);
        out.reserve(cube.len() * esize);
        // Chunk staging buffers are hoisted out of the loop (a cube runs 64–128
        // chunks) and nonzero words stream straight into `out`, the bitmap
        // patched in place once the chunk's zero scan is done.
        let mut raw = Vec::with_capacity(chunk * esize);
        let mut t = Vec::new();
        for words_chunk in cube.chunks(chunk) {
            if words_chunk.len() < chunk {
                // Ragged tail of a cube that is no chunk multiple: verbatim.
                put_words(words_chunk, esize, out);
                continue;
            }
            raw.clear();
            put_words(words_chunk, esize, &mut raw);
            bit_transpose_into(&raw, chunk, self.elem_bits, &mut t);
            // The transposed data is `elem_bits` words of `chunk` bits each;
            // word w is bytes [w*esize, (w+1)*esize) since chunk == elem_bits.
            let mut bitmap = [0u8; 8];
            let bitmap_pos = out.len();
            out.extend_from_slice(&bitmap[..esize]);
            for (w, word) in t.chunks_exact(esize).enumerate() {
                if word.iter().any(|&b| b != 0) {
                    bitmap[w / 8] |= 1 << (w % 8);
                    out.extend_from_slice(word);
                }
            }
            out[bitmap_pos..bitmap_pos + esize].copy_from_slice(&bitmap[..esize]);
        }
    }

    /// Append the border elements of the grid held in `bytes` verbatim.
    pub fn put_border(&self, bytes: &[u8], out: &mut Vec<u8>) {
        let esize = self.esize();
        for &i in &self.border {
            out.extend_from_slice(&bytes[i * esize..(i + 1) * esize]);
        }
    }

    /// Inverse of [`Cubes::encode_cube`]: the cube's words, Lorenzo undone.
    /// The stream must be consumed exactly.
    pub fn decode_cube(&self, stream: &[u8]) -> Result<Vec<u64>> {
        let (chunk, esize) = (self.elem_bits, self.esize());
        let count: usize = self.sides.iter().product();
        let mut cur = Cursor::new("ndzip", stream);
        let mut words = Vec::with_capacity(count);
        let mut t = Vec::new();
        let mut raw = Vec::new();
        while words.len() + chunk <= count {
            let bitmap = cur.take(esize, "bitmap")?;
            let nset: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
            let mut nonzero = cur.take(nset * esize, "nonzero words")?.chunks_exact(esize);
            t.clear();
            t.resize(chunk * esize, 0);
            for (w, word) in t.chunks_exact_mut(esize).enumerate() {
                if bitmap[w / 8] & (1 << (w % 8)) != 0 {
                    if let Some(stored) = nonzero.next() {
                        word.copy_from_slice(stored);
                    }
                }
            }
            bit_untranspose_into(&t, chunk, self.elem_bits, &mut raw);
            words.extend(raw.chunks_exact(esize).map(load_le));
        }
        let tail = cur.take((count - words.len()) * esize, "tail words")?;
        words.extend(tail.chunks_exact(esize).map(load_le));
        cur.finish()?;
        lorenzo_inverse(&mut words, &self.sides, self.elem_bits as u32);
        Ok(words)
    }

    /// Reassemble the grid into `out`: scatter each decoded cube to its
    /// elements, then the verbatim border elements `cur` must end with.
    pub fn assemble(
        &self,
        desc: &DataDesc,
        cubes: impl IntoIterator<Item = Result<Vec<u64>>>,
        mut cur: Cursor<'_>,
        out: &mut FloatData,
    ) -> Result<()> {
        let esize = self.esize();
        out.refill(desc, |bytes| {
            bytes.resize(desc.byte_len(), 0);
            let mut put = |i: usize, element: &[u8]| {
                bytes[i * esize..(i + 1) * esize].copy_from_slice(&element[..esize]);
            };
            for (idxs, cube) in self.cube_indices.iter().zip(cubes) {
                for (&i, w) in idxs.iter().zip(cube?) {
                    put(i, &w.to_le_bytes());
                }
            }
            let border = cur.take(self.border.len() * esize, "border")?;
            for (&i, element) in self.border.iter().zip(border.chunks_exact(esize)) {
                put(i, element);
            }
            cur.finish()
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
        let ncubes = plan.cube_indices.len();
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
        if ncubes != plan.cube_indices.len() {
            return Err(cur.corrupt(format_args!(
                "stream has {ncubes} cubes, geometry implies {}",
                plan.cube_indices.len()
            )));
        }
        let cubes = cur.take_chunks(ncubes)?;
        let cubes = cubes.into_iter().map(|stream| plan.decode_cube(stream));
        plan.assemble(desc, cubes, cur, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::Domain;

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
}
