//! fpzip (Lindstrom & Isenburg 2006; paper §3.1).
//!
//! Prediction-based lossless compression for 1-D/2-D/3-D floating-point
//! fields:
//!
//! 1. The **Lorenzo predictor** estimates each value from the previously
//!    encoded corners of its unit hypercube (`x̂ = Σ x_odd − Σ x_even`).
//! 2. Actual and predicted values are mapped to **sign-magnitude ordered
//!    integers** so the residual is an integer difference.
//! 3. The residual's **sign and significant-bit count** form a symbol,
//!    encoded with a fast **range coder** (Martin 1979).
//! 4. The remaining non-zero bits are **copied verbatim** to a bit stream.
//!
//! Stream layout: `u32 rc_len | range-coded symbols | verbatim bit stream`.
//! Dimensionality comes from the data descriptor; >3-D extents collapse
//! (fpzip is driven with ≤ 3 dims throughout the paper's evaluation).

use crate::common::effective_dims;
use fcbench_core::wire::Cursor;
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, Error, FloatData, Platform, Precision,
    PrecisionSupport, Result,
};
use fcbench_entropy::{AdaptiveModel, BitReader, BitWriter, RangeDecoder, RangeEncoder};

/// The fpzip codec.
#[derive(Debug, Default, Clone)]
pub struct Fpzip;

impl Fpzip {
    pub fn new() -> Self {
        Fpzip
    }
}

/// Monotone map from f64 bit patterns to unsigned integers.
#[inline]
fn map64(b: u64) -> u64 {
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

#[inline]
fn unmap64(m: u64) -> u64 {
    if m >> 63 == 1 {
        m ^ (1 << 63)
    } else {
        !m
    }
}

#[inline]
fn map32(b: u32) -> u32 {
    if b >> 31 == 1 {
        !b
    } else {
        b | (1 << 31)
    }
}

#[inline]
fn unmap32(m: u32) -> u32 {
    if m >> 31 == 1 {
        m ^ (1 << 31)
    } else {
        !m
    }
}

/// The grid position of the element being coded, advanced by counters
/// rather than recovered from the linear index by division: plane `k`, row
/// `i` and column `j` of a row-major `[nz, ny, nx]` grid (a 2-D grid is one
/// plane; a 1-D one only needs the index).
struct Walk {
    nd: usize,
    ny: usize,
    nx: usize,
    k: usize,
    i: usize,
    j: usize,
}

impl Walk {
    fn new(dims: &[usize]) -> Self {
        let nd = dims.len();
        Walk {
            nd,
            ny: if nd >= 2 { dims[nd - 2] } else { 1 },
            nx: dims[nd - 1],
            k: 0,
            i: 0,
            j: 0,
        }
    }

    /// Step to the next element in row-major order.
    #[inline]
    fn advance(&mut self) {
        self.j += 1;
        if self.j == self.nx {
            self.j = 0;
            self.i += 1;
            if self.i == self.ny {
                self.i = 0;
                self.k += 1;
            }
        }
    }
}

/// Lorenzo prediction over the already-visited neighbors of element `idx`,
/// at position `at` (unit offsets; missing neighbors contribute zero).
/// Generic over the element type.
macro_rules! lorenzo {
    ($name:ident, $t:ty) => {
        fn $name(out: &[$t], idx: usize, at: &Walk) -> $t {
            let (nx, plane) = (at.nx, at.ny * at.nx);
            let (i, j, k) = (at.i, at.j, at.k);
            match at.nd {
                1 => {
                    if idx == 0 {
                        0.0
                    } else {
                        out[idx - 1]
                    }
                }
                2 => {
                    let mut p: $t = 0.0;
                    if j > 0 {
                        p += out[idx - 1];
                    }
                    if i > 0 {
                        p += out[idx - nx];
                    }
                    if i > 0 && j > 0 {
                        p -= out[idx - nx - 1];
                    }
                    p
                }
                _ => {
                    let mut p: $t = 0.0;
                    if j > 0 {
                        p += out[idx - 1];
                    }
                    if i > 0 {
                        p += out[idx - nx];
                    }
                    if k > 0 {
                        p += out[idx - plane];
                    }
                    if i > 0 && j > 0 {
                        p -= out[idx - nx - 1];
                    }
                    if k > 0 && j > 0 {
                        p -= out[idx - plane - 1];
                    }
                    if k > 0 && i > 0 {
                        p -= out[idx - plane - nx];
                    }
                    if k > 0 && i > 0 && j > 0 {
                        p += out[idx - plane - nx - 1];
                    }
                    p
                }
            }
        }
    };
}

lorenzo!(lorenzo_f64, f64);
lorenzo!(lorenzo_f32, f32);

macro_rules! fpzip_impl {
    ($enc:ident, $dec:ident, $t:ty, $w:ty, $bits:expr, $map:ident, $unmap:ident, $pred:ident,
     $to_bits:expr, $from_bits:expr) => {
        fn $enc(values: &[$t], dims: &[usize]) -> Vec<u8> {
            // Symbols: 0 = zero residual; 1..=BITS positive with k bits;
            // BITS+1..=2*BITS negative with k bits.
            let mut model = AdaptiveModel::new(2 * $bits + 1);
            let mut rc = RangeEncoder::new();
            let mut verbatim = BitWriter::with_capacity(values.len() * ($bits / 8));

            let mut at = Walk::new(dims);
            for (idx, &v) in values.iter().enumerate() {
                let pred = $pred(&values[..idx], idx, &at);
                at.advance();
                let ma = $map(($to_bits)(v));
                let mp = $map(($to_bits)(pred));
                let (neg, mag): (bool, $w) =
                    if ma >= mp { (false, ma - mp) } else { (true, mp - ma) };
                if mag == 0 {
                    model.encode(&mut rc, 0);
                } else {
                    let k = ($bits as u32 - mag.leading_zeros()) as usize;
                    let sym = if neg { $bits + k } else { k };
                    model.encode(&mut rc, sym);
                    if k > 1 {
                        // Drop the implicit leading 1 bit.
                        let low = mag & ((1 as $w << (k - 1)) - 1);
                        verbatim.push_bits(low as u64, (k - 1) as u32);
                    }
                }
            }

            let rc_bytes = rc.finish();
            let mut out = Vec::with_capacity(8 + rc_bytes.len() + verbatim.byte_len());
            out.extend_from_slice(&(rc_bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&rc_bytes);
            out.extend_from_slice(&verbatim.into_bytes());
            out
        }

        // Out of line on purpose: inlined into `decompress_into`'s refill
        // closure, this serial range-decoder loop measured 12 % slower.
        #[inline(never)]
        fn $dec(
            rc_bytes: &[u8],
            verbatim: &[u8],
            dims: &[usize],
            count: usize,
        ) -> Result<Vec<$t>> {
            let mut model = AdaptiveModel::new(2 * $bits + 1);
            let mut rc = RangeDecoder::new(rc_bytes);
            let mut bits = BitReader::new(verbatim);
            let mut out: Vec<$t> = Vec::with_capacity(count);

            let mut at = Walk::new(dims);
            for idx in 0..count {
                let pred = $pred(&out, idx, &at);
                at.advance();
                let mp = $map(($to_bits)(pred));
                let sym = model.decode(&mut rc);
                let ma = if sym == 0 {
                    mp
                } else {
                    let (neg, k) = if sym > $bits {
                        (true, sym - $bits)
                    } else {
                        (false, sym)
                    };
                    let mag: $w = if k == 1 {
                        1
                    } else {
                        let low = bits.read_bits((k - 1) as u32).ok_or_else(|| {
                            Error::Corrupt("fpzip: verbatim bits truncated".into())
                        })?;
                        (1 as $w << (k - 1)) | low as $w
                    };
                    if neg {
                        mp.wrapping_sub(mag)
                    } else {
                        mp.wrapping_add(mag)
                    }
                };
                out.push(($from_bits)($unmap(ma)));
            }
            Ok(out)
        }
    };
}

fpzip_impl!(
    encode_f64,
    decode_f64,
    f64,
    u64,
    64,
    map64,
    unmap64,
    lorenzo_f64,
    |v: f64| v.to_bits(),
    f64::from_bits
);
fpzip_impl!(
    encode_f32,
    decode_f32,
    f32,
    u32,
    32,
    map32,
    unmap32,
    lorenzo_f32,
    |v: f32| v.to_bits(),
    f32::from_bits
);

impl Compressor for Fpzip {
    fn info(&self) -> CodecInfo {
        CodecInfo {
            name: "fpzip",
            year: 2006,
            community: Community::Hpc,
            class: CodecClass::Lorenzo,
            platform: Platform::Cpu,
            parallel: false,
            precisions: PrecisionSupport::Both,
        }
    }

    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        let dims = effective_dims(data.desc());
        out.clear();
        match data.desc().precision {
            Precision::Double => out.extend_from_slice(&encode_f64(&data.to_f64_vec()?, &dims)),
            Precision::Single => out.extend_from_slice(&encode_f32(&data.to_f32_vec()?, &dims)),
        }
        Ok(out.len())
    }

    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        // The descriptor is untrusted (the runner and other direct callers
        // hand it over unchecked): reject implausible output claims before
        // anything is reserved against them.
        fcbench_core::blocks::check_decode_claim(desc, payload.len())?;
        let dims = effective_dims(desc);
        // `u32 rc_len | range-coder stream | verbatim bit stream`.
        let mut cur = Cursor::new("fpzip", payload);
        let rc_len = cur.len32("range stream length")?;
        let rc_bytes = cur.take(rc_len, "range stream")?;
        let verbatim = cur.rest();
        out.refill(desc, |bytes| {
            bytes.reserve(desc.byte_len());
            match desc.precision {
                Precision::Double => {
                    for v in decode_f64(rc_bytes, verbatim, &dims, desc.elements())? {
                        bytes.extend_from_slice(&v.to_le_bytes());
                    }
                }
                Precision::Single => {
                    for v in decode_f32(rc_bytes, verbatim, &dims, desc.elements())? {
                        bytes.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::Domain;

    fn round_trip(data: &FloatData) -> usize {
        let f = Fpzip::new();
        let c = f.compress(data).unwrap();
        let back = f.decompress(&c, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
        c.len()
    }

    #[test]
    fn smooth_3d_field_compresses_well() {
        let (nz, ny, nx) = (16, 16, 16);
        let mut vals = Vec::with_capacity(nz * ny * nx);
        for k in 0..nz {
            for i in 0..ny {
                for j in 0..nx {
                    vals.push(((k + i + j) as f64 * 0.01).sin());
                }
            }
        }
        let data = FloatData::from_f64(&vals, vec![nz, ny, nx], Domain::Hpc).unwrap();
        let n = round_trip(&data);
        // sin() keeps full mantissa entropy; ~1.5-2x is what real fpzip
        // achieves on such fields (Table 4: 1.2-3.9 on HPC data).
        assert!(
            n < vals.len() * 8 * 7 / 10,
            "smooth field should compress >1.4x, got {n}"
        );
    }

    #[test]
    fn dimensionality_helps_on_planar_data() {
        // A 2-D field that is a pure plane: the 2-D Lorenzo predictor is
        // near-exact; flattening to 1-D degrades it to delta (§6.1.5 md/1d).
        let (ny, nx) = (64, 64);
        let mut vals = Vec::with_capacity(ny * nx);
        for i in 0..ny {
            for j in 0..nx {
                vals.push(3.0 * i as f64 + 7.0 * j as f64);
            }
        }
        let data2d = FloatData::from_f64(&vals, vec![ny, nx], Domain::Hpc).unwrap();
        let data1d = data2d.flattened_1d();
        let md = round_trip(&data2d);
        let oned = round_trip(&data1d);
        assert!(
            md <= oned,
            "2-D Lorenzo ({md}) should not lose to 1-D ({oned})"
        );
    }

    #[test]
    fn one_dimensional_series() {
        let vals: Vec<f64> = (0..5000).map(|i| 100.0 + (i as f64 * 0.1).cos()).collect();
        let data = FloatData::from_f64(&vals, vec![5000], Domain::TimeSeries).unwrap();
        round_trip(&data);
    }

    #[test]
    fn special_values_round_trip() {
        let vals = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -1.5,
        ];
        let data = FloatData::from_f64(&vals, vec![7], Domain::Hpc).unwrap();
        round_trip(&data);
    }

    #[test]
    fn single_precision_3d() {
        let vals: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin() * 100.0).collect();
        let data = FloatData::from_f32(&vals, vec![16, 16, 16], Domain::Hpc).unwrap();
        let n = round_trip(&data);
        assert!(n < 4096 * 4);
    }

    #[test]
    fn random_noise_survives() {
        let mut x = 0x9E3779B97F4A7C15u64;
        let vals: Vec<f64> = (0..2000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f64::from_bits(x)
            })
            .collect();
        let data = FloatData::from_f64(&vals, vec![2000], Domain::Hpc).unwrap();
        round_trip(&data);
    }

    #[test]
    fn constant_field_is_tiny() {
        let vals = vec![7.25f64; 4096];
        let data = FloatData::from_f64(&vals, vec![16, 16, 16], Domain::Hpc).unwrap();
        let n = round_trip(&data);
        assert!(n < 600, "constant field took {n} bytes");
    }

    #[test]
    fn map_is_monotone_and_invertible() {
        let samples = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        let mapped: Vec<u64> = samples.iter().map(|v| map64(v.to_bits())).collect();
        for w in mapped.windows(2) {
            assert!(w[0] < w[1], "map must be strictly monotone");
        }
        for &v in &samples {
            assert_eq!(unmap64(map64(v.to_bits())), v.to_bits());
        }
        for &b in &[0u32, 1, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF] {
            assert_eq!(unmap32(map32(b)), b);
        }
    }

    #[test]
    fn four_d_extent_collapses() {
        let vals: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let data = FloatData::from_f64(&vals, vec![2, 2, 8, 8], Domain::Hpc).unwrap();
        round_trip(&data);
    }

    #[test]
    fn truncation_rejected() {
        let vals: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        let data = FloatData::from_f64(&vals, vec![1000], Domain::Hpc).unwrap();
        let f = Fpzip::new();
        let c = f.compress(&data).unwrap();
        assert!(f.decompress(&c[..2], data.desc()).is_err());
        // Cutting the verbatim tail must fail (not enough mantissa bits).
        assert!(f.decompress(&c[..c.len() * 2 / 3], data.desc()).is_err());
    }
}
