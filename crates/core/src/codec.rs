//! The [`Compressor`] trait every method implements, plus the method
//! taxonomy from Table 1 of the paper (predictor class, platform, year,
//! community, parallelism).

use crate::data::{DataDesc, FloatData, Precision};
use crate::error::Result;

/// Predictor/transform family, used for the Figure 6b grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CodecClass {
    /// Lorenzo-predictor based (fpzip, ndzip-CPU, ndzip-GPU).
    Lorenzo,
    /// Delta based (Gorilla, GFC, MPC, BUFF).
    Delta,
    /// Dictionary based (bitshuffle::LZ4, bitshuffle::zstd-class, Chimp, nv-lz4).
    Dictionary,
    /// Other prediction based (pFPC's hash predictors, nv-bitcomp, Dzip).
    Prediction,
}

impl CodecClass {
    /// Label used in figures.
    pub const fn label(self) -> &'static str {
        match self {
            CodecClass::Lorenzo => "LORENZO",
            CodecClass::Delta => "DELTA",
            CodecClass::Dictionary => "DICTIONARY",
            CodecClass::Prediction => "PREDICTION",
        }
    }
}

/// Hardware platform a method targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Platform {
    Cpu,
    Gpu,
}

impl Platform {
    pub const fn label(self) -> &'static str {
        match self {
            Platform::Cpu => "CPU",
            Platform::Gpu => "GPU",
        }
    }
}

/// Which community published the method (Table 1 "domain" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Community {
    Hpc,
    Database,
    General,
}

/// Which precisions a codec accepts (Table 1 "precision" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrecisionSupport {
    SingleOnly,
    DoubleOnly,
    Both,
}

impl PrecisionSupport {
    /// Does this support level include `p`?
    #[inline]
    pub fn accepts(self, p: Precision) -> bool {
        match self {
            PrecisionSupport::SingleOnly => p == Precision::Single,
            PrecisionSupport::DoubleOnly => p == Precision::Double,
            PrecisionSupport::Both => true,
        }
    }
}

/// Static metadata about a compression method (one row of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecInfo {
    /// Canonical lowercase name used in reports, e.g. `"bitshuffle-lz4"`.
    pub name: &'static str,
    /// Publication year (Figure 3 timeline).
    pub year: u16,
    /// Publishing community.
    pub community: Community,
    /// Predictor/transform family.
    pub class: CodecClass,
    /// CPU or GPU.
    pub platform: Platform,
    /// Whether the implementation is data-parallel.
    pub parallel: bool,
    /// Accepted precisions.
    pub precisions: PrecisionSupport,
}

/// Auxiliary (modelled) time not captured by wall-clock measurement of the
/// `compress`/`decompress` call itself — chiefly the simulated host-to-device
/// and device-to-host copies of GPU codecs (§6.1.4, Table 6).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AuxTime {
    /// Modelled host→device transfer seconds for the last operation.
    pub h2d_seconds: f64,
    /// Modelled device→host transfer seconds for the last operation.
    pub d2h_seconds: f64,
}

impl AuxTime {
    /// Total modelled transfer time.
    #[inline]
    pub fn total(&self) -> f64 {
        self.h2d_seconds + self.d2h_seconds
    }
}

/// Analytic operation/byte counts for one full pass over a dataset,
/// used by the roofline model (§6.3). Counts are per the dominant kernel
/// ("the most expensive function/loop that consumes greater than 40% of
/// computation time", Fig. 11 caption).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpProfile {
    /// Integer ALU operations executed by the dominant kernel.
    pub int_ops: u64,
    /// Floating-point operations executed by the dominant kernel.
    pub float_ops: u64,
    /// Bytes moved to/from memory by the dominant kernel.
    pub bytes_moved: u64,
}

impl OpProfile {
    /// Arithmetic intensity in integer ops per byte (CPU roofline axis).
    pub fn int_intensity(&self) -> f64 {
        if self.bytes_moved == 0 {
            0.0
        } else {
            self.int_ops as f64 / self.bytes_moved as f64
        }
    }

    /// Arithmetic intensity in FLOPs per byte (GPU roofline axis).
    pub fn float_intensity(&self) -> f64 {
        if self.bytes_moved == 0 {
            0.0
        } else {
            self.float_ops as f64 / self.bytes_moved as f64
        }
    }
}

/// A lossless floating-point compressor.
///
/// Implementations transform the payload of a [`FloatData`] into an opaque
/// byte stream and back. The payload is self-contained at the codec's
/// discretion — most codecs embed small internal headers such as element
/// counts or per-chunk directories — but it does **not** carry the data
/// descriptor: the caller (see [`crate::frame`]) records codec name,
/// precision, and shape out of band and supplies them again at decompression.
/// Round trips must be byte-exact, including NaN payloads and signed zeros.
///
/// # Buffer-reusing and allocating forms
///
/// The hot path is the `_into` pair: [`compress_into`](Self::compress_into)
/// and [`decompress_into`](Self::decompress_into) write into caller-owned
/// buffers so a measurement or pipeline loop performs no steady-state heap
/// allocation. The allocating [`compress`](Self::compress) /
/// [`decompress`](Self::decompress) forms are thin convenience wrappers.
///
/// All four methods have default implementations, each pair bridging to the
/// other; an implementation **must override at least one method of each
/// pair** (leaving both defaults would recurse forever). Production codecs
/// implement the `_into` forms natively and inherit the wrappers.
pub trait Compressor: Send + Sync {
    /// Static method metadata (Table 1 row).
    fn info(&self) -> CodecInfo;

    /// Compress `data` into `out`, replacing its contents (capacity is
    /// reused, never shrunk). Returns the payload length, which equals
    /// `out.len()` on success.
    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        let payload = self.compress(data)?;
        out.clear();
        out.extend_from_slice(&payload);
        Ok(out.len())
    }

    /// Reconstruct the exact original data from `payload` into `out`,
    /// replacing its descriptor and contents (byte capacity is reused).
    /// Seed `out` with [`FloatData::scratch`] and keep it across calls.
    ///
    /// `desc` is the descriptor of the original data (provided by the frame).
    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        *out = self.decompress(payload, desc)?;
        Ok(())
    }

    /// Compress `data` into a freshly allocated payload.
    fn compress(&self, data: &FloatData) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.compress_into(data, &mut out)?;
        Ok(out)
    }

    /// Reconstruct the exact original data from `payload`.
    ///
    /// `desc` is the descriptor of the original data (provided by the frame).
    fn decompress(&self, payload: &[u8], desc: &DataDesc) -> Result<FloatData> {
        let mut out = FloatData::scratch();
        self.decompress_into(payload, desc, &mut out)?;
        Ok(out)
    }

    /// Modelled auxiliary time (host↔device transfers) for the most recent
    /// compress or decompress call. CPU codecs return zero.
    ///
    /// On an instance shared across threads (the registry hands out
    /// `Arc<dyn Compressor>`), "most recent" means the most recently
    /// *completed* call — always one call's coherent totals, but callers
    /// that need per-call attribution must not run the instance
    /// concurrently.
    fn last_aux_time(&self) -> AuxTime {
        AuxTime::default()
    }

    /// Analytic operation profile of the dominant compression kernel over
    /// `desc`, for roofline placement. `None` if not modelled.
    fn op_profile(&self, _desc: &DataDesc) -> Option<OpProfile> {
        None
    }
}

/// Forward the whole trait through a smart pointer / reference so generic
/// code can be handed `&dyn Compressor`, `Box<dyn Compressor>`, or the
/// registry's `Arc<dyn Compressor>` directly.
macro_rules! forward_compressor {
    ($ty:ty) => {
        impl<T: Compressor + ?Sized> Compressor for $ty {
            fn info(&self) -> CodecInfo {
                (**self).info()
            }
            fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
                (**self).compress_into(data, out)
            }
            fn decompress_into(
                &self,
                payload: &[u8],
                desc: &DataDesc,
                out: &mut FloatData,
            ) -> Result<()> {
                (**self).decompress_into(payload, desc, out)
            }
            fn compress(&self, data: &FloatData) -> Result<Vec<u8>> {
                (**self).compress(data)
            }
            fn decompress(&self, payload: &[u8], desc: &DataDesc) -> Result<FloatData> {
                (**self).decompress(payload, desc)
            }
            fn last_aux_time(&self) -> AuxTime {
                (**self).last_aux_time()
            }
            fn op_profile(&self, desc: &DataDesc) -> Option<OpProfile> {
                (**self).op_profile(desc)
            }
        }
    };
}

forward_compressor!(&T);
forward_compressor!(Box<T>);
forward_compressor!(std::sync::Arc<T>);

/// Compress with an explicit lossless check: decompress the result and
/// compare byte-for-byte. Returns the payload.
pub fn compress_verified(codec: &dyn Compressor, data: &FloatData) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    let mut scratch = FloatData::scratch();
    compress_verified_into(codec, data, &mut out, &mut scratch)?;
    Ok(out)
}

/// Buffer-reusing form of [`compress_verified`]: the payload lands in `out`
/// and the round-trip check decodes into `scratch`, so a caller looping over
/// many inputs allocates nothing in steady state. Returns the payload length.
pub fn compress_verified_into(
    codec: &dyn Compressor,
    data: &FloatData,
    out: &mut Vec<u8>,
    scratch: &mut FloatData,
) -> Result<usize> {
    let len = codec.compress_into(data, out)?;
    codec.decompress_into(&out[..len], data.desc(), scratch)?;
    if scratch.bytes() != data.bytes() {
        return Err(crate::error::Error::LosslessViolation {
            codec: codec.info().name.to_string(),
        });
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Domain;
    use crate::error::Error;

    /// A trivial "store" codec used to exercise the trait plumbing.
    struct StoreCodec;

    impl Compressor for StoreCodec {
        fn info(&self) -> CodecInfo {
            CodecInfo {
                name: "store",
                year: 2024,
                community: Community::General,
                class: CodecClass::Delta,
                platform: Platform::Cpu,
                parallel: false,
                precisions: PrecisionSupport::Both,
            }
        }

        fn compress(&self, data: &FloatData) -> Result<Vec<u8>> {
            Ok(data.bytes().to_vec())
        }

        fn decompress(&self, payload: &[u8], desc: &DataDesc) -> Result<FloatData> {
            FloatData::from_bytes(desc.clone(), payload.to_vec())
        }
    }

    /// A deliberately broken codec that loses the last byte.
    struct LossyCodec;

    impl Compressor for LossyCodec {
        fn info(&self) -> CodecInfo {
            CodecInfo {
                name: "lossy",
                year: 2024,
                community: Community::General,
                class: CodecClass::Delta,
                platform: Platform::Cpu,
                parallel: false,
                precisions: PrecisionSupport::Both,
            }
        }

        fn compress(&self, data: &FloatData) -> Result<Vec<u8>> {
            Ok(data.bytes().to_vec())
        }

        fn decompress(&self, payload: &[u8], desc: &DataDesc) -> Result<FloatData> {
            let mut bytes = payload.to_vec();
            if let Some(last) = bytes.last_mut() {
                *last ^= 0xFF;
            }
            FloatData::from_bytes(desc.clone(), bytes)
        }
    }

    /// A codec implementing only the `_into` pair; the allocating forms
    /// must come from the trait defaults.
    struct IntoOnlyCodec;

    impl Compressor for IntoOnlyCodec {
        fn info(&self) -> CodecInfo {
            StoreCodec.info()
        }

        fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
            out.clear();
            out.extend_from_slice(data.bytes());
            Ok(out.len())
        }

        fn decompress_into(
            &self,
            payload: &[u8],
            desc: &DataDesc,
            out: &mut FloatData,
        ) -> Result<()> {
            out.refill_from_slice(desc, payload)
        }
    }

    #[test]
    fn verified_compression_passes_for_store() {
        let data = FloatData::from_f32(&[1.0, 2.0, 3.0], vec![3], Domain::Hpc).unwrap();
        let payload = compress_verified(&StoreCodec, &data).unwrap();
        assert_eq!(payload, data.bytes());
    }

    #[test]
    fn default_bridges_work_both_ways() {
        let data = FloatData::from_f32(&[4.0, 5.0], vec![2], Domain::Hpc).unwrap();

        // Old-style impl reached through the `_into` API.
        let mut out = vec![0xEE; 64];
        let n = StoreCodec.compress_into(&data, &mut out).unwrap();
        assert_eq!(&out[..n], data.bytes());
        let mut scratch = FloatData::scratch();
        StoreCodec
            .decompress_into(&out[..n], data.desc(), &mut scratch)
            .unwrap();
        assert_eq!(scratch.bytes(), data.bytes());

        // `_into`-style impl reached through the allocating API.
        let payload = IntoOnlyCodec.compress(&data).unwrap();
        assert_eq!(payload, data.bytes());
        let back = IntoOnlyCodec.decompress(&payload, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
        assert_eq!(back.desc(), data.desc());
    }

    #[test]
    fn verified_into_reuses_buffers() {
        let data = FloatData::from_f32(&[1.0, 2.0, 3.0], vec![3], Domain::Hpc).unwrap();
        let mut out = Vec::new();
        let mut scratch = FloatData::scratch();
        for _ in 0..3 {
            let n = compress_verified_into(&IntoOnlyCodec, &data, &mut out, &mut scratch).unwrap();
            assert_eq!(n, data.bytes().len());
            assert_eq!(&out[..n], data.bytes());
        }
        let err = compress_verified_into(&LossyCodec, &data, &mut out, &mut scratch).unwrap_err();
        assert!(matches!(err, Error::LosslessViolation { .. }));
    }

    #[test]
    fn verified_compression_catches_lossy_codec() {
        let data = FloatData::from_f32(&[1.0, 2.0, 3.0], vec![3], Domain::Hpc).unwrap();
        let err = compress_verified(&LossyCodec, &data).unwrap_err();
        assert!(matches!(err, Error::LosslessViolation { .. }));
    }

    #[test]
    fn precision_support_logic() {
        assert!(PrecisionSupport::Both.accepts(Precision::Single));
        assert!(PrecisionSupport::Both.accepts(Precision::Double));
        assert!(PrecisionSupport::SingleOnly.accepts(Precision::Single));
        assert!(!PrecisionSupport::SingleOnly.accepts(Precision::Double));
        assert!(PrecisionSupport::DoubleOnly.accepts(Precision::Double));
        assert!(!PrecisionSupport::DoubleOnly.accepts(Precision::Single));
    }

    #[test]
    fn op_profile_intensities() {
        let p = OpProfile {
            int_ops: 100,
            float_ops: 50,
            bytes_moved: 200,
        };
        assert!((p.int_intensity() - 0.5).abs() < 1e-12);
        assert!((p.float_intensity() - 0.25).abs() < 1e-12);
        let z = OpProfile::default();
        assert_eq!(z.int_intensity(), 0.0);
        assert_eq!(z.float_intensity(), 0.0);
    }

    #[test]
    fn aux_time_totals() {
        let a = AuxTime {
            h2d_seconds: 0.25,
            d2h_seconds: 0.5,
        };
        assert!((a.total() - 0.75).abs() < 1e-12);
        assert_eq!(AuxTime::default().total(), 0.0);
    }

    #[test]
    fn labels() {
        assert_eq!(CodecClass::Lorenzo.label(), "LORENZO");
        assert_eq!(CodecClass::Dictionary.label(), "DICTIONARY");
        assert_eq!(Platform::Cpu.label(), "CPU");
        assert_eq!(Platform::Gpu.label(), "GPU");
    }
}
