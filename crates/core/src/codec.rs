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
/// An implementation provides [`info`](Self::info) and the `_into` pair:
/// [`compress_into`](Self::compress_into) and
/// [`decompress_into`](Self::decompress_into) write into caller-owned
/// buffers so a measurement or pipeline loop performs no steady-state heap
/// allocation. The allocating [`compress`](Self::compress) /
/// [`decompress`](Self::decompress) forms are provided on top of them.
pub trait Compressor: Send + Sync {
    /// Static method metadata (Table 1 row).
    fn info(&self) -> CodecInfo;

    /// Compress `data` into `out`, replacing its contents (capacity is
    /// reused, never shrunk). Returns the payload length, which equals
    /// `out.len()` on success.
    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize>;

    /// Reconstruct the exact original data from `payload` into `out`,
    /// replacing its descriptor and contents (byte capacity is reused).
    /// Seed `out` with [`FloatData::scratch`] and keep it across calls.
    ///
    /// `desc` is the descriptor of the original data (provided by the frame).
    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()>;

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
}

/// Forward the trait through a smart pointer / reference so generic code
/// can be handed `&dyn Compressor`, `Box<dyn Compressor>`, or the
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
        }
    };
}

forward_compressor!(&T);
forward_compressor!(Box<T>);
forward_compressor!(std::sync::Arc<T>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Domain;
    use crate::testing::Store;

    #[test]
    fn default_bridges_work_both_ways() {
        // The provided allocating forms run the `_into` pair, directly and
        // through every forwarding pointer.
        let data = FloatData::from_f32(&[4.0, 5.0], vec![2], Domain::Hpc).unwrap();
        let boxed: Box<dyn Compressor> = Box::new(Store);
        let shared: std::sync::Arc<dyn Compressor> = std::sync::Arc::new(Store);
        for codec in [&Store as &dyn Compressor, &boxed, &shared] {
            let payload = codec.compress(&data).unwrap();
            assert_eq!(payload, data.bytes());
            let back = codec.decompress(&payload, data.desc()).unwrap();
            assert_eq!(back.bytes(), data.bytes());
            assert_eq!(back.desc(), data.desc());
        }
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
    fn labels() {
        assert_eq!(CodecClass::Lorenzo.label(), "LORENZO");
        assert_eq!(CodecClass::Dictionary.label(), "DICTIONARY");
        assert_eq!(Platform::Cpu.label(), "CPU");
        assert_eq!(Platform::Gpu.label(), "GPU");
    }
}
