//! The floating-point data model: precision, domain, shape, and the raw
//! byte container every codec consumes and produces.
//!
//! FCBench evaluates IEEE-754 single- and double-precision arrays with an
//! optional multidimensional extent (Table 3 of the paper). Codecs treat the
//! payload as little-endian words; the [`FloatData`] container guarantees the
//! byte length is consistent with the descriptor.

use crate::error::{Error, Result};

/// IEEE-754 precision of the elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit `f32` ("S" in the paper's tables).
    Single,
    /// 64-bit `f64` ("D" in the paper's tables).
    Double,
}

impl Precision {
    /// Size of one element in bytes (4 or 8).
    #[inline]
    pub const fn bytes(self) -> usize {
        match self {
            Precision::Single => 4,
            Precision::Double => 8,
        }
    }

    /// Size of one element in bits (32 or 64).
    #[inline]
    pub const fn bits(self) -> usize {
        self.bytes() * 8
    }

    /// Short label used in reports ("fp32" / "fp64").
    pub const fn label(self) -> &'static str {
        match self {
            Precision::Single => "fp32",
            Precision::Double => "fp64",
        }
    }
}

/// Application domain of a dataset (Table 3 groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Domain {
    /// Scientific-simulation data (SDRBench et al.).
    Hpc,
    /// Time-series data (sensors, markets, traffic).
    TimeSeries,
    /// Observation data (HDR photos, telescope images).
    Observation,
    /// Database-transaction data (TPC benchmarks).
    Database,
}

impl Domain {
    /// All four domains in the paper's presentation order.
    pub const ALL: [Domain; 4] = [
        Domain::Hpc,
        Domain::TimeSeries,
        Domain::Observation,
        Domain::Database,
    ];

    /// Short label used in the paper's tables.
    pub const fn label(self) -> &'static str {
        match self {
            Domain::Hpc => "HPC",
            Domain::TimeSeries => "TS",
            Domain::Observation => "OBS",
            Domain::Database => "DB",
        }
    }
}

/// Shape and type description of a floating-point dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataDesc {
    /// Element precision.
    pub precision: Precision,
    /// Extent per dimension, slowest-varying first (e.g. `[130, 514, 1026]`).
    /// A 1-D array has a single entry.
    pub dims: Vec<usize>,
    /// Source domain; used only for grouping in reports.
    pub domain: Domain,
}

impl DataDesc {
    /// Create a descriptor, validating that no dimension is zero and that
    /// the total byte length fits in `usize` (a decoder handed hostile dims
    /// must get a typed error, not an arithmetic overflow).
    pub fn new(precision: Precision, dims: Vec<usize>, domain: Domain) -> Result<Self> {
        if dims.is_empty() {
            return Err(Error::BadDescriptor("dims must not be empty".into()));
        }
        if dims.contains(&0) {
            return Err(Error::BadDescriptor(format!("zero dimension in {dims:?}")));
        }
        let elements = dims
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| Error::BadDescriptor(format!("element count overflows: {dims:?}")))?;
        if elements.checked_mul(precision.bytes()).is_none() {
            return Err(Error::BadDescriptor(format!(
                "byte length overflows: {elements} elements of {} bytes",
                precision.bytes()
            )));
        }
        Ok(DataDesc {
            precision,
            dims,
            domain,
        })
    }

    /// Total number of elements (product of dims).
    #[inline]
    pub fn elements(&self) -> usize {
        self.dims.iter().product()
    }

    /// Total payload size in bytes.
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.elements() * self.precision.bytes()
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// The same data viewed as a flat 1-D array — used for the paper's
    /// §6.1.5 experiment ("Compression is 1-d friendly", Table 9).
    pub fn flatten_1d(&self) -> DataDesc {
        DataDesc {
            precision: self.precision,
            dims: vec![self.elements()],
            domain: self.domain,
        }
    }
}

/// An owned floating-point array: descriptor plus little-endian payload bytes.
///
/// The container deliberately stores raw bytes rather than `Vec<f32>`/`Vec<f64>`
/// so that losslessness can be asserted byte-for-byte (NaN payloads included)
/// and codecs can reinterpret words without transmutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloatData {
    desc: DataDesc,
    bytes: Vec<u8>,
}

impl FloatData {
    /// Wrap raw little-endian bytes; the length must match the descriptor.
    pub fn from_bytes(desc: DataDesc, bytes: Vec<u8>) -> Result<Self> {
        if bytes.len() != desc.byte_len() {
            return Err(Error::BadDescriptor(format!(
                "payload is {} bytes but descriptor implies {}",
                bytes.len(),
                desc.byte_len()
            )));
        }
        Ok(FloatData { desc, bytes })
    }

    /// Build single-precision data from an `f32` slice.
    pub fn from_f32(values: &[f32], dims: Vec<usize>, domain: Domain) -> Result<Self> {
        let desc = DataDesc::new(Precision::Single, dims, domain)?;
        if desc.elements() != values.len() {
            return Err(Error::BadDescriptor(format!(
                "{} values but dims imply {}",
                values.len(),
                desc.elements()
            )));
        }
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        Ok(FloatData { desc, bytes })
    }

    /// Build double-precision data from an `f64` slice.
    pub fn from_f64(values: &[f64], dims: Vec<usize>, domain: Domain) -> Result<Self> {
        let desc = DataDesc::new(Precision::Double, dims, domain)?;
        if desc.elements() != values.len() {
            return Err(Error::BadDescriptor(format!(
                "{} values but dims imply {}",
                values.len(),
                desc.elements()
            )));
        }
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        Ok(FloatData { desc, bytes })
    }

    /// The descriptor.
    #[inline]
    pub fn desc(&self) -> &DataDesc {
        &self.desc
    }

    /// Raw little-endian payload.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume into the raw payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Number of elements.
    #[inline]
    pub fn elements(&self) -> usize {
        self.desc.elements()
    }

    /// Decode the payload into `f32` values. Errors if double-precision.
    pub fn to_f32_vec(&self) -> Result<Vec<f32>> {
        if self.desc.precision != Precision::Single {
            return Err(Error::BadDescriptor("data is not single-precision".into()));
        }
        Ok(self
            .bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Decode the payload into `f64` values. Errors if single-precision.
    pub fn to_f64_vec(&self) -> Result<Vec<f64>> {
        if self.desc.precision != Precision::Double {
            return Err(Error::BadDescriptor("data is not double-precision".into()));
        }
        Ok(self
            .bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }

    /// The payload reinterpreted as little-endian `u32` words
    /// (single-precision bit patterns).
    pub fn as_u32_words(&self) -> Result<Vec<u32>> {
        if self.desc.precision != Precision::Single {
            return Err(Error::BadDescriptor("data is not single-precision".into()));
        }
        Ok(self
            .bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// A copy of this data re-described as 1-D (same bytes).
    pub fn flattened_1d(&self) -> FloatData {
        FloatData {
            desc: self.desc.flatten_1d(),
            bytes: self.bytes.clone(),
        }
    }

    /// A minimal valid container intended as a reusable target for
    /// [`Compressor::decompress_into`](crate::codec::Compressor::decompress_into):
    /// one single-precision zero. Each `decompress_into` call replaces both
    /// descriptor and payload, growing the byte buffer once and then reusing
    /// its capacity.
    pub fn scratch() -> FloatData {
        FloatData {
            desc: DataDesc {
                precision: Precision::Single,
                dims: vec![1],
                domain: Domain::Hpc,
            },
            bytes: vec![0u8; 4],
        }
    }

    /// Rebuild this container in place: clear the payload (keeping its
    /// capacity), let `fill` append exactly `desc.byte_len()` bytes, then
    /// install `desc`. This is the writer side of the zero-copy decode path —
    /// codecs emit decoded words straight into the reused buffer.
    ///
    /// The descriptor is only cloned when it differs from the current one, so
    /// steady-state reuse with a fixed shape performs no heap allocation
    /// beyond what `fill` itself does.
    ///
    /// On error (from `fill`, or a length mismatch) the container is restored
    /// to a valid state for its previous descriptor; its contents are
    /// unspecified.
    pub fn refill(
        &mut self,
        desc: &DataDesc,
        fill: impl FnOnce(&mut Vec<u8>) -> Result<()>,
    ) -> Result<()> {
        self.bytes.clear();
        let result = fill(&mut self.bytes).and_then(|()| {
            if self.bytes.len() != desc.byte_len() {
                return Err(Error::BadDescriptor(format!(
                    "refill produced {} bytes but descriptor implies {}",
                    self.bytes.len(),
                    desc.byte_len()
                )));
            }
            Ok(())
        });
        match result {
            Ok(()) => {
                if self.desc != *desc {
                    self.desc = desc.clone();
                }
                Ok(())
            }
            Err(e) => {
                // Keep the len-matches-desc invariant for the old descriptor.
                self.bytes.resize(self.desc.byte_len(), 0);
                Err(e)
            }
        }
    }

    /// [`refill`](Self::refill) from an existing byte slice (one memcpy, no
    /// allocation once the buffer has capacity).
    pub fn refill_from_slice(&mut self, desc: &DataDesc, bytes: &[u8]) -> Result<()> {
        self.refill(desc, |buf| {
            buf.extend_from_slice(bytes);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_sizes() {
        assert_eq!(Precision::Single.bytes(), 4);
        assert_eq!(Precision::Double.bytes(), 8);
        assert_eq!(Precision::Single.bits(), 32);
        assert_eq!(Precision::Double.bits(), 64);
        assert_eq!(Precision::Single.label(), "fp32");
        assert_eq!(Precision::Double.label(), "fp64");
    }

    #[test]
    fn desc_rejects_bad_dims() {
        assert!(DataDesc::new(Precision::Single, vec![], Domain::Hpc).is_err());
        assert!(DataDesc::new(Precision::Single, vec![4, 0], Domain::Hpc).is_err());
    }

    #[test]
    fn desc_element_math() {
        let d = DataDesc::new(Precision::Double, vec![130, 514, 1026], Domain::Hpc).unwrap();
        assert_eq!(d.elements(), 130 * 514 * 1026);
        assert_eq!(d.byte_len(), d.elements() * 8);
        assert_eq!(d.ndims(), 3);
        let flat = d.flatten_1d();
        assert_eq!(flat.dims, vec![130 * 514 * 1026]);
        assert_eq!(flat.byte_len(), d.byte_len());
    }

    #[test]
    fn f32_round_trip_preserves_bits() {
        let vals = [1.5f32, -0.0, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE];
        let fd = FloatData::from_f32(&vals, vec![5], Domain::TimeSeries).unwrap();
        assert_eq!(fd.elements(), 5);
        let words = fd.as_u32_words().unwrap();
        assert_eq!(words[1], 0x8000_0000); // -0.0 bit pattern survives
        let back = fd.to_f32_vec().unwrap();
        for (a, b) in vals.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f64_round_trip_preserves_bits() {
        let vals = [std::f64::consts::PI, -0.0, f64::NAN, 5e-324];
        let fd = FloatData::from_f64(&vals, vec![2, 2], Domain::Database).unwrap();
        let back = fd.to_f64_vec().unwrap();
        for (a, b) in vals.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn word_round_trips() {
        let words: Vec<u32> = (0..16).map(|i| i * 0x0101_0101).collect();
        let bytes = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let desc = DataDesc::new(Precision::Single, vec![4, 4], Domain::Observation).unwrap();
        let fd = FloatData::from_bytes(desc, bytes).unwrap();
        assert_eq!(fd.as_u32_words().unwrap(), words);
    }

    #[test]
    fn length_mismatch_rejected() {
        assert!(FloatData::from_f32(&[1.0, 2.0], vec![3], Domain::Hpc).is_err());
        let desc = DataDesc::new(Precision::Single, vec![3], Domain::Hpc).unwrap();
        assert!(FloatData::from_bytes(desc, vec![0u8; 11]).is_err());
    }

    #[test]
    fn precision_mismatch_rejected() {
        let fd = FloatData::from_f32(&[1.0], vec![1], Domain::Hpc).unwrap();
        assert!(fd.to_f64_vec().is_err());
        let fd = FloatData::from_f64(&[1.0], vec![1], Domain::Hpc).unwrap();
        assert!(fd.to_f32_vec().is_err());
        assert!(fd.as_u32_words().is_err());
    }

    #[test]
    fn desc_rejects_overflowing_dims() {
        assert!(DataDesc::new(Precision::Double, vec![usize::MAX, 2], Domain::Hpc).is_err());
        assert!(DataDesc::new(Precision::Double, vec![usize::MAX / 4], Domain::Hpc).is_err());
    }

    #[test]
    fn scratch_is_valid_and_refillable() {
        let mut s = FloatData::scratch();
        assert_eq!(s.bytes().len(), s.desc().byte_len());

        let desc = DataDesc::new(Precision::Double, vec![3], Domain::TimeSeries).unwrap();
        s.refill_from_slice(&desc, &[7u8; 24]).unwrap();
        assert_eq!(s.desc(), &desc);
        assert_eq!(s.bytes(), &[7u8; 24]);

        // Wrong length is rejected and the container stays valid.
        let err = s.refill_from_slice(&desc, &[1u8; 5]).unwrap_err();
        assert!(matches!(err, Error::BadDescriptor(_)));
        assert_eq!(s.bytes().len(), s.desc().byte_len());

        // A failing fill closure propagates and restores the invariant.
        let err = s
            .refill(&desc, |_| Err(Error::Corrupt("synthetic".into())))
            .unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)));
        assert_eq!(s.bytes().len(), s.desc().byte_len());
    }

    #[test]
    fn domain_labels() {
        assert_eq!(Domain::Hpc.label(), "HPC");
        assert_eq!(Domain::TimeSeries.label(), "TS");
        assert_eq!(Domain::Observation.label(), "OBS");
        assert_eq!(Domain::Database.label(), "DB");
        assert_eq!(Domain::ALL.len(), 4);
    }
}
