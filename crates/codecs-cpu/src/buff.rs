//! BUFF — decomposed bounded floats (Liu et al., VLDB 2021; paper §3.3).
//!
//! BUFF targets low-decimal-precision data (server monitoring, IoT). Each
//! value is scaled by 10^p (p = decimal precision), offset by the dataset
//! minimum, and the resulting non-negative integer is stored padded to a
//! whole number of bytes. The bytes are laid out **column-major** ("each
//! byte unit is treated as a sub-column and stored together"), which lets
//! predicates run on the compressed form byte-plane by byte-plane, skipping
//! a record as soon as one plane disqualifies it (§3.3's 35×–50× claim).
//!
//! Losslessness: the paper notes BUFF "essentially becomes a lossy
//! compressor" without precision information. This implementation *derives*
//! the smallest decimal precision `p ≤ 10` that reproduces every value
//! bit-exactly and fails (like the paper's "-" cells, e.g. `hurricane`)
//! when no such precision exists. The Table 2 bits-per-precision budget
//! caps the fraction field exactly as published.
//!
//! A **range-outlier stash** keeps the paper's §3.3 insight honest
//! ("BUFF's compression ratio is sensitive to the value ranges and
//! outliers"): when trimming the extreme ~1% of scaled values shrinks the
//! per-record field enough to pay for storing those records verbatim,
//! they move to an exception list and the planes hold the trimmed range.
//!
//! Payload layout (little-endian):
//! `count u64 | precision u8 | bits u8 | min i64 | n_outliers u32 |
//!  outliers (u32 index + i64 scaled)* | column-major byte planes`.

use fcbench_core::wire::{le_u32, le_u64, len32, Cursor};
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, Error, FloatData, Platform, Precision,
    PrecisionSupport, Result,
};

/// Table 2 of the paper: bits needed for decimal precisions 1..=10.
pub const BITS_FOR_PRECISION: [u32; 11] = [0, 5, 8, 11, 15, 18, 21, 25, 28, 31, 35];

/// Maximum decimal precision BUFF will probe.
pub const MAX_PRECISION: u32 = 10;

/// The BUFF codec.
#[derive(Debug, Default, Clone)]
pub struct Buff;

impl Buff {
    pub fn new() -> Self {
        Buff
    }
}

/// Power of ten as f64 (exact for p ≤ 22).
#[inline]
fn pow10(p: u32) -> f64 {
    10f64.powi(p as i32)
}

/// Scale `v` by 10^p and verify the round trip is bit-exact in f64.
#[inline]
fn try_scale(v: f64, p: u32) -> Option<i64> {
    if !v.is_finite() {
        return None;
    }
    let scaled = v * pow10(p);
    if scaled.abs() >= 2f64.powi(52) {
        return None; // would lose integer precision
    }
    let q = scaled.round() as i64;
    let back = q as f64 / pow10(p);
    if back.to_bits() == v.to_bits() {
        Some(q)
    } else {
        None
    }
}

/// Scale an f32 by 10^p, verifying the round trip is bit-exact **in the
/// f32 domain** (native BUFF bounds the float within its own precision).
#[inline]
fn try_scale32(v: f32, p: u32) -> Option<i64> {
    if !v.is_finite() {
        return None;
    }
    let scaled = v as f64 * pow10(p);
    if scaled.abs() >= 2f64.powi(52) {
        return None;
    }
    let q = scaled.round() as i64;
    let back = (q as f64 / pow10(p)) as f32;
    if back.to_bits() == v.to_bits() {
        Some(q)
    } else {
        None
    }
}

/// Find the smallest decimal precision representing every value exactly,
/// along with the scaled integers. Errors when none ≤ [`MAX_PRECISION`]
/// works (the paper's failed cells, e.g. `hurricane`'s NaN fill values).
fn derive_precision_with<T: Copy>(
    values: &[T],
    try_scale_one: impl Fn(T, u32) -> Option<i64>,
    is_finite: impl Fn(T) -> bool,
) -> Result<(u32, Vec<i64>)> {
    'prec: for p in 0..=MAX_PRECISION {
        let mut scaled = Vec::with_capacity(values.len());
        for &v in values {
            match try_scale_one(v, p) {
                Some(q) => scaled.push(q),
                None => {
                    if !is_finite(v) {
                        return Err(Error::Unsupported(
                            "buff: non-finite value cannot be bounded".into(),
                        ));
                    }
                    continue 'prec;
                }
            }
        }
        return Ok((p, scaled));
    }
    Err(Error::Unsupported(format!(
        "buff: no decimal precision ≤ {MAX_PRECISION} represents the data losslessly"
    )))
}

fn derive_precision(values: &[f64]) -> Result<(u32, Vec<i64>)> {
    derive_precision_with(values, try_scale, |v: f64| v.is_finite())
}

fn derive_precision32(values: &[f32]) -> Result<(u32, Vec<i64>)> {
    derive_precision_with(values, try_scale32, |v: f32| v.is_finite())
}

/// Bit width needed for the integer-part span plus the Table 2 fraction
/// budget. The integer part uses `ceil(log2(span+1))` bits; the fraction
/// part is bounded by the published budget for precision `p`.
fn field_bits(span: u64, p: u32) -> u32 {
    let int_bits = 64 - span.leading_zeros().min(63);
    let int_bits = if span == 0 { 1 } else { int_bits };
    // Table 2 counts total bits for fraction handling at precision p;
    // the integer span subsumes it here because values are pre-scaled, but
    // we never go below the published budget (padding is part of BUFF).
    int_bits.max(BITS_FOR_PRECISION[p as usize].max(1))
}

struct Encoded {
    count: u64,
    precision: u8,
    bits: u8,
    min: i64,
    outliers: Vec<(u32, i64)>,
    planes: Vec<u8>,
}

/// Pick the (min, max) bounds and outlier set: either the full range with
/// no outliers, or the 0.5th-99.5th percentile range with the trimmed
/// records stashed verbatim — whichever costs fewer bytes total.
fn choose_bounds(p: u32, scaled: &[i64]) -> (i64, i64, Vec<(u32, i64)>) {
    let n = scaled.len();
    let full_min = scaled.iter().copied().min().unwrap_or(0);
    let full_max = scaled.iter().copied().max().unwrap_or(0);
    if n < 64 {
        return (full_min, full_max, Vec::new());
    }
    let mut sorted = scaled.to_vec();
    sorted.sort_unstable();
    let lo = sorted[n / 200]; // 0.5th percentile
    let hi = sorted[n - 1 - n / 200]; // 99.5th percentile
    if lo == full_min && hi == full_max {
        return (full_min, full_max, Vec::new());
    }
    let outliers: Vec<(u32, i64)> = scaled
        .iter()
        .enumerate()
        .filter(|(_, &q)| q < lo || q > hi)
        .map(|(i, &q)| (i as u32, q))
        .collect();
    let bits_full = field_bits((full_max - full_min) as u64, p);
    let bits_trim = field_bits((hi - lo) as u64, p);
    let bytes_full = (bits_full as usize).div_ceil(8) * n;
    let bytes_trim = (bits_trim as usize).div_ceil(8) * n + outliers.len() * 12;
    if bytes_trim < bytes_full {
        (lo, hi, outliers)
    } else {
        (full_min, full_max, Vec::new())
    }
}

fn encode_scaled(p: u32, scaled: &[i64]) -> Encoded {
    let (min, max, outliers) = choose_bounds(p, scaled);
    let span = (max - min) as u64;
    let bits = field_bits(span, p);
    let nbytes = (bits as usize).div_ceil(8);
    let n = scaled.len();
    let is_outlier: std::collections::HashSet<u32> = outliers.iter().map(|&(i, _)| i).collect();

    // Column-major planes: plane b holds byte b (most significant first)
    // of every record, so predicates can scan plane 0 across all records.
    // Outlier slots hold zero; readers consult the stash first.
    let mut planes = vec![0u8; nbytes * n];
    for (i, &q) in scaled.iter().enumerate() {
        if is_outlier.contains(&(i as u32)) {
            continue;
        }
        let delta = (q - min) as u64;
        for b in 0..nbytes {
            let shift = 8 * (nbytes - 1 - b);
            planes[b * n + i] = ((delta >> shift) & 0xFF) as u8;
        }
    }
    Encoded {
        count: n as u64,
        precision: p as u8,
        bits: bits as u8,
        min,
        outliers,
        planes,
    }
}

impl Compressor for Buff {
    fn info(&self) -> CodecInfo {
        CodecInfo {
            name: "buff",
            year: 2021,
            community: Community::Database,
            class: CodecClass::Delta,
            platform: Platform::Cpu,
            parallel: false,
            precisions: PrecisionSupport::Both,
        }
    }

    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        let (p, scaled) = match data.desc().precision {
            Precision::Double => derive_precision(&data.to_f64_vec()?)?,
            // The exactness check runs in the f32 domain (native BUFF).
            Precision::Single => derive_precision32(&data.to_f32_vec()?)?,
        };
        let enc = encode_scaled(p, &scaled);
        out.clear();
        out.reserve(22 + 12 * enc.outliers.len() + enc.planes.len());
        out.extend_from_slice(&enc.count.to_le_bytes());
        out.push(enc.precision);
        out.push(enc.bits);
        out.extend_from_slice(&enc.min.to_le_bytes());
        out.extend_from_slice(&(enc.outliers.len() as u32).to_le_bytes());
        for &(idx, q) in &enc.outliers {
            out.extend_from_slice(&idx.to_le_bytes());
            out.extend_from_slice(&q.to_le_bytes());
        }
        out.extend_from_slice(&enc.planes);
        Ok(out.len())
    }

    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        // The descriptor is untrusted (the runner and other direct callers
        // hand it over unchecked): reject implausible output claims before
        // anything is reserved against them.
        fcbench_core::blocks::check_decode_claim(desc, payload.len())?;
        let view = BuffView::parse(payload)?;
        if view.count != desc.elements() {
            return Err(Error::Corrupt("buff: element count mismatch".into()));
        }
        out.refill(desc, |bytes| {
            bytes.reserve(desc.byte_len());
            match desc.precision {
                Precision::Double => {
                    view.decode_each(|v| bytes.extend_from_slice(&v.to_le_bytes()))
                }
                Precision::Single => {
                    view.decode_each(|v| bytes.extend_from_slice(&(v as f32).to_le_bytes()))
                }
            }
            Ok(())
        })
    }
}

thread_local! {
    /// Reused plane-gather scratch for [`BuffView::decode_each`].
    static DELTA_SCRATCH: std::cell::RefCell<Vec<u64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Zero-copy view over a BUFF payload supporting queries **without
/// decompression** — the feature that distinguishes BUFF in the survey.
pub struct BuffView<'a> {
    count: usize,
    precision: u32,
    nbytes: usize,
    min: i64,
    /// Range outliers, sorted by record index.
    outliers: Vec<(u32, i64)>,
    planes: &'a [u8],
}

impl<'a> BuffView<'a> {
    /// Parse the payload header, borrowing the plane storage. Runs once per
    /// call, and stays out of line: inlined into `decompress_into` it cost
    /// the plane loops it feeds a measured 15 % of decode throughput.
    #[inline(never)]
    pub fn parse(payload: &'a [u8]) -> Result<Self> {
        let mut cur = Cursor::new("buff", payload);
        let count = cur.len64("count")?;
        let precision = u32::from(cur.u8("precision")?);
        let bits = u32::from(cur.u8("bit width")?);
        let min = le_u64(cur.take(8, "minimum")?, 0)? as i64;
        if precision > MAX_PRECISION || bits == 0 || bits > 63 {
            return Err(cur.corrupt("invalid header fields"));
        }
        let n_outliers = cur.len32("outlier count")?;
        if n_outliers > count {
            return Err(cur.corrupt("more outliers than records"));
        }
        // The stash is read before anything is sized by its claimed length.
        let stash = cur.take(n_outliers.saturating_mul(12), "outlier stash")?;
        let mut outliers = Vec::with_capacity(n_outliers);
        for entry in stash.chunks_exact(12) {
            let idx = le_u32(entry, 0)?;
            let q = le_u64(entry, 4)? as i64;
            if len32(idx) >= count {
                return Err(cur.corrupt("outlier index out of range"));
            }
            outliers.push((idx, q));
        }
        let sorted = outliers.windows(2).all(|w| w[0].0 < w[1].0);
        if !sorted {
            return Err(cur.corrupt("outlier stash not sorted"));
        }
        let nbytes = (bits as usize).div_ceil(8);
        let planes = cur.rest();
        if count.checked_mul(nbytes) != Some(planes.len()) {
            return Err(Error::Corrupt(format!(
                "buff: plane storage is {} bytes, expected {nbytes} for each of {count} records",
                planes.len(),
            )));
        }
        Ok(BuffView {
            count,
            precision,
            nbytes,
            min,
            outliers,
            planes,
        })
    }

    /// The stashed scaled value of record `i`, if it is an outlier.
    #[inline]
    fn outlier_at(&self, i: usize) -> Option<i64> {
        self.outliers
            .binary_search_by_key(&(i as u32), |&(idx, _)| idx)
            .ok()
            .map(|k| self.outliers[k].1)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The scaled-integer delta of record `i`, assembled from byte planes.
    #[inline]
    fn delta_at(&self, i: usize) -> u64 {
        let mut d = 0u64;
        for b in 0..self.nbytes {
            d = (d << 8) | self.planes[b * self.count + i] as u64;
        }
        d
    }

    /// Decode every record in order. Unlike a [`BuffView::value_at`] loop
    /// (a stride-`count` gather plus an outlier binary search per record),
    /// this sweeps each byte plane **sequentially** — the sub-columns are
    /// contiguous on the wire, so full decompression reads them
    /// plane-major like a memcpy — and merges the sorted outlier stash in
    /// one forward pass.
    pub fn decode_each(&self, mut emit: impl FnMut(f64)) {
        let scale = pow10(self.precision);
        // Per-thread delta scratch (the chimp window pattern): steady-state
        // decompression on a long-lived worker performs no allocation here.
        // The vector is *taken* out of the slot rather than borrowed across
        // the `emit` calls, so a re-entrant decode_each from inside `emit`
        // allocates a fresh scratch instead of panicking on a double borrow.
        let mut deltas = DELTA_SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
        deltas.clear();
        deltas.resize(self.count, 0);
        for b in 0..self.nbytes {
            let plane = &self.planes[b * self.count..(b + 1) * self.count];
            for (d, &p) in deltas.iter_mut().zip(plane) {
                *d = (*d << 8) | u64::from(p);
            }
        }
        let mut stash = self.outliers.iter().peekable();
        for (i, &d) in deltas.iter().enumerate() {
            let q = match stash.peek() {
                Some(&&(idx, q)) if idx as usize == i => {
                    stash.next();
                    q
                }
                _ => self.min + d as i64,
            };
            emit(q as f64 / scale);
        }
        DELTA_SCRATCH.with(|s| *s.borrow_mut() = deltas);
    }

    /// Decode record `i` to its floating-point value.
    #[inline]
    pub fn value_at(&self, i: usize) -> f64 {
        let q = match self.outlier_at(i) {
            Some(q) => q,
            None => self.min + self.delta_at(i) as i64,
        };
        q as f64 / pow10(self.precision)
    }

    /// Translate a predicate constant into plane-byte representation;
    /// `None` if the constant cannot be represented at this precision
    /// (equality can then never hold).
    fn translate(&self, c: f64) -> Option<[u8; 8]> {
        let scaled = try_scale(c, self.precision)?;
        let delta = scaled.checked_sub(self.min)?;
        if delta < 0 {
            return None;
        }
        let delta = delta as u64;
        if self.nbytes < 8 && delta >> (8 * self.nbytes) != 0 {
            return None;
        }
        let mut bytes = [0u8; 8];
        for (b, slot) in bytes.iter_mut().take(self.nbytes).enumerate() {
            let shift = 8 * (self.nbytes - 1 - b);
            *slot = ((delta >> shift) & 0xFF) as u8;
        }
        Some(bytes)
    }

    /// Equality scan on the compressed form: returns matching record
    /// indices. Evaluates plane 0 for all candidates first, then refines —
    /// "BUFF will skip a record once a sub-column is disqualified".
    pub fn query_eq(&self, c: f64) -> Vec<usize> {
        let mut hits: Vec<usize> = Vec::new();
        // The stash first: outlier rows hold zeros in the planes.
        if let Some(scaled_c) = try_scale(c, self.precision) {
            hits.extend(
                self.outliers
                    .iter()
                    .filter(|&&(_, q)| q == scaled_c)
                    .map(|&(i, _)| i as usize),
            );
        }
        let Some(target) = self.translate(c) else {
            hits.sort_unstable();
            return hits;
        };
        let mut candidates: Vec<usize> = Vec::new();
        // Plane 0 pass over contiguous memory.
        let p0 = &self.planes[..self.count];
        for (i, &b) in p0.iter().enumerate() {
            if b == target[0] {
                candidates.push(i);
            }
        }
        for (b, &tb) in target.iter().enumerate().take(self.nbytes).skip(1) {
            if candidates.is_empty() {
                break;
            }
            let plane = &self.planes[b * self.count..(b + 1) * self.count];
            candidates.retain(|&i| plane[i] == tb);
        }
        candidates.retain(|&i| self.outlier_at(i).is_none());
        hits.extend(candidates);
        hits.sort_unstable();
        hits
    }

    /// Range scan `value < c` on the compressed form, most-significant
    /// plane first: records strictly below on a prefix plane qualify
    /// outright; ties continue to the next plane.
    pub fn query_lt(&self, c: f64) -> Vec<usize> {
        // Scale c up: any representable value < c iff its delta < ceil-ish
        // bound; compute threshold delta as the smallest scaled integer ≥ c.
        let scaled_c = (c * pow10(self.precision)).ceil() as i64;
        let Some(mut threshold) = scaled_c.checked_sub(self.min) else {
            return Vec::new();
        };
        // value < c  <=>  delta < threshold', where threshold' accounts for
        // c itself being representable (strict inequality).
        if (scaled_c as f64 / pow10(self.precision)) < c {
            threshold += 1;
        }
        let scale_all_out = |below: bool| -> Vec<usize> {
            // Range decided wholesale for inliers; outliers re-decided.
            let scale = pow10(self.precision);
            let mut v: Vec<usize> = if below {
                Vec::new()
            } else {
                (0..self.count)
                    .filter(|&i| self.outlier_at(i).is_none())
                    .collect()
            };
            v.extend(
                self.outliers
                    .iter()
                    .filter(|&&(_, q)| (q as f64 / scale) < c)
                    .map(|&(i, _)| i as usize),
            );
            v.sort_unstable();
            v
        };
        if threshold <= 0 {
            return scale_all_out(true);
        }
        let threshold = threshold as u64;
        let max_delta = if self.nbytes >= 8 {
            u64::MAX
        } else {
            (1u64 << (8 * self.nbytes)) - 1
        };
        if threshold > max_delta {
            return scale_all_out(false);
        }

        let mut target = [0u8; 8];
        for (b, slot) in target.iter_mut().take(self.nbytes).enumerate() {
            let shift = 8 * (self.nbytes - 1 - b);
            *slot = ((threshold >> shift) & 0xFF) as u8;
        }

        let mut result = Vec::new();
        // undecided: records equal to the threshold prefix so far.
        let mut undecided: Vec<usize> = (0..self.count).collect();
        for (b, &tb) in target.iter().enumerate().take(self.nbytes) {
            let plane = &self.planes[b * self.count..(b + 1) * self.count];
            let mut still = Vec::new();
            for &i in &undecided {
                match plane[i].cmp(&tb) {
                    std::cmp::Ordering::Less => result.push(i),
                    std::cmp::Ordering::Equal => still.push(i),
                    std::cmp::Ordering::Greater => {}
                }
            }
            undecided = still;
            if undecided.is_empty() {
                break;
            }
        }
        // Records equal to the threshold on every plane have delta ==
        // threshold, i.e. value >= c: excluded. Outlier rows hold zeros in
        // the planes, so re-decide them from the stash.
        result.retain(|&i| self.outlier_at(i).is_none());
        let scale = pow10(self.precision);
        result.extend(
            self.outliers
                .iter()
                .filter(|&&(_, q)| (q as f64 / scale) < c)
                .map(|&(i, _)| i as usize),
        );
        result.sort_unstable();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::Domain;

    fn data_f64(vals: &[f64]) -> FloatData {
        FloatData::from_f64(vals, vec![vals.len()], Domain::TimeSeries).unwrap()
    }

    fn round_trip(vals: &[f64]) -> usize {
        let data = data_f64(vals);
        let b = Buff::new();
        let c = b.compress(&data).unwrap();
        let back = b.decompress(&c, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
        c.len()
    }

    #[test]
    fn low_precision_sensor_data_compresses() {
        // One-decimal temperatures: 5 bits/value per Table 2, padded to 1 byte.
        let vals: Vec<f64> = (0..10_000)
            .map(|i| 20.0 + ((i % 60) as f64) * 0.1)
            .collect();
        let n = round_trip(&vals);
        assert!(n < 10_000 * 2, "one byte per value expected, got {n}");
    }

    #[test]
    fn integers_round_trip_at_precision_zero() {
        let vals: Vec<f64> = (0..5000).map(|i| (i % 97) as f64).collect();
        round_trip(&vals);
    }

    #[test]
    fn negative_values() {
        let vals: Vec<f64> = (0..1000).map(|i| -50.5 + (i % 100) as f64 * 0.5).collect();
        round_trip(&vals);
    }

    #[test]
    fn full_precision_noise_is_rejected() {
        // sqrt(2)-style irrational mantissas can't be bounded at 10 decimals.
        let vals: Vec<f64> = (2..100).map(|i| (i as f64).sqrt()).collect();
        let data = data_f64(&vals);
        let err = Buff::new().compress(&data).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
    }

    #[test]
    fn non_finite_rejected() {
        let data = data_f64(&[1.0, f64::NAN]);
        assert!(Buff::new().compress(&data).is_err());
        let data = data_f64(&[1.0, f64::INFINITY]);
        assert!(Buff::new().compress(&data).is_err());
    }

    #[test]
    fn single_precision_path() {
        let vals: Vec<f32> = (0..4000).map(|i| (i % 300) as f32 * 0.25).collect();
        let data = FloatData::from_f32(&vals, vec![4000], Domain::TimeSeries).unwrap();
        let b = Buff::new();
        let c = b.compress(&data).unwrap();
        let back = b.decompress(&c, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
    }

    #[test]
    fn derive_precision_finds_minimum() {
        let (p, _) = derive_precision(&[1.5, 2.5, 3.0]).unwrap();
        assert_eq!(p, 1);
        let (p, _) = derive_precision(&[1.0, 2.0]).unwrap();
        assert_eq!(p, 0);
        let (p, _) = derive_precision(&[0.125]).unwrap();
        assert_eq!(p, 3); // 0.125 = 125e-3
    }

    #[test]
    fn query_eq_matches_scan() {
        let vals: Vec<f64> = (0..2000).map(|i| ((i * 7) % 50) as f64 * 0.5).collect();
        let data = data_f64(&vals);
        let payload = Buff::new().compress(&data).unwrap();
        let view = BuffView::parse(&payload).unwrap();
        for c in [0.0, 3.5, 12.0, 24.5, 999.0] {
            let fast: Vec<usize> = view.query_eq(c);
            let slow: Vec<usize> = vals
                .iter()
                .enumerate()
                .filter(|(_, &v)| v == c)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(fast, slow, "predicate == {c}");
        }
    }

    #[test]
    fn query_lt_matches_scan() {
        let vals: Vec<f64> = (0..3000)
            .map(|i| ((i * 13) % 400) as f64 * 0.25 - 20.0)
            .collect();
        let data = data_f64(&vals);
        let payload = Buff::new().compress(&data).unwrap();
        let view = BuffView::parse(&payload).unwrap();
        for c in [-25.0, -20.0, 0.0, 17.3, 30.25, 200.0] {
            let mut fast = view.query_lt(c);
            fast.sort_unstable();
            let slow: Vec<usize> = vals
                .iter()
                .enumerate()
                .filter(|(_, &v)| v < c)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(fast, slow, "predicate < {c}");
        }
    }

    #[test]
    fn query_on_unrepresentable_constant_is_empty() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        let data = data_f64(&vals);
        let payload = Buff::new().compress(&data).unwrap();
        let view = BuffView::parse(&payload).unwrap();
        // 0.123456789 needs more precision than the data's (1 decimal).
        assert!(view.query_eq(0.123456789).is_empty());
    }

    #[test]
    fn corrupt_payload_rejected() {
        let vals: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let data = data_f64(&vals);
        let b = Buff::new();
        let payload = b.compress(&data).unwrap();
        assert!(b.decompress(&payload[..10], data.desc()).is_err());
        let mut bad = payload.clone();
        bad.truncate(payload.len() - 3);
        assert!(b.decompress(&bad, data.desc()).is_err());
    }

    #[test]
    fn view_len_reports_count() {
        let vals: Vec<f64> = (0..77).map(|i| i as f64).collect();
        let payload = Buff::new().compress(&data_f64(&vals)).unwrap();
        let view = BuffView::parse(&payload).unwrap();
        assert_eq!(view.len(), 77);
        assert!(!view.is_empty());
    }

    #[test]
    fn info_matches_table1() {
        let info = Buff::new().info();
        assert_eq!(info.name, "buff");
        assert_eq!(info.year, 2021);
        assert_eq!(info.community, Community::Database);
    }

    /// Values clustered in [0, 25.5] with two extreme spikes.
    fn outlier_data() -> Vec<f64> {
        let mut vals: Vec<f64> = (0..5000).map(|i| ((i * 13) % 256) as f64 / 10.0).collect();
        vals[777] = 1e9;
        vals[4001] = -1e9;
        vals
    }

    #[test]
    fn outlier_stash_pays_for_itself() {
        // Without the stash, two 1e9 spikes force ~5-byte fields on all
        // 5000 records; with it, fields stay at 2 bytes + 24 stash bytes.
        let vals = outlier_data();
        let data = data_f64(&vals);
        let payload = Buff::new().compress(&data).unwrap();
        assert!(
            payload.len() < 5000 * 3,
            "stash should keep fields narrow, got {} bytes",
            payload.len()
        );
        // And the round trip is still bit-exact.
        let back = Buff::new().decompress(&payload, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
    }

    #[test]
    fn queries_see_outlier_rows() {
        let vals = outlier_data();
        let data = data_f64(&vals);
        let payload = Buff::new().compress(&data).unwrap();
        let view = BuffView::parse(&payload).unwrap();

        // Equality on the spike itself.
        assert_eq!(view.query_eq(1e9), vec![777]);
        // Range: everything is < 1e8 except the positive spike.
        let below = view.query_lt(1e8);
        assert_eq!(below.len(), vals.len() - 1);
        assert!(!below.contains(&777));
        assert!(below.contains(&4001), "negative spike is < 1e8");
        // Range below the trimmed minimum still finds the negative spike.
        let deep = view.query_lt(-1e8);
        assert_eq!(deep, vec![4001]);
        // value_at reads through the stash.
        assert_eq!(view.value_at(777), 1e9);
        assert_eq!(view.value_at(4001), -1e9);
        assert_eq!(view.value_at(0), vals[0]);
    }

    #[test]
    fn query_lt_matches_scan_with_outliers() {
        let vals = outlier_data();
        let data = data_f64(&vals);
        let payload = Buff::new().compress(&data).unwrap();
        let view = BuffView::parse(&payload).unwrap();
        for c in [-2e9, -1.0, 0.0, 12.8, 25.5, 30.0, 2e9] {
            let fast = view.query_lt(c);
            let slow: Vec<usize> = vals
                .iter()
                .enumerate()
                .filter(|(_, &v)| v < c)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(fast, slow, "predicate < {c}");
        }
    }

    #[test]
    fn bulk_decode_matches_per_record_decode() {
        // decode_each (the plane-major bulk path used by decompress) and
        // value_at (the random-access path used by queries) must agree,
        // outlier rows included.
        let vals = outlier_data();
        let payload = Buff::new().compress(&data_f64(&vals)).unwrap();
        let view = BuffView::parse(&payload).unwrap();
        let mut bulk = Vec::with_capacity(view.len());
        view.decode_each(|v| bulk.push(v));
        let per_record: Vec<f64> = (0..view.len()).map(|i| view.value_at(i)).collect();
        assert_eq!(bulk, per_record);
        assert_eq!(bulk, vals);
    }

    #[test]
    fn corrupt_outlier_stash_rejected() {
        let vals = outlier_data();
        let data = data_f64(&vals);
        let payload = Buff::new().compress(&data).unwrap();
        // Outlier count lives right after count(8) + p(1) + bits(1) + min(8).
        let mut bad = payload.clone();
        bad[18] = 0xFF;
        bad[19] = 0xFF;
        assert!(BuffView::parse(&bad).is_err());
    }
}
