//! Evaluation metrics from §5.2 of the paper:
//!
//! ```text
//! CR = orig_size / comp_size
//! CT = orig_size / comp_time
//! DT = orig_size / decomp_time
//! ```
//!
//! plus the aggregation rules the paper uses: harmonic mean for compression
//! ratios, arithmetic mean for throughputs, and the harness's one timing
//! rule, `time_reps`.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::time::Instant;

/// Wall-clock seconds of one repeated call, as `time_reps` measures them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median seconds per timed call.
    pub median: f64,
    /// Interquartile range of the timed calls' seconds.
    pub iqr: f64,
}

impl Timing {
    /// The IQR as a percentage of the median: the spread a table prints
    /// beside a median so noise can be told from shape.
    pub(crate) fn iqr_pct(&self) -> f64 {
        100.0 * self.iqr / self.median.max(f64::MIN_POSITIVE)
    }
}

/// The one timing rule behind every timed `fcbench` column: one untimed
/// warm call (buffers grow, threads spawn, caches fill), then `reps` timed
/// calls (at least one), reported as their median and IQR. The first error
/// stops the timing and is returned.
pub(crate) fn time_reps<T, E>(
    reps: usize,
    mut call: impl FnMut() -> Result<T, E>,
) -> Result<Timing, E> {
    std::hint::black_box(call()?);
    let mut secs = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(call()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    // `secs` holds at least one sample, so every quantile exists.
    let q = |p| quantile(&secs, p).unwrap_or(0.0);
    Ok(Timing {
        median: q(0.5),
        iqr: q(0.75) - q(0.25),
    })
}

/// The heading line of every table with timed columns: the rule above,
/// with the rep count the run used.
pub(crate) fn timing_rule(reps: usize) -> String {
    format!(
        "(timing: one untimed warm call, then the median of {} timed calls)\n",
        reps.max(1)
    )
}

/// One measured compression + decompression run of a codec on a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Original (uncompressed) size in bytes.
    pub orig_bytes: u64,
    /// Compressed size in bytes (including nothing but the codec payload).
    pub comp_bytes: u64,
    /// Wall-clock compression time (kernel only, I/O excluded).
    pub comp: Timing,
    /// Wall-clock decompression time.
    pub decomp: Timing,
    /// Modelled host→device + device→host transfer seconds during compression
    /// (zero for CPU codecs). Included in end-to-end wall time (Table 6).
    pub comp_transfer_seconds: f64,
    /// Modelled transfer seconds during decompression.
    pub decomp_transfer_seconds: f64,
}

impl Measurement {
    /// Compression ratio `orig/comp`. Ratios below 1.0 mean expansion —
    /// the paper reports these too (e.g. BUFF 0.64 on rsim).
    #[inline]
    pub(crate) fn compression_ratio(&self) -> f64 {
        self.orig_bytes as f64 / self.comp_bytes.max(1) as f64
    }

    /// Compression throughput in GB/s (decimal GB, as in the paper).
    #[inline]
    pub(crate) fn compression_throughput_gbs(&self) -> f64 {
        self.orig_bytes as f64 / self.comp.median.max(f64::MIN_POSITIVE) / 1e9
    }

    /// Decompression throughput in GB/s.
    #[inline]
    pub(crate) fn decompression_throughput_gbs(&self) -> f64 {
        self.orig_bytes as f64 / self.decomp.median.max(f64::MIN_POSITIVE) / 1e9
    }

    /// End-to-end compression wall time in seconds, including modelled
    /// host↔device transfers (Table 6).
    #[inline]
    pub(crate) fn e2e_comp_seconds(&self) -> f64 {
        self.comp.median + self.comp_transfer_seconds
    }

    /// End-to-end decompression wall time in seconds.
    #[inline]
    pub(crate) fn e2e_decomp_seconds(&self) -> f64 {
        self.decomp.median + self.decomp_transfer_seconds
    }
}

/// Harmonic mean — the paper's aggregation for compression ratios (§5.2).
/// Returns `None` for an empty slice; non-positive entries are rejected.
pub fn harmonic_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let recip_sum: f64 = values.iter().map(|v| 1.0 / v).sum();
    Some(values.len() as f64 / recip_sum)
}

/// Arithmetic mean — the paper's aggregation for throughputs (§5.2).
pub(crate) fn arithmetic_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Median of a sample (averaging the two central order statistics).
pub(crate) fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    })
}

/// Linear-interpolation quantile (type-7, as NumPy's default), `q` in `[0,1]`.
pub(crate) fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(median: f64) -> Timing {
        Timing { median, iqr: 0.0 }
    }

    fn meas() -> Measurement {
        Measurement {
            orig_bytes: 1_000_000_000,
            comp_bytes: 500_000_000,
            comp: secs(2.0),
            decomp: secs(1.0),
            comp_transfer_seconds: 0.5,
            decomp_transfer_seconds: 0.25,
        }
    }

    #[test]
    fn ratio_and_throughputs() {
        let m = meas();
        assert!((m.compression_ratio() - 2.0).abs() < 1e-12);
        assert!((m.compression_throughput_gbs() - 0.5).abs() < 1e-12);
        assert!((m.decompression_throughput_gbs() - 1.0).abs() < 1e-12);
        assert!((m.e2e_comp_seconds() - 2.5).abs() < 1e-12);
        assert!((m.e2e_decomp_seconds() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn zero_comp_bytes_does_not_divide_by_zero() {
        let m = Measurement {
            comp_bytes: 0,
            ..meas()
        };
        assert!(m.compression_ratio().is_finite());
    }

    #[test]
    fn time_reps_warms_once_then_times_each_rep() {
        let mut calls = 0;
        let t = time_reps(4, || {
            calls += 1;
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!(calls, 5, "one warm call plus four timed calls");
        assert!(t.median >= 0.0 && t.iqr >= 0.0 && t.iqr_pct().is_finite());

        // Zero reps still times one call; a single sample has no spread.
        calls = 0;
        let t = time_reps(0, || {
            calls += 1;
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!((calls, t.iqr), (2, 0.0));

        // The first error, warm or timed, stops the timing and is returned.
        calls = 0;
        let err = time_reps(4, || {
            calls += 1;
            if calls == 3 {
                Err("third call")
            } else {
                Ok(())
            }
        });
        assert_eq!((err, calls), (Err("third call"), 3));
    }

    #[test]
    fn harmonic_mean_matches_hand_computation() {
        // HM of 1, 2, 4 = 3 / (1 + 0.5 + 0.25) = 12/7
        let hm = harmonic_mean(&[1.0, 2.0, 4.0]).unwrap();
        assert!((hm - 12.0 / 7.0).abs() < 1e-12);
        assert!(harmonic_mean(&[]).is_none());
        assert!(harmonic_mean(&[1.0, 0.0]).is_none());
        assert!(harmonic_mean(&[1.0, -2.0]).is_none());
    }

    #[test]
    fn harmonic_mean_le_arithmetic_mean() {
        let vals = [1.2, 3.4, 0.9, 2.2, 8.8];
        let hm = harmonic_mean(&vals).unwrap();
        let am = arithmetic_mean(&vals).unwrap();
        assert!(hm <= am);
    }

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
        assert!(median(&[]).is_none());
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 1.0).unwrap(), 4.0);
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0], 0.5).unwrap() - 2.5).abs() < 1e-12);
        assert!(quantile(&[1.0], 1.5).is_none());
    }
}
