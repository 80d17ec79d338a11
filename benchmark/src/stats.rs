//! The harness's own arithmetic: medians, quartiles, the percentile picker
//! that refuses a tail it has too few samples for, and the slice rates the
//! end-to-end metrics are medians of.

/// Median of `values` (mean of the two middle ones for an even count).
/// `NaN` for an empty slice, so a missing measurement can never read as 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile by the exclusive method —
/// the same numbers Python's `statistics.quantiles(values, n=4)` gives,
/// which is what the acceptance procedure computes spreads with. Fewer
/// than two values have no quartiles: all three are the median.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    if values.len() < 2 {
        let m = median(values);
        return (m, m, m);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// Inter-quartile distance as a share of the median: the spread the
/// bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        return 0.0;
    }
    ((q3 - q1) / q2).abs()
}

/// `q`-th percentile (nearest rank) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly above the nearest-rank `q`-th percentile.
fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n - rank
}

/// The highest of p99 / p90 / p50 that still has at least ten samples
/// beyond it, with its value; `None` below 20 samples, where not even the
/// median does. A tail read off fewer samples than that is one slow
/// request, not a distribution.
pub fn highest_supported_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    [0.99, 0.90, 0.50]
        .into_iter()
        .find(|&q| samples_beyond(sorted.len(), q) >= 10)
        .map(|q| (q, percentile_sorted(sorted, q)))
}

/// The tail as reported: [`highest_supported_percentile`], or — with too
/// few samples for any percentile — the slowest sample, marked by the
/// quantile `1.0` so it cannot pass for a distribution's tail.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    highest_supported_percentile(sorted)
        .unwrap_or((1.0, sorted.last().copied().unwrap_or(f64::NAN)))
}

/// Median with the quartiles beside it, as printed for every slice rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(values);
        Summary {
            median,
            q1,
            q3,
            n: values.len(),
        }
    }
}

/// Sums `num[i]` and `den[i]` per slice and returns `num ÷ den` for every
/// slice that saw any work — the per-slice rates a metric is the median of.
pub fn slice_rates(slices: usize, items: impl Iterator<Item = (usize, f64, f64)>) -> Vec<f64> {
    let mut num = vec![0.0; slices];
    let mut den = vec![0.0; slices];
    for (slice, n, d) in items {
        let s = slice.min(slices.saturating_sub(1));
        num[s] += n;
        den[s] += d;
    }
    num.iter()
        .zip(&den)
        .filter(|(_, d)| **d > 0.0)
        .map(|(n, d)| n / d)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 20.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (a, b, c) = quartiles(&[1.0, 2.0]);
        assert!((a - 0.75).abs() < 1e-12 && (b - 1.5).abs() < 1e-12 && (c - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(highest_supported_percentile(&v(19)), None);
        // 20 samples: ten lie above the median, none of the tails qualify.
        assert_eq!(highest_supported_percentile(&v(20)), Some((0.50, 10.0)));
        // 100 samples: p90 leaves exactly ten beyond, p99 leaves one.
        assert_eq!(highest_supported_percentile(&v(100)), Some((0.90, 90.0)));
        assert_eq!(highest_supported_percentile(&v(999)), Some((0.90, 900.0)));
        assert_eq!(highest_supported_percentile(&v(1000)), Some((0.99, 990.0)));
        assert_eq!(tail(&v(1000)), (0.99, 990.0));
        assert_eq!(tail(&v(7)), (1.0, 7.0));
    }

    #[test]
    fn slice_rates_sum_within_slices_and_skip_empty_ones() {
        let items = [(0, 10.0, 1.0), (0, 30.0, 1.0), (2, 5.0, 0.5), (9, 8.0, 2.0)];
        let rates = slice_rates(3, items.into_iter());
        // Slice 1 saw nothing; slice index 9 folds into the last slice.
        assert_eq!(rates, vec![20.0, 13.0 / 2.5]);
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 2.0, 3.0, 3));
    }
}
