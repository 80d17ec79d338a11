//! Grouped summaries for the paper's figures: boxplot statistics (Fig. 5),
//! domain/precision/class/platform groupings (Fig. 6a/6b), and the Figure 9
//! compression-vs-decompression asymmetry.

use crate::metrics::{median, quantile};

/// Five-number boxplot summary with Tukey 1.5-IQR whiskers and outliers,
/// as drawn in Figure 5 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BoxplotStats {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// Lower whisker: smallest sample ≥ q1 − 1.5·IQR.
    pub whisker_lo: f64,
    /// Upper whisker: largest sample ≤ q3 + 1.5·IQR.
    pub whisker_hi: f64,
    /// Samples outside the whiskers, sorted ascending.
    pub outliers: Vec<f64>,
    pub count: usize,
}

/// Compute boxplot statistics; `None` for an empty sample.
pub(crate) fn boxplot(values: &[f64]) -> Option<BoxplotStats> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let q1 = quantile(&sorted, 0.25)?;
    let q3 = quantile(&sorted, 0.75)?;
    let med = median(&sorted)?;
    let iqr = q3 - q1;
    let lo_fence = q1 - 1.5 * iqr;
    let hi_fence = q3 + 1.5 * iqr;
    let whisker_lo = sorted
        .iter()
        .copied()
        .find(|&v| v >= lo_fence)
        .unwrap_or(sorted[0]);
    let whisker_hi = sorted
        .iter()
        .rev()
        .copied()
        .find(|&v| v <= hi_fence)
        .unwrap_or(sorted[sorted.len() - 1]);
    let outliers = sorted
        .iter()
        .copied()
        .filter(|&v| v < lo_fence || v > hi_fence)
        .collect();
    Some(BoxplotStats {
        min: sorted[0],
        q1,
        median: med,
        q3,
        max: sorted[sorted.len() - 1],
        whisker_lo,
        whisker_hi,
        outliers,
        count: sorted.len(),
    })
}

/// A labelled group of samples with its boxplot, for Figure 6 rows.
#[derive(Debug, Clone)]
pub(crate) struct GroupSummary {
    pub label: String,
    pub stats: BoxplotStats,
}

/// Summarize values grouped by an arbitrary key extractor.
///
/// `pairs` is `(label, value)`; groups preserve first-appearance order.
pub(crate) fn group_boxplots(pairs: &[(String, f64)]) -> Vec<GroupSummary> {
    let mut order: Vec<String> = Vec::new();
    for (label, _) in pairs {
        if !order.contains(label) {
            order.push(label.clone());
        }
    }
    order
        .into_iter()
        .filter_map(|label| {
            let vals: Vec<f64> = pairs
                .iter()
                .filter(|(l, _)| *l == label)
                .map(|(_, v)| *v)
                .collect();
            boxplot(&vals).map(|stats| GroupSummary { label, stats })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxplot_of_simple_sample() {
        let vals = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = boxplot(&vals).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.q3, 4.0);
        assert!(b.outliers.is_empty());
        assert_eq!(b.count, 5);
    }

    #[test]
    fn boxplot_flags_outliers() {
        // 22.8 mimics the paper's astro-mhd outlier among ratios near 1.
        let vals = [1.0, 1.1, 1.2, 1.15, 1.3, 1.25, 22.8];
        let b = boxplot(&vals).unwrap();
        assert_eq!(b.outliers, vec![22.8]);
        assert!(b.whisker_hi < 22.8);
    }

    #[test]
    fn boxplot_empty_and_singleton() {
        assert!(boxplot(&[]).is_none());
        let b = boxplot(&[7.0]).unwrap();
        assert_eq!(b.min, 7.0);
        assert_eq!(b.max, 7.0);
        assert_eq!(b.median, 7.0);
        assert_eq!(b.whisker_lo, 7.0);
        assert_eq!(b.whisker_hi, 7.0);
    }

    #[test]
    fn whiskers_clamp_to_observed_samples() {
        let vals = [1.0, 2.0, 3.0, 4.0, 100.0];
        let b = boxplot(&vals).unwrap();
        // upper whisker must be an actual sample, not the fence
        assert!(vals.contains(&b.whisker_hi));
        assert!(vals.contains(&b.whisker_lo));
    }

    #[test]
    fn grouping_preserves_first_appearance_order() {
        let pairs = vec![
            ("HPC".to_string(), 1.2),
            ("TS".to_string(), 1.1),
            ("HPC".to_string(), 1.4),
            ("DB".to_string(), 1.05),
        ];
        let groups = group_boxplots(&pairs);
        let labels: Vec<&str> = groups.iter().map(|g| g.label.as_str()).collect();
        assert_eq!(labels, vec!["HPC", "TS", "DB"]);
        assert_eq!(groups[0].stats.count, 2);
    }
}
