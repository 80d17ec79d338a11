//! Post-hoc Nemenyi test and critical-difference diagram (Demšar 2006),
//! used for the paper's Figure 7b.
//!
//! Two algorithms differ significantly when their average ranks differ by
//! at least `CD = q_α · sqrt(k(k+1) / 6N)`. The CD diagram orders
//! algorithms by average rank and connects *cliques* — maximal groups
//! whose rank spread is below CD — with bars.

/// Critical values q_α for α = 0.05 (studentized range statistic divided
/// by √2), k = 2..=20, from Demšar (2006) Table 5.
const Q_ALPHA_05: [f64; 19] = [
    1.960, 2.343, 2.569, 2.728, 2.850, 2.949, 3.031, 3.102, 3.164, 3.219, 3.268, 3.313, 3.354,
    3.391, 3.426, 3.458, 3.489, 3.517, 3.544,
];

/// Critical values for α = 0.10.
const Q_ALPHA_10: [f64; 19] = [
    1.645, 2.052, 2.291, 2.459, 2.589, 2.693, 2.780, 2.855, 2.920, 2.978, 3.030, 3.077, 3.120,
    3.159, 3.196, 3.230, 3.261, 3.291, 3.319,
];

/// The q_α critical value for `k` algorithms at significance `alpha`
/// (0.05 or 0.10 supported, matching published tables).
pub(crate) fn q_alpha(k: usize, alpha: f64) -> f64 {
    assert!((2..=20).contains(&k), "q_alpha tabulated for k in 2..=20");
    if (alpha - 0.05).abs() < 1e-9 {
        Q_ALPHA_05[k - 2]
    } else if (alpha - 0.10).abs() < 1e-9 {
        Q_ALPHA_10[k - 2]
    } else {
        panic!("alpha must be 0.05 or 0.10");
    }
}

/// Nemenyi critical difference for `k` algorithms over `n` datasets.
pub(crate) fn critical_difference(k: usize, n: usize, alpha: f64) -> f64 {
    q_alpha(k, alpha) * ((k * (k + 1)) as f64 / (6.0 * n as f64)).sqrt()
}

/// One algorithm entry in a CD diagram.
#[derive(Debug, Clone, PartialEq)]
pub struct CdEntry {
    pub name: String,
    pub avg_rank: f64,
}

/// The data behind a critical-difference diagram (Figure 7b).
#[derive(Debug, Clone)]
pub struct CdDiagram {
    /// Entries sorted by average rank, best (lowest) first.
    pub entries: Vec<CdEntry>,
    /// The critical difference.
    pub cd: f64,
    /// Maximal cliques as index ranges `[lo, hi]` into `entries`
    /// (inclusive): groups not significantly different from each other.
    pub cliques: Vec<(usize, usize)>,
}

/// Build the CD diagram for named average ranks.
pub fn cd_diagram(names: &[String], avg_ranks: &[f64], n_datasets: usize, alpha: f64) -> CdDiagram {
    assert_eq!(names.len(), avg_ranks.len());
    let k = names.len();
    let cd = critical_difference(k, n_datasets, alpha);

    let mut entries: Vec<CdEntry> = names
        .iter()
        .zip(avg_ranks.iter())
        .map(|(n, &r)| CdEntry {
            name: n.clone(),
            avg_rank: r,
        })
        .collect();
    entries.sort_by(|a, b| a.avg_rank.partial_cmp(&b.avg_rank).expect("finite ranks"));

    // Maximal cliques: for each start, extend while spread < cd; keep only
    // cliques not contained in a previous one.
    let mut cliques: Vec<(usize, usize)> = Vec::new();
    for lo in 0..k {
        let mut hi = lo;
        while hi + 1 < k && entries[hi + 1].avg_rank - entries[lo].avg_rank < cd {
            hi += 1;
        }
        if hi > lo {
            if let Some(&(plo, phi)) = cliques.last() {
                if plo <= lo && hi <= phi {
                    continue; // contained in the previous clique
                }
            }
            cliques.push((lo, hi));
        }
    }
    CdDiagram {
        entries,
        cd,
        cliques,
    }
}

impl CdDiagram {
    /// Render the diagram as indented text (one line per algorithm, bars
    /// marking cliques), for the CLI harness.
    pub(crate) fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("CD = {:.3}\n", self.cd));
        for (i, e) in self.entries.iter().enumerate() {
            let mut bars = String::new();
            for &(lo, hi) in &self.cliques {
                bars.push(if lo <= i && i <= hi { '|' } else { ' ' });
            }
            out.push_str(&format!("{:>6.3}  {bars}  {}\n", e.avg_rank, e.name));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_alpha_table_values() {
        assert!((q_alpha(2, 0.05) - 1.960).abs() < 1e-9);
        assert!((q_alpha(13, 0.05) - 3.313).abs() < 1e-9);
        assert!((q_alpha(20, 0.05) - 3.544).abs() < 1e-9);
        assert!((q_alpha(4, 0.10) - 2.291).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn q_alpha_out_of_range_panics() {
        q_alpha(21, 0.05);
    }

    #[test]
    fn paper_configuration_cd() {
        // k = 13, N = 33, α = 0.05: CD = 3.313 * sqrt(13*14/(6*33)).
        let cd = critical_difference(13, 33, 0.05);
        let expect = 3.313 * (13.0_f64 * 14.0 / (6.0 * 33.0)).sqrt();
        assert!((cd - expect).abs() < 1e-12);
        assert!(cd > 3.1 && cd < 3.3, "cd = {cd}"); // sanity band
    }

    #[test]
    fn demsar_worked_example_cd() {
        // Demšar: k=4, N=14 => CD = 2.569 * sqrt(4*5/(6*14)) ≈ 1.25.
        let cd = critical_difference(4, 14, 0.05);
        assert!((cd - 1.25).abs() < 0.01, "cd = {cd}");
    }

    #[test]
    fn diagram_orders_and_groups() {
        let names: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        // d best (1.5), a (1.9), b (3.0), c worst (3.6); N chosen so CD ~ 1.25.
        let ranks = [1.9, 3.0, 3.6, 1.5];
        let d = cd_diagram(&names, &ranks, 14, 0.05);
        let order: Vec<&str> = d.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(order, vec!["d", "a", "b", "c"]);
        // d & a within CD (0.4 < 1.25): same clique; d & c differ (2.1 > 1.25).
        assert_eq!(d.cliques, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn contained_cliques_are_dropped() {
        let names: Vec<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        let ranks = [1.0, 1.1, 1.2];
        let d = cd_diagram(&names, &ranks, 10, 0.05);
        // All three in one clique; no sub-cliques listed.
        assert_eq!(d.cliques, vec![(0, 2)]);
    }

    #[test]
    fn render_contains_all_names() {
        let names: Vec<String> = ["u", "v"].iter().map(|s| s.to_string()).collect();
        let d = cd_diagram(&names, &[1.0, 2.0], 12, 0.05);
        let text = d.render_text();
        assert!(text.contains('u') && text.contains('v'));
        assert!(text.contains("CD ="));
    }
}
