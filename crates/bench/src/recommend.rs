//! The paper's §7.3 recommendation map: "we have created a map to assist
//! users in selecting the most suitable compressors based on their
//! specific requirements."
//!
//! Recommendations are *derived from the measured matrix*, exactly as the
//! paper derives them from its rankings: storage-focused users get the
//! best per-domain harmonic-mean ratio; speed-focused users get the best
//! end-to-end wall time; general users get the best balance (geometric
//! mean of ratio rank and speed rank).

use crate::context::Context;
use crate::metrics::{harmonic_mean, timing_rule};
use crate::runner::CellOutcome;
use crate::stats::rank_row;
use fcbench_core::Domain;

/// What the user optimizes for (§7.3's three user classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Priority {
    /// "users focused on storage reduction" — best compression ratio.
    Storage,
    /// "users needing fast speed" — best end-to-end wall time.
    Speed,
    /// "general users" — balanced ratio and speed.
    Balanced,
}

/// A recommendation with its supporting evidence.
#[derive(Debug, Clone)]
pub(crate) struct Recommendation {
    pub codec: String,
    /// Harmonic-mean ratio over the relevant datasets.
    pub ratio: f64,
    /// Mean end-to-end (compress + decompress) milliseconds.
    pub e2e_ms: f64,
}

/// Per-codec aggregates over one domain (or all domains).
fn aggregates(ctx: &Context, domain: Option<Domain>) -> Vec<Recommendation> {
    let m = ctx.matrix();
    m.codecs
        .iter()
        .enumerate()
        .filter_map(|(ci, name)| {
            let mut ratios = Vec::new();
            let mut e2e = Vec::new();
            for (di, spec) in ctx.specs.iter().enumerate() {
                if domain.is_some_and(|d| spec.domain != d) {
                    continue;
                }
                if let CellOutcome::Ok(meas) = &m.cells[ci][di] {
                    ratios.push(meas.compression_ratio());
                    e2e.push((meas.e2e_comp_seconds() + meas.e2e_decomp_seconds()) * 1e3);
                }
            }
            // Codecs that failed on a domain are not recommendable there
            // (the paper drops GFC for its input-size limitation, Obs. 9).
            let expected: usize = ctx
                .specs
                .iter()
                .filter(|s| domain.is_none_or(|d| s.domain == d))
                .count();
            if ratios.len() < expected {
                return None;
            }
            Some(Recommendation {
                codec: name.clone(),
                ratio: harmonic_mean(&ratios)?,
                e2e_ms: e2e.iter().sum::<f64>() / e2e.len() as f64,
            })
        })
        .collect()
}

/// Recommend a codec for `domain` (or `None` = any data) under `priority`.
pub(crate) fn recommend(
    ctx: &Context,
    domain: Option<Domain>,
    priority: Priority,
) -> Option<Recommendation> {
    let aggs = aggregates(ctx, domain);
    if aggs.is_empty() {
        return None;
    }
    let ratios: Vec<f64> = aggs.iter().map(|a| a.ratio).collect();
    let times: Vec<f64> = aggs.iter().map(|a| a.e2e_ms).collect();
    let ratio_ranks = rank_row(&ratios, true); // higher ratio better
    let time_ranks = rank_row(&times, false); // lower time better

    let best_idx = match priority {
        Priority::Storage => {
            ratio_ranks
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite ranks"))?
                .0
        }
        Priority::Speed => {
            time_ranks
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite ranks"))?
                .0
        }
        Priority::Balanced => (0..aggs.len()).min_by(|&a, &b| {
            let ga = (ratio_ranks[a] * time_ranks[a]).sqrt();
            let gb = (ratio_ranks[b] * time_ranks[b]).sqrt();
            ga.partial_cmp(&gb).expect("finite ranks")
        })?,
    };
    Some(aggs[best_idx].clone())
}

/// The full §7.3 map as printable text.
pub fn recommendation_map(ctx: &Context) -> String {
    let mut out = String::from("Recommendation map (S7.3), derived from the measured matrix\n");
    out.push_str(&timing_rule(ctx.reps));
    out.push('\n');
    out.push_str("for users focused on storage reduction:\n");
    for domain in Domain::ALL {
        if let Some(r) = recommend(ctx, Some(domain), Priority::Storage) {
            out.push_str(&format!(
                "  {:<4} -> {:<16} (ratio {:.3})\n",
                domain.label(),
                r.codec,
                r.ratio
            ));
        }
    }
    out.push_str("paper: fpzip (HPC), nvCOMP::LZ4 (TS), bitshuffle+zstd (OBS), Chimp (DB)\n\n");

    out.push_str("for users needing fast speed (end-to-end):\n");
    if let Some(r) = recommend(ctx, None, Priority::Speed) {
        out.push_str(&format!(
            "  any  -> {:<16} ({:.1} ms avg end-to-end)\n",
            r.codec, r.e2e_ms
        ));
    }
    out.push_str("paper: bitshuffle::LZ4/zstd, MPC, ndzip-CPU/GPU (short end-to-end times)\n\n");

    out.push_str("for general users (balanced):\n");
    if let Some(r) = recommend(ctx, None, Priority::Balanced) {
        out.push_str(&format!(
            "  any  -> {:<16} (ratio {:.3}, {:.1} ms)\n",
            r.codec, r.ratio, r.e2e_ms
        ));
    }
    out.push_str(
        "paper: bitshuffle::zstd and MPC for balanced performance; bitshuffle\n\
         methods rank top overall for robustness and CPU-hardware cost\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Measurement, Timing};
    use crate::runner::{CellOutcome, RunMatrix};
    use fcbench_datasets::catalog;

    /// Build a tiny synthetic context with controlled ratios/times.
    fn fake_ctx() -> Context {
        let specs: Vec<_> = catalog().into_iter().take(4).collect(); // all HPC
        let codecs = vec!["fast-weak".to_string(), "slow-strong".to_string()];
        let mk = |ratio: f64, secs: f64| {
            CellOutcome::Ok(Measurement {
                orig_bytes: 1_000_000,
                comp_bytes: (1_000_000.0 / ratio) as u64,
                comp: Timing {
                    median: secs,
                    iqr: 0.0,
                },
                decomp: Timing {
                    median: secs,
                    iqr: 0.0,
                },
                comp_transfer_seconds: 0.0,
                decomp_transfer_seconds: 0.0,
            })
        };
        let cells = vec![
            (0..4).map(|_| mk(1.1, 0.001)).collect(),
            (0..4).map(|_| mk(2.0, 0.5)).collect(),
        ];
        let matrix = RunMatrix {
            codecs,
            datasets: specs.iter().map(|s| s.name.to_string()).collect(),
            cells,
        };
        Context {
            specs,
            matrix: matrix.into(),
            ..Context::new(0, 1)
        }
    }

    #[test]
    fn storage_priority_picks_the_strong_codec() {
        let ctx = fake_ctx();
        let r = recommend(&ctx, Some(Domain::Hpc), Priority::Storage).unwrap();
        assert_eq!(r.codec, "slow-strong");
        assert!((r.ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn speed_priority_picks_the_fast_codec() {
        let ctx = fake_ctx();
        let r = recommend(&ctx, Some(Domain::Hpc), Priority::Speed).unwrap();
        assert_eq!(r.codec, "fast-weak");
        assert!(r.e2e_ms < 10.0);
    }

    #[test]
    fn unknown_domain_yields_nothing() {
        let ctx = fake_ctx();
        // The fake context only holds HPC datasets.
        assert!(recommend(&ctx, Some(Domain::Database), Priority::Storage).is_none());
    }

    #[test]
    fn map_renders_paper_reference_lines() {
        let ctx = fake_ctx();
        let map = recommendation_map(&ctx);
        assert!(map.contains("storage reduction"));
        assert!(map.contains("paper:"));
    }
}
