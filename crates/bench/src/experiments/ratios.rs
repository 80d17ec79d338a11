//! Compression-ratio experiments: Table 4, Figure 5, Figure 6, Figure 7.

use crate::context::{render_table, Context};
use crate::metrics::{harmonic_mean, median};
use crate::runner::CellOutcome;
use crate::stats::{cd_diagram, friedman_test};
use crate::summary::{boxplot, group_boxplots};
use fcbench_core::{Domain, Platform};

/// Table 4: compression ratio per (dataset × method), with per-domain and
/// overall harmonic means.
pub fn table4(ctx: &Context) -> String {
    let m = ctx.matrix();
    let mut headers = vec!["dataset".to_string()];
    headers.extend(m.codecs.iter().cloned());

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut domain_ratios: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); m.codecs.len()]; Domain::ALL.len()];

    for (di, dname) in m.datasets.iter().enumerate() {
        let spec = &ctx.specs[di];
        let mut row = vec![format!("{} {}", spec.domain.label(), dname)];
        for (ci, _) in m.codecs.iter().enumerate() {
            match &m.cells[ci][di] {
                CellOutcome::Ok(meas) => {
                    let cr = meas.compression_ratio();
                    row.push(format!("{cr:.3}"));
                    let dom_idx = Domain::ALL
                        .iter()
                        .position(|&d| d == spec.domain)
                        .expect("domain in ALL");
                    domain_ratios[dom_idx][ci].push(cr);
                }
                CellOutcome::Failed(_) => row.push("-".to_string()),
            }
        }
        rows.push(row);
    }

    // Domain averages (harmonic mean, §5.2) and overall.
    for (dom_idx, dom) in Domain::ALL.iter().enumerate() {
        let mut row = vec![format!("{}-avg", dom.label())];
        for cell in &domain_ratios[dom_idx] {
            match harmonic_mean(cell) {
                Some(h) => row.push(format!("{h:.3}")),
                None => row.push("-".to_string()),
            }
        }
        rows.push(row);
    }
    let mut overall = vec!["Overall-avg".to_string()];
    for (ci, codec) in m.codecs.iter().enumerate() {
        let _ = codec;
        let all: Vec<f64> = (0..m.datasets.len())
            .filter_map(|di| m.cells[ci][di].ratio())
            .collect();
        match harmonic_mean(&all) {
            Some(h) => overall.push(format!("{h:.3}")),
            None => overall.push("-".to_string()),
        }
    }
    rows.push(overall);

    let mut out = String::from("Table 4: compression ratios (original / compressed)\n");
    out.push_str(&render_table(&headers, &rows));
    out.push_str(&format!(
        "\nrobustness: CPU failure rate {:.1}%  GPU failure rate {:.1}%  (paper: 2.0% / 7.3%)\n",
        m.failure_rate(&ctx.platform_names(Platform::Cpu)) * 100.0,
        m.failure_rate(&ctx.platform_names(Platform::Gpu)) * 100.0,
    ));
    out
}

/// Figure 5: boxplot of all measured compression ratios.
pub fn fig5(ctx: &Context) -> String {
    let ratios = ctx.matrix().all_ratios();
    let b = boxplot(&ratios).expect("matrix has successful cells");
    let mut out = String::from("Figure 5: boxplot of all compression ratios\n");
    out.push_str(&format!(
        "n = {}  min {:.3}  q1 {:.3}  median {:.3}  q3 {:.3}  max {:.3}\n",
        b.count, b.min, b.q1, b.median, b.q3, b.max
    ));
    out.push_str(&format!(
        "whiskers [{:.3}, {:.3}]  outliers: {}\n",
        b.whisker_lo,
        b.whisker_hi,
        b.outliers
            .iter()
            .map(|v| format!("{v:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.push_str("paper: median 1.16, outliers ranging 2.0 .. 22.8\n");
    out
}

/// Figure 6: ratios grouped by (a) precision & domain, (b) predictor class
/// & platform.
pub fn fig6(ctx: &Context) -> String {
    let m = ctx.matrix();
    let mut by_type: Vec<(String, f64)> = Vec::new();
    let mut by_domain: Vec<(String, f64)> = Vec::new();
    let mut by_class: Vec<(String, f64)> = Vec::new();
    let mut by_platform: Vec<(String, f64)> = Vec::new();

    for (ci, entry) in ctx.registry.iter().enumerate() {
        let info = entry.codec().info();
        for (di, spec) in ctx.specs.iter().enumerate() {
            if let Some(cr) = m.cells[ci][di].ratio() {
                by_type.push((spec.precision.label().to_string(), cr));
                by_domain.push((spec.domain.label().to_string(), cr));
                by_class.push((info.class.label().to_string(), cr));
                by_platform.push((info.platform.label().to_string(), cr));
            }
        }
    }

    let mut out = String::from("Figure 6a: ratios by data type and domain (medians)\n");
    for g in group_boxplots(&by_type) {
        out.push_str(&format!(
            "  {:<12} median {:.3}  (n = {})\n",
            g.label, g.stats.median, g.stats.count
        ));
    }
    for g in group_boxplots(&by_domain) {
        out.push_str(&format!(
            "  {:<12} median {:.3}  (n = {})\n",
            g.label, g.stats.median, g.stats.count
        ));
    }
    out.push_str("paper: fp32 1.225 / fp64 1.202; OBS 1.292 > TS 1.223 > HPC 1.206 > DB 1.080\n\n");

    out.push_str("Figure 6b: ratios by predictor class and platform (medians)\n");
    for g in group_boxplots(&by_class) {
        out.push_str(&format!(
            "  {:<12} median {:.3}  (n = {})\n",
            g.label, g.stats.median, g.stats.count
        ));
    }
    for g in group_boxplots(&by_platform) {
        out.push_str(&format!(
            "  {:<12} median {:.3}  (n = {})\n",
            g.label, g.stats.median, g.stats.count
        ));
    }
    out.push_str("paper: DICTIONARY 1.309 > LORENZO 1.219 > DELTA 1.116; CPU > GPU\n");
    out
}

/// Figure 7: harmonic-mean CRs per method (7a) and the Friedman + Nemenyi
/// critical-difference diagram (7b).
pub fn fig7(ctx: &Context) -> String {
    let m = ctx.matrix();
    let mut out = String::from("Figure 7a: harmonic-mean compression ratio per method\n");
    for (ci, codec) in m.codecs.iter().enumerate() {
        let ratios: Vec<f64> = (0..m.datasets.len())
            .filter_map(|di| m.cells[ci][di].ratio())
            .collect();
        let h = harmonic_mean(&ratios).unwrap_or(f64::NAN);
        out.push_str(&format!(
            "  {codec:<16} {h:.3}  ({} datasets)\n",
            ratios.len()
        ));
    }

    // Friedman needs complete cases: datasets where every codec succeeded.
    let codec_names: Vec<&str> = m.codecs.iter().map(|s| s.as_str()).collect();
    let (kept, rows) = m.complete_ratio_rows(&codec_names);
    out.push_str(&format!(
        "\nFigure 7b: Friedman test over {} complete datasets, k = {}\n",
        kept.len(),
        codec_names.len()
    ));
    if kept.len() >= 2 {
        let fr = friedman_test(&rows, true);
        out.push_str(&format!(
            "  chi2 = {:.2} (p = {:.2e})   Iman-Davenport F = {:.2} (p = {:.2e})\n",
            fr.chi2, fr.p_chi2, fr.f_stat, fr.p_f
        ));
        out.push_str(&format!(
            "  null 'all equivalent' rejected at alpha = 0.05: {}\n\n",
            fr.rejects_at(0.05)
        ));
        let names: Vec<String> = m.codecs.clone();
        let d = cd_diagram(&names, &fr.avg_ranks, kept.len(), 0.05);
        out.push_str("  critical-difference diagram (rank 1 = best ratio):\n");
        for line in d.render_text().lines() {
            out.push_str(&format!("  {line}\n"));
        }
        out.push_str("paper: no clear winner; bitshuffle+zstd ranks first but its clique\n");
        out.push_str("reaches SPDP; GFC ranks last (its clique reaches pFPC).\n");
    } else {
        out.push_str("  not enough complete datasets for the Friedman test\n");
    }

    // Domain winners (Observation 2 point (3)).
    out.push_str("\nbest method per domain (harmonic mean):\n");
    for dom in Domain::ALL {
        let mut best: Option<(String, f64)> = None;
        for (ci, codec) in m.codecs.iter().enumerate() {
            let ratios: Vec<f64> = ctx
                .specs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.domain == dom)
                .filter_map(|(di, _)| m.cells[ci][di].ratio())
                .collect();
            if let Some(h) = harmonic_mean(&ratios) {
                if best.as_ref().is_none_or(|(_, b)| h > *b) {
                    best = Some((codec.clone(), h));
                }
            }
        }
        if let Some((name, h)) = best {
            out.push_str(&format!("  {:<4} {name} ({h:.3})\n", dom.label()));
        }
    }
    out.push_str("paper: HPC fpzip; TS nvCOMP::LZ4; OBS bitshuffle+zstd; DB Chimp\n");
    let med = median(&ctx.matrix().all_ratios()).unwrap_or(f64::NAN);
    out.push_str(&format!("\noverall median ratio {med:.3} (paper 1.16)\n"));
    out
}
