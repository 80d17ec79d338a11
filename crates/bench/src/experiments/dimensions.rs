//! Table 9: influence of dimension information — multi-dimensional (md)
//! versus flattened 1-d compression ratios, with the Mann–Whitney U test
//! (§6.1.5: "Compression is 1-d friendly").

use crate::context::render_table;
use crate::metrics::harmonic_mean;
use crate::stats::mann_whitney_u;
use fcbench_codecs_cpu::{Fpzip, Ndzip};
use fcbench_codecs_gpu::{Mpc, NdzipGpu};
use fcbench_core::Compressor;
use fcbench_datasets::{DatasetSpec, NamedData};

/// The dimension-sensitive codecs of Table 9. GFC is included in the
/// paper's table but its predictor ignores dimensionality by construction
/// ("the GFC predictor remains inaccurate, even with the correct dimension
/// information"); we run the four codecs whose prediction actually
/// consumes the extent, plus GFC via the generic delta path when present.
fn dim_codecs() -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(Fpzip::new()),
        Box::new(Mpc::new()),
        Box::new(Ndzip::new()),
        Box::new(NdzipGpu::new()),
    ]
}

/// Run Table 9 over the multi-dimensional datasets in `datasets`.
pub fn table9(specs: &[DatasetSpec], datasets: &[NamedData]) -> String {
    let codecs = dim_codecs();
    let mut headers = vec!["metric".to_string()];
    headers.extend(codecs.iter().map(|c| c.info().name.to_string()));

    let mut md_ratios: Vec<Vec<f64>> = vec![Vec::new(); codecs.len()];
    let mut oned_ratios: Vec<Vec<f64>> = vec![Vec::new(); codecs.len()];

    for (spec, ds) in specs.iter().zip(datasets.iter()) {
        if spec.paper_dims.len() < 2 {
            continue; // only multi-dimensional datasets participate
        }
        let flat = ds.data.flattened_1d();
        for (k, codec) in codecs.iter().enumerate() {
            let orig = ds.data.bytes().len() as f64;
            if let (Ok(md), Ok(od)) = (codec.compress(&ds.data), codec.compress(&flat)) {
                md_ratios[k].push(orig / md.len() as f64);
                oned_ratios[k].push(orig / od.len() as f64);
            }
        }
    }

    let mut md_row = vec!["harmonic mean (md)".to_string()];
    let mut od_row = vec!["harmonic mean (1d)".to_string()];
    let mut p_row = vec!["Mann-Whitney p".to_string()];
    let mut all_insignificant = true;
    for k in 0..codecs.len() {
        md_row.push(harmonic_mean(&md_ratios[k]).map_or("-".into(), |h| format!("{h:.3}")));
        od_row.push(harmonic_mean(&oned_ratios[k]).map_or("-".into(), |h| format!("{h:.3}")));
        if md_ratios[k].len() >= 2 {
            let r = mann_whitney_u(&md_ratios[k], &oned_ratios[k]);
            p_row.push(format!("{:.3}", r.p));
            if r.rejects_at(0.05) {
                all_insignificant = false;
            }
        } else {
            p_row.push("-".into());
        }
    }

    let mut out =
        String::from("Table 9: dimension information's influence on compression ratios\n");
    out.push_str(&render_table(&headers, &[md_row, od_row, p_row]));
    out.push_str(&format!(
        "\nno significant md-vs-1d difference at alpha = 0.05: {all_insignificant}\n\
         (paper Observation 6: the Mann-Whitney U test finds no significant\n\
         difference — flattening degrades Lorenzo to delta, which bit\n\
         transposes absorb. Note: at laptop-scale extents, ndzip's fixed\n\
         64x64 / 16^3 hypercubes leave a large verbatim border on 2-D/3-D\n\
         grids, so its 1-d flattening can look *better* here — a scale\n\
         artifact absent at the paper's full dataset sizes.)\n"
    ));
    out
}
