//! Table 10: compression performance under 4 KB / 64 KB / 8 MB blocks.
//!
//! Block decomposition runs on the campaign's shared
//! [`WorkerPool`](fcbench_core::pool::WorkerPool) engine: each
//! block-capable codec is wrapped in a [`Pipeline`] over the warm pool
//! (no thread spawn per cell) and measured through the `FCB3` frame,
//! whose per-block length fields play the role of the page directory a
//! database container would keep.

use crate::context::{render_table, Context};
use crate::metrics::{arithmetic_mean, harmonic_mean, timing_rule};
use crate::runner::{run_cell, CellOutcome};
use fcbench_core::blocks::{BLOCK_4K, BLOCK_64K, BLOCK_8M};
use fcbench_core::Pipeline;
use fcbench_datasets::NamedData;
use std::sync::Arc;

struct BlockAvg {
    cr: f64,
    ct: f64,
    dt: f64,
}

fn run_block_size(
    ctx: &Context,
    datasets: &[NamedData],
    block_bytes: usize,
) -> Vec<(String, BlockAvg)> {
    ctx.registry
        .block_capable()
        .map(|entry| {
            let name = entry.name().to_string();
            let mut crs = Vec::new();
            let mut cts = Vec::new();
            let mut dts = Vec::new();
            for ds in datasets {
                // Blocks are sized in elements; the byte budget is the
                // paper's page size. CPU and GPU-simulated codecs alike
                // run their blocks as pool jobs.
                let block_elems = (block_bytes / ds.data.desc().precision.bytes()).max(1);
                let pipeline = Pipeline::with_pool(Arc::clone(entry.codec()), ctx.pool.clone())
                    .block_elems(block_elems);
                if let CellOutcome::Ok(m) = run_cell(&pipeline, &ds.data, ctx.reps) {
                    crs.push(m.compression_ratio());
                    cts.push(m.compression_throughput_gbs());
                    dts.push(m.decompression_throughput_gbs());
                }
            }
            (
                name,
                BlockAvg {
                    cr: harmonic_mean(&crs).unwrap_or(f64::NAN),
                    ct: arithmetic_mean(&cts).unwrap_or(f64::NAN),
                    dt: arithmetic_mean(&dts).unwrap_or(f64::NAN),
                },
            )
        })
        .collect()
}

/// Table 10 over the context's datasets, executed on its shared engine.
pub fn table10(ctx: &Context) -> String {
    let datasets = ctx.datasets();
    let mut out = format!(
        "Table 10: compression performance under different block sizes\n\
         (block-parallel on the shared {}-worker engine; CR includes the\n\
         FCB3 frame's per-block length fields, the container accounting a\n\
         paged store pays; per-cell medians averaged over datasets)\n{}",
        ctx.pool.threads(),
        timing_rule(ctx.reps)
    );
    let mut headers = vec!["blocksize / metric".to_string()];
    headers.extend(ctx.registry.block_capable().map(|e| e.name().to_string()));

    let mut rows = Vec::new();
    let mut best_cr_at_larger_blocks = 0usize;
    let mut total = 0usize;
    let mut cr4k: Vec<f64> = Vec::new();
    for (label, bytes) in [("4K", BLOCK_4K), ("64K", BLOCK_64K), ("8M", BLOCK_8M)] {
        let results = run_block_size(ctx, datasets, bytes);
        let mut cr_row = vec![format!("{label} avg-CR")];
        let mut ct_row = vec![format!("{label} avg-CT (GB/s)")];
        let mut dt_row = vec![format!("{label} avg-DT (GB/s)")];
        for (k, (_, avg)) in results.iter().enumerate() {
            cr_row.push(format!("{:.3}", avg.cr));
            ct_row.push(format!("{:.3}", avg.ct));
            dt_row.push(format!("{:.3}", avg.dt));
            if label == "4K" {
                cr4k.push(avg.cr);
            } else if label == "64K" {
                total += 1;
                if avg.cr >= cr4k[k] - 1e-6 {
                    best_cr_at_larger_blocks += 1;
                }
            }
        }
        rows.push(cr_row);
        rows.push(ct_row);
        rows.push(dt_row);
    }
    out.push_str(&render_table(&headers, &rows));
    out.push_str(&format!(
        "\ncodecs whose 64K CR >= 4K CR: {best_cr_at_larger_blocks}/{total}\n\
         (paper Observation 8: 'seven out of eight compression algorithms yield\n\
         improved CRs' with larger blocks, and all gain throughput)\n"
    ));
    out
}
