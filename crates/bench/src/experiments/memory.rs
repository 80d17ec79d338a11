//! Figure 10: memory footprint during compression vs input size — plus the
//! execution engine's streaming counterpart: how much memory the
//! `FrameWriter` pins when the compressed frame is never materialized.

use crate::alloc_track;
use crate::codecs::paper_registry;
use crate::context::render_table;
use fcbench_core::pool::{PoolConfig, WorkerPool};
use fcbench_core::{Compressor, Pipeline};
use fcbench_datasets::{find, generate};
use std::sync::Arc;

/// Measure peak working memory of each codec compressing `miranda3d`-like
/// data at several input sizes.
pub fn fig10(base_elems: usize) -> String {
    if !alloc_track::is_installed() {
        return "Figure 10: peak-allocation tracking requires the fcbench binary\n\
                (the counting allocator is not installed in this process)\n"
            .to_string();
    }
    let spec = find("miranda3d").expect("catalog dataset");
    let sizes = [base_elems / 4, base_elems / 2, base_elems, base_elems * 2];

    let mut headers = vec!["method".to_string()];
    for &n in &sizes {
        headers.push(format!("{:.1} MB in", (n * 4) as f64 / 1e6));
    }

    let mut rows = Vec::new();
    let mut buff_ratio = 0.0f64;
    let mut median_ratios: Vec<f64> = Vec::new();
    let registry = paper_registry();
    for entry in registry.iter() {
        let codec = entry.codec();
        let name = entry.name().to_string();
        let mut row = vec![name.clone()];
        let mut last_ratio = f64::NAN;
        for &n in &sizes {
            let data = generate(&spec, n);
            let input = data.bytes().len();
            let (peak, result) = alloc_track::measure_peak(|| codec.compress(&data));
            match result {
                Ok(_) => {
                    last_ratio = peak as f64 / input as f64;
                    row.push(format!("{:.1} MB ({:.1}x)", peak as f64 / 1e6, last_ratio));
                }
                Err(_) => row.push("-".to_string()),
            }
        }
        if name == "buff" {
            buff_ratio = last_ratio;
        } else if last_ratio.is_finite() {
            median_ratios.push(last_ratio);
        }
        rows.push(row);
    }
    median_ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let med = median_ratios
        .get(median_ratios.len() / 2)
        .copied()
        .unwrap_or(f64::NAN);

    let mut out = String::from("Figure 10: peak memory during compression (and ratio to input)\n");
    out.push_str(&render_table(&headers, &rows));
    out.push_str(&format!(
        "\nBUFF footprint ratio {buff_ratio:.1}x vs median of the others {med:.1}x\n\
         (paper: most compressors use ~2x the input; BUFF ~7x, 'rendering it\n\
         less suitable for in-situ analysis'; pFPC/SPDP have fixed buffers)\n"
    ));
    out.push_str(&streaming_footprint(base_elems));
    out
}

/// Whole-frame-in-memory vs streaming `FrameWriter` peak footprint: the
/// writer pins at most `queue_depth` blocks, so its peak stays flat while
/// the in-memory frame grows with the dataset.
fn streaming_footprint(base_elems: usize) -> String {
    let spec = find("miranda3d").expect("catalog dataset");
    let data = generate(&spec, (base_elems * 2).max(1 << 18));
    let registry = paper_registry();
    let mut out = format!(
        "\nstreaming engine footprint ({:.1} MB input, 16Ki-element blocks,\n\
         2-worker pool; 'frame' holds the whole FCB3 frame, 'stream' sends\n\
         the same records to a null sink as blocks finish):\n",
        data.bytes().len() as f64 / 1e6
    );
    out.push_str(&format!(
        "{:<10} {:>14} {:>14}\n",
        "codec", "frame peak MB", "stream peak MB"
    ));
    for name in ["gorilla", "chimp128"] {
        let codec = registry.get(name).expect("registered codec");
        let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(2)));
        let pipeline = Pipeline::with_pool(codec, pool).block_elems(16 * 1024);

        let run_stream = |pipeline: &Pipeline| {
            let mut w = pipeline
                .frame_writer(data.desc(), std::io::sink())
                .expect("writer");
            for chunk in data.bytes().chunks(1 << 16) {
                w.write(chunk).expect("stream write");
            }
            w.finish().expect("finish");
        };
        // Warm both paths so the peaks reflect steady state, not one-time
        // buffer growth.
        let _ = pipeline.compress(&data);
        run_stream(&pipeline);

        let (frame_peak, _) = alloc_track::measure_peak(|| pipeline.compress(&data));
        let (stream_peak, _) = alloc_track::measure_peak(|| run_stream(&pipeline));
        out.push_str(&format!(
            "{:<10} {:>14.2} {:>14.2}\n",
            name,
            frame_peak as f64 / 1e6,
            stream_peak as f64 / 1e6
        ));
    }
    out.push_str(
        "(the stream peak is bounded by blocks-in-flight, not dataset size —\n\
         the path that serves corpora larger than memory)\n",
    );
    out
}
