//! The benchmark run matrix: codecs × datasets → measurements.
//!
//! This is the engine behind Table 4 (compression ratios), Table 5 /
//! Figure 8 (throughputs), Table 6 (end-to-end wall time) and the inputs to
//! the Friedman ranking (Figure 7b). Runs that fail (a codec rejecting a
//! precision, or a runtime error — the paper reports 2.0% CPU / 7.3% GPU
//! failures, Observation 2) are recorded as [`CellOutcome::Failed`] and the
//! cell is excluded from aggregates, mirroring the dashes in Table 4.
//!
//! A GPU cell's host↔device copies are priced here, from the two byte
//! counts every cell holds: compression copies the original bytes in and
//! the payload out, decompression the reverse, each at the paper device's
//! link rate ([`GpuConfig::transfer_seconds`]).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use crate::metrics::{time_reps, Measurement};
use fcbench_codecs_gpu::GpuConfig;
use fcbench_core::pool::WorkerPool;
use fcbench_core::{CodecInfo, Compressor, DataDesc, Error, FloatData, Platform};
use std::sync::Arc;

/// Outcome of one (codec, dataset) cell.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// Codec round-tripped the data losslessly; measurement attached.
    Ok(Measurement),
    /// The codec refused or crashed on this input (paper's "-" cells).
    Failed(String),
}

impl CellOutcome {
    /// The measurement, if the run succeeded.
    pub(crate) fn measurement(&self) -> Option<&Measurement> {
        match self {
            CellOutcome::Ok(m) => Some(m),
            CellOutcome::Failed(_) => None,
        }
    }

    /// The compression ratio, if the run succeeded.
    pub(crate) fn ratio(&self) -> Option<f64> {
        self.measurement().map(|m| m.compression_ratio())
    }
}

/// Full result matrix of a benchmark campaign.
pub(crate) struct RunMatrix {
    /// Codec names, row order.
    pub codecs: Vec<String>,
    /// Dataset names, column order.
    pub datasets: Vec<String>,
    /// `cells[codec_idx][dataset_idx]`.
    pub cells: Vec<Vec<CellOutcome>>,
}

impl RunMatrix {
    /// Every successful ratio in the matrix (Figure 5 input).
    pub(crate) fn all_ratios(&self) -> Vec<f64> {
        self.cells
            .iter()
            .flat_map(|row| row.iter().filter_map(|c| c.ratio()))
            .collect()
    }

    /// Fraction of failed cells for a set of codec names (Observation 2's
    /// robustness comparison: "2.0% of CPU experiments incurred runtime
    /// errors, while 7.3% of the GPU experiments were killed").
    pub(crate) fn failure_rate(&self, codec_names: &[&str]) -> f64 {
        let mut total = 0usize;
        let mut failed = 0usize;
        for (ci, codec) in self.codecs.iter().enumerate() {
            if !codec_names.contains(&codec.as_str()) {
                continue;
            }
            for cell in &self.cells[ci] {
                total += 1;
                if matches!(cell, CellOutcome::Failed(_)) {
                    failed += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            failed as f64 / total as f64
        }
    }

    /// The ratio matrix restricted to datasets where *every* listed codec
    /// succeeded — the complete-cases input required by the Friedman test.
    /// Returns (dataset names, rows per codec in `codec_names` order).
    pub(crate) fn complete_ratio_rows(&self, codec_names: &[&str]) -> (Vec<String>, Vec<Vec<f64>>) {
        let idxs: Vec<usize> = codec_names
            .iter()
            .filter_map(|n| self.codecs.iter().position(|c| c == n))
            .collect();
        let mut kept_datasets = Vec::new();
        let mut rows: Vec<Vec<f64>> = vec![Vec::new(); idxs.len()];
        'data: for (di, dname) in self.datasets.iter().enumerate() {
            let mut col = Vec::with_capacity(idxs.len());
            for &ci in &idxs {
                match self.cells[ci][di].ratio() {
                    Some(r) => col.push(r),
                    None => continue 'data,
                }
            }
            kept_datasets.push(dname.clone());
            for (k, r) in col.into_iter().enumerate() {
                rows[k].push(r);
            }
        }
        (kept_datasets, rows)
    }
}

/// A codec whose every call is one submitted-and-collected job on the
/// persistent [`WorkerPool`] engine.
struct Pooled<'a>(&'a WorkerPool, &'a Arc<dyn Compressor>);

impl Compressor for Pooled<'_> {
    fn info(&self) -> CodecInfo {
        self.1.info()
    }

    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> fcbench_core::Result<usize> {
        self.0.run_compress(self.1, data, out)
    }

    fn decompress_into(
        &self,
        payload: &[u8],
        desc: &DataDesc,
        out: &mut FloatData,
    ) -> fcbench_core::Result<()> {
        self.0.run_decompress(self.1, payload, desc, out)
    }
}

/// Run one codec over one dataset, timing compression and decompression.
///
/// Each direction is timed by the harness's one rule, `time_reps`: one
/// untimed warm call, then the median and IQR of `reps` timed calls. The
/// timed calls are the buffer-reusing
/// [`compress_into`](Compressor::compress_into) /
/// [`decompress_into`](Compressor::decompress_into) forms with scratch
/// buffers held across calls, so the measurement captures codec work, not
/// the allocator. Every cell is checked lossless: the last decoded output
/// must equal the input byte for byte. A block-parallel
/// [`Pipeline`](fcbench_core::Pipeline) is a codec like any other here:
/// its payload is the whole `FCB3` frame, and a GPU pipeline's copies are
/// priced on the whole frame too.
pub fn run_cell(codec: &dyn Compressor, data: &FloatData, reps: usize) -> CellOutcome {
    let info = codec.info();
    if !info.precisions.accepts(data.desc().precision) {
        return CellOutcome::Failed(format!(
            "{} does not support {:?}",
            info.name,
            data.desc().precision
        ));
    }
    // A cell whose result could never be framed (oversized codec name,
    // >255 dims) is a failure, not a panic-in-waiting.
    if let Err(e) = fcbench_core::frame::check_frame_params(info.name, data.desc()) {
        return CellOutcome::Failed(e.to_string());
    }
    let link = (info.platform == Platform::Gpu).then(GpuConfig::default);
    let copies = |into: usize, back: usize| {
        link.as_ref()
            .map_or(0.0, |g| g.transfer_seconds(into) + g.transfer_seconds(back))
    };
    let orig_bytes = data.bytes().len();

    let mut payload = Vec::new();
    let mut comp_bytes = 0;
    let mut back = FloatData::scratch();
    let timed = time_reps(reps, || {
        codec
            .compress_into(data, &mut payload)
            .map(|n| comp_bytes = n)
    })
    .and_then(|comp| {
        let payload = &payload[..comp_bytes];
        let decomp = time_reps(reps, || {
            codec.decompress_into(payload, data.desc(), &mut back)
        })?;
        Ok((comp, decomp))
    });
    let (comp, decomp) = match timed {
        Ok(t) => t,
        Err(e) => return CellOutcome::Failed(e.to_string()),
    };
    if back.bytes() != data.bytes() {
        return CellOutcome::Failed(
            Error::LosslessViolation {
                codec: info.name.to_string(),
            }
            .to_string(),
        );
    }
    CellOutcome::Ok(Measurement {
        orig_bytes: orig_bytes as u64,
        comp_bytes: comp_bytes as u64,
        comp,
        decomp,
        comp_transfer_seconds: copies(orig_bytes, comp_bytes),
        decomp_transfer_seconds: copies(comp_bytes, orig_bytes),
    })
}

/// [`run_cell`] routed through the persistent [`WorkerPool`] engine: each
/// timed call is one submitted-and-collected pool job, so the measurement
/// reflects a warm worker (steady-state scratch, no thread spawn) plus the
/// engine's dispatch cost — which includes the O(n) copies into and out of
/// the job slot, bounded by memcpy bandwidth. For multi-GB/s codecs those
/// copies are a real fraction of the cell time: these are
/// "executed-through-the-engine" numbers, deliberately not identical to
/// [`run_cell`]'s direct-call methodology (the paper-shape assertions use
/// the direct form). Payload bytes are identical to the inline form — the
/// job is not block-decomposed.
pub(crate) fn run_cell_pooled(
    pool: &WorkerPool,
    codec: &Arc<dyn Compressor>,
    data: &FloatData,
    reps: usize,
) -> CellOutcome {
    run_cell(&Pooled(pool, codec), data, reps)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fcbench_core::{CodecClass, Community, Domain, PrecisionSupport, Result};
    use fcbench_datasets::NamedData;

    /// Identity codec `name` accepting `precisions`.
    pub(crate) struct StoreCodec(pub(crate) &'static str, pub(crate) PrecisionSupport);

    impl Compressor for StoreCodec {
        fn info(&self) -> CodecInfo {
            CodecInfo {
                name: self.0,
                year: 2024,
                community: Community::General,
                class: CodecClass::Delta,
                platform: Platform::Cpu,
                parallel: false,
                precisions: self.1,
            }
        }
        fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
            out.clear();
            out.extend_from_slice(data.bytes());
            Ok(out.len())
        }
        fn decompress_into(
            &self,
            payload: &[u8],
            desc: &DataDesc,
            out: &mut FloatData,
        ) -> Result<()> {
            out.refill_from_slice(desc, payload)
        }
    }

    /// A deliberately broken codec that flips the last byte on decode.
    pub(crate) struct LossyCodec;

    impl Compressor for LossyCodec {
        fn info(&self) -> CodecInfo {
            StoreCodec("lossy", PrecisionSupport::Both).info()
        }
        fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
            StoreCodec("lossy", PrecisionSupport::Both).compress_into(data, out)
        }
        fn decompress_into(
            &self,
            payload: &[u8],
            desc: &DataDesc,
            out: &mut FloatData,
        ) -> Result<()> {
            out.refill(desc, |bytes| {
                bytes.extend_from_slice(payload);
                if let Some(last) = bytes.last_mut() {
                    *last ^= 0xFF;
                }
                Ok(())
            })
        }
    }

    /// Modelled seconds of one copy of `into` bytes to the paper device and
    /// one of `back` bytes from it.
    fn copies(into: usize, back: usize) -> f64 {
        let link = GpuConfig::default();
        link.transfer_seconds(into) + link.transfer_seconds(back)
    }

    fn ramp(n: usize) -> FloatData {
        let vals: Vec<f64> = (0..n).map(|i| 1e6 + i as f64 * 0.5).collect();
        FloatData::from_f64(&vals, vec![n], Domain::Hpc).unwrap()
    }

    fn datasets() -> Vec<NamedData> {
        vec![
            NamedData::new(
                "single",
                FloatData::from_f32(&[1.0, 2.0, 3.0, 4.0], vec![4], Domain::Hpc).unwrap(),
            ),
            NamedData::new(
                "double",
                FloatData::from_f64(&[1.0, 2.0], vec![2], Domain::Database).unwrap(),
            ),
        ]
    }

    /// `codecs` × [`datasets`], each cell run inline.
    fn run_matrix(codecs: &[&dyn Compressor], reps: usize) -> RunMatrix {
        let datasets = datasets();
        RunMatrix {
            codecs: codecs.iter().map(|c| c.info().name.to_string()).collect(),
            datasets: datasets.iter().map(|d| d.name.clone()).collect(),
            cells: codecs
                .iter()
                .map(|c| {
                    datasets
                        .iter()
                        .map(|d| run_cell(*c, &d.data, reps))
                        .collect()
                })
                .collect(),
        }
    }

    #[test]
    fn matrix_shape_and_lookup() {
        let a = StoreCodec("a", PrecisionSupport::Both);
        let b = StoreCodec("b", PrecisionSupport::DoubleOnly);
        let m = run_matrix(&[&a, &b], 1);
        assert_eq!(m.codecs, vec!["a", "b"]);
        assert_eq!(m.datasets, vec!["single", "double"]);
        assert!(m.cells[0][0].ratio().is_some());
        // b rejects single precision => Failed cell, like the paper's dashes.
        assert!(matches!(m.cells[1][0], CellOutcome::Failed(_)));
        assert!(m.cells[1][1].ratio().is_some());
    }

    #[test]
    fn failure_rate_counts_only_requested_codecs() {
        let a = StoreCodec("a", PrecisionSupport::Both);
        let b = StoreCodec("b", PrecisionSupport::DoubleOnly);
        let m = run_matrix(&[&a, &b], 1);
        assert_eq!(m.failure_rate(&["a"]), 0.0);
        assert!((m.failure_rate(&["b"]) - 0.5).abs() < 1e-12);
        assert!((m.failure_rate(&["a", "b"]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn complete_rows_drop_failed_datasets() {
        let a = StoreCodec("a", PrecisionSupport::Both);
        let b = StoreCodec("b", PrecisionSupport::DoubleOnly);
        let m = run_matrix(&[&a, &b], 1);
        let (kept, rows) = m.complete_ratio_rows(&["a", "b"]);
        assert_eq!(kept, vec!["double"]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 1);
    }

    #[test]
    fn pooled_and_pipelined_cells_match_inline_results() {
        use fcbench_core::pool::PoolConfig;
        use fcbench_core::Pipeline;

        let data = FloatData::from_f64(
            &(0..512).map(|i| i as f64 * 0.5).collect::<Vec<_>>(),
            vec![512],
            Domain::TimeSeries,
        )
        .unwrap();
        let reps = 2;

        let inline = run_cell(&StoreCodec("a", PrecisionSupport::Both), &data, reps);

        let pool = WorkerPool::new(PoolConfig::with_threads(2));
        let codec: Arc<dyn Compressor> = Arc::new(StoreCodec("a", PrecisionSupport::Both));
        let pooled = run_cell_pooled(&pool, &codec, &data, reps);

        // Same payload bytes: the pooled job is not block-decomposed.
        assert_eq!(
            inline.measurement().unwrap().comp_bytes,
            pooled.measurement().unwrap().comp_bytes
        );

        // The pipelined cell's compressed size includes the frame around
        // its blocks.
        let p = Pipeline::with_pool(codec, Arc::new(pool)).block_elems(64);
        let piped = run_cell(&p, &data, reps);
        assert!(piped.measurement().unwrap().comp_bytes > inline.measurement().unwrap().comp_bytes);
        assert!(piped.ratio().is_some());
    }

    #[test]
    fn pooled_cell_failures_are_reported_not_hung() {
        use fcbench_core::pool::PoolConfig;
        let pool = WorkerPool::new(PoolConfig::with_threads(1));
        let codec: Arc<dyn Compressor> = Arc::new(StoreCodec("d", PrecisionSupport::DoubleOnly));
        let single = FloatData::from_f32(&[1.0, 2.0], vec![2], Domain::Hpc).unwrap();
        let out = run_cell_pooled(&pool, &codec, &single, 1);
        assert!(matches!(out, CellOutcome::Failed(_)));
    }

    #[test]
    fn store_codec_ratio_is_one() {
        let a = StoreCodec("a", PrecisionSupport::Both);
        let m = run_matrix(&[&a], 3);
        let r = m.cells[0][0].ratio().unwrap();
        assert!((r - 1.0).abs() < 1e-12);
        assert_eq!(m.all_ratios().len(), 2);
    }

    #[test]
    fn verified_compression_catches_lossy_codec() {
        let data = FloatData::from_f32(&[1.0, 2.0, 3.0], vec![3], Domain::Hpc).unwrap();
        let out = run_cell(&LossyCodec, &data, 1);
        assert!(
            matches!(&out, CellOutcome::Failed(msg) if msg.contains("losslessness")),
            "{out:?}"
        );
    }

    #[test]
    fn gpu_rows_price_transfers_from_call_bytes() {
        // Compression copies the original bytes in and the payload out,
        // decompression the reverse, at the paper device's link rate. A
        // four-block pipeline calls the codec four times, yet its cell's
        // copies cover the whole input and the whole frame. A CPU row
        // copies nothing.
        let registry = crate::codecs::paper_registry();
        let data = ramp(4096);
        for entry in registry.by_platform(Platform::Gpu) {
            let pipeline = fcbench_core::Pipeline::with_codec(Arc::clone(entry.codec()));
            let framed = pipeline.block_elems(1024);
            for codec in [entry.codec() as &dyn Compressor, &framed] {
                let cell = run_cell(codec, &data, 1);
                let m = cell.measurement().expect("GPU rows round-trip the ramp");
                let (orig, comp) = (m.orig_bytes as usize, m.comp_bytes as usize);
                assert_eq!(
                    m.comp_transfer_seconds,
                    copies(orig, comp),
                    "{}",
                    entry.name()
                );
                assert_eq!(
                    m.decomp_transfer_seconds,
                    copies(comp, orig),
                    "{}",
                    entry.name()
                );
            }
        }
        let cpu = run_cell(&StoreCodec("a", PrecisionSupport::Both), &data, 1);
        let m = cpu.measurement().unwrap();
        assert_eq!(
            (m.comp_transfer_seconds, m.decomp_transfer_seconds),
            (0.0, 0.0)
        );
    }
}
