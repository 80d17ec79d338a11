//! Parallel-scalability harness (§6.1.6, Tables 7 & 8).
//!
//! The paper sweeps thread counts 1–48 for the four thread-capable CPU
//! methods and reports throughput, speedup over single-threaded, and
//! parallel efficiency. This module drives any factory of thread-configured
//! codecs through that sweep.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use crate::metrics::{time_reps, Timing};
use fcbench_core::pool::{PoolConfig, WorkerPool};
use fcbench_core::{Compressor, FloatData, Pipeline, Result};
use std::sync::Arc;

/// The thread counts reported in Tables 7–8.
pub(crate) const PAPER_THREAD_COUNTS: [usize; 8] = [1, 2, 4, 8, 16, 24, 32, 48];

/// One row of a scalability table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScalingPoint {
    pub threads: usize,
    /// Wall time of one call ([`time_reps`]).
    pub time: Timing,
    /// Median throughput in MB/s (decimal), matching the tables' units.
    pub mb_per_s: f64,
    /// Speedup over the single-thread point.
    pub speedup: f64,
    /// Parallel efficiency = speedup / threads.
    pub efficiency: f64,
}

/// Scalability sweep result for one codec and one direction.
#[derive(Debug, Clone)]
pub(crate) struct ScalingCurve {
    pub codec: String,
    pub points: Vec<ScalingPoint>,
}

impl ScalingCurve {
    /// The thread count with peak throughput (paper: 16–24 for most codecs,
    /// after which oversubscription degrades it).
    pub(crate) fn peak(&self) -> Option<&ScalingPoint> {
        self.points
            .iter()
            .max_by(|a, b| a.mb_per_s.total_cmp(&b.mb_per_s))
    }
}

/// Which direction to time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    Compress,
    Decompress,
}

/// Sweep `factory(threads)` over `thread_counts`, timing the requested
/// direction on `data` by the harness's one rule ([`time_reps`] with
/// `reps` timed calls). The warm call spawns and warms codec-internal or
/// engine threads, their buffers and thread-locals before timing.
pub(crate) fn scaling_sweep<F>(
    factory: F,
    data: &FloatData,
    thread_counts: &[usize],
    direction: Direction,
    reps: usize,
) -> Result<ScalingCurve>
where
    F: Fn(usize) -> Box<dyn Compressor>,
{
    assert!(!thread_counts.is_empty());
    let mut name = String::new();
    let mut raw: Vec<(usize, Timing)> = Vec::with_capacity(thread_counts.len());

    // Reused across every thread count and repetition: the sweep measures
    // codec scalability, not allocator throughput.
    let mut payload = Vec::new();
    let mut scratch = FloatData::scratch();
    for &t in thread_counts {
        let codec = factory(t);
        name = codec.info().name.to_string();
        let time = match direction {
            Direction::Compress => time_reps(reps, || codec.compress_into(data, &mut payload))?,
            Direction::Decompress => {
                let n = codec.compress_into(data, &mut payload)?;
                time_reps(reps, || {
                    codec.decompress_into(&payload[..n], data.desc(), &mut scratch)
                })?
            }
        };
        raw.push((t, time));
    }

    let rate = |time: Timing| data.bytes().len() as f64 / time.median.max(f64::MIN_POSITIVE) / 1e6;
    let base = rate(raw[0].1).max(f64::MIN_POSITIVE);
    let points = raw
        .into_iter()
        .map(|(threads, time)| {
            let mb_per_s = rate(time);
            ScalingPoint {
                threads,
                time,
                mb_per_s,
                speedup: mb_per_s / base,
                efficiency: mb_per_s / base / threads as f64,
            }
        })
        .collect();
    Ok(ScalingCurve {
        codec: name,
        points,
    })
}

/// Sweep the **execution engine** instead of codec-internal threading: for
/// each thread count, spawn a [`WorkerPool`] and drive `codec`
/// block-parallel through a [`Pipeline`] over it. This is how serial codecs
/// (gorilla, chimp, ...) scale — the engine fans their blocks out across
/// persistent workers.
pub(crate) fn pool_scaling_sweep(
    codec: &Arc<dyn Compressor>,
    data: &FloatData,
    thread_counts: &[usize],
    block_elems: usize,
    direction: Direction,
    reps: usize,
) -> Result<ScalingCurve> {
    scaling_sweep(
        |t| {
            let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(t)));
            Box::new(Pipeline::with_pool(Arc::clone(codec), pool).block_elems(block_elems))
        },
        data,
        thread_counts,
        direction,
        reps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::{
        CodecClass, CodecInfo, Community, DataDesc, Domain, Platform, PrecisionSupport,
    };

    /// Codec whose compression does `work / threads` spins, simulating
    /// perfect linear scaling.
    struct SpinCodec {
        threads: usize,
    }

    impl Compressor for SpinCodec {
        fn info(&self) -> CodecInfo {
            CodecInfo {
                name: "spin",
                year: 2024,
                community: Community::General,
                class: CodecClass::Delta,
                platform: Platform::Cpu,
                parallel: true,
                precisions: PrecisionSupport::Both,
            }
        }
        fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
            let spins = 2_000_000 / self.threads;
            let mut acc = 0u64;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
            }
            std::hint::black_box(acc);
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

    #[test]
    fn sweep_reports_speedup_over_base() {
        let data = FloatData::from_f32(&[0.0; 64], vec![64], Domain::Hpc).unwrap();
        let curve = scaling_sweep(
            |t| Box::new(SpinCodec { threads: t }),
            &data,
            &[1, 4],
            Direction::Compress,
            3,
        )
        .unwrap();
        assert_eq!(curve.codec, "spin");
        assert_eq!(curve.points.len(), 2);
        assert!((curve.points[0].speedup - 1.0).abs() < 1e-9);
        // 4 "threads" spin 4x less, so speedup should be well above 1.
        assert!(
            curve.points[1].speedup > 1.5,
            "speedup = {}",
            curve.points[1].speedup
        );
        assert_eq!(curve.peak().unwrap().threads, 4);
    }

    #[test]
    fn efficiency_is_speedup_per_thread() {
        let data = FloatData::from_f32(&[0.0; 16], vec![16], Domain::Hpc).unwrap();
        let curve = scaling_sweep(
            |t| Box::new(SpinCodec { threads: t }),
            &data,
            &[1, 2],
            Direction::Decompress,
            2,
        )
        .unwrap();
        for p in &curve.points {
            assert!((p.efficiency - p.speedup / p.threads as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn pool_sweep_round_trips_and_reports_points() {
        let vals: Vec<f64> = (0..4096).map(|i| i as f64 * 0.5).collect();
        let data = FloatData::from_f64(&vals, vec![4096], Domain::Hpc).unwrap();
        let codec: Arc<dyn Compressor> = Arc::new(SpinCodec { threads: 1 });
        for direction in [Direction::Compress, Direction::Decompress] {
            let curve = pool_scaling_sweep(&codec, &data, &[1, 2], 512, direction, 1).unwrap();
            assert_eq!(curve.codec, "spin");
            assert_eq!(curve.points.len(), 2);
            assert!((curve.points[0].speedup - 1.0).abs() < 1e-9);
            assert!(curve.points.iter().all(|p| p.mb_per_s.is_finite()));
        }
    }

    #[test]
    fn paper_thread_counts() {
        assert_eq!(PAPER_THREAD_COUNTS, [1, 2, 4, 8, 16, 24, 32, 48]);
    }
}
