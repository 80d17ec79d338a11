//! # fcbench-codecs-gpu
//!
//! The five GPU-based compressors of FCBench §4, executing on the
//! `fcbench-gpu-sim` SIMT simulator (see DESIGN.md's substitution table):
//!
//! | Codec | Paper § | Class | Notes |
//! |---|---|---|---|
//! | [`Gfc`] | 4.1 | delta | warp subchunks of 32 doubles, input limit |
//! | [`Mpc`] | 4.2 | delta + transpose | LNVd/BIT/LNV1/ZE pipeline |
//! | [`NvLz4`] | 4.3 | dictionary | batched pages, divergence-heavy |
//! | [`NvBitcomp`] | 4.3 | prediction | delta + LZ suppression, fastest |
//! | [`NdzipGpu`] | 4.4 | Lorenzo | shared pipeline with ndzip-CPU |
//!
//! Each codec holds its simulated [`fcbench_gpu_sim::Gpu`] and launches
//! one thread block per chunk, page or hypercube on it; the launch fans
//! out under the same `PARALLEL_BYTES` rule as the CPU codecs' chunks
//! (inline for the blocks a pool worker hands it), and the codecs run
//! as pool jobs like every other row. The crate is held to the no-panic
//! lint (R001). Host↔device copies
//! are not modelled here: their cost is a function of the call's input and
//! output byte counts alone, which the caller holds, so the benchmark
//! runner prices them with [`fcbench_gpu_sim::GpuConfig::transfer_seconds`]
//! for the paper's Table 6 end-to-end wall times.

#![forbid(unsafe_code)]

mod gfc;
mod mpc;
mod ndzip_gpu;
mod nvcomp;

pub use gfc::Gfc;
pub use mpc::Mpc;
pub use ndzip_gpu::NdzipGpu;
pub use nvcomp::{NvBitcomp, NvLz4};
