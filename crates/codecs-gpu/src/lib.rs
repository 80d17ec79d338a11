//! # fcbench-codecs-gpu
//!
//! The five GPU-based compressors of FCBench §4, and the SIMT simulator
//! they execute on (see DESIGN.md's substitution table):
//!
//! | Codec | Paper § | Class | Notes |
//! |---|---|---|---|
//! | [`Gfc`] | 4.1 | delta | warp subchunks of 32 doubles |
//! | [`Mpc`] | 4.2 | delta + transpose | LNVd/BIT/LNV1/ZE pipeline |
//! | [`NvLz4`] | 4.3 | dictionary | batched pages, divergence-heavy |
//! | [`NvBitcomp`] | 4.3 | prediction | delta + LZ suppression, fastest |
//! | [`NdzipGpu`] | 4.4 | Lorenzo | shared pipeline with ndzip-CPU |
//!
//! Each codec holds a simulated [`Gpu`], the SIMT simulator standing in
//! for the paper's CUDA/SYCL hardware, and launches one thread block per
//! chunk, page or hypercube on it ([`Gpu::launch`]). The blocks fan out
//! over `sm_count` threads standing in for SMs, under the same
//! `PARALLEL_BYTES` rule as the CPU codecs' chunks (inline for the blocks
//! a pool worker hands it). The codecs run as pool jobs like every other
//! row, and the crate is held to the no-panic lint (R001). Host↔device
//! copies are not modelled here: their cost is a function of the call's
//! input and output byte counts alone, which the caller holds, so the
//! benchmark runner prices them with [`GpuConfig::transfer_seconds`] for
//! the paper's Table 6 end-to-end wall times. The simulator's modules
//! (`config`, `exec`, `transfer`) sit at the crate root, the paths they
//! had as a crate of their own.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

mod config;
mod exec;
mod gfc;
mod mpc;
mod ndzip_gpu;
mod nvcomp;
mod transfer;

pub use config::GpuConfig;
pub use exec::{exclusive_prefix_sum, Gpu};
pub use gfc::Gfc;
pub use mpc::Mpc;
pub use ndzip_gpu::NdzipGpu;
pub use nvcomp::{NvBitcomp, NvLz4};
