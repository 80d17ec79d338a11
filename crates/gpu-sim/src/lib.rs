//! # fcbench-gpu-sim
//!
//! A SIMT execution simulator standing in for the paper's CUDA/SYCL
//! hardware (DESIGN.md documents the substitution). It models the three
//! GPU effects the paper's observations depend on:
//!
//! 1. **Massive block-level parallelism** — kernels launch one thread
//!    block per work item over a pool of simulated SMs ([`exec::Gpu`]);
//! 2. **Host↔device transfer cost** — a copy is priced from its byte count
//!    against link bandwidth + latency
//!    ([`GpuConfig::transfer_seconds`]), driving the Table 6 end-to-end
//!    gap;
//! 3. **Branch divergence** — kernels report divergence events
//!    ([`exec::KernelCtx::report_divergence`]), making the dictionary-codec
//!    penalty of Observation 3 measurable.
//!
//! Device ceilings default to the paper's Quadro RTX 6000
//! ([`config::GpuConfig::rtx6000`]).

#![forbid(unsafe_code)]

pub mod config;
pub mod exec;
mod transfer;

pub use config::GpuConfig;
pub use exec::{exclusive_prefix_sum, Gpu, KernelCtx, KernelStats};
