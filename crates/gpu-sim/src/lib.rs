//! # fcbench-gpu-sim
//!
//! A SIMT execution simulator standing in for the paper's CUDA/SYCL
//! hardware (DESIGN.md documents the substitution). It models the three
//! GPU effects the paper's observations depend on:
//!
//! 1. **Massive block-level parallelism** — kernels launch one thread
//!    block per work item over `sm_count` host threads standing in for
//!    SMs ([`exec::Gpu`]), through the chunk fan-out the CPU codecs use
//!    (`fcbench_core::wire::fan_out`), so a small launch stays on the
//!    calling thread;
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

mod config;
mod exec;
mod transfer;

pub use config::GpuConfig;
pub use exec::{exclusive_prefix_sum, Gpu, KernelCtx, KernelStats};
