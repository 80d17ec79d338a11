//! # fcbench-core
//!
//! Core abstractions for **FCBench-rs**, a pure-Rust reproduction of
//! *"FCBench: Cross-Domain Benchmarking of Lossless Compression for
//! Floating-Point Data"* (VLDB 2024).
//!
//! This crate defines:
//!
//! - the floating-point [data model](data) (precision, domain, shape);
//! - the [`Compressor`] trait with the Table 1 taxonomy
//!   and its buffer-reusing `compress_into`/`decompress_into` hot path;
//! - the [codec registry](registry) (lookup by name, filtering by platform,
//!   class, and precision);
//! - the self-describing [`FCB3` frame](frame): fixed-size blocks
//!   compressed independently, each behind its own length;
//! - the persistent [worker-pool execution engine](pool) every compression
//!   job runs on, and the bounded in-flight [`Window`](pool::Window) every
//!   pipelined consumer of it submits through;
//! - [streaming frame I/O](stream) for datasets that exceed memory, and
//!   the block-parallel [pipeline], its whole-buffer form;
//! - the paper's [metrics] (CR/CT/DT, harmonic/arithmetic means);
//! - the benchmark [run matrix](runner) (codecs × datasets);
//! - [boxplot & group summaries](summary) for Figures 5–6;
//! - the [block sizes](blocks) of the Table 10 experiment and the
//!   plausibility gate every block decode passes;
//! - the [thread-scaling harness](scaling) for Tables 7–8;
//! - the [sync] shim (one poison policy, swappable for the
//!   `fcbench-analyze` model checker behind the `model-check` feature) and
//!   the panic-free [wire] decode helpers the repo lints hold decode paths
//!   to;
//! - the seeded [fault]-injection harness (`fp1:` replayable plans, the
//!   `FaultyIo` Read/Write wrapper, and named fail-points behind the
//!   non-default `fault-inject` feature) the chaos suite drives resilience
//!   tests with.
//!
//! Compressor implementations live in `fcbench-codecs-cpu`,
//! `fcbench-codecs-gpu`, and `fcbench-dzip`; everything here is
//! codec-agnostic.

#![forbid(unsafe_code)]

pub mod blocks;
pub mod codec;
pub mod data;
pub mod error;
pub mod fault;
pub mod frame;
pub mod metrics;
pub mod pipeline;
pub mod pool;
pub mod registry;
pub mod runner;
pub mod scaling;
pub mod stream;
pub mod summary;
pub mod sync;
#[cfg(test)]
mod testing;
pub mod wire;

/// The zero-alloc telemetry spine every layer records into, re-exported
/// so downstream users (and the umbrella crate's tests) can construct a
/// [`Registry`](fcbench_telemetry::Registry) without naming the crate.
pub use fcbench_telemetry as telemetry;

pub use codec::{
    compress_verified, compress_verified_into, AuxTime, CodecClass, CodecInfo, Community,
    Compressor, OpProfile, Platform, PrecisionSupport,
};
pub use data::{DataDesc, Domain, FloatData, Precision};
pub use error::{Error, Result};
pub use metrics::Measurement;
pub use pipeline::Pipeline;
pub use pool::{PoolConfig, Ticket, WorkerPool};
pub use registry::{CodecRegistry, RegistryEntry};
pub use runner::{run_cell, run_matrix, CellOutcome, NamedData, RunConfig, RunMatrix};
pub use stream::{FrameReader, FrameWriter};
