//! # fcbench-core
//!
//! Core abstractions for **FCBench-rs**, a pure-Rust reproduction of
//! *"FCBench: Cross-Domain Benchmarking of Lossless Compression for
//! Floating-Point Data"* (VLDB 2024).
//!
//! This crate defines:
//!
//! - the floating-point data model, [`FloatData`] and its [`DataDesc`]
//!   (precision, domain, shape);
//! - the [`Compressor`] trait with the Table 1 taxonomy: `info` plus the
//!   buffer-reusing `compress_into`/`decompress_into` pair, with the
//!   allocating forms provided on top;
//! - the [codec registry](registry) (lookup by name, filtering by platform
//!   and capability);
//! - the self-describing [`FCB3` frame](frame): fixed-size blocks
//!   compressed independently, each behind its own length;
//! - the persistent [worker-pool execution engine](pool) every compression
//!   job runs on;
//! - [streaming frame I/O](stream) for datasets that exceed memory, over
//!   the writer and reader block pumps every stream in the workspace runs
//!   on, and the block-parallel [`Pipeline`], its whole-buffer form;
//! - the [block sizes](blocks) of the Table 10 experiment and the
//!   plausibility gate every block decode passes;
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
//! codec-agnostic. The paper's measurement harness (run matrix, metrics,
//! summaries, thread-scaling sweeps) lives in `fcbench-bench`.

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

pub mod blocks;
pub mod codec;
mod data;
mod error;
pub mod fault;
pub mod frame;
mod pipeline;
pub mod pool;
pub mod registry;
pub mod stream;
pub mod sync;
#[cfg(test)]
mod testing;
pub mod wire;

/// The zero-alloc telemetry spine every layer records into, re-exported
/// so downstream users (and the umbrella crate's tests) can construct a
/// [`Registry`](fcbench_telemetry::Registry) without naming the crate.
pub use fcbench_telemetry as telemetry;

pub use codec::{CodecClass, CodecInfo, Community, Compressor, Platform, PrecisionSupport};
pub use data::{DataDesc, Domain, FloatData, Precision};
pub use error::{Error, Result};
pub use pipeline::Pipeline;
pub use pool::{PoolConfig, Ticket, WorkerPool};
pub use registry::{CodecRegistry, RegistryEntry};
pub use stream::{FrameReader, FrameWriter};
