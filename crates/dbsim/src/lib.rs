//! # fcbench-dbsim
//!
//! The paper's simulated in-memory database (§5.1.2, Figure 4): an
//! HDF5-style chunked columnar container on disk and an in-memory
//! [`DataFrame`] with histogram-driven full-table scans. These are the three
//! primitives behind Table 11 and the block-size study of Table 10 — file
//! I/O ([`read_container`]), decode ([`CompressedColumn::decode_pooled`])
//! and query ([`DataFrame::run_scan_benchmark`]); the paper harness times
//! them. Every page is compressed and decoded as a job on the
//! [`WorkerPool`](fcbench_core::pool::WorkerPool) engine.
//!
//! A table read back with [`read_container`] holds the file's bytes once;
//! each [`CompressedColumn`] hands out its compressed pages as slices of
//! that image through [`chunks`](CompressedColumn::chunks), every one already checked against
//! its record's checksum and the commit directory.
//!
//! As the paper notes, this deliberately oversimplifies a real database —
//! no joins, no updates — to "bypass the substantial engineering efforts
//! needed to integrate compressors into an actual database system".

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

mod container;
mod dataframe;

/// The crate-wide telemetry registry: container write/commit timing,
/// crash-recovery outcomes, and cursor read-ahead behaviour all land
/// here, so one exposition dump covers the whole database-scenario
/// layer. (Free functions like [`read_container`] have no engine handle
/// to hang metrics off, hence a process-wide registry rather than a
/// per-pool one.)
pub mod metrics {
    use fcbench_telemetry::Registry;
    use std::sync::{Arc, LazyLock};

    static REGISTRY: LazyLock<Arc<Registry>> = LazyLock::new(|| Arc::new(Registry::new()));

    /// The process-wide dbsim registry.
    pub fn registry() -> &'static Arc<Registry> {
        &REGISTRY
    }
}

pub use container::{
    parse_container, read_container, write_container_pooled, ColumnCursor, ColumnData,
    CompressedColumn, CompressedTable, ContainerRead, ContainerWriter, RecoveryOutcome,
};
pub use dataframe::{Column, DataFrame};
