//! # fcbench-dbsim
//!
//! The paper's simulated in-memory database (§5.1.2, Figure 4): an
//! HDF5-style chunked columnar [container] on disk, an
//! in-memory [dataframe] with histogram-driven full-table
//! scans, and the [three-primitive timer](bench3) (file I/O, decode,
//! query) behind Table 11 and the block-size study of Table 10.
//!
//! A table read back with [`read_container`] holds the file's bytes once;
//! each [`CompressedColumn`] hands out its compressed pages as slices of
//! that image through [`chunk`](CompressedColumn::chunk) and
//! [`chunks`](CompressedColumn::chunks), every one already checked against
//! its record's checksum and the commit directory.
//!
//! As the paper notes, this deliberately oversimplifies a real database —
//! no joins, no updates — to "bypass the substantial engineering efforts
//! needed to integrate compressors into an actual database system".

#![forbid(unsafe_code)]

pub mod bench3;
pub mod container;
pub mod dataframe;

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

pub use bench3::{measure_three_primitives, measure_three_primitives_pooled, ThreePrimitives};
pub use container::{
    parse_container, read_container, write_container, write_container_pooled, ChunkExec,
    ColumnCursor, ColumnData, CompressedColumn, CompressedTable, ContainerRead, ContainerWriter,
    RecoveryOutcome,
};
pub use dataframe::{Column, DataFrame};
