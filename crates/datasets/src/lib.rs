//! # fcbench-datasets
//!
//! Synthetic stand-ins for the 33 real-world datasets of FCBench's
//! Table 3 (the originals are multi-GB downloads; DESIGN.md documents the
//! substitution). Three pieces:
//!
//! - [`catalog()`] — the full Table 3 transcription (name, domain,
//!   precision, size, value entropy, extent) plus the scaling rule;
//! - [`generate`] — deterministic per-dataset generators reproducing domain
//!   structure, decimal representability (BUFF's Table 4 pattern), and
//!   the entropy targets;
//! - [`value_entropy`] — the value-entropy estimator matching the Table 3
//!   column.
//!
//! A [`NamedData`] is one dataset by name, the column type of the
//! benchmark run matrix.

#![forbid(unsafe_code)]

mod catalog;
mod entropy;
mod gen;

pub use catalog::{catalog, find, DatasetSpec, Family};
pub use entropy::{scaled_target, value_entropy};
pub use gen::generate;

use fcbench_core::FloatData;

/// A named dataset instance: what the benchmark runner takes as one
/// column of its matrix.
pub struct NamedData {
    pub name: String,
    pub data: FloatData,
}

impl NamedData {
    pub fn new(name: impl Into<String>, data: FloatData) -> Self {
        NamedData {
            name: name.into(),
            data,
        }
    }
}
