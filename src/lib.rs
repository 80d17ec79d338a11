//! # fcbench
//!
//! Umbrella crate for **FCBench-rs** — a pure-Rust reproduction of
//! *"FCBench: Cross-Domain Benchmarking of Lossless Compression for
//! Floating-Point Data"* (VLDB 2024, arXiv:2312.10301).
//!
//! Re-exports every subsystem crate under one roof so examples, integration
//! tests, and downstream users have a single dependency:
//!
//! - [`core`] — data model, `Compressor` trait, codec registry, frames,
//!   worker-pool engine
//! - [`entropy`] — bit I/O, LZ4, LZ77, Huffman, range & arithmetic coders
//! - [`cpu`] — fpzip, SPDP, BUFF, Gorilla, Chimp, pFPC, bitshuffle, ndzip
//! - [`gpu`] — GFC, MPC, nv-lz4, nv-bitcomp, ndzip-GPU on the simulator
//! - [`gpu_sim`] — that simulator and its host↔device transfer pricing
//! - [`datasets`] — the 33 synthetic FCBench datasets
//! - [`dbsim`] — simulated in-memory database (container, dataframe, scans)
//! - [`serve`] — the `FCS1` network compression service over the shared
//!   worker-pool engine
//! - [`stats`] — `fcbench-bench`'s Friedman/Nemenyi/Mann-Whitney
//!   statistics
//!
//! ## Quickstart
//!
//! ```
//! use fcbench::core::{Compressor, FloatData, Domain};
//! use fcbench::cpu::Gorilla;
//!
//! let values: Vec<f64> = (0..1024).map(|i| 20.0 + (i as f64 * 0.01).sin()).collect();
//! let data = FloatData::from_f64(&values, vec![values.len()], Domain::TimeSeries).unwrap();
//!
//! let codec = Gorilla::new();
//! let compressed = codec.compress(&data).unwrap();
//! let restored = codec.decompress(&compressed, data.desc()).unwrap();
//! assert_eq!(restored.bytes(), data.bytes());
//! assert!(compressed.len() < data.bytes().len());
//! ```

#![forbid(unsafe_code)]

pub use fcbench_bench::stats;
pub use fcbench_codecs_cpu as cpu;
pub use fcbench_codecs_gpu as gpu;
pub use fcbench_core as core;
pub use fcbench_datasets as datasets;
pub use fcbench_dbsim as dbsim;
pub use fcbench_entropy as entropy;
pub use fcbench_serve as serve;

/// The SIMT simulator the GPU codecs run on, and its transfer pricing.
pub mod gpu_sim {
    pub use fcbench_codecs_gpu::{exclusive_prefix_sum, Gpu, GpuConfig};
}
