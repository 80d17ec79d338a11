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
//! All model host↔device transfer cost, surfaced via
//! [`fcbench_core::Compressor::last_aux_time`] for the paper's Table 6
//! end-to-end wall times.

#![forbid(unsafe_code)]

pub mod gfc;
pub mod mpc;
pub mod ndzip_gpu;
pub mod nvcomp;

use std::sync::{Mutex, PoisonError};

/// Last-completed-call transfer times for a GPU codec instance.
///
/// The transfer ledger is per call, not per instance: the registry shares
/// one codec `Arc` across pipeline workers, so concurrent calls must not
/// interleave their transfer records. This slot stays single: under
/// concurrent calls it holds the most recently *completed* call's coherent
/// totals (last writer wins), which is all
/// [`fcbench_core::Compressor::last_aux_time`] promises. A poisoned lock is
/// recovered: the slot is one `Copy` value, valid whenever it is visible.
pub(crate) struct AuxSlot(Mutex<fcbench_core::AuxTime>);

impl AuxSlot {
    pub(crate) fn new() -> Self {
        AuxSlot(Mutex::new(fcbench_core::AuxTime::default()))
    }

    pub(crate) fn store(&self, ledger: &fcbench_gpu_sim::TransferLedger) {
        let (h2d, d2h) = ledger.totals();
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = fcbench_core::AuxTime {
            h2d_seconds: h2d,
            d2h_seconds: d2h,
        };
    }

    pub(crate) fn get(&self) -> fcbench_core::AuxTime {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

pub use gfc::Gfc;
pub use mpc::Mpc;
pub use ndzip_gpu::NdzipGpu;
pub use nvcomp::{NvBitcomp, NvLz4};
