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

use fcbench_core::{AuxTime, Result};
use fcbench_gpu_sim::{Dir, Gpu, GpuConfig, TransferLedger};
use std::sync::{Mutex, PoisonError};

/// The simulated device as a codec holds it: the [`Gpu`] plus the
/// host↔device transfer times of the last completed call.
///
/// The transfer ledger is per call, not per instance: the registry shares
/// one codec `Arc` across pipeline workers, so concurrent calls must not
/// interleave their transfer records. The stored slot stays single: under
/// concurrent calls it holds the most recently *completed* call's coherent
/// totals (last writer wins), which is all
/// [`fcbench_core::Compressor::last_aux_time`] promises. A poisoned lock is
/// recovered: the slot is one `Copy` value, valid whenever it is visible.
pub(crate) struct Device {
    gpu: Gpu,
    last_aux: Mutex<AuxTime>,
}

impl Device {
    pub(crate) fn new(config: GpuConfig) -> Self {
        Device {
            gpu: Gpu::new(config),
            last_aux: Mutex::new(AuxTime::default()),
        }
    }

    /// Bracket one codec call: model the copy of `h2d_bytes` to the device,
    /// run `call` there, model the copy back of the byte count it returns,
    /// and publish both times. A failed call publishes nothing.
    pub(crate) fn run(
        &self,
        h2d_bytes: usize,
        call: impl FnOnce(&Gpu) -> Result<usize>,
    ) -> Result<usize> {
        let ledger = TransferLedger::new();
        ledger.record(self.gpu.config(), Dir::HostToDevice, h2d_bytes);
        let d2h_bytes = call(&self.gpu)?;
        ledger.record(self.gpu.config(), Dir::DeviceToHost, d2h_bytes);
        let (h2d_seconds, d2h_seconds) = ledger.totals();
        *self.last_aux.lock().unwrap_or_else(PoisonError::into_inner) = AuxTime {
            h2d_seconds,
            d2h_seconds,
        };
        Ok(d2h_bytes)
    }

    pub(crate) fn last_aux_time(&self) -> AuxTime {
        *self.last_aux.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

pub use gfc::Gfc;
pub use mpc::Mpc;
pub use ndzip_gpu::NdzipGpu;
pub use nvcomp::{NvBitcomp, NvLz4};
