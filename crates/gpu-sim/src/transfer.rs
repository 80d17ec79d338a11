//! Host↔device transfer cost model and per-device ledger.
//!
//! GPU compression in the paper is measured two ways: kernel-only
//! throughput (Table 5 / Fig. 8, where GPUs win by ~350×) and end-to-end
//! wall time *including* host-to-device copies (Table 6, where
//! bitshuffle on the CPU becomes competitive and ndzip-CPU beats
//! ndzip-GPU). The simulator reproduces that distinction by modelling
//! every `h2d`/`d2h` against link bandwidth + latency and accumulating the
//! cost in a ledger the codecs expose through
//! `fcbench_core`-style aux-time reporting.

use crate::config::GpuConfig;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Direction of a modelled copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    HostToDevice,
    DeviceToHost,
}

/// One modelled transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    pub dir: Dir,
    pub bytes: usize,
    pub seconds: f64,
}

/// Accumulates modelled transfers; cleared per operation by the codecs.
#[derive(Debug, Default)]
pub struct TransferLedger {
    inner: Mutex<Vec<Transfer>>,
}

impl TransferLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded transfers. A poisoned lock is recovered: every update
    /// is a single push or take, so the list is valid at every step.
    fn entries(&self) -> MutexGuard<'_, Vec<Transfer>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Model a copy of `bytes` in direction `dir` and record it.
    pub fn record(&self, cfg: &GpuConfig, dir: Dir, bytes: usize) -> f64 {
        let seconds = cfg.transfer_latency_s + bytes as f64 / (cfg.pcie_gbs * 1e9);
        self.entries().push(Transfer {
            dir,
            bytes,
            seconds,
        });
        seconds
    }

    /// Total modelled seconds per direction since the last [`Self::drain`].
    pub fn totals(&self) -> (f64, f64) {
        let inner = self.entries();
        let h2d = inner
            .iter()
            .filter(|t| t.dir == Dir::HostToDevice)
            .map(|t| t.seconds)
            .sum();
        let d2h = inner
            .iter()
            .filter(|t| t.dir == Dir::DeviceToHost)
            .map(|t| t.seconds)
            .sum();
        (h2d, d2h)
    }

    /// Clear and return all recorded transfers.
    pub fn drain(&self) -> Vec<Transfer> {
        std::mem::take(&mut *self.entries())
    }

    /// Number of recorded transfers.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_bytes() {
        let cfg = GpuConfig::tiny(); // 1 GB/s, 1 µs latency
        let ledger = TransferLedger::new();
        let t1 = ledger.record(&cfg, Dir::HostToDevice, 1_000_000);
        // 1 MB at 1 GB/s = 1 ms (+1 µs latency)
        assert!((t1 - 0.001_001).abs() < 1e-9);
        let t2 = ledger.record(&cfg, Dir::DeviceToHost, 2_000_000);
        assert!(t2 > t1);
        assert_eq!(ledger.len(), 2);
    }

    #[test]
    fn latency_dominates_small_copies() {
        let cfg = GpuConfig::rtx6000();
        let ledger = TransferLedger::new();
        let t = ledger.record(&cfg, Dir::HostToDevice, 8);
        assert!(t >= cfg.transfer_latency_s);
        assert!(t < 2.0 * cfg.transfer_latency_s);
    }

    #[test]
    fn totals_split_by_direction() {
        let cfg = GpuConfig::tiny();
        let ledger = TransferLedger::new();
        ledger.record(&cfg, Dir::HostToDevice, 1_000_000);
        ledger.record(&cfg, Dir::HostToDevice, 1_000_000);
        ledger.record(&cfg, Dir::DeviceToHost, 1_000_000);
        let (h2d, d2h) = ledger.totals();
        assert!(h2d > d2h);
        assert!((h2d - 2.0 * d2h).abs() < 1e-6);
    }

    #[test]
    fn drain_empties_the_ledger() {
        let cfg = GpuConfig::tiny();
        let ledger = TransferLedger::new();
        ledger.record(&cfg, Dir::HostToDevice, 100);
        let drained = ledger.drain();
        assert_eq!(drained.len(), 1);
        assert!(ledger.is_empty());
        assert_eq!(ledger.totals(), (0.0, 0.0));
    }
}
