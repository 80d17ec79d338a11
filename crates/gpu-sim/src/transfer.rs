//! Host↔device transfer cost model.
//!
//! GPU compression in the paper is measured two ways: kernel-only
//! throughput (Table 5 / Fig. 8, where GPUs win by ~350×) and end-to-end
//! wall time *including* host-to-device copies (Table 6, where
//! bitshuffle on the CPU becomes competitive and ndzip-CPU beats
//! ndzip-GPU). A copy's cost is a pure function of its byte count — link
//! latency plus bytes over link bandwidth — so whoever holds the byte
//! counts of a call (the benchmark runner holds both) prices its copies
//! with [`GpuConfig::transfer_seconds`].

use crate::config::GpuConfig;

impl GpuConfig {
    /// Modelled seconds to copy `bytes` across the host↔device link in
    /// either direction: the fixed per-transfer latency plus the bytes at
    /// link bandwidth.
    pub fn transfer_seconds(&self, bytes: usize) -> f64 {
        self.transfer_latency_s + bytes as f64 / (self.pcie_gbs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_bytes() {
        let cfg = GpuConfig::tiny(); // 1 GB/s, 1 µs latency
        let t1 = cfg.transfer_seconds(1_000_000);
        // 1 MB at 1 GB/s = 1 ms (+1 µs latency)
        assert!((t1 - 0.001_001).abs() < 1e-9);
        let t2 = cfg.transfer_seconds(2_000_000);
        assert!(t2 > t1);
    }

    #[test]
    fn latency_dominates_small_copies() {
        let cfg = GpuConfig::rtx6000();
        let t = cfg.transfer_seconds(8);
        assert!(t >= cfg.transfer_latency_s);
        assert!(t < 2.0 * cfg.transfer_latency_s);
    }
}
