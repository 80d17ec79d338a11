//! Simulated GPU device properties.
//!
//! Defaults model the paper's test card, an NVIDIA Quadro RTX 6000
//! (§5.5): 72 SMs and a PCIe 3.0 ×16 host link (~12 GB/s effective) whose
//! cost drives the paper's "host-to-device is slow" observation. The card's
//! Fig. 11b roofline ceilings belong to the harness's roofline model
//! (`MachineModel::rtx_6000`); nothing in the simulator reads them.

/// Static properties of the simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors (parallel block slots).
    pub sm_count: usize,
    /// Host↔device link bandwidth in GB/s.
    pub pcie_gbs: f64,
    /// Per-transfer fixed latency in seconds (driver + DMA setup).
    pub transfer_latency_s: f64,
}

impl GpuConfig {
    /// The paper's Quadro RTX 6000.
    pub fn rtx6000() -> Self {
        GpuConfig {
            sm_count: 72,
            pcie_gbs: 12.0,
            transfer_latency_s: 10e-6,
        }
    }

    /// A small device for tests (two SMs, slow link) so limits trigger.
    pub fn tiny() -> Self {
        GpuConfig {
            sm_count: 2,
            pcie_gbs: 1.0,
            transfer_latency_s: 1e-6,
        }
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::rtx6000()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtx6000_matches_paper_rooflines() {
        let c = GpuConfig::rtx6000();
        assert_eq!(c.sm_count, 72);
        assert!((c.pcie_gbs - 12.0).abs() < 1e-9);
    }

    #[test]
    fn default_is_rtx6000() {
        assert_eq!(GpuConfig::default(), GpuConfig::rtx6000());
    }
}
