//! # fcbench-roofline
//!
//! The roofline performance model of §5.1.3 / §6.3 (Williams et al. 2009):
//! a kernel is plotted by its arithmetic intensity (operations per byte of
//! memory traffic) against achieved performance; the "roof" is the lower
//! envelope of the compute ceiling and `intensity × bandwidth`. Dots near
//! the bandwidth roof are memory-bound, dots under the compute ceiling but
//! far below the bandwidth line are compute/latency-bound.
//!
//! Machine ceilings default to the paper's Figure 11 numbers for the
//! Xeon Gold 6126 (CPU, integer-op axis) and Quadro RTX 6000 (GPU,
//! FLOP axis).

#![forbid(unsafe_code)]

/// Analytic operation/byte counts for one full pass of a kernel over a
/// dataset. A codec is placed by its dominant kernel ("the most expensive
/// function/loop that consumes greater than 40% of computation time",
/// Fig. 11 caption).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpProfile {
    /// Integer ALU operations executed by the dominant kernel.
    pub int_ops: u64,
    /// Floating-point operations executed by the dominant kernel.
    pub float_ops: u64,
    /// Bytes moved to/from memory by the dominant kernel.
    pub bytes_moved: u64,
}

/// A named straight-line ceiling.
#[derive(Debug, Clone, PartialEq)]
pub struct Ceiling {
    pub label: String,
    /// GOP/s for compute ceilings, GB/s for bandwidth ceilings.
    pub value: f64,
}

/// Machine model: compute ceilings (horizontal lines) and bandwidth
/// ceilings (diagonal lines through the origin in log-log space).
#[derive(Debug, Clone)]
pub struct MachineModel {
    pub name: String,
    pub compute: Vec<Ceiling>,
    pub bandwidth: Vec<Ceiling>,
}

impl MachineModel {
    /// The paper's CPU: Intel Xeon Gold 6126 (Fig. 11a ceilings).
    pub fn xeon_gold_6126() -> Self {
        MachineModel {
            name: "Xeon Gold 6126".to_string(),
            compute: vec![
                Ceiling {
                    label: "Int-Scalar".into(),
                    value: 191.0,
                },
                Ceiling {
                    label: "Float-Scalar".into(),
                    value: 157.8,
                },
            ],
            bandwidth: vec![
                Ceiling {
                    label: "L1".into(),
                    value: 11_000.0,
                },
                Ceiling {
                    label: "L2".into(),
                    value: 5_508.8,
                },
                Ceiling {
                    label: "L3".into(),
                    value: 640.1,
                },
                Ceiling {
                    label: "DRAM".into(),
                    value: 214.5,
                },
            ],
        }
    }

    /// The paper's GPU: NVIDIA Quadro RTX 6000 (Fig. 11b ceilings).
    pub fn rtx_6000() -> Self {
        MachineModel {
            name: "RTX 6000".to_string(),
            compute: vec![
                Ceiling {
                    label: "single-precision".into(),
                    value: 13_325.8,
                },
                Ceiling {
                    label: "double-precision".into(),
                    value: 416.4,
                },
            ],
            bandwidth: vec![Ceiling {
                label: "DRAM".into(),
                value: 621.5,
            }],
        }
    }

    /// The lowest compute ceiling (the binding one for scalar codecs).
    pub fn compute_roof(&self) -> f64 {
        self.compute
            .iter()
            .map(|c| c.value)
            .fold(f64::INFINITY, f64::min)
    }

    /// The DRAM (lowest) bandwidth ceiling.
    pub fn dram_roof(&self) -> f64 {
        self.bandwidth
            .iter()
            .map(|c| c.value)
            .fold(f64::INFINITY, f64::min)
    }

    /// Attainable performance (GOP/s) at `intensity` ops/byte under the
    /// DRAM roof and the *highest* compute ceiling.
    pub fn attainable(&self, intensity: f64) -> f64 {
        let compute_max = self.compute.iter().map(|c| c.value).fold(0.0f64, f64::max);
        (intensity * self.dram_roof()).min(compute_max)
    }

    /// The ridge point: intensity where the DRAM roof meets the highest
    /// compute ceiling.
    pub fn ridge_intensity(&self) -> f64 {
        let compute_max = self.compute.iter().map(|c| c.value).fold(0.0f64, f64::max);
        compute_max / self.dram_roof()
    }
}

/// What binds a kernel at its measured operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Close to `intensity × DRAM bandwidth`.
    MemoryBound,
    /// Close to a compute ceiling.
    ComputeBound,
    /// Far under both roofs (latency/serialization limited — the paper's
    /// "not bound by memory or computation" serial codecs, §6.3).
    Underutilized,
}

/// A dot on the roofline chart.
#[derive(Debug, Clone)]
pub struct RooflinePoint {
    pub name: String,
    /// Arithmetic intensity in ops/byte.
    pub intensity: f64,
    /// Achieved performance in GOP/s.
    pub performance: f64,
}

impl RooflinePoint {
    /// Place a codec: `profile` gives its per-run op counts, `seconds` the
    /// measured kernel time for that run. Uses the integer-op axis when
    /// the kernel is integer-dominated (all the CPU codecs; Fig. 11a),
    /// else the FLOP axis.
    pub fn from_profile(name: impl Into<String>, profile: &OpProfile, seconds: f64) -> Self {
        let (ops, bytes) = if profile.int_ops >= profile.float_ops {
            (profile.int_ops, profile.bytes_moved)
        } else {
            (profile.float_ops, profile.bytes_moved)
        };
        let intensity = if bytes == 0 {
            0.0
        } else {
            ops as f64 / bytes as f64
        };
        let performance = ops as f64 / seconds.max(f64::MIN_POSITIVE) / 1e9;
        RooflinePoint {
            name: name.into(),
            intensity,
            performance,
        }
    }

    /// Classify against `machine`: within `fraction` (e.g. 0.5) of the
    /// attainable roof counts as bound by whichever line is lower there.
    pub fn classify(&self, machine: &MachineModel, fraction: f64) -> Bound {
        let roof = machine.attainable(self.intensity);
        if self.performance < roof * fraction {
            return Bound::Underutilized;
        }
        if self.intensity < machine.ridge_intensity() {
            Bound::MemoryBound
        } else {
            Bound::ComputeBound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ceilings() {
        let cpu = MachineModel::xeon_gold_6126();
        assert!((cpu.dram_roof() - 214.5).abs() < 1e-9);
        assert!((cpu.compute_roof() - 157.8).abs() < 1e-9);
        let gpu = MachineModel::rtx_6000();
        assert!((gpu.dram_roof() - 621.5).abs() < 1e-9);
        assert!((gpu.attainable(1000.0) - 13_325.8).abs() < 1e-9);
    }

    #[test]
    fn attainable_is_min_of_roofs() {
        let m = MachineModel::xeon_gold_6126();
        // Low intensity: bandwidth-limited.
        assert!((m.attainable(0.1) - 21.45).abs() < 1e-9);
        // High intensity: compute-limited (highest ceiling = 191).
        assert!((m.attainable(100.0) - 191.0).abs() < 1e-9);
        // Ridge point continuity.
        let ridge = m.ridge_intensity();
        assert!((m.attainable(ridge) - 191.0).abs() < 1e-6);
    }

    #[test]
    fn placement_from_profile() {
        let profile = OpProfile {
            int_ops: 3_000_000,
            float_ops: 0,
            bytes_moved: 1_000_000,
        };
        // 3 ops/byte, 1 ms => 3 GOP/s.
        let p = RooflinePoint::from_profile("x", &profile, 1e-3);
        assert!((p.intensity - 3.0).abs() < 1e-12);
        assert!((p.performance - 3.0).abs() < 1e-9);
    }

    #[test]
    fn float_axis_used_for_float_kernels() {
        let profile = OpProfile {
            int_ops: 10,
            float_ops: 2_000_000,
            bytes_moved: 1_000_000,
        };
        let p = RooflinePoint::from_profile("f", &profile, 1e-3);
        assert!((p.intensity - 2.0).abs() < 1e-12);
    }

    #[test]
    fn classification_bands() {
        let m = MachineModel::xeon_gold_6126();
        // Memory-bound: low intensity, performance at the bandwidth roof.
        let fast_low = RooflinePoint {
            name: "bitshuffle-ish".into(),
            intensity: 0.5,
            performance: m.attainable(0.5) * 0.9,
        };
        assert_eq!(fast_low.classify(&m, 0.5), Bound::MemoryBound);
        // Compute-bound: beyond the ridge, near the ceiling.
        let ridge = m.ridge_intensity();
        let fast_high = RooflinePoint {
            name: "ndzip-ish".into(),
            intensity: ridge * 4.0,
            performance: 191.0 * 0.8,
        };
        assert_eq!(fast_high.classify(&m, 0.5), Bound::ComputeBound);
        // Serial codecs sit far below both roofs (§6.3 analysis (1)).
        let slow = RooflinePoint {
            name: "fpzip-ish".into(),
            intensity: 1.0,
            performance: 0.5,
        };
        assert_eq!(slow.classify(&m, 0.5), Bound::Underutilized);
    }

    #[test]
    fn zero_bytes_profile_is_safe() {
        let profile = OpProfile {
            int_ops: 10,
            float_ops: 0,
            bytes_moved: 0,
        };
        let p = RooflinePoint::from_profile("z", &profile, 1.0);
        assert_eq!(p.intensity, 0.0);
    }
}
