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

/// Analytic operation/byte counts for one full pass of a kernel over a
/// dataset. A codec is placed by its dominant kernel ("the most expensive
/// function/loop that consumes greater than 40% of computation time",
/// Fig. 11 caption).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct OpProfile {
    /// Integer ALU operations executed by the dominant kernel.
    pub int_ops: u64,
    /// Floating-point operations executed by the dominant kernel.
    pub float_ops: u64,
    /// Bytes moved to/from memory by the dominant kernel.
    pub bytes_moved: u64,
}

/// Machine model: compute ceilings (horizontal lines, GOP/s) and bandwidth
/// ceilings (diagonal lines through the origin in log-log space, GB/s).
#[derive(Debug, Clone)]
pub(crate) struct MachineModel {
    pub name: String,
    pub compute: Vec<f64>,
    pub bandwidth: Vec<f64>,
}

impl MachineModel {
    /// The paper's CPU: Intel Xeon Gold 6126 (Fig. 11a ceilings).
    pub(crate) fn xeon_gold_6126() -> Self {
        MachineModel {
            name: "Xeon Gold 6126".to_string(),
            // Int-Scalar, Float-Scalar.
            compute: vec![191.0, 157.8],
            // L1, L2, L3, DRAM.
            bandwidth: vec![11_000.0, 5_508.8, 640.1, 214.5],
        }
    }

    /// The paper's GPU: NVIDIA Quadro RTX 6000 (Fig. 11b ceilings).
    pub(crate) fn rtx_6000() -> Self {
        MachineModel {
            name: "RTX 6000".to_string(),
            // Single precision, double precision.
            compute: vec![13_325.8, 416.4],
            // DRAM.
            bandwidth: vec![621.5],
        }
    }

    /// The DRAM (lowest) bandwidth ceiling.
    pub(crate) fn dram_roof(&self) -> f64 {
        self.bandwidth.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Attainable performance (GOP/s) at `intensity` ops/byte under the
    /// DRAM roof and the *highest* compute ceiling; at infinite intensity,
    /// that ceiling.
    pub(crate) fn attainable(&self, intensity: f64) -> f64 {
        let compute_max = self.compute.iter().copied().fold(0.0f64, f64::max);
        (intensity * self.dram_roof()).min(compute_max)
    }

    /// The ridge point: intensity where the DRAM roof meets the highest
    /// compute ceiling.
    pub(crate) fn ridge_intensity(&self) -> f64 {
        self.attainable(f64::INFINITY) / self.dram_roof()
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
pub(crate) struct RooflinePoint {
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
    pub(crate) fn from_profile(name: impl Into<String>, profile: &OpProfile, seconds: f64) -> Self {
        let (ops, bytes) = (profile.int_ops.max(profile.float_ops), profile.bytes_moved);
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
    pub(crate) fn classify(&self, machine: &MachineModel, fraction: f64) -> Bound {
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
