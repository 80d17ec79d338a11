//! ndzip-GPU (Knorr, Thoman & Fahringer, SC 2021; paper §4.4).
//!
//! The pipeline is identical to ndzip-CPU — hypercube decomposition,
//! integer Lorenzo transform, bit transpose, zero-word removal — so this
//! codec reuses those exact kernels from `fcbench-codecs-cpu`. What
//! changes is the schedule: one thread block per hypercube on the
//! simulated GPU, encoded chunks first written to per-cube scratch, then a
//! **parallel prefix sum** over chunk sizes yields the output offsets, and
//! a final pass copies chunks into place. The offsets table is stored in
//! the stream, making decompression fully block-parallel without
//! synchronization (§4.4 insight).
//!
//! Payload: `u32 ncubes | per-cube u64 offset (prefix sums) | u64 body len |
//! cube bodies | border words`.

use crate::{exclusive_prefix_sum, Gpu, GpuConfig};
use fcbench_codecs_cpu::ndzip::Ndzip;
use fcbench_core::wire::Cursor;
use fcbench_core::{
    CodecClass, CodecInfo, Community, Compressor, DataDesc, FloatData, Platform, PrecisionSupport,
    Result,
};

/// The ndzip-GPU codec.
pub struct NdzipGpu {
    gpu: Gpu,
    /// CPU-side geometry and cube kernels.
    geometry: Ndzip,
}

impl Default for NdzipGpu {
    fn default() -> Self {
        Self::new()
    }
}

impl NdzipGpu {
    pub fn new() -> Self {
        NdzipGpu {
            gpu: Gpu::new(GpuConfig::default()),
            geometry: Ndzip::new(),
        }
    }
}

impl Compressor for NdzipGpu {
    fn info(&self) -> CodecInfo {
        CodecInfo {
            name: "ndzip-gpu",
            year: 2021,
            community: Community::Hpc,
            class: CodecClass::Lorenzo,
            platform: Platform::Gpu,
            parallel: true,
            precisions: PrecisionSupport::Both,
        }
    }

    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        let plan = self.geometry.plan(data.desc());

        // One thread block per hypercube writes to private scratch.
        let mut scratch: Vec<_> = (0..plan.count()).map(|k| (k, Vec::new())).collect();
        self.gpu
            .launch(&mut scratch, data.bytes().len(), |(k, out)| {
                plan.encode_cube(*k, data.bytes(), out)
            });

        // Parallel prefix sum over chunk sizes -> output offsets.
        let sizes: Vec<u64> = scratch.iter().map(|(_, s)| s.len() as u64).collect();
        let body_len: u64 = sizes.iter().sum();

        out.clear();
        out.extend_from_slice(&(scratch.len() as u32).to_le_bytes());
        for offset in exclusive_prefix_sum(&sizes) {
            out.extend_from_slice(&offset.to_le_bytes());
        }
        out.extend_from_slice(&body_len.to_le_bytes());
        for (_, s) in &scratch {
            out.extend_from_slice(s);
        }
        plan.put_border(data.bytes(), out);
        Ok(out.len())
    }

    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        // The descriptor is untrusted (the runner and other direct callers
        // hand it over unchecked): reject implausible output claims before
        // anything is reserved against them.
        fcbench_core::blocks::check_decode_claim(desc, payload.len())?;
        let plan = self.geometry.plan(desc);
        let mut cur = Cursor::new("ndzip-gpu", payload);
        let ncubes = cur.len32("cube count")?;
        if ncubes != plan.count() {
            return Err(cur.corrupt("cube count mismatch"));
        }
        // Block-parallel decode: each cube knows its slice via the offsets.
        let bodies = cur.take_chunks_at_offsets(ncubes)?;
        let mut cubes: Vec<_> = bodies.into_iter().map(|b| (b, Ok(Vec::new()))).collect();
        self.gpu
            .launch(&mut cubes, desc.byte_len(), |(body, cube)| {
                *cube = plan.decode_cube(body)
            });
        plan.assemble(desc, cubes.into_iter().map(|(_, cube)| cube), cur, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::Domain;

    fn round_trip(data: &FloatData) -> usize {
        let codec = NdzipGpu::new();
        let c = codec.compress(data).unwrap();
        let back = codec.decompress(&c, data.desc()).unwrap();
        assert_eq!(back.bytes(), data.bytes());
        c.len()
    }

    #[test]
    fn matches_cpu_ratio_exactly() {
        // Same pipeline => same compressed sizes (modulo container format).
        let vals: Vec<f32> = (0..32 * 32 * 32)
            .map(|i| ((i % 4096) as f32 * 0.125).floor())
            .collect();
        let data = FloatData::from_f32(&vals, vec![32, 32, 32], Domain::Hpc).unwrap();
        let gpu_size = round_trip(&data);
        let cpu = fcbench_codecs_cpu::Ndzip::new();
        let cpu_size = cpu.compress(&data).unwrap().len();
        let diff = (gpu_size as i64 - cpu_size as i64).abs();
        assert!(
            diff < 1024,
            "GPU ({gpu_size}) and CPU ({cpu_size}) should compress near-identically"
        );
    }

    #[test]
    fn grids_of_all_dimensionalities() {
        let vals1: Vec<f64> = (0..9000).map(|i| (i / 5) as f64).collect();
        round_trip(&FloatData::from_f64(&vals1, vec![9000], Domain::Hpc).unwrap());
        let vals2: Vec<f64> = (0..128 * 72).map(|i| (i % 128) as f64).collect();
        round_trip(&FloatData::from_f64(&vals2, vec![72, 128], Domain::Hpc).unwrap());
        let vals3: Vec<f32> = (0..20 * 18 * 17).map(|i| i as f32).collect();
        round_trip(&FloatData::from_f32(&vals3, vec![20, 18, 17], Domain::Hpc).unwrap());
    }

    #[test]
    fn special_values() {
        let mut vals = vec![2.5f64; 4096];
        vals[17] = f64::NAN;
        vals[400] = f64::INFINITY;
        vals[4000] = -0.0;
        let data = FloatData::from_f64(&vals, vec![4096], Domain::Hpc).unwrap();
        round_trip(&data);
    }

    #[test]
    fn corruption_rejected() {
        let codec = NdzipGpu::new();
        let vals: Vec<f64> = (0..8192).map(|i| (i * 7 % 997) as f64).collect();
        let data = FloatData::from_f64(&vals, vec![8192], Domain::Hpc).unwrap();
        let c = codec.compress(&data).unwrap();
        assert!(codec.decompress(&c[..10], data.desc()).is_err());
        assert!(codec.decompress(&c[..c.len() - 2], data.desc()).is_err());
        let mut extra = c.clone();
        extra.push(0xEE);
        assert!(codec.decompress(&extra, data.desc()).is_err());
    }

    #[test]
    fn info_matches_table1() {
        let info = NdzipGpu::new().info();
        assert_eq!(info.name, "ndzip-gpu");
        assert_eq!(info.platform, Platform::Gpu);
        assert_eq!(info.class, CodecClass::Lorenzo);
    }
}
