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

use fcbench_codecs_cpu::common::effective_dims;
use fcbench_codecs_cpu::common::{push_u32, push_u64, read_u32, read_u64};
use fcbench_codecs_cpu::ndzip::{
    decode_cube, encode_cube, lorenzo_forward, lorenzo_inverse, plan_cubes, words_of, Ndzip,
};
use fcbench_core::{
    AuxTime, CodecClass, CodecInfo, Community, Compressor, DataDesc, Error, FloatData, OpProfile,
    Platform, Precision, PrecisionSupport, Result,
};
use fcbench_gpu_sim::{exclusive_prefix_sum, Dir, Gpu, GpuConfig, TransferLedger};

/// The ndzip-GPU codec.
pub struct NdzipGpu {
    gpu: Gpu,
    last_aux: crate::AuxSlot,
    /// CPU-side geometry helper (cube sides per dimensionality).
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
            last_aux: crate::AuxSlot::new(),
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
        let ledger = TransferLedger::new();
        ledger.record(self.gpu.config(), Dir::HostToDevice, data.bytes().len());
        let desc = data.desc();
        let elem_bits = desc.precision.bits();
        let esize = desc.precision.bytes();
        let dims = effective_dims(desc);
        let sides = self.geometry.cube_sides(dims.len());
        let plan = plan_cubes(&dims, &sides);
        let words = words_of(data);

        // One thread block per hypercube writes to private scratch.
        let items: Vec<Vec<u64>> = plan
            .cube_indices
            .iter()
            .map(|idxs| idxs.iter().map(|&i| words[i]).collect())
            .collect();
        let sides_ref = &plan.sides;
        let (scratch, _stats) = self.gpu.launch(items, |ctx, mut cube| {
            ctx.report_instructions(cube.len() as u64 * 6);
            lorenzo_forward(&mut cube, sides_ref, elem_bits as u32);
            let mut out = Vec::with_capacity(cube.len() * esize);
            encode_cube(&cube, elem_bits, &mut out);
            out
        });

        // Parallel prefix sum over chunk sizes -> output offsets.
        let sizes: Vec<u64> = scratch.iter().map(|s| s.len() as u64).collect();
        let offsets = exclusive_prefix_sum(&sizes);
        let body_len: u64 = sizes.iter().sum();

        out.clear();
        push_u32(out, scratch.len() as u32);
        for &off in &offsets {
            push_u64(out, off);
        }
        push_u64(out, body_len);
        for s in &scratch {
            out.extend_from_slice(s);
        }
        for &i in &plan.border {
            out.extend_from_slice(&words[i].to_le_bytes()[..esize]);
        }

        ledger.record(self.gpu.config(), Dir::DeviceToHost, out.len());
        self.last_aux.store(&ledger);
        Ok(out.len())
    }

    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        // The descriptor is untrusted (the runner and other direct callers
        // hand it over unchecked): reject implausible output claims before
        // anything is reserved against them.
        fcbench_core::blocks::check_decode_claim(desc, payload.len())?;
        let ledger = TransferLedger::new();
        ledger.record(self.gpu.config(), Dir::HostToDevice, payload.len());
        let elem_bits = desc.precision.bits();
        let esize = desc.precision.bytes();
        let dims = effective_dims(desc);
        let sides = self.geometry.cube_sides(dims.len());
        let plan = plan_cubes(&dims, &sides);
        let cube_elems: usize = sides.iter().product();

        let mut pos = 0usize;
        let ncubes = read_u32(payload, &mut pos)
            .ok_or_else(|| Error::Corrupt("ndzip-gpu: missing cube count".into()))?
            as usize;
        if ncubes != plan.cube_indices.len() {
            return Err(Error::Corrupt("ndzip-gpu: cube count mismatch".into()));
        }
        let mut offsets = Vec::with_capacity(ncubes);
        for _ in 0..ncubes {
            offsets.push(
                read_u64(payload, &mut pos)
                    .ok_or_else(|| Error::Corrupt("ndzip-gpu: offsets truncated".into()))?
                    as usize,
            );
        }
        let body_len = read_u64(payload, &mut pos)
            .ok_or_else(|| Error::Corrupt("ndzip-gpu: missing body length".into()))?
            as usize;
        let body = payload
            .get(pos..pos + body_len)
            .ok_or_else(|| Error::Corrupt("ndzip-gpu: body truncated".into()))?;
        pos += body_len;

        // Offsets must be monotone within the body.
        for w in offsets.windows(2) {
            if w[0] > w[1] {
                return Err(Error::Corrupt("ndzip-gpu: offsets not monotone".into()));
            }
        }
        if let Some(&first) = offsets.first() {
            if first != 0 {
                return Err(Error::Corrupt("ndzip-gpu: first offset not zero".into()));
            }
        }

        // Block-parallel decode: each cube knows its slice via the offsets.
        let items: Vec<&[u8]> = (0..ncubes)
            .map(|k| {
                let start = offsets[k];
                let end = if k + 1 < ncubes {
                    offsets[k + 1]
                } else {
                    body_len
                };
                &body[start..end.min(body_len)]
            })
            .collect();
        let sides_ref = &plan.sides;
        let (results, _stats) = self.gpu.launch(items, |_ctx, slice| -> Result<Vec<u64>> {
            let mut local = 0usize;
            let mut cube = decode_cube(slice, &mut local, cube_elems, elem_bits)?;
            if local != slice.len() {
                return Err(Error::Corrupt(
                    "ndzip-gpu: cube slice has trailing bytes".into(),
                ));
            }
            lorenzo_inverse(&mut cube, sides_ref, elem_bits as u32);
            Ok(cube)
        });

        let mut out_words = vec![0u64; desc.elements()];
        for (k, r) in results.into_iter().enumerate() {
            let cube = r?;
            for (&i, &w) in plan.cube_indices[k].iter().zip(cube.iter()) {
                out_words[i] = w;
            }
        }
        for &i in &plan.border {
            let raw = payload
                .get(pos..pos + esize)
                .ok_or_else(|| Error::Corrupt("ndzip-gpu: border truncated".into()))?;
            let mut le = [0u8; 8];
            le[..esize].copy_from_slice(raw);
            out_words[i] = u64::from_le_bytes(le);
            pos += esize;
        }
        if pos != payload.len() {
            return Err(Error::Corrupt("ndzip-gpu: trailing bytes".into()));
        }

        out.refill(desc, |bytes| {
            bytes.reserve(desc.byte_len());
            match desc.precision {
                Precision::Double => {
                    for w in out_words {
                        bytes.extend_from_slice(&w.to_le_bytes());
                    }
                }
                Precision::Single => {
                    for w in out_words {
                        bytes.extend_from_slice(&(w as u32).to_le_bytes());
                    }
                }
            }
            Ok(())
        })?;
        ledger.record(self.gpu.config(), Dir::DeviceToHost, out.bytes().len());
        self.last_aux.store(&ledger);
        Ok(())
    }

    fn last_aux_time(&self) -> AuxTime {
        self.last_aux.get()
    }

    fn op_profile(&self, desc: &DataDesc) -> Option<OpProfile> {
        // Same dominant kernel as ndzip-CPU (transpose + compact), higher
        // parallelism. Compute-bound (§6.3).
        let n = desc.elements() as u64;
        let bits = (desc.byte_len() * 8) as u64;
        Some(OpProfile {
            int_ops: 3 * bits + 3 * n,
            float_ops: 0,
            bytes_moved: 3 * desc.byte_len() as u64,
        })
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
    fn aux_time_modelled() {
        let codec = NdzipGpu::new();
        let vals: Vec<f64> = (0..8192).map(|i| i as f64).collect();
        let data = FloatData::from_f64(&vals, vec![8192], Domain::Hpc).unwrap();
        let _ = codec.compress(&data).unwrap();
        let aux = codec.last_aux_time();
        assert!(aux.h2d_seconds > 0.0 && aux.d2h_seconds > 0.0);
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
