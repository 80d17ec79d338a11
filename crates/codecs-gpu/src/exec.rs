//! SIMT kernel execution: thread blocks scheduled over simulated SMs.
//!
//! The simulator executes a kernel as a grid of independent **thread
//! blocks** (the granularity at which every surveyed GPU compressor
//! parallelizes: GFC warps, MPC 1024-element chunks, ndzip hypercubes,
//! nvCOMP pages). Blocks are dispatched through the same
//! [`fan_out`] the CPU codecs' chunks use, with `sm_count` host threads
//! standing in for SMs: a launch over at most [`PARALLEL_BYTES`] of input
//! runs every block on the calling thread, a larger one on scoped threads.
//!
//! [`PARALLEL_BYTES`]: fcbench_core::wire::PARALLEL_BYTES

use crate::config::GpuConfig;
use fcbench_core::wire::fan_out;

/// The simulated device: a block scheduler over `sm_count` SMs.
pub struct Gpu {
    config: GpuConfig,
}

impl Gpu {
    pub fn new(config: GpuConfig) -> Self {
        Gpu { config }
    }

    /// Launch a kernel over `blocks`, one thread block per slot: the
    /// kernel reads its input from the slot and leaves its output there,
    /// the way the CPU codecs' chunk slots work. `input_bytes` is the
    /// call's input by the CPU codecs' convention — the raw bytes on
    /// compress, the descriptor's byte length on decode — and decides,
    /// through [`fan_out`] with `sm_count` threads, whether the blocks
    /// leave the calling thread. The kernel must be `Sync` (device code
    /// has no host state).
    pub fn launch<S: Send>(
        &self,
        blocks: &mut [S],
        input_bytes: usize,
        kernel: impl Fn(&mut S) + Sync,
    ) {
        fan_out(blocks, input_bytes, self.config.sm_count, |_, slot| {
            kernel(slot)
        });
    }
}

/// Work-efficient exclusive prefix sum (Blelloch scan) — the primitive
/// ndzip-GPU uses to compute per-chunk output offsets so decompression is
/// fully block-parallel (§4.4).
pub fn exclusive_prefix_sum(values: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(values.len());
    let mut acc = 0u64;
    for &v in values {
        out.push(acc);
        acc += v;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::wire::PARALLEL_BYTES;
    use std::thread;

    #[test]
    fn launch_preserves_order() {
        let gpu = Gpu::new(GpuConfig::tiny());
        let mut blocks: Vec<(u64, u64)> = (0..1000).map(|x| (x, 0)).collect();
        gpu.launch(&mut blocks, 0, |(x, y)| *y = *x * 2);
        assert!(blocks.iter().all(|&(x, y)| y == x * 2));
    }

    #[test]
    fn empty_launch() {
        let gpu = Gpu::new(GpuConfig::tiny());
        for input_bytes in [0, PARALLEL_BYTES + 1] {
            gpu.launch(&mut Vec::<u32>::new(), input_bytes, |_| {
                unreachable!("an empty grid runs no block")
            });
        }
    }

    #[test]
    fn block_ids_cover_grid() {
        // Up to PARALLEL_BYTES of input every block runs on the calling
        // thread; above it none does, and every slot is still run once, in
        // place.
        let gpu = Gpu::new(GpuConfig::tiny());
        let main = thread::current().id();
        let launch = |input_bytes| {
            let mut blocks: Vec<_> = (0..50).map(|k| (k, usize::MAX, main)).collect();
            gpu.launch(&mut blocks, input_bytes, |(k, id, ran_on)| {
                *id = *k;
                *ran_on = thread::current().id();
            });
            let ids: Vec<_> = blocks.iter().map(|b| b.1).collect();
            (ids, blocks.into_iter().map(|b| b.2).collect::<Vec<_>>())
        };
        let (ids, ran_on) = launch(PARALLEL_BYTES);
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
        assert!(ran_on.iter().all(|&t| t == main), "at the threshold");
        let (fanned_ids, ran_on) = launch(PARALLEL_BYTES + 1);
        assert!(ran_on.iter().all(|&t| t != main), "above the threshold");
        assert_eq!(fanned_ids, ids);
    }

    #[test]
    fn prefix_sum_matches_manual() {
        assert_eq!(exclusive_prefix_sum(&[]), Vec::<u64>::new());
        assert_eq!(exclusive_prefix_sum(&[5]), vec![0]);
        assert_eq!(exclusive_prefix_sum(&[3, 1, 4, 1, 5]), vec![0, 3, 4, 8, 9]);
    }

    #[test]
    fn heavy_parallel_launch_is_deterministic() {
        let gpu = Gpu::new(GpuConfig::rtx6000());
        let main = thread::current().id();
        let run = |input_bytes| {
            let mut blocks: Vec<_> = (0..10_000u64).map(|k| (k, main)).collect();
            gpu.launch(&mut blocks, input_bytes, |(x, ran_on)| {
                *x = x.wrapping_mul(0x9E3779B9);
                *ran_on = thread::current().id();
            });
            blocks
        };
        let (fanned, inline) = (run(PARALLEL_BYTES + 1), run(0));
        assert!(inline.iter().all(|&(_, t)| t == main));
        assert!(fanned.iter().all(|&(_, t)| t != main));
        assert!(fanned.iter().zip(&inline).all(|(a, b)| a.0 == b.0));
    }
}
