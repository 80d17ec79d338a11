//! SIMT kernel execution: thread blocks scheduled over simulated SMs.
//!
//! The simulator executes a kernel as a grid of independent **thread
//! blocks** (the granularity at which every surveyed GPU compressor
//! parallelizes: GFC warps, MPC 1024-element chunks, ndzip hypercubes,
//! nvCOMP pages). Blocks are dispatched through the same
//! [`fan_out`] the CPU codecs' chunks use, with `sm_count` host threads
//! standing in for SMs: a launch over at most [`PARALLEL_BYTES`] of input
//! runs every block on the calling thread, a larger one on scoped threads.
//! Within a block, kernels run warp-cooperative code sequentially but
//! report **branch divergence** through [`KernelCtx`], so the divergence
//! penalty the paper attributes to dictionary methods (Observation 3) is
//! observable in kernel statistics.
//!
//! [`PARALLEL_BYTES`]: fcbench_core::wire::PARALLEL_BYTES

use crate::config::GpuConfig;
use fcbench_core::wire::fan_out;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-launch execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Thread blocks executed.
    pub blocks: u64,
    /// Divergence events reported by the kernel (lanes of one warp taking
    /// different control paths).
    pub divergence_events: u64,
    /// Simulated dynamic instruction count reported by the kernel.
    pub instructions: u64,
}

/// Handle passed to kernel code for reporting execution behaviour.
pub struct KernelCtx<'a> {
    block_id: usize,
    divergence: &'a AtomicU64,
    instructions: &'a AtomicU64,
}

impl KernelCtx<'_> {
    /// The block index within the launch grid.
    pub fn block_id(&self) -> usize {
        self.block_id
    }

    /// Report one warp-divergence event (e.g. a data-dependent branch in a
    /// match-search loop).
    pub(crate) fn report_divergence(&self) {
        self.divergence.fetch_add(1, Ordering::Relaxed);
    }

    /// Report `n` simulated instructions executed by this block.
    pub(crate) fn report_instructions(&self, n: u64) {
        self.instructions.fetch_add(n, Ordering::Relaxed);
    }
}

/// The simulated device: block scheduler + statistics.
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
        kernel: impl Fn(&KernelCtx<'_>, &mut S) + Sync,
    ) -> KernelStats {
        let (divergence, instructions) = (AtomicU64::new(0), AtomicU64::new(0));
        fan_out(
            blocks,
            input_bytes,
            self.config.sm_count,
            |block_id, slot| {
                let ctx = KernelCtx {
                    block_id,
                    divergence: &divergence,
                    instructions: &instructions,
                };
                kernel(&ctx, slot);
            },
        );
        KernelStats {
            blocks: blocks.len() as u64,
            divergence_events: divergence.into_inner(),
            instructions: instructions.into_inner(),
        }
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
        let stats = gpu.launch(&mut blocks, 0, |_ctx, (x, y)| *y = *x * 2);
        assert!(blocks.iter().all(|&(x, y)| y == x * 2));
        assert_eq!(stats.blocks, 1000);
    }

    #[test]
    fn empty_launch() {
        let gpu = Gpu::new(GpuConfig::tiny());
        for input_bytes in [0, PARALLEL_BYTES + 1] {
            let stats = gpu.launch(&mut Vec::<u32>::new(), input_bytes, |_ctx, _| ());
            assert_eq!(stats, KernelStats::default());
        }
    }

    #[test]
    fn divergence_and_instruction_reporting() {
        let gpu = Gpu::new(GpuConfig::tiny());
        let mut blocks: Vec<u32> = (0..64).collect();
        let stats = gpu.launch(&mut blocks, 0, |ctx, x| {
            ctx.report_instructions(10);
            if *x % 2 == 0 {
                ctx.report_divergence();
            }
        });
        assert_eq!(stats.divergence_events, 32);
        assert_eq!(stats.instructions, 640);
    }

    #[test]
    fn block_ids_cover_grid() {
        // Up to PARALLEL_BYTES of input every block runs on the calling
        // thread; above it none does, and ids, order and statistics match
        // the inline run.
        let gpu = Gpu::new(GpuConfig::tiny());
        let main = thread::current().id();
        let launch = |input_bytes| {
            let mut blocks = vec![(usize::MAX, main); 50];
            let stats = gpu.launch(&mut blocks, input_bytes, |ctx, (id, ran_on)| {
                ctx.report_instructions(ctx.block_id() as u64);
                if ctx.block_id() % 3 == 0 {
                    ctx.report_divergence();
                }
                *id = ctx.block_id();
                *ran_on = thread::current().id();
            });
            let (ids, ran_on): (Vec<_>, Vec<_>) = blocks.into_iter().unzip();
            (ids, ran_on, stats)
        };
        let (ids, ran_on, stats) = launch(PARALLEL_BYTES);
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
        assert!(ran_on.iter().all(|&t| t == main), "at the threshold");
        let (fanned_ids, ran_on, fanned_stats) = launch(PARALLEL_BYTES + 1);
        assert!(ran_on.iter().all(|&t| t != main), "above the threshold");
        assert_eq!((fanned_ids, fanned_stats), (ids, stats));
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
            let mut blocks = vec![(0u64, main); 10_000];
            gpu.launch(&mut blocks, input_bytes, |ctx, (x, ran_on)| {
                *x = (ctx.block_id() as u64).wrapping_mul(0x9E3779B9);
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
