//! SIMT kernel execution: thread blocks scheduled over simulated SMs.
//!
//! The simulator executes a kernel as a grid of independent **thread
//! blocks** (the granularity at which every surveyed GPU compressor
//! parallelizes: GFC warps, MPC 1024-element chunks, ndzip hypercubes,
//! nvCOMP pages). Blocks are dispatched over a pool of host worker threads
//! standing in for SMs. Within a block, kernels run warp-cooperative code
//! sequentially but report **branch divergence** through [`KernelCtx`], so
//! the divergence penalty the paper attributes to dictionary methods
//! (Observation 3) is observable in kernel statistics.

use crate::config::GpuConfig;
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
    pub fn report_divergence(&self) {
        self.divergence.fetch_add(1, Ordering::Relaxed);
    }

    /// Report `n` simulated instructions executed by this block.
    pub fn report_instructions(&self, n: u64) {
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

    /// Launch a kernel over `items`, one thread block per item. Blocks are
    /// distributed over `sm_count` worker threads. Outputs preserve item
    /// order. The kernel must be `Sync` (device code has no host state).
    pub fn launch<T, R, K>(&self, items: Vec<T>, kernel: K) -> (Vec<R>, KernelStats)
    where
        T: Send,
        R: Send,
        K: Fn(&KernelCtx<'_>, T) -> R + Sync,
    {
        let nblocks = items.len();
        let divergence = AtomicU64::new(0);
        let instructions = AtomicU64::new(0);

        let mut slots: Vec<Option<R>> = Vec::with_capacity(nblocks);
        slots.resize_with(nblocks, || None);
        let workers = self.config.sm_count.min(nblocks).max(1);
        let per = nblocks.div_ceil(workers).max(1);

        // Move items into indexed chunks; each worker owns a contiguous run.
        let mut indexed: Vec<(usize, T)> = items.into_iter().enumerate().collect();
        std::thread::scope(|s| {
            let mut slot_rest: &mut [Option<R>] = &mut slots;
            let mut processed = 0usize;
            while !indexed.is_empty() {
                let take = per.min(indexed.len());
                let chunk: Vec<(usize, T)> = indexed.drain(..take).collect();
                let (head, tail) = slot_rest.split_at_mut(take);
                slot_rest = tail;
                let kernel = &kernel;
                let divergence = &divergence;
                let instructions = &instructions;
                s.spawn(move || {
                    for ((bid, item), slot) in chunk.into_iter().zip(head.iter_mut()) {
                        let ctx = KernelCtx {
                            block_id: bid,
                            divergence,
                            instructions,
                        };
                        *slot = Some(kernel(&ctx, item));
                    }
                });
                processed += take;
            }
            debug_assert_eq!(processed, nblocks);
        });

        let outputs: Vec<R> = slots
            .into_iter()
            .map(|s| s.expect("every block produced output"))
            .collect();
        let stats = KernelStats {
            blocks: nblocks as u64,
            divergence_events: divergence.load(Ordering::Relaxed),
            instructions: instructions.load(Ordering::Relaxed),
        };
        (outputs, stats)
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

    #[test]
    fn launch_preserves_order() {
        let gpu = Gpu::new(GpuConfig::tiny());
        let items: Vec<u64> = (0..1000).collect();
        let (out, stats) = gpu.launch(items, |_ctx, x| x * 2);
        let expect: Vec<u64> = (0..1000).map(|x| x * 2).collect();
        assert_eq!(out, expect);
        assert_eq!(stats.blocks, 1000);
    }

    #[test]
    fn empty_launch() {
        let gpu = Gpu::new(GpuConfig::tiny());
        let (out, stats) = gpu.launch(Vec::<u32>::new(), |_ctx, x| x);
        assert!(out.is_empty());
        assert_eq!(stats.blocks, 0);
    }

    #[test]
    fn divergence_and_instruction_reporting() {
        let gpu = Gpu::new(GpuConfig::tiny());
        let items: Vec<u32> = (0..64).collect();
        let (_, stats) = gpu.launch(items, |ctx, x| {
            ctx.report_instructions(10);
            if x % 2 == 0 {
                ctx.report_divergence();
            }
            x
        });
        assert_eq!(stats.divergence_events, 32);
        assert_eq!(stats.instructions, 640);
    }

    #[test]
    fn block_ids_cover_grid() {
        let gpu = Gpu::new(GpuConfig::tiny());
        let items: Vec<()> = vec![(); 50];
        let (ids, _) = gpu.launch(items, |ctx, ()| ctx.block_id());
        let expect: Vec<usize> = (0..50).collect();
        assert_eq!(ids, expect);
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
        let items: Vec<u64> = (0..10_000).collect();
        let (a, _) = gpu.launch(items.clone(), |_ctx, x| x.wrapping_mul(0x9E3779B9));
        let (b, _) = gpu.launch(items, |_ctx, x| x.wrapping_mul(0x9E3779B9));
        assert_eq!(a, b);
    }
}
