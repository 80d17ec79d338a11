//! Property tests for the SIMT simulator: launches preserve order and
//! coverage for arbitrary grids; the transfer model is monotone in size.

use fcbench_core::wire::PARALLEL_BYTES;
use fcbench_gpu_sim::{exclusive_prefix_sum, Gpu, GpuConfig};
use proptest::prelude::*;
use std::thread;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn launch_is_an_order_preserving_map(
        items in prop::collection::vec(any::<u32>(), 0..500),
        fanned in any::<bool>(),
    ) {
        // Up to PARALLEL_BYTES of input every block runs on the calling
        // thread; above it the result is the same map.
        let gpu = Gpu::new(GpuConfig::tiny());
        let input_bytes = if fanned { PARALLEL_BYTES + 1 } else { PARALLEL_BYTES };
        let main = thread::current().id();
        let mut blocks: Vec<_> = items.iter().map(|&x| (x, 0u64, main)).collect();
        let stats = gpu.launch(&mut blocks, input_bytes, |_ctx, (x, y, ran_on)| {
            *y = *x as u64 + 7;
            *ran_on = thread::current().id();
        });
        for (&x, &(_, y, ran_on)) in items.iter().zip(&blocks) {
            prop_assert_eq!(y, x as u64 + 7);
            prop_assert!(fanned || ran_on == main);
        }
        prop_assert_eq!(stats.blocks, items.len() as u64);
    }

    #[test]
    fn block_ids_are_an_identity(n in 0usize..300, input_bytes in 0..2 * PARALLEL_BYTES) {
        let gpu = Gpu::new(GpuConfig::rtx6000());
        let mut ids = vec![usize::MAX; n];
        gpu.launch(&mut ids, input_bytes, |ctx, id| *id = ctx.block_id());
        prop_assert_eq!(ids, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn prefix_sum_matches_scan(values in prop::collection::vec(0u64..1000, 0..200)) {
        let out = exclusive_prefix_sum(&values);
        let mut acc = 0u64;
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(out[i], acc);
            acc += v;
        }
    }

    #[test]
    fn transfer_time_is_monotone_in_bytes(a in 0usize..1_000_000, b in 0usize..1_000_000) {
        let cfg = GpuConfig::rtx6000();
        let ta = cfg.transfer_seconds(a.min(b));
        let tb = cfg.transfer_seconds(a.max(b));
        prop_assert!(ta <= tb + 1e-15);
        prop_assert!(ta >= cfg.transfer_latency_s);
    }
}
