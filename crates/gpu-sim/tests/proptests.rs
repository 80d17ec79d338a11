//! Property tests for the SIMT simulator: launches preserve order and
//! coverage for arbitrary grids; the transfer model is monotone in size.

use fcbench_gpu_sim::{exclusive_prefix_sum, Gpu, GpuConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn launch_is_an_order_preserving_map(items in prop::collection::vec(any::<u32>(), 0..500)) {
        let gpu = Gpu::new(GpuConfig::tiny());
        let expect: Vec<u64> = items.iter().map(|&x| x as u64 + 7).collect();
        let (out, stats) = gpu.launch(items.clone(), |_ctx, x| x as u64 + 7);
        prop_assert_eq!(out, expect);
        prop_assert_eq!(stats.blocks, items.len() as u64);
    }

    #[test]
    fn block_ids_are_an_identity(n in 0usize..300) {
        let gpu = Gpu::new(GpuConfig::rtx6000());
        let (ids, _) = gpu.launch(vec![(); n], |ctx, ()| ctx.block_id());
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
