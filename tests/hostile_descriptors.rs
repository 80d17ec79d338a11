//! Codec-level hostile-descriptor hardening: a descriptor claiming
//! petabytes of output paired with a tiny payload must be rejected by
//! `decompress_into` **before** anything is reserved against the claim —
//! on the direct codec path (what a runner cell or any other direct caller
//! hands over), through the worker pool, and through the framed decoder.
//! If any codec reserved first, these cases would abort the process on the
//! failed multi-terabyte allocation instead of returning a typed error.

use fcbench::core::pool::{PoolConfig, WorkerPool};
use fcbench::core::{DataDesc, Domain, FloatData, Precision};
use fcbench_bench::codecs::paper_registry;
use proptest::prelude::*;
use std::sync::Arc;

/// A descriptor claiming 2^40 .. 2^50 elements (terabytes to petabytes),
/// in one of the shapes a hostile frame could legally encode.
fn hostile_desc() -> impl Strategy<Value = DataDesc> {
    (40u32..=50, any::<bool>(), any::<bool>(), 1usize..=4096).prop_map(
        |(log2, double, multidim, factor)| {
            let precision = if double {
                Precision::Double
            } else {
                Precision::Single
            };
            let elems = 1usize << log2;
            let dims = if multidim {
                vec![
                    elems / factor.next_power_of_two().min(elems),
                    factor.next_power_of_two(),
                ]
            } else {
                vec![elems]
            };
            DataDesc::new(precision, dims, Domain::Hpc).expect("claim fits the address space")
        },
    )
}

/// Small payloads, as a hostile frame would carry.
fn tiny_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..64)
}

proptest! {
    /// Every registered codec rejects a petabyte claim on the direct path.
    #[test]
    fn every_codec_rejects_petabyte_claims_directly(
        desc in hostile_desc(),
        payload in tiny_payload(),
    ) {
        let registry = paper_registry();
        for entry in registry.iter() {
            let codec = entry.codec();
            let mut out = FloatData::scratch();
            let r = codec.decompress_into(&payload, &desc, &mut out);
            prop_assert!(
                r.is_err(),
                "{} accepted a {}-byte payload claiming {} bytes",
                entry.name(),
                payload.len(),
                desc.byte_len()
            );
        }
    }

    /// The worker pool surfaces the same rejection as a typed error.
    #[test]
    fn pool_workers_reject_petabyte_claims(
        desc in hostile_desc(),
        payload in tiny_payload(),
    ) {
        let registry = paper_registry();
        let pool = WorkerPool::new(PoolConfig::with_threads(2));
        for name in ["gorilla", "chimp128", "spdp"] {
            let codec: Arc<_> = registry.get(name).expect("registered codec");
            let ticket = pool.submit_decompress(&codec, &desc, &payload).expect("submit");
            prop_assert!(ticket.collect(|_| ()).is_err(), "{name} accepted a hostile claim");
        }
    }
}

/// Deterministic spot-check (fast, runs even with PROPTEST_CASES=1): the
/// exact 2^50-double (8 PB) claim from the ISSUE against every codec.
#[test]
fn eight_petabyte_claim_is_rejected_by_all_fourteen_codecs() {
    let desc = DataDesc::new(Precision::Double, vec![1usize << 50], Domain::Database).unwrap();
    let payload = [0xA5u8; 24];
    let registry = paper_registry();
    let mut rejected = 0;
    for entry in registry.iter() {
        let mut out = FloatData::scratch();
        assert!(
            entry
                .codec()
                .decompress_into(&payload, &desc, &mut out)
                .is_err(),
            "{} must reject the 8 PB claim",
            entry.name()
        );
        rejected += 1;
    }
    assert_eq!(rejected, 14);
}
