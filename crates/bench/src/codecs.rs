//! The 14 benchmark rows (Table 1's methods; bitshuffle and nvCOMP each
//! contribute two), published as a [`CodecRegistry`] with the paper's
//! evaluation settings and per-entry capabilities:
//!
//! - **block-capable** entries are the eight methods Table 10 sweeps over
//!   block sizes ("algorithms that cannot be easily converted to work with
//!   blocks" are omitted);
//! - **scalable** entries carry the thread-count factories behind the
//!   Tables 7–8 scalability sweeps.

use fcbench_codecs_cpu::{
    Backend, Bitshuffle, Buff, Chimp, Fpzip, Gorilla, Ndzip, Pfpc, Predictor, Spdp,
};
use fcbench_codecs_gpu::{Gfc, Mpc, NdzipGpu, NvBitcomp, NvLz4};
use fcbench_core::{CodecRegistry, Compressor, RegistryEntry};

/// GFC's original input limit (bytes) — applied against the *paper* size
/// of each dataset, since the scaled instances stand in for the originals.
pub(crate) const GFC_INPUT_LIMIT: u64 = 512 * 1024 * 1024;

/// The full 14-method registry in the paper's table order
/// (pFPC, SPDP, fpzip, shf+LZ4, shf+zstd, ndzip-CPU, BUFF, Gorilla, Chimp,
/// GFC, MPC, nv-lz4, nv-bitcomp, ndzip-GPU).
///
/// The harness gates GFC on paper sizes (see `GFC_INPUT_LIMIT`).
pub fn paper_registry() -> CodecRegistry {
    CodecRegistry::new()
        .with(
            RegistryEntry::new(Pfpc::new())
                .block_capable()
                .scalable(|t| Box::new(Pfpc::with_threads(t)) as Box<dyn Compressor>),
        )
        .with(RegistryEntry::new(Spdp::new()).block_capable())
        .with(Fpzip::new())
        .with(
            RegistryEntry::new(Bitshuffle::lz4())
                .block_capable()
                .scalable(|t| {
                    Box::new(Bitshuffle::with_config(Backend::Lz4, 64 * 1024, t))
                        as Box<dyn Compressor>
                }),
        )
        .with(
            RegistryEntry::new(Bitshuffle::zzip())
                .block_capable()
                .scalable(|t| {
                    Box::new(Bitshuffle::with_config(Backend::Zzip, 64 * 1024, t))
                        as Box<dyn Compressor>
                }),
        )
        .with(
            RegistryEntry::new(Ndzip::new())
                .scalable(|t| Box::new(Ndzip::with_threads(t)) as Box<dyn Compressor>),
        )
        .with(Buff::new())
        .with(RegistryEntry::new(Gorilla::new()).block_capable())
        .with(RegistryEntry::new(Chimp::new()).block_capable())
        .with(Gfc::default())
        .with(Mpc::new())
        .with(RegistryEntry::new(NvLz4::new()).block_capable())
        .with(RegistryEntry::new(NvBitcomp::new()).block_capable())
        .with(NdzipGpu::new())
}

/// [`paper_registry`] plus the single-predictor codec family (last-value,
/// last-stride, DFCM) appended after the paper's 14 rows.
///
/// The predictor rows are baseline attributions, not Table 1 methods, so
/// experiments that reproduce a specific paper table keep using
/// [`paper_registry`]; the throughput matrix, the container benches, and
/// the serving loop use this registry. All three are serial per block but
/// block-splittable, so they are block-capable.
pub fn full_registry() -> CodecRegistry {
    let mut r = paper_registry();
    for p in [
        Predictor::last_value(),
        Predictor::last_stride(),
        Predictor::dfcm(),
    ] {
        r = r.with(RegistryEntry::new(p).block_capable());
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcbench_core::{Pipeline, Platform, PoolConfig, WorkerPool};
    use std::sync::Arc;

    #[test]
    fn fourteen_rows_in_paper_order() {
        assert_eq!(
            paper_registry().names(),
            vec![
                "pfpc",
                "spdp",
                "fpzip",
                "bitshuffle-lz4",
                "bitshuffle-zstd",
                "ndzip-cpu",
                "buff",
                "gorilla",
                "chimp128",
                "gfc",
                "mpc",
                "nvcomp-lz4",
                "nvcomp-bitcomp",
                "ndzip-gpu",
            ]
        );
    }

    #[test]
    fn platform_split_matches_paper() {
        let r = paper_registry();
        assert_eq!(r.by_platform(Platform::Cpu).count(), 9);
        assert_eq!(r.by_platform(Platform::Gpu).count(), 5);
        for e in r.by_platform(Platform::Cpu) {
            assert_eq!(e.codec().info().platform, Platform::Cpu, "{}", e.name());
        }
        for e in r.by_platform(Platform::Gpu) {
            assert_eq!(e.codec().info().platform, Platform::Gpu, "{}", e.name());
        }
    }

    #[test]
    fn block_table_has_eight_codecs() {
        assert_eq!(paper_registry().block_capable().count(), 8);
    }

    #[test]
    fn registry_built_gpu_rows_run_on_the_engine() {
        // On a two-worker pool a pipeline over a GPU-simulated row runs
        // its blocks as pool jobs like a CPU row's.
        let r = paper_registry();
        let spec = fcbench_datasets::find("msg-bt").unwrap();
        let data = fcbench_datasets::generate(&spec, 4096);
        for e in r.by_platform(Platform::Gpu) {
            let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(2)));
            let p = Pipeline::with_pool(Arc::clone(e.codec()), Arc::clone(&pool)).block_elems(1024);
            let frame = p.compress(&data).unwrap();
            assert_eq!(p.decompress(&frame).unwrap().bytes(), data.bytes());
            assert_eq!(pool.jobs_completed(), 2 * 4, "{}", e.name());
        }
    }

    #[test]
    fn four_scalable_codecs() {
        let r = paper_registry();
        assert_eq!(
            r.scalable_names(),
            vec!["pfpc", "bitshuffle-lz4", "bitshuffle-zstd", "ndzip-cpu"]
        );
        // Factories honour the thread parameter without panicking.
        for name in r.scalable_names() {
            let _ = r.scaled(name, 1).unwrap();
            let _ = r.scaled(name, 16).unwrap();
        }
    }

    #[test]
    fn lookup_by_name_works_for_every_row() {
        let r = paper_registry();
        for name in r.names() {
            assert_eq!(r.get(name).unwrap().info().name, name);
        }
    }

    #[test]
    fn full_registry_appends_predictor_rows_after_paper_order() {
        let full = full_registry();
        let names = full.names();
        assert_eq!(names.len(), 17);
        assert_eq!(&names[..14], &paper_registry().names()[..]);
        assert_eq!(&names[14..], &["last-value", "last-stride", "dfcm"]);
        for name in ["last-value", "last-stride", "dfcm"] {
            assert!(full.entry(name).unwrap().is_block_capable(), "{name}");
        }
    }

    #[test]
    fn predictor_rows_round_trip_the_benchmark_corpus() {
        let full = full_registry();
        for ds in crate::perf_json::CORPUS {
            let spec = fcbench_datasets::find(ds).unwrap();
            let data = fcbench_datasets::generate(&spec, 4096);
            for name in ["last-value", "last-stride", "dfcm"] {
                let codec = full.get(name).unwrap();
                let c = codec.compress(&data).unwrap();
                let back = codec.decompress(&c, data.desc()).unwrap();
                assert_eq!(back.bytes(), data.bytes(), "{name} on {ds}");
            }
        }
    }
}
