//! The benchmark corpus.
//!
//! Read by this crate's registry tests and by the ladder in `benchmark/`
//! (`codec_matrix` imports `fcbench_bench::perf_json::CORPUS`), which is
//! why the constant keeps this module path: `benchmark/` changes only in
//! PRs of its own.

/// Datasets making up the corpus: one representative per domain, matching
/// the `throughput` bench's selection.
pub const CORPUS: [&str; 4] = ["msg-bt", "citytemp", "acs-wht", "tpcDS-store"];
