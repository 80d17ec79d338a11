//! # fcbench-bench
//!
//! The benchmark harness regenerating every table and figure of FCBench's
//! evaluation (§6): the paper's [metrics] (CR/CT/DT, harmonic/arithmetic
//! means), the codecs × datasets [run matrix](runner) with each GPU cell's
//! modelled host↔device copies, [boxplot & group summaries](summary) for
//! Figures 5–6, and the [thread-scaling sweeps](scaling) of Tables 7–8.
//! The `fcbench` binary drives it; Criterion benches in `benches/` cover
//! throughput, scaling, block sizes, and the design ablations called out
//! in DESIGN.md.

pub mod alloc_track;
pub mod codecs;
pub mod context;
pub mod experiments;
pub mod metrics;
pub mod perf_json;
pub mod recommend;
pub mod runner;
pub mod scaling;
pub mod summary;

pub use context::{build_context, Context, DEFAULT_ELEMS};
