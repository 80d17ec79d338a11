//! # fcbench-bench
//!
//! The benchmark harness regenerating every table and figure of FCBench's
//! evaluation (§6): the paper's [metrics] (CR/CT/DT, harmonic/arithmetic
//! means), the codecs × datasets [run matrix](runner) with each GPU cell's
//! modelled host↔device copies, [boxplot & group summaries](summary) for
//! Figures 5–6, and the [thread-scaling sweeps](scaling) of Tables 7–8.
//! Every timed column follows one rule, [`metrics::time_reps`]: one
//! untimed warm call, then the median and IQR of `--reps` timed calls.
//! The `fcbench` binary drives it, the design ablations called out in
//! DESIGN.md included (`fcbench ablations`); the plain-main benches in
//! `benches/` gate the kernels against their references.

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

pub use context::{Context, DEFAULT_ELEMS};
