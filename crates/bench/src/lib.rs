//! # fcbench-bench
//!
//! The benchmark harness regenerating every table and figure of FCBench's
//! evaluation (§6): the paper's [metrics] (CR/CT/DT, harmonic/arithmetic
//! means), the codecs × datasets [run matrix](runner) with each GPU cell's
//! modelled host↔device copies, boxplot & group summaries for
//! Figures 5–6, and the thread-scaling sweeps of Tables 7–8.
//! Every timed column follows one rule, `metrics::time_reps`: one
//! untimed warm call, then the median and IQR of `--reps` timed calls.
//! The `fcbench` binary drives it, the design ablations called out in
//! DESIGN.md included (`fcbench ablations`); the plain-main benches in
//! `benches/` gate the kernels against their [references](mod@reference).
//! The [statistics](stats), the [roofline] model and the neural [dzip]
//! codec live here too: nothing but the harness runs them.

pub mod alloc_track;
pub mod codecs;
mod context;
mod dist;
pub mod dzip;
pub mod experiments;
mod friedman;
mod mannwhitney;
pub mod metrics;
mod nemenyi;
pub mod perf_json;
mod ranks;
pub mod recommend;
pub mod reference;
pub mod roofline;
pub mod runner;
mod scaling;
pub mod stats;
mod summary;
#[cfg(test)]
mod tests;

pub use context::{Context, DEFAULT_ELEMS};
