//! # fcbench-analyze
//!
//! Repo-native static analysis and deterministic concurrency model
//! checking for FCBench-rs, in two halves:
//!
//! - [`lint`] — offline token-level invariant lints over the workspace
//!   source: claim-gated capacity reservations in wire/container parsers,
//!   no truncating casts on wire-decoded integers, `#![forbid(unsafe_code)]`
//!   in every non-compat crate root, and clippy's no-panic lints in every
//!   panic-free root. Driven by `fcbench-analyze lint`.
//! - [`scenarios`] — small closed concurrent programs over the real
//!   [`WorkerPool`](fcbench_core::pool::WorkerPool) and
//!   [`ColumnCursor`](fcbench_dbsim::ColumnCursor), explored exhaustively
//!   (within a preemption bound) by the cooperative scheduler in
//!   [`fcbench_core::sync::model`]. Driven by `fcbench-analyze
//!   check-pool`; failures come back as deterministic replayable seeds.
//!
//! The crate is a workspace member but **not** a default member: it
//! enables fcbench-core's `model-check` feature, and feature unification
//! must never swap the instrumented sync layer into a plain workspace
//! build. The [`lexer`] underpinning the lints is a scrubber, not a
//! parser — see its module docs for the contract.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod lint;
pub mod scenarios;
