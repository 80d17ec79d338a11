//! # fcbench-analyze
//!
//! Repo-native static analysis and deterministic concurrency model
//! checking for FCBench-rs, in two halves:
//!
//! - [`lint`] — the offline token-level claim-gate lint: wire/container
//!   parsers never reserve capacity for an unvalidated claim. Its
//!   workspace pass is the `workspace_is_claim_gated` test.
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
//! build. The [`lexer`] underpinning the lint is a scrubber, not a
//! parser — see its module docs for the contract.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod lint;
pub mod scenarios;
