//! # fcbench-chaos
//!
//! The fault-injection harness: the one workspace member that compiles
//! `fcbench-core` with the non-default `fault-inject` feature, arming the
//! named fail-points threaded through the engine seams —
//!
//! | fail-point              | seam                                                |
//! |-------------------------|-----------------------------------------------------|
//! | `pool.submit`           | every [`WorkerPool`] submit entry point             |
//! | `frame.write`           | [`FrameWriter::write`], per call                    |
//! | `container.commit`      | [`ContainerWriter::commit`], before framing         |
//! | `container.sync_behind` | each sync [`write_container_pooled`] runs behind it |
//! | `serve.reply_write`     | every `FCS1` OK reply                               |
//!
//! The integration tests in `tests/` drive each point and prove the
//! blast-radius contract: an injected fault is a **typed error** at the
//! seam it was injected into, the surrounding subsystem keeps working
//! (the pool keeps dispatching, the server keeps serving, the container
//! recovers to its last commit), and the `hits`/`fired` accounting on the
//! registry matches the armed schedule exactly.
//!
//! Seeded [`FaultPlan`]s (`fp1:` strings) drive the randomized schedules;
//! a failing seed is written to `$FCBENCH_CHAOS_SEED_OUT` for CI to
//! upload, and replays byte-for-byte.
//!
//! This crate is intentionally **not** in the workspace's
//! `default-members`: nothing in a shipping build can reach the fail-point
//! registry, and CI asserts `fault-inject` never unifies into the default
//! feature graph.
//!
//! [`WorkerPool`]: fcbench_core::pool::WorkerPool
//! [`FrameWriter::write`]: fcbench_core::stream::FrameWriter::write
//! [`ContainerWriter::commit`]: fcbench_dbsim::ContainerWriter::commit
//! [`write_container_pooled`]: fcbench_dbsim::write_container_pooled
//! [`FaultPlan`]: fcbench_core::fault::FaultPlan

#![forbid(unsafe_code)]

pub use fcbench_core::fault::{self, failpoints, FaultPlan, FaultyIo};

/// Surface `plan`'s replayable seed for CI artifact upload: written to the
/// path in `$FCBENCH_CHAOS_SEED_OUT` (when set) before the risky work, so
/// the seed of a crashed or failed case survives the process.
pub fn note_seed(plan: &FaultPlan) {
    if let Ok(path) = std::env::var("FCBENCH_CHAOS_SEED_OUT") {
        if !path.is_empty() {
            let _ = std::fs::write(path, plan.seed_string());
        }
    }
}
