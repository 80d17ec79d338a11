//! Synchronization primitives for the execution engine, swappable for a
//! deterministic model-checking runtime.
//!
//! Production code in this crate (notably [`pool`](crate::pool)) imports
//! `Mutex`/`Condvar`/`AtomicU64`/`thread` from here instead of `std::sync`.
//! In a normal build these are plain re-exports of the `std` types — zero
//! cost, zero behavior change. With the `model-check` feature enabled the
//! same names resolve to instrumented primitives from the `model` module that hand
//! every blocking decision to a cooperative scheduler, letting
//! `fcbench-analyze check-pool` exhaustively explore thread interleavings
//! of the pool's blocking protocol and replay any failing schedule from a
//! seed.
//!
//! The instrumented primitives only participate in model checking on
//! threads registered with an active exploration; anywhere else they
//! delegate to the real `std` primitives, so enabling the feature cannot
//! change the behavior of code that is not under the model checker.
//!
//! # Poison policy
//!
//! There is exactly one lock-poisoning policy for the engine, implemented
//! by [`lock`] and [`wait`] and shared by the model runtime: **recover the
//! guard**. The engine's invariants are maintained under its locks by
//! straight-line code, and worker panics are caught *before* they can
//! unwind through a guard (see `worker_loop` in [`pool`](crate::pool)), so
//! a poisoned mutex only ever reflects a panic in a caller-supplied collect
//! or fill closure — the protected state is still consistent and the right
//! move is to keep serving. The worker-panic regression tests in `pool`
//! hold this policy in place.

#[cfg(feature = "model-check")]
pub mod model;

#[cfg(not(feature = "model-check"))]
pub use std::sync::atomic::AtomicU64;
#[cfg(not(feature = "model-check"))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

/// Thread spawn/join used by the engine: `std::thread` in normal builds,
/// scheduler-registered tasks under the model checker.
#[cfg(not(feature = "model-check"))]
pub mod thread {
    pub use std::thread::{Builder, JoinHandle};
}

#[cfg(feature = "model-check")]
pub use model::thread;
#[cfg(feature = "model-check")]
pub use model::{AtomicU64, Condvar, Mutex, MutexGuard};

/// Acquire `m` under the engine's single poison policy (see the
/// [module docs](self)): a poisoned lock is recovered, not propagated.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poison) => poison.into_inner(),
    }
}

/// Block on `cv` releasing `guard`, recovering a poisoned reacquired lock
/// under the same policy as [`lock`].
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(g) => g,
        Err(poison) => poison.into_inner(),
    }
}
