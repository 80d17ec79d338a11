//! Peak-allocation tracking for the Figure 10 memory-footprint experiment.
//!
//! A counting wrapper around the system allocator. The `fcbench` binary
//! installs it as the global allocator; library tests that run without it
//! see zeros and skip footprint assertions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Counting allocator: tracks live and peak bytes.
pub struct CountingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);

// SAFETY: delegates all allocation to `System`; only bookkeeping is added.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            if new_size >= layout.size() {
                let live = LIVE.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                    - layout.size();
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Mark the counting allocator as installed (called by the binary).
pub fn mark_installed() {
    INSTALLED.store(true, Ordering::Relaxed);
}

/// Is peak tracking active in this process?
pub(crate) fn is_installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Reset the peak to the current live size.
pub(crate) fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak bytes since the last [`reset_peak`].
pub(crate) fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Live bytes right now.
pub(crate) fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Run `f`, returning `(peak_delta_bytes, result)` — the extra memory the
/// call needed beyond what was live at entry. Zero if not installed.
pub fn measure_peak<R>(f: impl FnOnce() -> R) -> (usize, R) {
    if !is_installed() {
        return (0, f());
    }
    let base = live_bytes();
    reset_peak();
    let r = f();
    let peak = peak_bytes().saturating_sub(base);
    (peak, r)
}

/// Total `alloc`/`realloc` calls observed so far in this process.
pub(crate) fn alloc_calls() -> usize {
    CALLS.load(Ordering::Relaxed)
}

/// Run `f`, returning `(allocation_calls, result)` — how many times `f`
/// (and anything else running concurrently) hit the allocator. Zero if the
/// counting allocator is not installed. This is the regression number behind
/// the zero-allocation guarantee of the steady-state `compress_into` loops.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    if !is_installed() {
        return (0, f());
    }
    let before = alloc_calls();
    let r = f();
    (alloc_calls() - before, r)
}
