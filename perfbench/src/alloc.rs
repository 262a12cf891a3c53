//! A counting global allocator, installed only by the `perfbench` binary.
//!
//! Counting is off unless a traced run switches it on, so an untraced run
//! pays one relaxed atomic load per allocation and nothing else. While on,
//! allocations (and `realloc`s, which move or grow a block) are counted
//! with their requested bytes, split between the set-up and run phases.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Which phase new allocations are charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Not counting (untraced runs, bookkeeping between phases).
    Off = 0,
    /// World build and FTD install.
    Setup = 1,
    /// The simulated run.
    Run = 2,
}

static PHASE: AtomicU8 = AtomicU8::new(Phase::Off as u8);
static SETUP_ALLOCS: AtomicU64 = AtomicU64::new(0);
static SETUP_BYTES: AtomicU64 = AtomicU64::new(0);
static RUN_ALLOCS: AtomicU64 = AtomicU64::new(0);
static RUN_BYTES: AtomicU64 = AtomicU64::new(0);

/// Allocation counts of one phase pair, as read by [`take`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocations during set-up.
    pub setup_allocs: u64,
    /// Bytes requested during set-up.
    pub setup_bytes: u64,
    /// Allocations during the run.
    pub run_allocs: u64,
    /// Bytes requested during the run.
    pub run_bytes: u64,
}

/// Charges new allocations to `phase` from now on.
pub fn set_phase(phase: Phase) {
    PHASE.store(phase as u8, Ordering::Relaxed);
}

/// Reads and zeroes the counters (and stops counting).
pub fn take() -> AllocCounts {
    set_phase(Phase::Off);
    AllocCounts {
        setup_allocs: SETUP_ALLOCS.swap(0, Ordering::Relaxed),
        setup_bytes: SETUP_BYTES.swap(0, Ordering::Relaxed),
        run_allocs: RUN_ALLOCS.swap(0, Ordering::Relaxed),
        run_bytes: RUN_BYTES.swap(0, Ordering::Relaxed),
    }
}

fn record(bytes: usize) {
    let (count, total) = match PHASE.load(Ordering::Relaxed) {
        1 => (&SETUP_ALLOCS, &SETUP_BYTES),
        2 => (&RUN_ALLOCS, &RUN_BYTES),
        _ => return,
    };
    count.fetch_add(1, Ordering::Relaxed);
    total.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// The system allocator with per-phase counters in front of it.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which always
        // hands out `System` blocks; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (see above).
        unsafe { System.dealloc(ptr, layout) }
    }
}
