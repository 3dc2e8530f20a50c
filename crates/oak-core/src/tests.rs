//! Unit and property tests for the Oak core.

mod aggregates_tests;
mod analysis_tests;
mod audit_tests;
mod detect_tests;
mod engine_props;
mod engine_tests;
mod events_tests;
mod fetch_tests;
mod intern_tests;
mod matching_tests;
mod policy_tests;
mod report_tests;
mod spec_tests;
mod state_image_tests;
mod stats_tests;
mod wire_tests;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The largest single allocation request this thread has made since
    /// [`peak_alloc_during`] last reset it.
    static PEAK_ALLOC: Cell<usize> = const { Cell::new(0) };
    /// Allocation requests (`realloc` included) this thread has made.
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], remembering per thread the largest request it was asked
/// for — how the decoder suites check that a hostile length prefix never
/// sizes an allocation — and how many requests there were, which is what
/// the report path's allocation budget is written in.
struct PeakAlloc;

fn note_alloc(size: usize) {
    // `try_with`: the allocator still runs while a thread's locals are
    // being torn down.
    let _ = PEAK_ALLOC.try_with(|peak| peak.set(peak.get().max(size)));
    let _ = ALLOC_COUNT.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches a
// const-initialised `Cell<usize>` thread-local, which neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f`; returns its result and the largest single allocation it
/// requested on this thread.
fn peak_alloc_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK_ALLOC.with(|peak| peak.set(0));
    let out = f();
    (out, PEAK_ALLOC.with(Cell::get))
}

/// Runs `f`; returns its result and how many allocation requests it made
/// on this thread.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC_COUNT.with(Cell::get);
    let out = f();
    (out, ALLOC_COUNT.with(Cell::get) - before)
}
