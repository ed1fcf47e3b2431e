//! A counting global allocator: exact allocation counts and live/peak
//! heap bytes for `peak_heap_mib` and the per-span `allocs_per_call`.
//!
//! Counters are thread-local, so the parallel threads of `cargo test`
//! never see each other's allocations; every workload runs on one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator and counts on the calling thread.
pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grow(bytes: isize) {
    // `try_with` so an allocation during thread teardown is still served.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| {
            if now > peak.get() {
                peak.set(now);
            }
        });
    });
}

fn count_alloc(bytes: usize) {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    grow(bytes as isize);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result; the bookkeeping only touches
// thread-local `Cell`s, which are const-initialised and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        grow(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count_alloc(new_size);
            grow(-(layout.size() as isize));
        }
        p
    }
}

/// Allocations (including reallocations) made by this thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Heap bytes this thread currently holds.
pub fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// Most heap bytes this thread has held since the last [`reset_peak`].
pub fn peak_bytes() -> isize {
    PEAK.with(Cell::get)
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.with(|p| p.set(live_bytes()));
}
