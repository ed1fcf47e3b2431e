//! Pins the heap cost of the page-write path: a write of a small body
//! into a populated frame allocates the body and nothing else. A write
//! never hashes the body, and no index keyed by hash is kept.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xoar_hypervisor::memory::{MemoryManager, Pfn};
use xoar_hypervisor::DomId;

/// Forwards to the system allocator and counts allocations made on the
/// calling thread, so parallel tests never see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result; the count is a const-initialised
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn small_writes_allocate_one_body_each() {
    const N: u64 = 256;
    let dom = DomId(1);
    let mut mem = MemoryManager::new(4096);
    mem.populate(dom, N).unwrap();
    // Distinct small bodies.
    let bodies: Vec<Vec<u8>> = (0..N)
        .map(|i| format!("small body {i:04}").into_bytes())
        .collect();

    let before = allocs();
    for (pfn, body) in bodies.iter().enumerate() {
        mem.write(dom, Pfn(pfn as u64), body).unwrap();
    }
    let made = allocs() - before;

    assert_eq!(made, N, "one allocation per written body");
    mem.check_consistency().unwrap();
}
