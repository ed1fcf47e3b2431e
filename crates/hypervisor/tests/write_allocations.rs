//! Pins the heap cost of the page-write path: a write of a small body
//! into a populated frame allocates the body and nothing else, and a
//! batch of bodies crossing the gate allocates nothing beyond the
//! caller's batch. A write never hashes the body, and no index keyed by
//! hash is kept. A warm populate of 1,024 frames allocates only its p2m
//! window, once, and their release at most the frame table's vacant set.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xoar_hypervisor::memory::{MemoryManager, PageRef, Pfn};
use xoar_hypervisor::{DomId, DomainRole, Hypercall, Hypervisor, PrivilegeSet, ShadowOp};

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

#[test]
fn a_warm_batch_allocates_only_the_callers_vec() {
    const N: u64 = 256;
    let mut hv = Hypervisor::with_default_host();
    let dom0 = hv
        .create_boot_domain("dom0", DomainRole::ControlVm, 512, PrivilegeSet::dom0())
        .unwrap();
    let create = Hypercall::DomctlCreateDomain {
        name: "g".into(),
        memory_mib: 64,
        vcpus: 1,
    };
    let g = hv.hypercall(dom0, create).unwrap().dom_id().unwrap();
    let populate = Hypercall::MemoryPopulate {
        target: g,
        frames: N,
    };
    hv.hypercall(dom0, populate).unwrap();
    let op = ShadowOp::Enable;
    hv.hypercall(dom0, Hypercall::DomctlShadowOp { target: g, op })
        .unwrap();
    let bodies: Vec<PageRef> = (0..N)
        .map(|i| PageRef::new(format!("small body {i:04}").as_bytes()))
        .collect();
    let batch = || {
        let pages = bodies.iter().enumerate();
        let pages = pages.map(|(pfn, b)| (Pfn(pfn as u64), b.clone())).collect();
        Hypercall::MmuWriteForeign { target: g, pages }
    };
    // Warm: the first batch sets every bit the cursor will hold.
    hv.hypercall(dom0, batch()).unwrap();

    let before = allocs();
    hv.hypercall(dom0, batch()).unwrap();
    let made = allocs() - before;

    assert_eq!(made, 1, "the caller's batch and nothing inside the gate");
    hv.mem.check_consistency().unwrap();
}

#[test]
fn a_warm_populate_and_its_release_allocate_a_fixed_count() {
    const N: u64 = 1024;
    let (warm, guest, other) = (DomId(1), DomId(2), DomId(3));
    let mut mem = MemoryManager::new(4096);
    // Warm: the table holds N vacant slots.
    mem.populate(warm, N).unwrap();
    mem.release_domain(warm);

    let before = allocs();
    mem.populate(guest, N).unwrap();
    let populate = allocs() - before;
    assert_eq!(populate, 1, "the p2m window, grown once for the run");

    // The run filled every vacancy: releasing into a table without
    // vacancies allocates the vacant set, one vector per level.
    let before = allocs();
    assert_eq!(mem.release_domain(guest), N);
    let release = allocs() - before;
    assert_eq!(release, 2, "the vacant set's two levels");

    // Into a table that has vacancies, a release allocates nothing.
    mem.populate(guest, N).unwrap();
    mem.populate(other, 16).unwrap();
    mem.release_domain(other);
    let before = allocs();
    assert_eq!(mem.release_domain(guest), N);
    assert_eq!(
        allocs() - before,
        0,
        "the vacant set already covers the table"
    );
    mem.check_consistency().unwrap();
}
