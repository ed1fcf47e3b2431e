//! Pins the heap cost of a warm start: the allocations made by
//! `DomctlCloneDomain` when it stamps a clone of a sealed template whose
//! grant table holds the four ring grants of an evaluation guest
//! (XenStore, console, vif and vbd), and by the whole
//! `Platform::clone_guest` and `Platform::destroy_guest` around it. Beside
//! them, the heap cost of a built guest: one `Platform::create_guest` and
//! its `destroy_guest` on a warm platform.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_hypervisor::{DomId, Hypercall};

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
fn clone_stamp_allocations_are_pinned() {
    const N: usize = 100;
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let tpl = p
        .create_guest(ts, GuestConfig::evaluation_guest("tpl"))
        .unwrap();
    p.capture_template(ts, tpl).unwrap();
    assert_eq!(p.hv.grant_table(tpl).unwrap().len(), 4);
    // Names are made before counting; the call takes each by move.
    let mut names: Vec<String> = (0..=N).map(|i| format!("c{i}")).collect();
    let mut stamp = |name| {
        let call = Hypercall::DomctlCloneDomain {
            template: tpl,
            name,
        };
        p.hv.hypercall(ts, call).unwrap().dom_id().unwrap()
    };
    // The first clone seals the template and compiles its stamp plan.
    stamp(names.remove(0));

    let before = allocs();
    for name in names {
        stamp(name);
    }
    let made = allocs() - before;

    assert_eq!(made, 818, "allocations for {N} clone stamps");
}

/// A platform with a captured evaluation-guest template: the platform,
/// its toolstack and the template.
fn with_template() -> (Platform, DomId, DomId) {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let tpl = p
        .create_guest(ts, GuestConfig::evaluation_guest("tpl"))
        .unwrap();
    p.capture_template(ts, tpl).unwrap();
    (p, ts, tpl)
}

#[test]
fn platform_clone_allocations_are_pinned() {
    const N: usize = 100;
    let (mut p, ts, tpl) = with_template();
    let names: Vec<String> = (0..=N).map(|i| format!("c{i}")).collect();
    // The first clone seals the template and compiles its stamp plan.
    p.clone_guest(ts, tpl, &names[0]).unwrap();

    let before = allocs();
    for name in &names[1..] {
        p.clone_guest(ts, tpl, name).unwrap();
    }
    let made = allocs() - before;

    assert_eq!(
        made, 10_336,
        "allocations for {N} Platform::clone_guest calls"
    );
}

#[test]
fn platform_destroy_allocations_are_pinned() {
    const N: usize = 100;
    let (mut p, ts, tpl) = with_template();
    let clones: Vec<DomId> = (0..=N)
        .map(|i| p.clone_guest(ts, tpl, &format!("c{i}")).unwrap())
        .collect();
    p.destroy_guest(ts, clones[0]).unwrap();

    let before = allocs();
    for &clone in &clones[1..] {
        p.destroy_guest(ts, clone).unwrap();
    }
    let made = allocs() - before;

    assert_eq!(
        made, 2_001,
        "allocations for {N} Platform::destroy_guest calls"
    );
}

#[test]
fn built_guest_allocations_are_pinned() {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    // The first guest makes the store's shared directories and warms
    // every table a guest touches.
    let warm = p
        .create_guest(ts, GuestConfig::evaluation_guest("warm"))
        .unwrap();
    p.destroy_guest(ts, warm).unwrap();
    // The config is made before counting; the call takes it by move.
    let cfg = GuestConfig::evaluation_guest("b");

    let before = allocs();
    let guest = p.create_guest(ts, cfg).unwrap();
    p.destroy_guest(ts, guest).unwrap();
    let made = allocs() - before;

    assert_eq!(
        made, 179,
        "allocations for one create_guest and destroy_guest"
    );
}
