//! Pins the heap cost of the data paths once they are warm. Block: a
//! page write, a backend pass and a completion poll allocate nothing,
//! and a batched submit allocates only the returned id list. Network
//! over the fabric: a transmit and a NetBack pass (tx drain, switch and
//! notify) allocate nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_devices::blk::{BlkOp, BlkStatus};
use xoar_hypervisor::memory::Pfn;

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

/// Allocations made by `f`, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocs();
    let out = f();
    (allocs() - before, out)
}

/// Sectors per 4 KiB page.
const PAGE_SECTORS: u64 = 8;
/// Guest pages the writes copy from.
const SRC_PFN: u64 = 16;
/// Page-sized slots the rounds read and write.
const SLOTS: u64 = 16;
const READS: u64 = 8;
const WRITES: u64 = 4;

/// Per-call allocation totals of the block data path over `ROUNDS`
/// warm rounds, each one batch of reads, four page writes, a backend
/// pass and a poll per request.
#[test]
fn block_data_path_allocations_are_pinned() {
    const ROUNDS: u64 = 64;
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let g = p
        .create_guest(ts, GuestConfig::evaluation_guest("g"))
        .unwrap();
    p.hv.mem.write(g, Pfn(SRC_PFN), &[0x5a; 4096]).unwrap();

    let (mut submit, mut write, mut process, mut poll) = (0, 0, 0, 0);
    // Round 0 warms up: it writes every slot once, so no later store
    // grows the image's page map.
    for round in 0..=ROUNDS {
        let reads = [(BlkOp::Read, (round % SLOTS) * PAGE_SECTORS, PAGE_SECTORS); READS as usize];
        let (n_submit, ids) = counted(|| p.blk_submit_batch(g, &reads).unwrap());
        assert_eq!(ids.len(), READS as usize);
        let mut n_write = 0;
        let writes = if round == 0 { SLOTS } else { WRITES };
        for w in 0..writes {
            let sector = ((round + w) % SLOTS) * PAGE_SECTORS;
            let (n, res) = counted(|| p.blk_write_page(g, sector, SRC_PFN));
            res.unwrap();
            n_write += n;
        }
        let (n_process, stats) = counted(|| p.process_blkbacks());
        assert_eq!(stats.completed, READS + writes);
        let mut n_poll = 0;
        for _ in 0..READS + writes {
            let (n, resp) = counted(|| p.blk_poll(g));
            assert_eq!(resp.unwrap().status, BlkStatus::Ok);
            n_poll += n;
        }
        if round > 0 {
            submit += n_submit;
            write += n_write;
            process += n_process;
            poll += n_poll;
        }
    }

    // Per call, warm: a page write, a BlkBack pass and a poll make
    // none; a batched submit makes only the returned ids.
    let per_call = |made: u64, calls: u64| made as f64 / calls as f64;
    assert_eq!(
        [
            per_call(write, ROUNDS * WRITES),
            per_call(process, ROUNDS),
            per_call(poll, ROUNDS * (READS + WRITES)),
            per_call(submit, ROUNDS),
        ],
        [0.0, 0.0, 0.0, 1.0],
        "allocations per blk_write_page, process_blkbacks, blk_poll and blk_submit_batch"
    );
}

/// Per-call allocation totals of a warm fabric pass: one guest sends a
/// frame to another over the switch, NetBack drains it into the fabric,
/// the switch delivers it and notifies the destination backend.
#[test]
fn fabric_data_path_allocations_are_pinned() {
    const ROUNDS: u64 = 64;
    const WARMUP: u64 = 4;
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let a = p
        .create_guest(ts, GuestConfig::evaluation_guest("a"))
        .unwrap();
    let b = p
        .create_guest(ts, GuestConfig::evaluation_guest("b"))
        .unwrap();
    p.enable_fabric();
    assert!(p.fabric_open_flow(1, a, b));

    let (mut transmit, mut process) = (0, 0);
    for round in 0..WARMUP + ROUNDS {
        let (n_transmit, seq) = counted(|| p.net_transmit(a, 1, 1500));
        seq.unwrap();
        let (n_process, stats) = counted(|| p.process_netbacks());
        assert_eq!(stats.tx_frames, 1);
        // Drain the sender's completion and the receiver's frame.
        assert!(p.net_receive(a).is_some());
        assert_eq!(p.net_receive(b).map(|f| f.flow), Some(1));
        if round >= WARMUP {
            transmit += n_transmit;
            process += n_process;
        }
    }
    let switched = p.fabric.as_ref().unwrap().lifetime_stats();
    assert_eq!(switched.to_guests, WARMUP + ROUNDS);
    assert_eq!(
        [transmit, process],
        [0, 0],
        "allocations over {ROUNDS} warm net_transmit and process_netbacks calls"
    );
}
