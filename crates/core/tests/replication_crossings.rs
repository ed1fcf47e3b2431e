//! Pins how many times page replication crosses the destination's gate.
//!
//! Migration and HA ship pages through one copy loop that sends at most
//! 256 pages per `MmuWriteForeign`, so a shipped set of n pages costs
//! exactly ⌈n/256⌉ crossings. A [`GateObserver`] on the destination
//! records the size of every batch that crosses, in order; the migration
//! is shaped like the `migrate_dirty` benchmark (1,000 written pages,
//! then 256 dirtied, then 4), and its report is pinned too.

use std::cell::RefCell;
use std::rc::Rc;

use xoar_core::ha::HaSession;
use xoar_core::migration::{migrate, MigrationConfig};
use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::{DomId, GateObserver, HvResult, Hypercall, HypercallRet, Hypervisor};

/// The page count of every `MmuWriteForeign` the gate let through.
struct Batches(Rc<RefCell<Vec<usize>>>);

impl GateObserver for Batches {
    fn observe(
        &mut self,
        _hv: &Hypervisor,
        _caller: DomId,
        call: &Hypercall,
        result: &HvResult<HypercallRet>,
    ) {
        if let (Hypercall::MmuWriteForeign { pages, .. }, Ok(_)) = (call, result) {
            self.0.borrow_mut().push(pages.len());
        }
    }
}

fn host() -> (Platform, DomId) {
    let p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    (p, ts)
}

fn watch(p: &mut Platform) -> Rc<RefCell<Vec<usize>>> {
    let seen = Rc::new(RefCell::new(Vec::new()));
    p.hv.attach_observer(Box::new(Batches(seen.clone())));
    seen
}

/// Writes `count` distinct pages from PFN 16 on, tagged with `round`.
fn write_pages(p: &mut Platform, g: DomId, count: u64, round: u32) {
    for i in 0..count {
        let body = format!("page {i} round {round}");
        p.hv.mem.write(g, Pfn(16 + i), body.as_bytes()).unwrap();
    }
}

#[test]
fn a_migration_crosses_the_gate_once_per_256_pages() {
    let (mut src, ts_src) = host();
    let (mut dst, ts_dst) = host();
    let g = src
        .create_guest(ts_src, GuestConfig::evaluation_guest("mover"))
        .unwrap();
    write_pages(&mut src, g, 1000, 0);
    let seen = watch(&mut dst);
    let mut round = 0;
    let report = migrate(
        &mut src,
        &mut dst,
        g,
        ts_dst,
        MigrationConfig::default(),
        |p, g| {
            round += 1;
            match round {
                1 => write_pages(p, g, 256, 1),
                2 => write_pages(p, g, 4, 2),
                _ => {}
            }
        },
    )
    .unwrap();
    // The shell's Builder writes its kernel and start-info pages, one
    // call each. Round 0 then ships the 1,000 pages and those two
    // (4 batches), pre-copy round 1 the 256 (1), stop-and-copy the 4 (1).
    assert_eq!(*seen.borrow(), [1, 1, 256, 256, 256, 234, 256, 4]);
    let pinned = (report.rounds, report.pages_total, report.pages_final);
    assert_eq!(pinned, (1, 1284, 4));
    assert_eq!(report.downtime_ns, 2_140_034);
    assert_eq!(
        dst.hv.mem.read(report.new_dom, Pfn(16)).unwrap(),
        b"page 0 round 2"
    );
}

#[test]
fn an_ha_checkpoint_crosses_the_gate_once_per_256_pages() {
    let (mut primary, ts) = host();
    let (mut backup, ts_backup) = host();
    let g = primary
        .create_guest(ts, GuestConfig::evaluation_guest("db"))
        .unwrap();
    let mut ha = HaSession::protect(&mut primary, &mut backup, g, ts_backup).unwrap();
    let seen = watch(&mut backup);
    for (epoch, k) in [0u64, 1, 255, 256, 257, 600].into_iter().enumerate() {
        write_pages(&mut primary, g, k, epoch as u32);
        seen.borrow_mut().clear();
        assert_eq!(ha.checkpoint(&mut primary, &mut backup).unwrap(), k);
        let batches = seen.borrow();
        assert_eq!(batches.len() as u64, k.div_ceil(256), "{k} pages");
        assert_eq!(batches.iter().sum::<usize>() as u64, k);
    }
}
