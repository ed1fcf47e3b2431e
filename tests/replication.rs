//! Dirty-page consumers on one guest must not steal pages from each
//! other.
//!
//! Live migration, Remus-style HA checkpointing and the microreboot
//! snapshot all ask "which pages changed since I last looked?". Each
//! keeps its own answer: draining one consumer's dirty log leaves every
//! other consumer's log untouched.

use xoar_core::ha::HaSession;
use xoar_core::migration::{migrate, MigrationConfig};
use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::DomId;

fn host() -> (Platform, DomId) {
    let p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    (p, ts)
}

#[test]
fn ha_checkpoint_during_migration_keeps_the_late_write() {
    let (mut src, ts_src) = host();
    let (mut dst, ts_dst) = host();
    let (mut backup, ts_backup) = host();
    let g = src
        .create_guest(ts_src, GuestConfig::evaluation_guest("db"))
        .unwrap();
    let mut ha = HaSession::protect(&mut src, &mut backup, g, ts_backup).unwrap();
    let mut wrote = false;
    let report = migrate(
        &mut src,
        &mut dst,
        g,
        ts_dst,
        MigrationConfig::default(),
        |p, g| {
            if !wrote {
                p.hv.mem.write(g, Pfn(30), b"late-write").unwrap();
                wrote = true;
            }
            // The HA session drains its own log, not the migration's.
            ha.checkpoint(p, &mut backup).unwrap();
        },
    )
    .unwrap();
    assert_eq!(
        dst.hv.mem.read(report.new_dom, Pfn(30)).unwrap(),
        b"late-write",
        "the migration shipped the page the checkpoint also shipped"
    );
    assert_eq!(
        backup.hv.mem.read(ha.shadow, Pfn(30)).unwrap(),
        b"late-write"
    );
}

#[test]
fn ha_checkpoint_on_a_frozen_guest_keeps_the_rollback_set() {
    let (mut p, ts) = host();
    let (mut backup, ts_backup) = host();
    let g = p
        .create_guest(ts, GuestConfig::evaluation_guest("svc"))
        .unwrap();
    p.hv.mem.write(g, Pfn(40), b"before").unwrap();
    let mut ha = HaSession::protect(&mut p, &mut backup, g, ts_backup).unwrap();
    p.hv.mem.freeze(g);
    p.hv.mem.write(g, Pfn(40), b"after").unwrap();
    assert_eq!(ha.checkpoint(&mut p, &mut backup).unwrap(), 1);
    let restored = p.hv.mem.rollback_frozen(g, |_| false).unwrap();
    assert_eq!(restored, 1, "the checkpoint left the snapshot's log alone");
    assert_eq!(p.hv.mem.read(g, Pfn(40)).unwrap(), b"before");
    // The shadow saw the write the rollback then undid, and the undo
    // is itself a change the next checkpoint ships.
    assert_eq!(backup.hv.mem.read(ha.shadow, Pfn(40)).unwrap(), b"after");
    assert_eq!(ha.checkpoint(&mut p, &mut backup).unwrap(), 1);
    assert_eq!(backup.hv.mem.read(ha.shadow, Pfn(40)).unwrap(), b"before");
}
