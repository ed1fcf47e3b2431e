//! The lockstep isolation spec attached to full platforms: gated dedup
//! and live migration with HA checkpointing, each checked hypercall by
//! hypercall.

use xoar_analysis::spec::SpecHandle;
use xoar_core::ha::HaSession;
use xoar_core::migration::{migrate, MigrationConfig};
use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::Hypercall;

fn clean(h: &SpecHandle) -> bool {
    h.divergence().is_none()
}

#[test]
fn gated_dedup_merges_across_domains_without_divergence() {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let a = p
        .create_guest(ts, GuestConfig::evaluation_guest("a"))
        .unwrap();
    let b = p
        .create_guest(ts, GuestConfig::evaluation_guest("b"))
        .unwrap();
    let h = SpecHandle::attach(&mut p.hv);
    // Identical bytes at distinct PFNs of two guests: the merge frees
    // one guest's frame and remaps it onto a frame the other owns.
    h.note_write(a);
    h.note_write(b);
    p.hv.mem.write(a, Pfn(20), b"same-bytes").unwrap();
    p.hv.mem.write(b, Pfn(21), b"same-bytes").unwrap();
    p.hv.hypercall(ts, Hypercall::SchedYield).unwrap();
    assert!(clean(&h), "{}", h.report().unwrap_or_default());
    assert!(p.dedup_memory() > 0, "the two pages must merge");
    assert!(clean(&h), "{}", h.report().unwrap_or_default());
}

#[test]
fn migration_with_ha_checkpoints_refines_the_spec_on_every_host() {
    let host = || {
        let p = Platform::xoar(XoarConfig::default());
        let ts = p.services.toolstacks[0];
        (p, ts)
    };
    let (mut src, ts_src) = host();
    let (mut dst, ts_dst) = host();
    let (mut backup, ts_backup) = host();
    let g = src
        .create_guest(ts_src, GuestConfig::evaluation_guest("db"))
        .unwrap();
    let hs = [
        SpecHandle::attach(&mut src.hv),
        SpecHandle::attach(&mut dst.hv),
        SpecHandle::attach(&mut backup.hv),
    ];
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
                hs[0].note_write(g);
                p.hv.mem.write(g, Pfn(30), b"late-write").unwrap();
                wrote = true;
            }
            ha.checkpoint(p, &mut backup).unwrap();
        },
    )
    .unwrap();
    assert!(wrote, "the round hook ran");
    assert_eq!(
        dst.hv.mem.read(report.new_dom, Pfn(30)).unwrap(),
        b"late-write"
    );
    for (host, h) in ["source", "destination", "backup"].iter().zip(&hs) {
        assert!(
            clean(h),
            "{host} diverged:\n{}",
            h.report().unwrap_or_default()
        );
        assert!(h.checks() > 0, "{host} ran no check");
    }
}
