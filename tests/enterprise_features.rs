//! The enterprise features the paper insists disaggregation must keep
//! (introduction: efficient resource utilisation, live migration, memory
//! sharing, dense packing), exercised together across crates.

use xoar_analysis::eval::survey;
use xoar_core::migration::{migrate, MigrationConfig};
use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_core::toolstack::{ResourceQuota, Toolstack};
use xoar_devices::blk::BlkOp;
use xoar_devices::sriov::{sharing_analysis, SrIovNic};
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::PciAddress;

#[test]
fn consolidation_lifecycle_with_all_features() {
    // A private cloud: quota'd toolstack, dense fleet, dedup, then one VM
    // migrates away under load and the host's audit chain stays intact.
    let mut host_a = Platform::xoar(XoarConfig::default());
    let mut host_b = Platform::xoar(XoarConfig::default());
    let mut ts = Toolstack::new(&host_a, 0).with_quota(ResourceQuota {
        max_vms: 8,
        max_memory_mib: 8 * 1024,
        max_disk_bytes: 200 << 30,
    });

    // Fleet of four, identical images.
    let mut fleet = Vec::new();
    for i in 0..4 {
        let mut cfg = GuestConfig::evaluation_guest(&format!("node-{i}"));
        cfg.memory_mib = 512;
        let g = ts.create(&mut host_a, cfg).unwrap();
        for page in 0..8u64 {
            host_a.hv.mem.write(g, Pfn(40 + page), b"glibc.so").unwrap();
        }
        fleet.push(g);
    }
    // Dedup reclaims the common pages.
    let freed = host_a.dedup_memory();
    assert!(freed >= 3 * 8, "common pages collapsed: {freed}");

    // The fleet does I/O while one node migrates out.
    for &g in &fleet {
        host_a.blk_submit(g, BlkOp::Write, 0, 8).unwrap();
    }
    host_a.process_blkbacks();
    let mover = fleet[1];
    let ts_b = host_b.services.toolstacks[0];
    let report = migrate(
        &mut host_a,
        &mut host_b,
        mover,
        ts_b,
        MigrationConfig::default(),
        |_, _| {},
    )
    .unwrap();
    // The dedup'd page content followed the guest (CoW semantics made the
    // copy private or shared transparently).
    assert_eq!(
        host_b.hv.mem.read(report.new_dom, Pfn(40)).unwrap(),
        b"glibc.so"
    );
    // The rest of the fleet is still serving I/O on host A.
    for &g in &fleet {
        if g == mover {
            continue;
        }
        host_a.blk_submit(g, BlkOp::Write, 8, 8).unwrap();
    }
    assert_eq!(
        host_a.process_blkbacks().completed as usize,
        fleet.len() - 1
    );
    // Quota accounting followed the departure.
    assert_eq!(ts.list(&host_a).len(), fleet.len() - 1);
    // Audit chains on both hosts verify.
    assert_eq!(host_a.audit.verify_chain(), Ok(()));
    assert_eq!(host_b.audit.verify_chain(), Ok(()));
}

#[test]
fn sriov_trades_driver_domains_for_persistent_pciback() {
    // §5.3's irony, end to end: SR-IOV needs PCIBack kept alive.
    let mut p = Platform::xoar(XoarConfig {
        keep_pciback: true,
        ..Default::default()
    });
    let ts = p.services.toolstacks[0];
    let g1 = p
        .create_guest(ts, GuestConfig::evaluation_guest("vf-guest-1"))
        .unwrap();
    let g2 = p
        .create_guest(ts, GuestConfig::evaluation_guest("vf-guest-2"))
        .unwrap();
    let mut nic = SrIovNic::new(PciAddress::new(0, 2, 0), 8);
    let pciback = p.pciback.as_mut().expect("kept alive");
    nic.enable(pciback, 4).unwrap();
    let vf1 = nic.assign_vf(pciback, g1).unwrap();
    let vf2 = nic.assign_vf(pciback, g2).unwrap();
    assert_ne!(vf1, vf2);
    // Static vs dynamic persistent-sharing comparison.
    let a = sharing_analysis(true);
    assert!(a.with_sriov > a.with_driver_domain);
    // And the memory cost is visible: keep_pciback adds its 256 MiB.
    assert_eq!(p.service_memory_mib(), 640 + 256);
}

#[test]
fn surface_survey_tracks_fleet_growth() {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let base = survey(&p).total_interfaces();
    for i in 0..3 {
        p.create_guest(ts, GuestConfig::evaluation_guest(&format!("g{i}")))
            .unwrap();
    }
    let grown = survey(&p);
    assert!(grown.total_interfaces() > base);
    // Growth lands on the data-path shards, not on the Builder.
    let builder = grown
        .components
        .iter()
        .find(|c| c.name == "Builder")
        .unwrap();
    assert_eq!(builder.guest_event_channels, 0);
    assert_eq!(builder.guest_grants, 0);
}

#[test]
fn dedup_then_migrate_then_restart_storm() {
    // Torture sequence combining three state-mutating subsystems.
    use xoar_core::restart::{RestartEngine, RestartPath, RestartPolicy};
    let mut a = Platform::xoar(XoarConfig::default());
    let mut b = Platform::xoar(XoarConfig::default());
    let ts_a = a.services.toolstacks[0];
    let ts_b = b.services.toolstacks[0];
    let g1 = a
        .create_guest(ts_a, GuestConfig::evaluation_guest("g1"))
        .unwrap();
    let g2 = a
        .create_guest(ts_a, GuestConfig::evaluation_guest("g2"))
        .unwrap();
    for g in [g1, g2] {
        a.hv.mem.write(g, Pfn(50), b"same-everywhere").unwrap();
    }
    a.dedup_memory();
    let report = migrate(
        &mut a,
        &mut b,
        g1,
        ts_b,
        MigrationConfig::default(),
        |_, _| {},
    )
    .unwrap();
    // Restart storm on the destination's NetBack while the migrant runs.
    let nb = b.services.netbacks[0];
    let mut eng = RestartEngine::new();
    eng.register(&mut b, nb, RestartPolicy::Never, RestartPath::Fast)
        .unwrap();
    for _ in 0..10 {
        eng.restart(&mut b, nb).unwrap();
    }
    // Everyone's data intact everywhere.
    assert_eq!(a.hv.mem.read(g2, Pfn(50)).unwrap(), b"same-everywhere");
    assert_eq!(
        b.hv.mem.read(report.new_dom, Pfn(50)).unwrap(),
        b"same-everywhere"
    );
    assert_eq!(b.hv.rollback_count(nb), 10);
}
