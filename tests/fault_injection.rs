//! Fault injection: crashes, mid-flight detaches, restart storms, and
//! resource exhaustion across crate boundaries.

use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_core::restart::{RestartEngine, RestartPath, RestartPolicy};
use xoar_devices::blk::BlkOp;
use xoar_hypervisor::{DomId, DomainState, Hypercall};

fn xoar_with_guest() -> (Platform, DomId, DomId) {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let g = p
        .create_guest(ts, GuestConfig::evaluation_guest("victim"))
        .unwrap();
    (p, ts, g)
}

#[test]
fn netback_crash_is_survivable_and_recoverable() {
    let (mut p, _ts, g) = xoar_with_guest();
    let nb = p.services.netbacks[0];
    // Traffic in flight when the driver domain dies.
    p.net_transmit(g, 1, 1500).unwrap();
    p.hv.crash_domain(nb).unwrap();
    // The guest survives; the host does not reboot.
    assert_eq!(p.hv.domain(g).unwrap().state, DomainState::Running);
    assert_eq!(p.hv.host_reboot_count(), 0);
    // The guest's event channel to the dead backend is broken.
    let conn = p.guest(g).unwrap().netfront.as_ref().unwrap().conn;
    assert!(!p.hv.event_connected(g, conn.front_port));
}

#[test]
fn blkback_restart_storm_preserves_correctness() {
    let (mut p, _ts, g) = xoar_with_guest();
    let bb = p.services.blkbacks[0];
    let mut engine = RestartEngine::new();
    engine
        .register(
            &mut p,
            bb,
            RestartPolicy::Timer { interval_ns: 1 },
            RestartPath::Fast,
        )
        .unwrap();
    let mut completed = 0u64;
    let mut retransmits = 0u64;
    for round in 0..50u64 {
        // Submit, then sometimes restart before the backend runs.
        let sector = round * 8;
        if p.blk_submit(g, BlkOp::Write, sector, 8).is_err() {
            // Ring detached by a previous restart: frontends renegotiate;
            // the fast path recreated the ring, so retry once.
            retransmits += 1;
            p.blk_submit(g, BlkOp::Write, sector, 8).unwrap();
        }
        if round % 3 == 0 {
            p.advance_time(1_000_000);
            engine.restart(&mut p, bb).unwrap();
            retransmits += 1; // The in-flight request was dropped.
        } else {
            completed += p.process_blkbacks().completed;
            while p.blk_poll(g).is_some() {}
        }
    }
    assert!(completed > 20, "most rounds complete ({completed})");
    assert!(retransmits > 0, "storm actually dropped work");
    assert_eq!(p.hv.rollback_count(bb), engine.total_restarts());
}

#[test]
fn xenstore_logic_restart_storm_loses_nothing_durable() {
    let (mut p, _ts, g) = xoar_with_guest();
    for i in 0..200 {
        let key = format!("/local/domain/{}/data/k{i}", g.0);
        p.xs.write_str(g, &key, &format!("v{i}")).unwrap();
        if i % 7 == 0 {
            p.xs.restart_logic();
        }
    }
    p.xs.restart_logic();
    for i in 0..200 {
        let key = format!("/local/domain/{}/data/k{i}", g.0);
        assert_eq!(p.xs.read_str(g, &key).unwrap(), format!("v{i}"));
    }
    assert!(p.xs.logic_restarts() >= 29);
}

#[test]
fn guest_crash_releases_shard_attachments() {
    let (mut p, ts, g) = xoar_with_guest();
    p.destroy_guest(ts, g).unwrap();
    // The BlkBack image store unmounted the root image: a new guest with
    // the same name can be created (image name collision would fail).
    let g2 = p
        .create_guest(ts, GuestConfig::evaluation_guest("victim2"))
        .unwrap();
    assert!(p.guest(g2).is_some());
    // NetBack serves only the new guest.
    assert_eq!(p.netbacks[0].conn_iter().count(), 1);
}

#[test]
fn memory_exhaustion_fails_cleanly() {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let mut created = 0;
    // 4 GiB host, shards take ~640 MiB-equivalent frames; giant guests
    // must eventually fail without panicking or corrupting state.
    loop {
        let mut cfg = GuestConfig::evaluation_guest(&format!("big-{created}"));
        cfg.memory_mib = 900 * 1024; // Model-scale frames: 900Ki frames each.
        match p.create_guest(ts, cfg) {
            Ok(_) => created += 1,
            Err(_) => break,
        }
        assert!(created < 64, "host memory must be finite");
    }
    // Platform still functional for a reasonable guest.
    let g = p
        .create_guest(ts, GuestConfig::evaluation_guest("small"))
        .unwrap();
    assert_eq!(p.hv.domain(g).unwrap().state, DomainState::Running);
}

#[test]
fn double_destroy_is_an_error_not_a_panic() {
    let (mut p, ts, g) = xoar_with_guest();
    p.destroy_guest(ts, g).unwrap();
    let err = p.destroy_guest(ts, g);
    assert!(err.is_err());
}

#[test]
fn dead_domain_cannot_act() {
    let (mut p, ts, g) = xoar_with_guest();
    p.destroy_guest(ts, g).unwrap();
    assert!(p.hv.hypercall(g, Hypercall::SchedYield).is_err());
    assert!(p.net_transmit(g, 1, 100).is_err());
}

#[test]
fn restart_before_snapshot_fails_loudly() {
    let (mut p, _ts, _g) = xoar_with_guest();
    let builder = p.services.builder;
    let nb = p.services.netbacks[0];
    // Rollback without a snapshot is refused by the hypervisor.
    let err =
        p.hv.hypercall(builder, Hypercall::VmRollback { target: nb });
    assert!(err.is_err());
}

#[test]
fn wire_flood_does_not_wedge_netback() {
    let (mut p, _ts, g) = xoar_with_guest();
    for i in 0..10_000u64 {
        p.wire
            .send_to_guest(g, xoar_devices::net::NetPacket::meta(1, i, 1500));
    }
    // Several passes drain the flood with bounded per-pass delivery.
    let mut delivered = 0;
    for _ in 0..200 {
        delivered += p.process_netbacks().rx_frames;
        while p.net_receive(g).is_some() {}
        if p.wire.inbound.is_empty() {
            break;
        }
    }
    assert_eq!(delivered, 10_000, "every frame eventually delivered");
}
