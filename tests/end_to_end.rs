//! End-to-end integration: boot, guest lifecycle, I/O, and teardown on
//! both platform configurations.

use xoar_core::platform::{GuestConfig, Platform, PlatformMode, XoarConfig};
use xoar_devices::blk::BlkOp;
use xoar_devices::net::NetPacket;
use xoar_hypervisor::{DomainState, Hypercall};

fn both_platforms() -> Vec<Platform> {
    vec![Platform::stock_xen(), Platform::xoar(XoarConfig::default())]
}

#[test]
fn full_guest_lifecycle_on_both_platforms() {
    for mut p in both_platforms() {
        let ts = p.services.toolstacks[0];
        // Create three guests.
        let guests: Vec<_> = (0..3)
            .map(|i| {
                p.create_guest(ts, GuestConfig::evaluation_guest(&format!("guest-{i}")))
                    .expect("create")
            })
            .collect();
        assert_eq!(p.guests().len(), 3);
        // Every guest is running with both devices connected.
        for &g in &guests {
            assert_eq!(p.hv.domain(g).unwrap().state, DomainState::Running);
            let h = p.guest(g).unwrap();
            assert!(h.netfront.is_some() && h.blkfront.is_some());
        }
        // Destroy them all; resources drain.
        for &g in &guests {
            p.destroy_guest(ts, g).expect("destroy");
        }
        assert!(p.guests().is_empty());
        for &g in &guests {
            assert_eq!(p.hv.domain(g).unwrap().state, DomainState::Dead);
        }
    }
}

#[test]
fn disk_io_round_trip_with_data_integrity_checks() {
    for mut p in both_platforms() {
        let ts = p.services.toolstacks[0];
        let g = p
            .create_guest(ts, GuestConfig::evaluation_guest("db"))
            .unwrap();
        // Submit a burst larger than one ring's worth.
        let mut submitted = 0u64;
        let mut completed = 0u64;
        for i in 0..100u64 {
            loop {
                match p.blk_submit(g, BlkOp::Write, i * 8, 8) {
                    Ok(_) => break,
                    Err(_) => {
                        p.process_blkbacks();
                        while p.blk_poll(g).is_some() {
                            completed += 1;
                        }
                    }
                }
            }
            submitted += 1;
        }
        p.process_blkbacks();
        while p.blk_poll(g).is_some() {
            completed += 1;
        }
        assert_eq!(submitted, 100);
        assert_eq!(completed, 100, "every write completed ({})", p_name(&p));
    }
}

fn p_name(p: &Platform) -> &'static str {
    match p.mode {
        PlatformMode::StockXen => "stock xen",
        PlatformMode::Xoar => "xoar",
    }
}

#[test]
fn network_echo_through_wire() {
    for mut p in both_platforms() {
        let ts = p.services.toolstacks[0];
        let g = p
            .create_guest(ts, GuestConfig::evaluation_guest("web"))
            .unwrap();
        // Guest transmits; remote echoes back; guest receives.
        p.net_transmit(g, 7, 9000).unwrap();
        p.process_netbacks();
        let sent = p.wire.take_outbound();
        assert_eq!(sent.len(), 1);
        p.wire
            .send_to_guest(g, NetPacket::meta(7, 99, sent[0].bytes));
        p.process_netbacks();
        // First response is the tx completion, then the echo.
        let completions: Vec<_> = std::iter::from_fn(|| p.net_receive(g)).collect();
        assert!(completions
            .iter()
            .any(|pkt| pkt.seq == 99 && pkt.bytes == 9000));
    }
}

#[test]
fn xenstore_device_tree_is_fully_populated() {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let g = p
        .create_guest(ts, GuestConfig::evaluation_guest("inspect"))
        .unwrap();
    let nb = p.guest(g).unwrap().netback.unwrap();
    let fp = format!("/local/domain/{}/device/vif/0", g.0);
    let bp = format!("/local/domain/{}/backend/vif/{}/0", nb.0, g.0);
    // Both ends Connected, rendezvous details published.
    assert_eq!(p.xs.read_str(ts, &format!("{fp}/state")).unwrap(), "4");
    assert_eq!(p.xs.read_str(ts, &format!("{bp}/state")).unwrap(), "4");
    let ring_ref: u32 =
        p.xs.read_str(ts, &format!("{fp}/ring-ref"))
            .unwrap()
            .parse()
            .unwrap();
    let evtchn: u32 =
        p.xs.read_str(ts, &format!("{fp}/event-channel"))
            .unwrap()
            .parse()
            .unwrap();
    // The published grant exists in the guest's table, granted to NetBack.
    let table = p.hv.grant_table(g).unwrap();
    assert!(table
        .granted_to(nb)
        .iter()
        .any(|(gref, _)| gref.0 == ring_ref));
    // The published event channel is connected.
    assert!(p.hv.event_connected(g, evtchn));
}

#[test]
fn xenstore_logic_restart_under_live_platform() {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let g = p
        .create_guest(ts, GuestConfig::evaluation_guest("persist"))
        .unwrap();
    let key = format!("/local/domain/{}/data/app", g.0);
    p.xs.write_str(g, &key, "checkpoint-1").unwrap();
    // Microreboot the Logic half mid-flight.
    p.xs.restart_logic();
    assert_eq!(p.xs.read_str(g, &key).unwrap(), "checkpoint-1");
    // Device tree survived too: a second guest can still be created.
    let g2 = p
        .create_guest(ts, GuestConfig::evaluation_guest("after"))
        .unwrap();
    assert!(p.guest(g2).is_some());
}

#[test]
fn guest_console_reaches_console_manager() {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let g = p
        .create_guest(ts, GuestConfig::evaluation_guest("noisy"))
        .unwrap();
    p.hv.hypercall(
        g,
        Hypercall::ConsoleWrite {
            data: b"[ OK ] Reached target".to_vec(),
        },
    )
    .unwrap();
    p.console_mgr.process(&mut p.hv);
    assert!(p.console_mgr.log_of(g).starts_with(b"[ OK ]"));
}

#[test]
fn scheduler_accounts_shards_and_guests() {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let g = p
        .create_guest(ts, GuestConfig::evaluation_guest("busy"))
        .unwrap();
    p.hv.sched.set_runnable(g, true);
    let granted = p.hv.sched.account(10_000_000);
    assert!(granted.contains_key(&g), "guest received CPU time");
    let total: u64 = granted.values().sum();
    assert!(total <= 10_000_000 * p.hv.host_config().cpus as u64);
}

#[test]
fn memory_is_reclaimed_after_destroy() {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let free_before = p.hv.mem.free_frames();
    let g = p
        .create_guest(ts, GuestConfig::evaluation_guest("temp"))
        .unwrap();
    assert!(p.hv.mem.free_frames() < free_before);
    p.destroy_guest(ts, g).unwrap();
    // The backends unmap the ring pages as the devices are unlinked, so
    // every frame returns, the rings included.
    let leaked = free_before - p.hv.mem.free_frames();
    assert_eq!(leaked, 0, "frames left allocated after destroy");
}

#[test]
fn platform_survives_many_create_destroy_cycles() {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    for i in 0..25 {
        let g = p
            .create_guest(ts, GuestConfig::evaluation_guest(&format!("cycle-{i}")))
            .unwrap_or_else(|e| panic!("cycle {i}: {e}"));
        p.blk_submit(g, BlkOp::Write, 0, 8).unwrap();
        p.process_blkbacks();
        p.destroy_guest(ts, g).unwrap();
    }
    assert!(p.guests().is_empty());
    assert_eq!(p.audit.records().len(), 25 * 6, "6 audit records per cycle");
}

#[test]
fn hvm_guest_device_emulation_io() {
    // The emulated path end to end: trapped port I/O dispatches to the
    // stub's device model, and DMA lands in the guest through the real
    // privilege boundary.
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let mut cfg = GuestConfig::evaluation_guest("hvm");
    cfg.hvm = true;
    let g = p.create_guest(ts, cfg).unwrap();
    let model = p.qemus.get_mut(&g).expect("stub model exists");
    // BIOS banner over the emulated serial port.
    for b in b"SeaBIOS (version 1.6.3)" {
        model.io_write(0x3f8, *b as u32).unwrap();
    }
    assert_eq!(model.serial_output(), b"SeaBIOS (version 1.6.3)");
    // IDE sector latch + DMA of the boot sector.
    model.io_write(0x1f3, 0).unwrap();
    model
        .dma_to_guest(&mut p.hv, xoar_hypervisor::memory::Pfn(8), b"MBR")
        .unwrap();
    assert_eq!(
        p.hv.mem.read(g, xoar_hypervisor::memory::Pfn(8)).unwrap(),
        b"MBR"
    );
    // The model's cost accounting moved.
    let stats = p.qemus.get(&g).unwrap().stats();
    assert!(stats.io_exits >= 24);
    assert_eq!(stats.dma_ops, 1);
}

#[test]
fn xenstore_ring_transport_on_platform() {
    // Guests can reach the store over the boot-time ring transport too.
    use xoar_xenstore::{Request, Response, XsRingTransport};
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let g = p
        .create_guest(ts, GuestConfig::evaluation_guest("ringer"))
        .unwrap();
    let mut transport = XsRingTransport::new();
    transport.connect(g);
    transport
        .submit(
            g,
            Request::Write {
                txn: None,
                path: format!("/local/domain/{}/data/boot", g.0),
                value: b"ok".to_vec(),
            },
        )
        .unwrap();
    transport.service(&mut p.xs);
    assert!(matches!(transport.poll(g).unwrap().1, Response::Ok));
    assert_eq!(
        p.xs.read_str(g, &format!("/local/domain/{}/data/boot", g.0))
            .unwrap(),
        "ok"
    );
}
