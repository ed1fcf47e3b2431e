//! Micro-benchmarks of the platform's hot mechanisms, on the in-tree
//! deterministic harness ([`xoar_bench::harness`]).
//!
//! These quantify the per-operation costs that the paper's performance
//! argument leans on: hypercall dispatch with whitelist checking, grant
//! map/unmap, event-channel signalling, ring round trips, XenStore
//! reads/writes, and snapshot rollback.

use std::hint::black_box;

use xoar_bench::harness::Harness;
use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_devices::blk::BlkOp;
use xoar_devices::ring::Ring;
use xoar_hypervisor::grant::GrantAccess;
use xoar_hypervisor::memory::{MemoryManager, PageRef, Pfn};
use xoar_hypervisor::sched::{RunQueues, VcpuRef};
use xoar_hypervisor::{DomId, Hypercall};
use xoar_xenstore::XenStore;

fn platform_with_guest() -> (Platform, DomId) {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let g = p
        .create_guest(ts, GuestConfig::evaluation_guest("bench"))
        .expect("guest");
    (p, g)
}

fn bench_hypercalls(h: &mut Harness) {
    let (mut p, g) = platform_with_guest();
    h.bench_function("hypercall/sched_yield", || {
        p.hv.hypercall(black_box(g), Hypercall::SchedYield).unwrap();
    });
    h.bench_function("hypercall/denied_privileged", || {
        let _ = p.hv.hypercall(black_box(g), Hypercall::SysctlPhysinfo);
    });
    // The dispatch path with no gate observer attached: the observer
    // check must cost one untaken branch, nothing more. bench-gate
    // holds this within 1.05x of the plain sched_yield number above.
    assert!(p.hv.take_observers().is_empty());
    h.bench_function("hypercall/dispatch_spec_off", || {
        p.hv.hypercall(black_box(g), Hypercall::SchedYield).unwrap();
    });
    // ...and with the checker attached: every hypercall advances the
    // memory-ownership model and re-verifies refinement. Debug tooling,
    // not a production path — reported for the EXPERIMENTS.md overhead
    // table, deliberately not a gated hot path.
    let _spec = xoar_analysis::spec::SpecHandle::attach(&mut p.hv);
    h.bench_function("hypercall/dispatch_spec_on", || {
        p.hv.hypercall(black_box(g), Hypercall::SchedYield).unwrap();
    });
    p.hv.take_observers();
}

fn bench_events(h: &mut Harness) {
    let (mut p, g) = platform_with_guest();
    let nb = p.services.netbacks[0];
    let port =
        p.hv.hypercall(g, Hypercall::EvtchnAllocUnbound { remote: nb })
            .unwrap()
            .port()
            .unwrap();
    let nb_port =
        p.hv.hypercall(
            nb,
            Hypercall::EvtchnBindInterdomain {
                remote: g,
                remote_port: port,
            },
        )
        .unwrap()
        .port()
        .unwrap();
    h.bench_function("evtchn/send_poll", || {
        p.hv.hypercall(g, Hypercall::EvtchnSend { port }).unwrap();
        p.hv.poll_event(black_box(nb)).unwrap();
    });
    // The full cross-region signalling round trip: each direction sets
    // a bit in the peer region's pending bitmap through the cross-region
    // module, then both pending bitmaps are drained.
    let mut drained = Vec::new();
    h.bench_function("evtchn/cross_region_send", || {
        p.hv.hypercall(g, Hypercall::EvtchnSend { port }).unwrap();
        p.hv.hypercall(nb, Hypercall::EvtchnSend { port: nb_port })
            .unwrap();
        p.hv.drain_pending_into(black_box(nb), &mut drained);
        p.hv.drain_pending_into(black_box(g), &mut drained);
        drained.clear();
    });
}

fn bench_runqueues(h: &mut Harness) {
    let (p, g) = platform_with_guest();
    // Eight vcpus spread over four runqueues: pick from a non-empty
    // local queue, then the steady-state steal (queue 1 empty, queue 0
    // holding surplus).
    let mut rq = RunQueues::new(4);
    for v in 0..8u32 {
        rq.enqueue(v as usize % 4, VcpuRef { dom: g, vcpu: v });
    }
    h.bench_function("sched/runqueue_pick_next", || {
        let v = rq.pick_next(black_box(0), &p.hv.sched).unwrap();
        rq.enqueue(0, v);
    });
    let mut rq = RunQueues::new(2);
    for v in 0..3u32 {
        rq.enqueue(0, VcpuRef { dom: g, vcpu: v });
    }
    h.bench_function("sched/steal", || {
        let v = rq.steal(black_box(1)).unwrap();
        rq.enqueue(0, v);
    });
}

fn bench_grants(h: &mut Harness) {
    let (mut p, g) = platform_with_guest();
    let nb = p.services.netbacks[0];
    let gref =
        p.hv.hypercall(
            g,
            Hypercall::GnttabGrantAccess {
                grantee: nb,
                pfn: Pfn(30),
                access: GrantAccess::ReadWrite,
            },
        )
        .unwrap()
        .grant_ref()
        .unwrap();
    h.bench_function("grant/map_unmap", || {
        p.hv.hypercall(nb, Hypercall::GnttabMapGrantRef { granter: g, gref })
            .unwrap();
        p.hv.hypercall(nb, Hypercall::GnttabUnmapGrantRef { granter: g, gref })
            .unwrap();
    });
}

fn bench_ring_round_trip(h: &mut Harness) {
    let (mut p, g) = platform_with_guest();
    let mut sector = 0u64;
    h.bench_function("blk/submit_process_poll", || {
        p.blk_submit(g, BlkOp::Write, sector % 4096, 8).unwrap();
        sector += 8;
        p.process_blkbacks();
        p.blk_poll(g).unwrap();
    });
    h.bench_function("net/transmit_process", || {
        p.net_transmit(g, 1, 1500).unwrap();
        p.process_netbacks();
        p.net_receive(g).unwrap();
        // Nothing drains the simulated wire here; without this the
        // outbound queue doubles repeatedly and the reallocation spikes
        // dominate the p95 tail.
        p.wire.outbound.clear();
    });
}

fn bench_memory_pages(h: &mut Harness) {
    let (mut p, g) = platform_with_guest();
    p.hv.mem.write(g, Pfn(40), &[0xa5u8; 4096]).unwrap();
    h.bench_function("mem/page_write", || {
        p.hv.mem
            .write(g, Pfn(41), black_box(&[0x5au8; 512]))
            .unwrap();
    });
    // A full zero page takes the canonical zero-frame path: one
    // word-wise scan, no buffer allocation.
    h.bench_function("mem/page_write_zero", || {
        p.hv.mem.write(g, Pfn(42), black_box(&[0u8; 4096])).unwrap();
    });
    // `read` hands back a shared PageRef, not a byte copy.
    h.bench_function("mem/page_read_handle", || {
        black_box(p.hv.mem.read(g, Pfn(40)).unwrap());
    });
    let mut ring: Ring<PageRef, PageRef> = Ring::new(8);
    let page = PageRef::new(&[7u8; 4096]);
    h.bench_function("ring/page_round_trip", || {
        ring.push_request(page.clone()).unwrap();
        let req = ring.pop_request().unwrap();
        ring.push_response(req).unwrap();
        black_box(ring.pop_response().unwrap());
    });
    // Guest page to the wire and back by handle (zero-copy TX path).
    h.bench_function("net/transmit_page_process", || {
        p.net_transmit_page(g, 1, 40).unwrap();
        p.process_netbacks();
        p.net_receive(g).unwrap();
        p.wire.outbound.clear();
    });
}

/// The batched data path: one multicall / one ring operation carrying
/// many sub-operations, against the per-op entries above.
fn bench_batched_paths(h: &mut Harness) {
    // 32 grant refs mapped and unmapped in one multicall of two batch ops.
    let (mut p, g) = platform_with_guest();
    let nb = p.services.netbacks[0];
    let refs: Vec<_> = (0..32)
        .map(|i| {
            p.hv.hypercall(
                g,
                Hypercall::GnttabGrantAccess {
                    grantee: nb,
                    pfn: Pfn(30 + i),
                    access: GrantAccess::ReadWrite,
                },
            )
            .unwrap()
            .grant_ref()
            .unwrap()
        })
        .collect();
    // The guest-handle model: the ref array lives in "guest memory" once;
    // re-issuing the hypercall re-presents the same handle (refcount bump),
    // it does not re-copy 32 refs per call.
    let refs: std::rc::Rc<[_]> = refs.into();
    h.bench_function("grant/map_unmap_batch32", || {
        let ret =
            p.hv.hypercall(
                black_box(nb),
                Hypercall::Multicall {
                    calls: vec![
                        Hypercall::GnttabMapBatch {
                            granter: g,
                            refs: refs.clone(),
                        },
                        Hypercall::GnttabUnmapBatch {
                            granter: g,
                            refs: refs.clone(),
                        },
                    ],
                },
            )
            .unwrap();
        black_box(ret);
    });

    // Eight sends on one port collapse into one pending bit; the drain
    // pays O(nonzero words), not O(sends).
    let port =
        p.hv.hypercall(g, Hypercall::EvtchnAllocUnbound { remote: nb })
            .unwrap()
            .port()
            .unwrap();
    p.hv.hypercall(
        nb,
        Hypercall::EvtchnBindInterdomain {
            remote: g,
            remote_port: port,
        },
    )
    .unwrap();
    let mut drained = Vec::with_capacity(8);
    h.bench_function("evtchn/send_coalesced", || {
        for _ in 0..8 {
            p.hv.hypercall(g, Hypercall::EvtchnSend { port }).unwrap();
        }
        drained.clear();
        assert_eq!(p.hv.drain_pending_into(black_box(nb), &mut drained), 1);
    });

    // Sixteen block writes in one ring push + one trailing notify.
    let mut sector = 0u64;
    h.bench_function("blk/submit_batch", || {
        let mut ops = [(BlkOp::Write, 0u64, 8u64); 16];
        for op in ops.iter_mut() {
            op.1 = sector % 4096;
            sector += 8;
        }
        p.blk_submit_batch(g, &ops).unwrap();
        p.process_blkbacks();
        while p.blk_poll(g).is_some() {}
    });
}

/// Four domains, `frames / 4` pages each; page `i` of every domain holds
/// the same content, so every page body appears four times.
fn dedup_fleet(frames: u64) -> MemoryManager {
    let mut m = MemoryManager::new(frames + 16);
    let per_dom = frames / 4;
    for d in 1..=4u32 {
        let dom = DomId(d);
        m.populate(dom, per_dom).unwrap();
        for i in 0..per_dom {
            m.write(dom, Pfn(i), format!("dedup-page-{i}").as_bytes())
                .unwrap();
        }
    }
    m
}

fn bench_dedup_scale(h: &mut Harness) {
    let mut group = h.group("mem/dedup_scale");
    group.sample_size(10);
    for (label, frames) in [("1k", 1_000u64), ("10k", 10_000), ("50k", 50_000)] {
        let base = dedup_fleet(frames);
        // Each iteration dedups a fresh clone of the prepared fleet;
        // only the scan itself is timed — at 50k frames the manager
        // clone costs several milliseconds and would otherwise drown
        // the measurement.
        group.bench_function_prepared(
            label,
            || base.clone(),
            |mut m| {
                black_box(m.share_identical(&[]));
            },
        );
    }
    group.finish();
}

fn bench_xenstore(h: &mut Harness) {
    let mut xs = XenStore::new();
    let dom0 = DomId(0);
    xs.set_privileged(dom0, true);
    xs.write_str(dom0, "/bench/key", "value").unwrap();
    h.bench_function("xenstore/read", || {
        xs.read_str(black_box(dom0), "/bench/key").unwrap();
    });
    h.bench_function("xenstore/write", || {
        xs.write_str(black_box(dom0), "/bench/key", "value2")
            .unwrap();
    });
    // The cost of a XenStore-Logic microreboot (recover from State).
    h.bench_function("xenstore/logic_restart", || xs.restart_logic());

    // Creating a node: a new 8-component leaf under an existing parent,
    // in a store the size of a clone_churn host's (~2.7k nodes: 104
    // guests' device trees). Only the write is timed; the untimed setup
    // removes the previous iteration's leaf, so the store stays the same
    // size.
    let xs = std::cell::RefCell::new(XenStore::new());
    xs.borrow_mut().set_privileged(dom0, true);
    for d in 0..104 {
        for kind in ["vif", "vbd"] {
            for k in 0..10 {
                let key = format!("/local/domain/{d}/device/{kind}/0/k{k}");
                xs.borrow_mut().write_str(dom0, &key, "v").unwrap();
            }
        }
    }
    xs.borrow_mut()
        .write_str(dom0, "/local/domain/7/device/vif/0/backend", "")
        .unwrap();
    const LEAF: &str = "/local/domain/7/device/vif/0/backend/state";
    let mut group = h.group("xenstore");
    group.bench_function_prepared(
        "create_deep",
        || {
            let _ = xs.borrow_mut().rm(dom0, LEAF);
        },
        |()| {
            xs.borrow_mut()
                .write_str(black_box(dom0), black_box(LEAF), "4")
                .unwrap();
        },
    );
    group.finish();
}

fn bench_snapshot(h: &mut Harness) {
    let (mut p, _g) = platform_with_guest();
    let nb = p.services.netbacks[0];
    p.hv.hypercall(nb, Hypercall::VmSnapshot).unwrap();
    let builder = p.services.builder;
    h.bench_function("snapshot/rollback_one_dirty_page", || {
        p.hv.mem.write(nb, Pfn(1), b"dirty").unwrap();
        p.hv.hypercall(builder, Hypercall::VmRollback { target: nb })
            .unwrap();
    });
    // Taking a fresh snapshot of a populated shard: CoW freeze, so the
    // cost must not scale with the number of clean pages.
    h.bench_function("snapshot/cow_snapshot", || {
        p.hv.hypercall(black_box(nb), Hypercall::VmSnapshot)
            .unwrap();
    });
}

/// The microreboot fast paths: the per-request XenStore-Logic restart of
/// Figure 5.1 (restart + serve one read, mirroring the ablation's
/// request cycle) and a full driver restart through the precompiled
/// `RestartPlan`.
fn bench_restart(h: &mut Harness) {
    use xoar_core::restart::{RestartEngine, RestartPath, RestartPolicy};

    let mut xs = XenStore::new();
    let dom0 = DomId(0);
    xs.set_privileged(dom0, true);
    xs.write_str(dom0, "/bench/key", "value").unwrap();
    h.bench_function("restart/per_request_logic", || {
        xs.restart_logic();
        xs.read_str(black_box(dom0), "/bench/key").unwrap();
    });

    let (mut p, _g) = platform_with_guest();
    let nb = p.services.netbacks[0];
    let mut eng = RestartEngine::new();
    eng.register(&mut p, nb, RestartPolicy::Never, RestartPath::Fast)
        .unwrap();
    h.bench_function("restart/plan_execute", || {
        eng.restart(&mut p, black_box(nb)).unwrap();
    });
}

/// The virtual-switch hot paths: connection-table lookup against a
/// 100k-flow population, a 32-frame switching batch (the per-packet
/// cost the fabric's O(batch) claim rests on), and NAT port turnover.
fn bench_fabric(h: &mut Harness) {
    use xoar_devices::fabric::{Fabric, FlowKey, NatAlloc};
    use xoar_devices::net::{NetPacket, NetRingHub, WireEndpoint};
    use xoar_devices::ring::RingId;
    use xoar_devices::xenbus::{Connection, DeviceKind};
    use xoar_hypervisor::grant::GrantRef;

    let vif = |guest: u32, gref: u32| Connection {
        guest: DomId(guest),
        backend: DomId(2),
        kind: DeviceKind::Vif,
        index: 0,
        ring: RingId {
            granter: DomId(guest),
            gref: GrantRef(gref),
        },
        front_port: gref + 1,
        back_port: gref + 1,
    };

    // Lookup: a fleet-scale connection table. The probed keys rotate
    // through the whole population, so most probes miss the inline slots
    // and pay the FastMap spill — the honest steady-state cost.
    let mut fab = Fabric::new(DomId(2));
    let mut hub = NetRingHub::new();
    for i in 0..8u32 {
        let c = vif(10 + i, i);
        hub.create(c.ring);
        fab.attach_port(c);
    }
    const POP: u64 = 100_000;
    let key_of = |f: u64| FlowKey {
        flow: f,
        src: DomId(10 + (f % 8) as u32),
        dst: DomId(10 + ((f + 1) % 8) as u32),
    };
    for f in 0..POP {
        let k = key_of(f);
        fab.open_flow(k.flow, k.src, k.dst).unwrap();
    }
    let mut probe = 0u64;
    h.bench_function("fabric/flow_lookup", || {
        let k = key_of(probe % POP);
        probe = probe.wrapping_add(7919);
        black_box(fab.lookup(black_box(&k))).unwrap();
    });

    // Switching: one ring's worth of frames across the four flows of a
    // batch — all inline-slot hits — delivered guest→guest and drained.
    let mut fab = Fabric::new(DomId(2));
    let mut hub = NetRingHub::new();
    let src = vif(5, 0);
    let dst = vif(6, 1);
    for c in [src, dst] {
        hub.create(c.ring);
        fab.attach_port(c);
    }
    for f in 0..4u64 {
        fab.open_flow(f, DomId(5), DomId(6)).unwrap();
    }
    let mut wire = WireEndpoint::new();
    let mut seq = 0u64;
    let mut rx: Vec<NetPacket> = Vec::with_capacity(64);
    h.bench_function("fabric/switch_batch32", || {
        let base = seq;
        seq += 32;
        fab.enqueue_batch(
            DomId(5),
            (0..32u64).map(|i| NetPacket::meta(i % 4, base + i, 1500)),
        );
        let stats = fab.switch(&mut hub, &mut wire);
        debug_assert_eq!(stats.to_guests, 32);
        let ring = hub.get_mut(dst.ring).unwrap();
        ring.pop_responses_into(&mut rx);
        debug_assert_eq!(rx.len(), 32);
        black_box(rx.len());
        rx.clear();
    });

    // NAT turnover: the per-connection open/close cost of the external
    // port pool (steady state: free-list pop + push, no allocation).
    let mut nat = NatAlloc::new();
    h.bench_function("fabric/nat_alloc", || {
        let p = nat.alloc().unwrap();
        nat.release(black_box(p));
    });
}

fn main() {
    let mut h = Harness::new();
    bench_hypercalls(&mut h);
    bench_events(&mut h);
    bench_runqueues(&mut h);
    bench_grants(&mut h);
    bench_ring_round_trip(&mut h);
    bench_batched_paths(&mut h);
    bench_fabric(&mut h);
    bench_memory_pages(&mut h);
    bench_dedup_scale(&mut h);
    bench_xenstore(&mut h);
    bench_snapshot(&mut h);
    bench_restart(&mut h);
    h.emit_json();
}
