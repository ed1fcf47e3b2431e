//! Microreboot policies and the driver-restart procedure (§3.3, Fig 6.3).
//!
//! Restartable shards are periodically rolled back to their post-boot
//! snapshot. For driver domains the restart has a measurable *downtime*
//! during which the device is unavailable; the paper measures two
//! variants:
//!
//! * **slow** (~260 ms): "the device hardware state is left untouched
//!   during reboots" but all negotiated software state is lost, so the
//!   frontends renegotiate rings and event channels over XenStore;
//! * **fast** (~140 ms): "some configuration data that would normally be
//!   renegotiated via XenStore is persisted" in the recovery box, skipping
//!   the renegotiation round trips.
//!
//! [`RestartEngine`] owns the per-shard policies and executes restarts
//! against a [`Platform`], producing the downtime windows the simulator
//! feeds into its TCP model.

use xoar_devices::ring::RingId;
use xoar_devices::xenbus::DeviceKind;
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::{DomId, HvError, HvResult, Hypercall, RecoveryBox};

use crate::audit::AuditEvent;
use crate::platform::Platform;

/// Nanoseconds per millisecond.
const MS: u64 = 1_000_000;

/// Which restart path a shard uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPath {
    /// Full XenStore renegotiation after rollback (~260 ms downtime).
    Slow,
    /// Ring/event configuration restored from the recovery box (~140 ms).
    Fast,
}

impl RestartPath {
    /// The measured device downtime of this path (§6.1.2): the sum of
    /// its [`downtime`] components.
    pub fn downtime_ns(self) -> u64 {
        let reconnect = match self {
            RestartPath::Slow => downtime::RENEGOTIATION_NS,
            RestartPath::Fast => downtime::RECOVERY_BOX_NS,
        };
        downtime::ROLLBACK_NS + downtime::DEVICE_REINIT_NS + reconnect
    }
}

/// Downtime component breakdown, calibrated to sum to the measured
/// totals: rollback of dirtied pages, device re-initialisation, and
/// either the XenStore renegotiation (slow) or the recovery-box restore
/// (fast).
pub mod downtime {
    use super::MS;

    /// Copy-on-write rollback of the shard image.
    pub const ROLLBACK_NS: u64 = 45 * MS;
    /// Driver re-attach to the (untouched) hardware.
    pub const DEVICE_REINIT_NS: u64 = 75 * MS;
    /// Full frontend/backend renegotiation over XenStore (slow path).
    pub const RENEGOTIATION_NS: u64 = 140 * MS;
    /// Restoring negotiated state from the recovery box (fast path).
    pub const RECOVERY_BOX_NS: u64 = 20 * MS;
}

/// When a shard is restarted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Never restarted.
    Never,
    /// Restarted every `interval_ns` of simulated time ("restarted on a
    /// timer" — NetBack, BlkBack).
    Timer {
        /// Interval between restarts.
        interval_ns: u64,
    },
}

/// Which service table a registered shard lives in, resolved once at
/// registration (`platform.netbacks` / `platform.blkbacks` are aligned
/// with `services.netbacks` / `services.blkbacks` and never reordered).
#[derive(Debug, Clone, Copy)]
enum ServiceSlot {
    /// `platform.netbacks[i]`.
    Net(usize),
    /// `platform.blkbacks[i]`.
    Blk(usize),
}

/// The precompiled restart plan: everything `restart()` would otherwise
/// recompute or reallocate per microreboot is resolved at registration
/// and reused. The scratch buffers are refilled in place each restart —
/// registration may precede guest attach, so the ring list has to track
/// the live attachment table, but its capacity is paid once.
#[derive(Debug, Default)]
struct RestartPlan {
    /// Resolved service-table slot (replaces two `position()` scans per
    /// restart). `None` for shards with no rings (e.g. XenStore).
    slot: Option<ServiceSlot>,
    /// Ring-reattach scratch: the rings to detach and recreate.
    rings: Vec<RingId>,
    /// Event-channel rebind scratch: the shard-local ports kicked (one
    /// batched multicall) to tell frontends their rings are back.
    ports: Vec<u32>,
}

impl RestartPlan {
    /// Compiles the plan for `dom` against the platform's service tables.
    fn compile(platform: &Platform, dom: DomId) -> Self {
        let slot = platform
            .backend_index(DeviceKind::Vif, dom)
            .map(ServiceSlot::Net)
            .or_else(|| {
                platform
                    .backend_index(DeviceKind::Vbd, dom)
                    .map(ServiceSlot::Blk)
            });
        RestartPlan {
            slot,
            rings: Vec::new(),
            ports: Vec::new(),
        }
    }

    /// Refills the ring/port scratch from the live attachment table,
    /// sorted for deterministic replay order.
    fn refresh(&mut self, platform: &Platform) {
        self.rings.clear();
        self.ports.clear();
        match self.slot {
            Some(ServiceSlot::Net(i)) => {
                for conn in platform.netbacks[i].conn_iter() {
                    self.rings.push(conn.ring);
                    self.ports.push(conn.back_port);
                }
            }
            Some(ServiceSlot::Blk(i)) => {
                for conn in platform.blkbacks[i].conn_iter() {
                    self.rings.push(conn.ring);
                    self.ports.push(conn.back_port);
                }
            }
            None => {}
        }
        self.rings.sort_unstable_by_key(|r| (r.granter.0, r.gref.0));
        self.ports.sort_unstable();
        self.ports.dedup();
    }
}

/// A restartable shard registration.
#[derive(Debug)]
struct Registration {
    dom: DomId,
    policy: RestartPolicy,
    path: RestartPath,
    last_restart_ns: u64,
    plan: RestartPlan,
}

/// The outcome of one shard restart.
#[derive(Debug, Clone, Copy)]
pub struct RestartOutcome {
    /// The restarted shard.
    pub shard: DomId,
    /// Pages restored by the rollback.
    pub pages_restored: u64,
    /// Device downtime (ns) — the window the simulator treats the device
    /// as unreachable.
    pub downtime_ns: u64,
    /// Ring requests dropped by the detach (to be retransmitted).
    pub requests_lost: usize,
}

/// The restart engine.
///
/// # Examples
///
/// ```
/// use xoar_core::platform::{Platform, XoarConfig};
/// use xoar_core::restart::{RestartEngine, RestartPath, RestartPolicy};
///
/// let mut p = Platform::xoar(XoarConfig::default());
/// let netback = p.services.netbacks[0];
/// let mut engine = RestartEngine::new();
/// engine
///     .register(&mut p, netback, RestartPolicy::Never, RestartPath::Fast)
///     .unwrap();
/// let outcome = engine.restart(&mut p, netback).unwrap();
/// assert_eq!(outcome.downtime_ns, 140_000_000);
/// ```
#[derive(Debug, Default)]
pub struct RestartEngine {
    registrations: Vec<Registration>,
    total_restarts: u64,
}

impl RestartEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a shard for policy-driven restarts. Takes the post-boot
    /// snapshot (the `vm_snapshot()` of §3.3), naming a recovery box for
    /// the fast path.
    pub fn register(
        &mut self,
        platform: &mut Platform,
        dom: DomId,
        policy: RestartPolicy,
        path: RestartPath,
    ) -> HvResult<()> {
        // Negotiated ring/event configuration is kept in a dedicated
        // recovery-box page range on the fast path.
        let recovery_box = (path == RestartPath::Fast).then_some(RecoveryBox {
            start: Pfn(0),
            frames: 2,
        });
        // The shard snapshots itself once initialised, before serving
        // external interfaces.
        platform
            .hv
            .hypercall(dom, Hypercall::VmSnapshot { recovery_box })?;
        let now = platform.now_ns();
        let plan = RestartPlan::compile(platform, dom);
        self.registrations.push(Registration {
            dom,
            policy,
            path,
            last_restart_ns: now,
            plan,
        });
        Ok(())
    }

    /// Builds an engine from the platform's boot configuration: if
    /// `XoarConfig::restart_interval_s` was set, every restartable driver
    /// shard (NetBack, BlkBack) is registered on that timer with the fast
    /// (recovery-box) path, and XenStore is put on the per-request
    /// policy of Figure 5.1. That policy restarts Logic before each wire
    /// request served through `XenStore::handle` only; the platform's
    /// own reads and writes go through the direct API and restart
    /// nothing.
    pub fn for_platform(platform: &mut Platform) -> HvResult<Self> {
        let mut engine = RestartEngine::new();
        let Some(interval_s) = platform
            .xoar_config
            .as_ref()
            .and_then(|c| c.restart_interval_s)
        else {
            return Ok(engine);
        };
        let interval_ns = interval_s.saturating_mul(1_000_000_000);
        let drivers: Vec<DomId> = platform
            .services
            .netbacks
            .iter()
            .chain(&platform.services.blkbacks)
            .copied()
            .collect();
        for dom in drivers {
            engine.register(
                platform,
                dom,
                RestartPolicy::Timer { interval_ns },
                RestartPath::Fast,
            )?;
        }
        platform.xs.set_per_request_restart(true);
        Ok(engine)
    }

    /// Which registered shards are due for a timer restart at `now_ns`.
    pub fn due(&self, now_ns: u64) -> Vec<DomId> {
        self.registrations
            .iter()
            .filter(|r| match r.policy {
                RestartPolicy::Timer { interval_ns } => {
                    now_ns.saturating_sub(r.last_restart_ns) >= interval_ns
                }
                _ => false,
            })
            .map(|r| r.dom)
            .collect()
    }

    /// Executes a microreboot of `shard` on `platform` by running the
    /// shard's precompiled [`RestartPlan`].
    ///
    /// The rollback is performed with a real `VmRollback` hypercall issued
    /// by the Builder; the plan's ring list is refreshed from the live
    /// attachment table, every ring is detached (dropping in-flight
    /// requests) and recreated, the frontends are re-notified with one
    /// batched multicall of event kicks, and each block frontend
    /// retransmits the requests it still has in flight. For the slow path the connections are fully renegotiated,
    /// for the fast path they are re-established from persisted
    /// configuration — the wall-clock difference is carried in
    /// `downtime_ns`.
    pub fn restart(&mut self, platform: &mut Platform, shard: DomId) -> HvResult<RestartOutcome> {
        let idx = self
            .registrations
            .iter()
            .position(|r| r.dom == shard)
            .ok_or(HvError::NoSuchDomain(shard))?;
        let reg = &mut self.registrations[idx];
        let path = reg.path;
        let builder = platform.services.builder;

        // 1. Roll back to the post-boot image; the hypervisor reports how
        //    many dirty pages it restored (the CoW cost of the reboot).
        let pages_restored = match platform
            .hv
            .hypercall(builder, Hypercall::VmRollback { target: shard })?
        {
            xoar_hypervisor::HypercallRet::Count(n) => n,
            _ => 0,
        };

        // 2. Execute the plan: detach every ring the shard serves
        //    (counting lost work), then recreate each one.
        reg.plan.refresh(platform);
        let mut requests_lost = 0;
        match reg.plan.slot {
            Some(ServiceSlot::Net(_)) => {
                for &ring in &reg.plan.rings {
                    if let Ok(r) = platform.net_hub.get_mut(ring) {
                        requests_lost += r.detach();
                    }
                    platform.net_hub.create(ring);
                }
            }
            Some(ServiceSlot::Blk(_)) => {
                for &ring in &reg.plan.rings {
                    if let Ok(r) = platform.blk_hub.get_mut(ring) {
                        requests_lost += r.detach();
                    }
                    platform.blk_hub.create(ring);
                }
            }
            None => {}
        }

        // 3. Rebind event channels: the restarted backend kicks every
        //    frontend once, batched through a single multicall. Kicks are
        //    best-effort — a stale port fails its sub-call without
        //    aborting the batch.
        if !reg.plan.ports.is_empty() {
            let calls = reg
                .plan
                .ports
                .iter()
                .map(|&port| Hypercall::EvtchnSend { port })
                .collect();
            platform
                .hv
                .hypercall(shard, Hypercall::Multicall { calls })?;
        }

        // 4. Kicked, each block frontend retransmits the requests the
        //    detach dropped, in id order, on its recreated ring.
        if let Some(ServiceSlot::Blk(_)) = reg.plan.slot {
            for ring in &reg.plan.rings {
                platform.blk_retransmit(ring.granter);
            }
        }

        let downtime_ns = path.downtime_ns();
        let now = platform.now_ns();
        reg.last_restart_ns = now;
        self.total_restarts += 1;

        // 5. Audit the restart.
        platform.audit.append(
            now,
            AuditEvent::ShardRestarted {
                shard,
                pages_restored,
            },
        );
        Ok(RestartOutcome {
            shard,
            pages_restored,
            downtime_ns,
            requests_lost,
        })
    }

    /// Total restarts executed.
    pub fn total_restarts(&self) -> u64 {
        self.total_restarts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{GuestConfig, XoarConfig};

    fn xoar_with_guest() -> (Platform, DomId, DomId) {
        let mut p = Platform::xoar(XoarConfig::default());
        let ts = p.services.toolstacks[0];
        let g = p
            .create_guest(ts, GuestConfig::evaluation_guest("g"))
            .unwrap();
        let nb = p.services.netbacks[0];
        (p, g, nb)
    }

    #[test]
    fn downtime_matches_paper_measurements() {
        assert_eq!(RestartPath::Slow.downtime_ns(), 260 * MS);
        assert_eq!(RestartPath::Fast.downtime_ns(), 140 * MS);
        // The component breakdown sums to the measured totals.
        assert_eq!(
            downtime::ROLLBACK_NS + downtime::DEVICE_REINIT_NS + downtime::RENEGOTIATION_NS,
            RestartPath::Slow.downtime_ns()
        );
        assert_eq!(
            downtime::ROLLBACK_NS + downtime::DEVICE_REINIT_NS + downtime::RECOVERY_BOX_NS,
            RestartPath::Fast.downtime_ns()
        );
    }

    #[test]
    fn restart_rolls_back_and_logs() {
        let (mut p, _g, nb) = xoar_with_guest();
        let mut eng = RestartEngine::new();
        eng.register(
            &mut p,
            nb,
            RestartPolicy::Timer {
                interval_ns: 10_000 * MS,
            },
            RestartPath::Slow,
        )
        .unwrap();
        // The shard's memory is scribbled on (attack state)…
        p.hv.mem.write(nb, Pfn(1), b"implant").unwrap();
        let outcome = eng.restart(&mut p, nb).unwrap();
        assert_eq!(outcome.shard, nb);
        assert_eq!(outcome.downtime_ns, RestartPath::Slow.downtime_ns());
        // …and wiped by the rollback.
        assert_eq!(p.hv.mem.read(nb, Pfn(1)).unwrap(), Vec::<u8>::new());
        assert_eq!(p.hv.rollback_count(nb), 1);
        assert_eq!(p.audit.restart_count(nb), 1);
    }

    #[test]
    fn restart_drops_in_flight_requests_for_retransmit() {
        let (mut p, g, nb) = xoar_with_guest();
        let mut eng = RestartEngine::new();
        eng.register(&mut p, nb, RestartPolicy::Never, RestartPath::Fast)
            .unwrap();
        // Queue traffic.
        let conn = p.guest(g).unwrap().netfront.as_ref().unwrap().conn;
        p.net_transmit(g, 1, 1500).unwrap();
        p.net_transmit(g, 1, 1500).unwrap();
        let outcome = eng.restart(&mut p, nb).unwrap();
        assert_eq!(outcome.requests_lost, 2);
        // The ring is fresh and usable again (fast path reattach).
        assert_eq!(
            p.guest(g).unwrap().netfront.as_ref().unwrap().conn.ring,
            conn.ring
        );
        p.net_transmit(g, 1, 1500).unwrap();
        let stats = p.process_netbacks();
        assert_eq!(stats.tx_frames, 1);
    }

    #[test]
    fn blkback_restart_retransmits_dropped_requests() {
        use xoar_devices::blk::{BlkOp, BlkStatus};
        let (mut p, g, _nb) = xoar_with_guest();
        let bb = p.services.blkbacks[0];
        let mut eng = RestartEngine::new();
        eng.register(&mut p, bb, RestartPolicy::Never, RestartPath::Fast)
            .unwrap();
        let in_flight = |p: &Platform| p.guest(g).unwrap().blkfront.as_ref().unwrap().outstanding();
        for _ in 0..6 {
            let ids = p.blk_submit_batch(g, &[(BlkOp::Read, 0, 8); 3]).unwrap();
            let outcome = eng.restart(&mut p, bb).unwrap();
            assert_eq!(outcome.requests_lost, 3);
            assert_eq!(in_flight(&p), 3);
            assert_eq!(p.process_blkbacks().completed, 3);
            // Retransmitted under their original ids, in order.
            for want in ids {
                let resp = p.blk_poll(g).expect("retransmitted read completes");
                assert_eq!((resp.id, resp.status), (want, BlkStatus::Ok));
            }
            assert_eq!(in_flight(&p), 0);
        }
    }

    #[test]
    fn timer_policy_schedules_restarts() {
        let (mut p, _g, nb) = xoar_with_guest();
        let mut eng = RestartEngine::new();
        eng.register(
            &mut p,
            nb,
            RestartPolicy::Timer {
                interval_ns: 5_000 * MS,
            },
            RestartPath::Slow,
        )
        .unwrap();
        assert!(eng.due(p.now_ns()).is_empty());
        p.advance_time(4_999 * MS);
        assert!(eng.due(p.now_ns()).is_empty());
        p.advance_time(2 * MS);
        assert_eq!(eng.due(p.now_ns()), vec![nb]);
        eng.restart(&mut p, nb).unwrap();
        assert!(eng.due(p.now_ns()).is_empty(), "timer reset after restart");
        p.advance_time(5_001 * MS);
        assert_eq!(eng.due(p.now_ns()), vec![nb]);
    }

    #[test]
    fn unregistered_shard_cannot_be_restarted() {
        let (mut p, _g, nb) = xoar_with_guest();
        let mut eng = RestartEngine::new();
        assert!(eng.restart(&mut p, nb).is_err());
    }

    #[test]
    fn repeated_restarts_accumulate() {
        let (mut p, _g, nb) = xoar_with_guest();
        let mut eng = RestartEngine::new();
        eng.register(
            &mut p,
            nb,
            RestartPolicy::Timer { interval_ns: MS },
            RestartPath::Fast,
        )
        .unwrap();
        for _ in 0..5 {
            p.advance_time(2 * MS);
            eng.restart(&mut p, nb).unwrap();
        }
        assert_eq!(eng.total_restarts(), 5);
        assert_eq!(p.hv.rollback_count(nb), 5);
        assert_eq!(p.audit.restart_count(nb), 5);
    }

    #[test]
    fn restart_counters_agree() {
        let (mut p, _g, nb) = xoar_with_guest();
        let mut eng = RestartEngine::new();
        eng.register(&mut p, nb, RestartPolicy::Never, RestartPath::Fast)
            .unwrap();
        for n in 1..=4u64 {
            p.hv.mem.write(nb, Pfn(3), b"scribble").unwrap();
            eng.restart(&mut p, nb).unwrap();
            assert_eq!(p.hv.rollback_count(nb), n);
            assert_eq!(p.audit.restart_count(nb), n);
            assert_eq!(p.hv.domain(nb).unwrap().restart_count, n);
        }
    }

    #[test]
    fn fast_path_preserves_recovery_box_contents() {
        let (mut p, _g, nb) = xoar_with_guest();
        // Negotiated config persisted at Pfn(0..2) before registration
        // (the register call snapshots afterwards).
        let mut eng = RestartEngine::new();
        eng.register(&mut p, nb, RestartPolicy::Never, RestartPath::Fast)
            .unwrap();
        p.hv.mem.write(nb, Pfn(0), b"ring-config-v2").unwrap();
        p.hv.mem.write(nb, Pfn(3), b"attacker").unwrap();
        eng.restart(&mut p, nb).unwrap();
        assert_eq!(
            p.hv.mem.read(nb, Pfn(0)).unwrap(),
            b"ring-config-v2",
            "recovery box survives the rollback"
        );
        assert_eq!(p.hv.mem.read(nb, Pfn(3)).unwrap(), Vec::<u8>::new());
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;
    use crate::platform::{GuestConfig, XoarConfig};

    #[test]
    fn engine_from_platform_config() {
        let mut p = Platform::xoar(XoarConfig {
            restart_interval_s: Some(10),
            ..Default::default()
        });
        let ts = p.services.toolstacks[0];
        let _g = p
            .create_guest(ts, GuestConfig::evaluation_guest("g"))
            .unwrap();
        let engine = RestartEngine::for_platform(&mut p).unwrap();
        // Drivers registered on the timer.
        p.advance_time(10_001 * MS);
        let due = engine.due(p.now_ns());
        assert!(due.contains(&p.services.netbacks[0]));
        assert!(due.contains(&p.services.blkbacks[0]));
        // XenStore now restarts Logic on every wire request.
        let before = p.xs.logic_restarts();
        let _ = p.xs.handle(
            ts,
            xoar_xenstore::Request::Read {
                txn: None,
                path: "/local".into(),
            },
        );
        assert_eq!(p.xs.logic_restarts(), before + 1);
    }

    #[test]
    fn no_interval_means_empty_engine() {
        let mut p = Platform::xoar(XoarConfig::default());
        let engine = RestartEngine::for_platform(&mut p).unwrap();
        p.advance_time(1_000_000 * MS);
        assert!(engine.due(p.now_ns()).is_empty());
    }
}
