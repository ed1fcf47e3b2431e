//! The front tier at fleet scale: a load balancer fanning out over the
//! virtual network fabric to N web servers, under NetBack microreboots.
//!
//! The paper's Figure 6.3 measures one TCP flow across a restarting
//! NetBack. This workload asks the fleet-scale version of the same
//! question (ROADMAP open item 2): a front-tier service holds ≥100k
//! concurrent connections in the fabric's flow table while the NetBack
//! shard microreboots on a timer — every connection must ride out the
//! outage through the TCP recovery model, and the switch's connection
//! state must survive the reboot (ports and flows are keyed by the
//! stable vif connections, which a microreboot preserves).
//!
//! The pieces compose exactly as in [`super::restart_sweep`]:
//! microreboots are *executed* on the platform (rollback hypercall, ring
//! detach/reattach, audit records), their downtime windows become
//! [`Outage`]s, and each modeled flow evolves through the outages it
//! overlaps — phase-shifted per flow, since real connections start at
//! different times within a restart interval.

use xoar_core::platform::Platform;
use xoar_core::restart::{RestartEngine, RestartPath, RestartPolicy};
use xoar_devices::fabric::UPLINK;
use xoar_hypervisor::memory::PageRef;
use xoar_hypervisor::DomId;

use crate::tcp::{self, Outage, TcpPath, SEC};

/// Flow-id offset of the LB's external (NAT'd) connections, keeping them
/// disjoint from the LB→web fan-out ids.
const EXTERNAL_FLOW_BASE: u64 = 1 << 32;

/// Per-connection pacing: each front-tier flow is an individually slow
/// client (10 Mbit/s), as fleet traffic is — the aggregate, not the
/// flow, fills the pipe.
const PER_FLOW_BPS: u64 = 1_250_000;

/// Configuration of one front-tier run.
#[derive(Debug, Clone, Copy)]
pub struct FrontTierConfig {
    /// Concurrent modeled TCP connections LB → web tier.
    pub flows: usize,
    /// External (guest↔uplink, NAT'd) connections the LB also holds.
    pub external_flows: usize,
    /// Bytes each connection transfers.
    pub bytes_per_flow: u64,
    /// NetBack restart interval, seconds.
    pub restart_interval_s: u64,
    /// Restart path (the PR-5 precompiled fast plan, or slow).
    pub path: RestartPath,
}

impl FrontTierConfig {
    /// A bounded configuration for ordinary test runs.
    pub fn small(flows: usize, restart_interval_s: u64) -> Self {
        FrontTierConfig {
            flows,
            external_flows: flows.min(1024),
            bytes_per_flow: 256 * 1024,
            restart_interval_s,
            path: RestartPath::Fast,
        }
    }
}

/// One measured point: flows vs throughput vs restart interval.
#[derive(Debug, Clone, Copy)]
pub struct FrontTierPoint {
    /// Concurrent connections held in the fabric's flow table.
    pub flows: usize,
    /// Restart interval (seconds).
    pub restart_interval_s: u64,
    /// Microreboots executed mid-traffic.
    pub restarts: u64,
    /// Aggregate front-tier goodput (MB/s) across all connections.
    pub aggregate_mbps: f64,
    /// Connections that saw an outage and fired at least one RTO.
    pub stalled_flows: usize,
    /// Worst single-connection stall (ns).
    pub longest_stall_ns: u64,
    /// Frames actually switched guest→guest by the fabric.
    pub switched_frames: u64,
}

/// Runs one front-tier point on `platform`: `lb` fans out to `webs`
/// over the fabric while the (first) NetBack microreboots on a timer.
///
/// Panics if any invariant of the scenario fails: a connection that does
/// not recover, a lost frame in the live traffic, a broken audit chain,
/// or restart counts that disagree between engine, hypervisor, and audit
/// log.
pub fn run_point(
    platform: &mut Platform,
    lb: DomId,
    webs: &[DomId],
    cfg: &FrontTierConfig,
) -> FrontTierPoint {
    assert!(!webs.is_empty());
    platform.enable_fabric();

    // ---- connection setup: the concurrent-flow population ----
    for f in 0..cfg.flows as u64 {
        let dst = webs[f as usize % webs.len()];
        assert!(platform.fabric_open_flow(f, lb, dst), "flow {f} opens");
    }
    for f in 0..cfg.external_flows as u64 {
        assert!(
            platform.fabric_open_flow(EXTERNAL_FLOW_BASE + f, lb, UPLINK),
            "external flow {f} gets a NAT port"
        );
    }
    {
        let fab = platform.fabric.as_ref().expect("enabled above");
        assert!(
            fab.flow_count() >= cfg.flows + cfg.external_flows,
            "flow table holds the whole population"
        );
        assert_eq!(fab.nat_in_use(), cfg.external_flows);
    }

    // ---- live traffic, phase 1: frames really cross the fabric ----
    let mut sent = 0u64;
    let mut received = 0u64;
    let tick = |p: &mut Platform, sent: &mut u64, received: &mut u64| {
        // One ring's worth of frames, round-robin over the hottest flows.
        for i in 0..32u64 {
            p.net_transmit(lb, i % 8, 1500).expect("tx queued");
            *sent += 1;
        }
        p.process_netbacks();
        for &w in webs {
            while let Some(pkt) = p.net_receive(w) {
                assert_eq!(pkt.bytes, 1500);
                *received += 1;
            }
        }
        // Drain the LB's tx completions.
        while p.net_receive(lb).is_some() {}
    };
    tick(platform, &mut sent, &mut received);

    // An external reply carrying a real page: uplink → switch → LB ring,
    // by handle the whole way.
    let page = PageRef::new(&[0x5au8; 4096]);
    platform
        .wire
        .send_page_to_guest(lb, EXTERNAL_FLOW_BASE, 0, page.clone());
    platform.process_netbacks();
    let got = platform.net_receive(lb).expect("page frame delivered");
    assert!(
        PageRef::ptr_eq(&page, got.payload.as_ref().expect("payload kept")),
        "the LB ring holds the same page body, not a copy"
    );

    // ---- microreboots mid-traffic ----
    let netback = platform.services.netbacks[0];
    let mut engine = RestartEngine::new();
    engine
        .register(
            platform,
            netback,
            RestartPolicy::Timer {
                interval_ns: cfg.restart_interval_s * SEC,
            },
            cfg.path,
        )
        .expect("netback registers for restarts");

    let per_flow = TcpPath {
        rtt_ns: 300_000,
        bandwidth_bps: PER_FLOW_BPS,
    };
    let clean_ns = tcp::simulate_transfer(per_flow, cfg.bytes_per_flow, &[]).elapsed_ns;
    let interval_ns = cfg.restart_interval_s * SEC;
    let horizon_ns = (clean_ns * 3).max(3 * interval_ns);
    let mut outages = Vec::new();
    let start_ns = platform.now_ns();
    while platform.now_ns() - start_ns < horizon_ns {
        platform.advance_time(interval_ns);
        for shard in engine.due(platform.now_ns()) {
            let outcome = engine.restart(platform, shard).expect("registered restart");
            outages.push(Outage {
                start_ns: platform.now_ns() - start_ns,
                duration_ns: outcome.downtime_ns,
            });
        }
        // Traffic between reboots: the fabric's ports and flow table
        // survived, so frames keep flowing without renegotiation.
        tick(platform, &mut sent, &mut received);
    }
    assert!(engine.total_restarts() > 0, "reboots really happened");
    assert_eq!(sent, received, "no live frame lost across microreboots");

    // ---- per-connection TCP recovery through the outage windows ----
    let mut goodput_sum_bps = 0.0;
    let mut stalled = 0usize;
    let mut longest_stall = 0u64;
    let mut scratch: Vec<Outage> = Vec::with_capacity(outages.len());
    for f in 0..cfg.flows as u64 {
        // Connections start at different times within a restart interval;
        // shift the outage train into each connection's own clock. The
        // Knuth multiplier spreads the offsets over the whole interval.
        let offset = f.wrapping_mul(2_654_435_761) % interval_ns;
        scratch.clear();
        scratch.extend(
            outages
                .iter()
                .filter(|o| o.start_ns >= offset)
                .map(|o| Outage {
                    start_ns: o.start_ns - offset,
                    duration_ns: o.duration_ns,
                }),
        );
        let r = tcp::simulate_transfer(per_flow, cfg.bytes_per_flow, &scratch);
        assert!(
            r.goodput_bps > 0.0,
            "flow {f} recovered and completed its transfer"
        );
        // An outage the transfer fully straddled must have cost at least
        // one RTO. (An outage starting inside the final round can be
        // outrun by the last bytes; only windows the flow demonstrably
        // waited out — elapsed past link-up — are counted as stalls.)
        let overlapped = scratch
            .iter()
            .any(|o| o.start_ns + o.duration_ns <= r.elapsed_ns);
        if overlapped {
            assert!(r.rto_events >= 1, "flow {f} overlapped an outage");
            stalled += 1;
            longest_stall = longest_stall.max(r.longest_stall_ns);
        }
        goodput_sum_bps += r.goodput_bps;
    }

    // ---- cross-checks: engine vs hypervisor vs audit log ----
    let restarts = engine.total_restarts();
    assert_eq!(platform.hv.rollback_count(netback), restarts);
    assert_eq!(platform.audit.restart_count(netback), restarts);
    assert_eq!(platform.audit.verify_chain(), Ok(()));
    // The memory integrity digest must be stable after the restart
    // storm: a second pass folds the identical fleet digest.
    let digest = platform.hv.mem.verify_integrity();
    assert_eq!(platform.hv.mem.verify_integrity(), digest);

    let fab = platform.fabric.as_ref().expect("enabled");
    FrontTierPoint {
        flows: cfg.flows,
        restart_interval_s: cfg.restart_interval_s,
        restarts,
        aggregate_mbps: goodput_sum_bps / 1e6,
        stalled_flows: stalled,
        longest_stall_ns: longest_stall,
        switched_frames: fab.lifetime_stats().to_guests,
    }
}

/// Builds the standard front-tier fleet: one LB and `webs` web servers.
pub fn fleet(webs: usize) -> (Platform, DomId, Vec<DomId>) {
    let mut p = Platform::xoar(xoar_core::platform::XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let lb = p
        .create_guest(ts, xoar_core::platform::GuestConfig::evaluation_guest("lb"))
        .expect("lb boots");
    let mut tier = Vec::with_capacity(webs);
    for i in 0..webs {
        tier.push(
            p.create_guest(
                ts,
                xoar_core::platform::GuestConfig::evaluation_guest(&format!("web-{i}")),
            )
            .expect("web server boots"),
        );
    }
    (p, lb, tier)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_tier_sustains_flows_across_microreboots() {
        let (mut p, lb, webs) = fleet(3);
        let point = run_point(&mut p, lb, &webs, &FrontTierConfig::small(2_000, 5));
        assert_eq!(point.flows, 2_000);
        assert!(point.restarts >= 2);
        assert!(point.stalled_flows > 0, "some connections rode an outage");
        assert!(point.switched_frames as usize >= 32, "live frames switched");
        assert!(point.aggregate_mbps > 0.0);
    }

    #[test]
    fn throughput_improves_with_longer_restart_intervals() {
        let (mut p1, lb1, webs1) = fleet(2);
        let t1 = run_point(&mut p1, lb1, &webs1, &FrontTierConfig::small(1_000, 1));
        let (mut p10, lb10, webs10) = fleet(2);
        let t10 = run_point(&mut p10, lb10, &webs10, &FrontTierConfig::small(1_000, 10));
        assert!(
            t10.aggregate_mbps > t1.aggregate_mbps,
            "1s: {:.1} MB/s, 10s: {:.1} MB/s",
            t1.aggregate_mbps,
            t10.aggregate_mbps
        );
        // Shorter intervals stall a larger share of the population.
        assert!(t1.stalled_flows > t10.stalled_flows);
    }

    #[test]
    fn nat_population_is_bounded_by_the_port_range() {
        let (mut p, lb, webs) = fleet(1);
        let cfg = FrontTierConfig {
            flows: 64,
            external_flows: 1024,
            bytes_per_flow: 64 * 1024,
            restart_interval_s: 5,
            path: RestartPath::Fast,
        };
        let _ = run_point(&mut p, lb, &webs, &cfg);
        assert_eq!(p.fabric.as_ref().unwrap().nat_in_use(), 1024);
    }

    /// The fleet-scale acceptance scenario: ≥100k concurrent connections
    /// riding NetBack microreboots. Release-mode only; prints the
    /// EXPERIMENTS.md table.
    #[test]
    #[ignore = "release-mode smoke; run via scripts/ci.sh"]
    fn fronttier_smoke() {
        println!("| flows | interval (s) | restarts | aggregate (MB/s) | stalled flows | longest stall (ms) |");
        println!("|---|---|---|---|---|---|");
        for interval_s in [1, 5, 10] {
            let (mut p, lb, webs) = fleet(4);
            let mut cfg = FrontTierConfig::small(100_000, interval_s);
            cfg.external_flows = 8_192;
            let point = run_point(&mut p, lb, &webs, &cfg);
            assert!(point.flows >= 100_000);
            assert!(point.restarts > 0);
            println!(
                "| {} | {} | {} | {:.1} | {} | {:.0} |",
                point.flows,
                point.restart_interval_s,
                point.restarts,
                point.aggregate_mbps,
                point.stalled_flows,
                point.longest_stall_ns as f64 / 1e6
            );
        }
    }
}
