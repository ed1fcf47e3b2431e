//! NetBack restart sweep (Figure 6.3).
//!
//! "To measure the effect of microrebooting driver VMs, we ran the 2 GB
//! wget to /dev/null while restarting NetBack at intervals between 1 s
//! and 10 s", with the slow (~260 ms) and fast (~140 ms) restart paths.
//!
//! The sweep composes three pieces built elsewhere:
//!
//! * [`xoar_core::restart::RestartEngine`] performs real microreboots of
//!   the NetBack shard (rollback hypercall, ring detach/reattach) and
//!   reports the downtime of the configured path;
//! * the downtime windows become [`crate::tcp::Outage`]s;
//! * [`crate::tcp::simulate_transfer`] evolves the TCP flow through them.

use xoar_core::platform::Platform;
use xoar_core::restart::{RestartEngine, RestartPath, RestartPolicy};
use xoar_hypervisor::DomId;

use crate::tcp::{self, Outage, TcpPath, SEC};

/// One point of Figure 6.3.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Restart interval (seconds).
    pub interval_s: u64,
    /// Restart path.
    pub path: RestartPath,
    /// Mean throughput (MB/s) of the 2 GB fetch.
    pub throughput_mbps: f64,
    /// Microreboots executed during the transfer.
    pub restarts: u64,
    /// Measured per-restart device downtime (ns).
    pub downtime_ns: u64,
}

/// Baseline throughput (no restarts), MB/s.
pub fn baseline_mbps(bytes: u64) -> f64 {
    tcp::simulate_transfer(TcpPath::gigabit_lan(), bytes, &[]).goodput_bps / 1e6
}

/// Runs one sweep point: a `bytes`-long fetch with NetBack restarted
/// every `interval_s` seconds using `path`.
///
/// The restarts are *executed* on the platform (so rollback counts, audit
/// records, and ring churn are real); their measured downtimes drive the
/// TCP model.
pub fn run_point(
    platform: &mut Platform,
    _guest: DomId,
    bytes: u64,
    interval_s: u64,
    path: RestartPath,
) -> SweepPoint {
    let netback = platform.services.netbacks[0];
    let mut engine = RestartEngine::new();
    engine
        .register(
            platform,
            netback,
            RestartPolicy::Timer {
                interval_ns: interval_s * SEC,
            },
            path,
        )
        .expect("netback registers for restarts");

    // Estimate the horizon generously, then walk simulated time executing
    // every due restart and collecting its outage window.
    let clean_ns = tcp::simulate_transfer(TcpPath::gigabit_lan(), bytes, &[]).elapsed_ns;
    let horizon_ns = clean_ns * 20;
    let mut outages = Vec::new();
    let start_ns = platform.now_ns();
    while platform.now_ns() - start_ns < horizon_ns {
        platform.advance_time(interval_s * SEC);
        for shard in engine.due(platform.now_ns()) {
            let outcome = engine.restart(platform, shard).expect("registered restart");
            outages.push(Outage {
                start_ns: platform.now_ns() - start_ns,
                duration_ns: outcome.downtime_ns,
            });
        }
    }
    let result = tcp::simulate_transfer(TcpPath::gigabit_lan(), bytes, &outages);
    SweepPoint {
        interval_s,
        path,
        throughput_mbps: result.goodput_bps / 1e6,
        restarts: engine.total_restarts(),
        downtime_ns: path.downtime_ns(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xoar_core::platform::{GuestConfig, XoarConfig};

    const GB2: u64 = 2 << 30;

    fn factory() -> (Platform, DomId) {
        let mut p = Platform::xoar(XoarConfig::default());
        let ts = p.services.toolstacks[0];
        let g = p
            .create_guest(ts, GuestConfig::evaluation_guest("wget"))
            .unwrap();
        (p, g)
    }

    #[test]
    fn restarts_actually_execute_on_platform() {
        let (mut p, g) = factory();
        let nb = p.services.netbacks[0];
        let point = run_point(&mut p, g, GB2, 5, RestartPath::Slow);
        assert!(point.restarts > 0);
        assert_eq!(p.hv.rollback_count(nb), point.restarts);
        assert_eq!(p.audit.restart_count(nb), point.restarts);
    }

    #[test]
    fn figure_6_3_throughput_monotone_in_interval() {
        let (mut p1, g1) = factory();
        let t1 = run_point(&mut p1, g1, GB2, 1, RestartPath::Slow).throughput_mbps;
        let (mut p5, g5) = factory();
        let t5 = run_point(&mut p5, g5, GB2, 5, RestartPath::Slow).throughput_mbps;
        let (mut p10, g10) = factory();
        let t10 = run_point(&mut p10, g10, GB2, 10, RestartPath::Slow).throughput_mbps;
        assert!(t1 < t5 && t5 < t10, "{t1:.1} {t5:.1} {t10:.1}");
        let base = baseline_mbps(GB2);
        // Paper: 58% drop at 1 s, 8% at 10 s.
        let drop1 = 1.0 - t1 / base;
        let drop10 = 1.0 - t10 / base;
        assert!(drop1 > 0.40, "1s drop {drop1:.2}");
        assert!(drop10 < 0.15, "10s drop {drop10:.2}");
    }

    #[test]
    fn fast_path_helps_most_at_short_intervals() {
        let (mut ps, gs) = factory();
        let slow1 = run_point(&mut ps, gs, GB2, 1, RestartPath::Slow).throughput_mbps;
        let (mut pf, gf) = factory();
        let fast1 = run_point(&mut pf, gf, GB2, 1, RestartPath::Fast).throughput_mbps;
        assert!(fast1 > slow1, "fast {fast1:.1} vs slow {slow1:.1} at 1s");
        let (mut ps10, gs10) = factory();
        let slow10 = run_point(&mut ps10, gs10, GB2, 10, RestartPath::Slow).throughput_mbps;
        let (mut pf10, gf10) = factory();
        let fast10 = run_point(&mut pf10, gf10, GB2, 10, RestartPath::Fast).throughput_mbps;
        let gain1 = fast1 / slow1 - 1.0;
        let gain10 = fast10 / slow10 - 1.0;
        assert!(gain1 > gain10, "gain1 {gain1:.3} gain10 {gain10:.3}");
        assert!(gain10 < 0.05, "paper: <1% at 10s; model {gain10:.3}");
    }
}
