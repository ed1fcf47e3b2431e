//! The paper's headline evaluation claims, asserted end to end.
//!
//! Each test reproduces one table/figure at reduced scale and checks the
//! *shape* the paper reports: who wins, by roughly what factor, and where
//! the knees fall. The full-scale numbers are produced by the harnesses
//! in `crates/bench/src/bin/` and recorded in EXPERIMENTS.md.

use xoar_core::boot::BootPlan;
use xoar_core::platform::{GuestConfig, Platform, PlatformMode, XoarConfig};
use xoar_core::restart::RestartPath;
use xoar_hypervisor::DomId;
use xoar_sim::workloads::{apache, kernel_build, postmark, restart_sweep, wget};

fn guest_on(p: &mut Platform, name: &str) -> DomId {
    let ts = p.services.toolstacks[0];
    p.create_guest(ts, GuestConfig::evaluation_guest(name))
        .unwrap()
}

#[test]
fn table_6_1_memory_range() {
    // 512–896 MB depending on configuration, vs 750 MB Dom0.
    let min = Platform::xoar(XoarConfig {
        with_console: false,
        ..Default::default()
    });
    let max = Platform::xoar(XoarConfig {
        keep_pciback: true,
        ..Default::default()
    });
    assert_eq!(min.service_memory_mib(), 512);
    assert_eq!(max.service_memory_mib(), 896);
    assert_eq!(Platform::stock_xen().service_memory_mib(), 750);
}

#[test]
fn table_6_2_boot_speedups() {
    let dom0 = BootPlan::stock_xen().simulate();
    let xoar = BootPlan::xoar().simulate();
    assert!((dom0.console_s / xoar.console_s - 1.5).abs() < 0.1);
    assert!((dom0.ping_s / xoar.ping_s - 1.15).abs() < 0.1);
}

#[test]
fn figure_6_1_postmark_parity() {
    let cfg = postmark::PostmarkConfig {
        files: 1_000,
        transactions: 10_000,
        subdirectories: 0,
    };
    let mut dom0 = Platform::stock_xen();
    let g0 = guest_on(&mut dom0, "pm");
    let mut xoar = Platform::xoar(XoarConfig::default());
    let g1 = guest_on(&mut xoar, "pm");
    let r0 = postmark::run(&mut dom0, g0, cfg, 11);
    let r1 = postmark::run(&mut xoar, g1, cfg, 11);
    let ratio = r1.ops_per_sec / r0.ops_per_sec;
    assert!(
        (ratio - 1.0).abs() < 0.03,
        "disk throughput unchanged: {ratio:.3}"
    );
}

#[test]
fn figure_6_2_wget_shape() {
    const SZ: u64 = 96 << 20;
    let mut dom0 = Platform::stock_xen();
    let g0 = guest_on(&mut dom0, "w");
    let mut xoar = Platform::xoar(XoarConfig::default());
    let g1 = guest_on(&mut xoar, "w");
    // Network-only: Xoar slightly behind.
    let n0 = wget::run(&mut dom0, g0, SZ, wget::Sink::DevNull);
    let n1 = wget::run(&mut xoar, g1, SZ, wget::Sink::DevNull);
    let net_delta = 1.0 - n1.throughput_mbps / n0.throughput_mbps;
    assert!(net_delta > 0.005 && net_delta < 0.035, "{net_delta:.3}");
    // Combined: Xoar ahead by ~6.5%.
    let d0 = wget::run(&mut dom0, g0, SZ, wget::Sink::Disk);
    let d1 = wget::run(&mut xoar, g1, SZ, wget::Sink::Disk);
    let gain = d1.throughput_mbps / d0.throughput_mbps - 1.0;
    assert!(gain > 0.03 && gain < 0.12, "{gain:.3}");
}

#[test]
fn figure_6_3_knee_positions() {
    const GB1: u64 = 1 << 30;
    let base = restart_sweep::baseline_mbps(GB1);
    let mut p1 = Platform::xoar(XoarConfig::default());
    let g1 = guest_on(&mut p1, "s");
    let t1 = restart_sweep::run_point(&mut p1, g1, GB1, 1, RestartPath::Slow);
    let mut p10 = Platform::xoar(XoarConfig::default());
    let g10 = guest_on(&mut p10, "s");
    let t10 = restart_sweep::run_point(&mut p10, g10, GB1, 10, RestartPath::Slow);
    // Paper: 58% drop at 1 s; ≤~8% at 10 s.
    assert!(1.0 - t1.throughput_mbps / base > 0.40);
    assert!(1.0 - t10.throughput_mbps / base < 0.12);
    // The measured downtimes are the paper's.
    assert_eq!(t1.downtime_ns, 260_000_000);
}

#[test]
fn figure_6_4_build_overhead_under_one_percent() {
    let mut dom0 = Platform::stock_xen();
    let g0 = guest_on(&mut dom0, "kb");
    let mut xoar = Platform::xoar(XoarConfig::default());
    let g1 = guest_on(&mut xoar, "kb");
    for src in [
        kernel_build::BuildSource::LocalExt3,
        kernel_build::BuildSource::Nfs {
            restart_interval_s: None,
        },
    ] {
        let r0 = kernel_build::run(&mut dom0, g0, src);
        let r1 = kernel_build::run(&mut xoar, g1, src);
        let overhead = r1.build_time_s / r0.build_time_s - 1.0;
        assert!(overhead < 0.01, "{src:?}: {overhead:.4}");
    }
}

#[test]
fn figure_6_5_apache_shape() {
    let dom0 = apache::run(PlatformMode::StockXen, apache::AbConfig::Clean);
    let xoar = apache::run(PlatformMode::Xoar, apache::AbConfig::Clean);
    let r1 = apache::run(
        PlatformMode::Xoar,
        apache::AbConfig::Restarts { interval_s: 1 },
    );
    // Xoar within a few percent of Dom0.
    assert!(xoar.throughput_rps / dom0.throughput_rps > 0.97);
    // 1-second restarts are crippling, with multi-second outliers.
    assert!(r1.throughput_rps / xoar.throughput_rps < 0.5);
    assert!(r1.longest_request_ms > 2_000.0);
    assert!(dom0.longest_request_ms < 25.0);
}

#[test]
fn security_headline_claims() {
    use xoar_analysis::eval::Verdict;
    let all = xoar_analysis::eval::corpus();
    assert_eq!(xoar_analysis::eval::census(&all).total, 44);

    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let mut cfg = GuestConfig::evaluation_guest("attacker");
    cfg.hvm = true;
    let a = p.create_guest(ts, cfg).unwrap();
    let _v = guest_on(&mut p, "victim");
    let rep = xoar_analysis::eval::evaluate(&p, a, &all);
    assert_eq!(rep.count(Verdict::ContainedToComponent), 7);
    assert_eq!(rep.count(Verdict::LimitedToSharers), 7);
    assert_eq!(rep.count(Verdict::NotProtected), 1);

    let tcb = xoar_analysis::eval::tcb_of_guest(&p, _v);
    assert_eq!(tcb.above_hypervisor_source(), 13_000);
}
