//! §6.2 security evaluation: census, containment replay, TCB accounting.
//!
//! Prints the §2.2.1 vulnerability census, replays the §6.2.1 attack set
//! against both platforms, and reports the guest TCB on each.

use xoar_analysis::eval::{census, corpus, evaluate, freshness, tcb_of_guest, Verdict};
use xoar_bench::header;
use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_hypervisor::DomId;

fn hvm_guest(p: &mut Platform, name: &str) -> DomId {
    let ts = p.services.toolstacks[0];
    let mut cfg = GuestConfig::evaluation_guest(name);
    cfg.hvm = true;
    p.create_guest(ts, cfg).expect("guest creation")
}

fn main() {
    let all = corpus();
    let c = census(&all);
    header("§2.2.1 Vulnerability census", &["Metric", "Count", "Paper"]);
    println!("total reported               | {:>3} | 44", c.total);
    println!("guest-originated vs Xen      | {:>3} | 23", c.guest_vs_xen);
    println!(
        "  code execution             | {:>3} | 12",
        c.code_execution
    );
    println!(
        "  denial of service          | {:>3} | 11",
        c.denial_of_service
    );
    println!(
        "  against control-VM services| {:>3} | 22",
        c.against_control_vm
    );

    let mut stock = Platform::stock_xen();
    let a0 = hvm_guest(&mut stock, "attacker");
    let ts0 = stock.services.toolstacks[0];
    let v0 = stock
        .create_guest(ts0, GuestConfig::evaluation_guest("victim"))
        .expect("guest creation");
    let stock_report = evaluate(&stock, a0, &all);

    let mut xoar = Platform::xoar(XoarConfig::default());
    let a1 = hvm_guest(&mut xoar, "attacker");
    let ts1 = xoar.services.toolstacks[0];
    let v1 = xoar
        .create_guest(ts1, GuestConfig::evaluation_guest("victim"))
        .expect("guest creation");
    let xoar_report = evaluate(&xoar, a1, &all);

    header(
        "§6.2.1 Containment replay",
        &["Verdict", "Stock Xen", "Xoar", "Paper (Xoar)"],
    );
    let rows = [
        (Verdict::FullPlatformCompromise, "0"),
        (Verdict::ContainedToComponent, "7 (device emulation)"),
        (Verdict::LimitedToSharers, "6+1 (virt. device + toolstack)"),
        (Verdict::Mitigable, "2 (debug registers)"),
        (Verdict::FixedInBaseline, "2 (XenStore, already fixed)"),
        (Verdict::NotProtected, "1 (hypervisor)"),
    ];
    for (verdict, paper) in rows {
        println!(
            "{:<24} | {:>9} | {:>4} | {paper}",
            format!("{verdict:?}"),
            stock_report.count(verdict),
            xoar_report.count(verdict),
        );
    }

    header(
        "§6.2 TCB accounting (above the hypervisor)",
        &["Platform", "Source LoC", "Compiled LoC", "Paper"],
    );
    // TCB of a PV guest (the paper's headline figure; an HVM guest
    // additionally trusts its own stub domain).
    let t_stock = tcb_of_guest(&stock, v0);
    let t_xoar = tcb_of_guest(&xoar, v1);
    println!(
        "Stock Xen | {:>10} | {:>10} | 7.6M / 400K (Linux)",
        t_stock.above_hypervisor_source(),
        t_stock.above_hypervisor_compiled()
    );
    println!(
        "Xoar      | {:>10} | {:>10} | 13K / 8K (nanOS)",
        t_xoar.above_hypervisor_source(),
        t_xoar.above_hypervisor_compiled()
    );
    println!(
        "Reduction | {:>9.0}x | {:>9.0}x |",
        t_stock.above_hypervisor_source() as f64 / t_xoar.above_hypervisor_source() as f64,
        t_stock.above_hypervisor_compiled() as f64 / t_xoar.above_hypervisor_compiled() as f64,
    );

    header(
        "§3.3 Temporal attack surface (exploit chain: 0.5 s)",
        &[
            "Restart interval",
            "Expected dwell",
            "Max dwell",
            "Attacker occupation",
        ],
    );
    for interval in [f64::INFINITY, 60.0, 10.0, 5.0, 1.0, 0.4] {
        let e = freshness::exposure(interval, 0.5);
        let label = if interval.is_infinite() {
            "never (stock Xen)".to_string()
        } else {
            format!("{interval:.1} s")
        };
        println!(
            "{label:<17} | {:>14} | {:>9} | {:>6.1}%",
            if e.expected_dwell_s.is_infinite() {
                "unbounded".into()
            } else {
                format!("{:.2} s", e.expected_dwell_s)
            },
            if e.max_dwell_s.is_infinite() {
                "unbounded".into()
            } else {
                format!("{:.2} s", e.max_dwell_s)
            },
            e.occupation_fraction * 100.0,
        );
    }
    println!(
        "\n\"Attackers that manage to exploit these components have limited \
         execution time till the next reboot cycle\" — and a chain slower than \
         the interval never completes at all (the 0.4 s row)."
    );
}
