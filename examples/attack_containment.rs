//! Attack containment, side by side (§6.2).
//!
//! ```sh
//! cargo run --example attack_containment
//! ```
//!
//! Launches the same device-emulation exploit (the paper's biggest attack
//! class: 14 of 23 guest-originated vulnerabilities) from a hostile HVM
//! guest on stock Xen and on Xoar, and prints what the attacker actually
//! gets in each case.

use xoar_analysis::eval::{blast_radius, landing_domain, AttackVector};
use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_hypervisor::DomId;

fn hvm(p: &mut Platform, name: &str) -> DomId {
    let ts = p.services.toolstacks[0];
    let mut cfg = GuestConfig::evaluation_guest(name);
    cfg.hvm = true;
    p.create_guest(ts, cfg).expect("guest")
}

fn describe(p: &Platform, attacker: DomId, label: &str) {
    println!("--- {label} ---");
    let landed =
        landing_domain(p, attacker, AttackVector::DeviceEmulation).expect("device model exists");
    let d = p.hv.domain(landed).expect("live");
    println!("Exploit lands in: {landed} ({})", d.name);
    let r = blast_radius(p, landed);
    println!("Attacker can now:");
    println!("  read/write memory of: {:?}", r.memory_of);
    println!("  intercept traffic of: {:?}", r.traffic_of);
    println!("  manage (create/destroy) VMs: {}", r.can_manage_vms);
    println!("  take down the whole host:    {}", r.host_compromised);
    println!();
}

fn main() {
    // The same cast on both platforms: a hostile guest, an innocent
    // victim, both HVM (served by device emulation).
    let mut stock = Platform::stock_xen();
    let attacker = hvm(&mut stock, "hostile-tenant");
    let victim = hvm(&mut stock, "innocent-tenant");
    println!(
        "Scenario: {attacker} exploits a bug in its emulated device model\n\
         (the paper's largest vector: 14/23 guest-originated vulnerabilities).\n"
    );
    describe(&stock, attacker, "Stock Xen: device model runs in Dom0");

    let mut xoar = Platform::xoar(XoarConfig::default());
    let attacker = hvm(&mut xoar, "hostile-tenant");
    let victim2 = hvm(&mut xoar, "innocent-tenant");
    describe(
        &xoar,
        attacker,
        "Xoar: device model runs in a per-guest QemuVM",
    );

    // The punchline, verified.
    let stock_radius = blast_radius(
        &stock,
        landing_domain(&stock, attacker, AttackVector::DeviceEmulation).unwrap(),
    );
    assert!(stock_radius.host_compromised || stock_radius.memory_of.contains(&victim));
    let xoar_radius = blast_radius(
        &xoar,
        landing_domain(&xoar, attacker, AttackVector::DeviceEmulation).unwrap(),
    );
    assert!(!xoar_radius.host_compromised);
    assert!(!xoar_radius.memory_of.contains(&victim2));
    println!(
        "Verdict: on stock Xen the exploit owns the platform; on Xoar it owns\n\
         one stub domain with rights over nobody but the attacker itself —\n\
         \"an attacker … will now have the full privileges of the QemuVM,\n\
         rather than Dom0 privileges and has no rights over any other VM.\""
    );
}
