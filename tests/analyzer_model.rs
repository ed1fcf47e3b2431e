//! Pass A end-to-end: the static privilege-flow analyzer over a live
//! Xoar platform (the same two-guest scenario `security_model.rs` uses).
//!
//! The analyzer must (a) find nothing on the known-good platform, (b)
//! produce byte-identical reports across fresh boots, and (c) fire when
//! over-privilege or undeclared sharing is injected into the snapshot.
//! The §6.2 containment analysis must agree with the same matrix.

use xoar_analysis::eval::blast_radius;
use xoar_analysis::reach::{MemPath, Reachability};
use xoar_analysis::rules;
use xoar_analysis::snapshot::{GrantEdge, ModelSnapshot};
use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_hypervisor::DomId;

fn xoar_with_two_guests() -> (Platform, DomId, DomId) {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let a = p
        .create_guest(ts, GuestConfig::evaluation_guest("a"))
        .unwrap();
    let b = p
        .create_guest(ts, GuestConfig::evaluation_guest("b"))
        .unwrap();
    (p, a, b)
}

#[test]
fn standard_boot_platform_passes_all_rules() {
    let (p, _a, _b) = xoar_with_two_guests();
    let snap = ModelSnapshot::capture(&p);
    let reach = Reachability::compute(&snap);
    let violations = rules::check(&snap, &reach);
    assert_eq!(violations, vec![], "known-good platform must be clean");
}

#[test]
fn report_is_deterministic_across_boots() {
    let full_report = || {
        let (p, _a, _b) = xoar_with_two_guests();
        let snap = ModelSnapshot::capture(&p);
        let reach = Reachability::compute(&snap);
        let violations = rules::check(&snap, &reach);
        let mut out = snap.render();
        out.push_str(&reach.render(&snap));
        for v in &violations {
            out.push_str(&v.render());
            out.push('\n');
        }
        out
    };
    assert_eq!(full_report(), full_report());
}

#[test]
fn guests_never_reach_each_other_in_the_matrix() {
    let (p, a, b) = xoar_with_two_guests();
    let snap = ModelSnapshot::capture(&p);
    let reach = Reachability::compute(&snap);
    assert!(!reach.reaches_memory(a, b));
    assert!(!reach.reaches_memory(b, a));
    // Nor is there any direct signalling channel between them.
    assert!(!reach.signals.contains(&(a.min(b), a.max(b))));
}

#[test]
fn injected_overprivilege_is_caught() {
    let (p, _a, _b) = xoar_with_two_guests();
    let mut snap = ModelSnapshot::capture(&p);
    let nb = snap
        .live_domains()
        .find(|d| d.kind == "netback")
        .map(|d| d.id)
        .expect("netback present");
    snap.domains
        .get_mut(&nb)
        .unwrap()
        .privileges
        .map_foreign_any = true;
    let reach = Reachability::compute(&snap);
    let violations = rules::check(&snap, &reach);
    let fired: Vec<&str> = violations.iter().map(|v| v.rule).collect();
    assert!(fired.contains(&"only-builder-blanket"), "{violations:?}");
    assert!(fired.contains(&"backend-grant-only"), "{violations:?}");
}

#[test]
fn injected_undeclared_sharing_is_caught() {
    let (p, a, _b) = xoar_with_two_guests();
    let mut snap = ModelSnapshot::capture(&p);
    let xs_state = snap
        .live_domains()
        .find(|d| d.kind == "xenstore-state")
        .map(|d| d.id)
        .expect("xenstore-state present");
    snap.grants.push(GrantEdge {
        granter: a,
        grantee: xs_state,
        gref: 9999,
        pfn: 7,
        writable: false,
    });
    snap.grants.sort();
    let reach = Reachability::compute(&snap);
    let violations = rules::check(&snap, &reach);
    assert!(
        violations.iter().any(|v| v.rule == "undeclared-sharing"),
        "{violations:?}"
    );
}

#[test]
fn blast_radius_agrees_with_the_reach_matrix() {
    for mut p in [Platform::xoar(XoarConfig::default()), Platform::stock_xen()] {
        let ts = p.services.toolstacks[0];
        let mut hvm = GuestConfig::evaluation_guest("hvm");
        hvm.hvm = true;
        p.create_guest(ts, hvm).unwrap();
        p.create_guest(ts, GuestConfig::evaluation_guest("pv"))
            .unwrap();
        let snap = ModelSnapshot::capture(&p);
        let reach = Reachability::compute(&snap);
        for d in snap.live_domains() {
            let radius = blast_radius(&p, d.id);
            let mut memory_of = std::collections::BTreeSet::new();
            for (owner, paths) in reach.row(d.id) {
                if paths
                    .iter()
                    .any(|path| matches!(path, MemPath::BlanketForeign | MemPath::PrivilegedFor))
                {
                    memory_of.insert(owner);
                }
                if paths
                    .iter()
                    .any(|path| matches!(path, MemPath::Grant { .. }))
                {
                    assert!(
                        radius.traffic_of.contains(&owner),
                        "{:?} {} ({}) holds a grant from {owner} outside traffic_of {:?}",
                        p.mode,
                        d.id,
                        d.kind,
                        radius.traffic_of
                    );
                }
            }
            assert_eq!(
                radius.memory_of, memory_of,
                "{:?} {} ({})",
                p.mode, d.id, d.kind
            );
        }
    }
}
