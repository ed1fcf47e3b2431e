//! Cross-crate security invariants: the isolation properties Chapter 3
//! promises, checked against the live platform with the security crate's
//! analysis tooling.

use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_core::shard::ConstraintTag;
use xoar_hypervisor::grant::GrantAccess;
use xoar_hypervisor::memory::{PageRef, Pfn};
use xoar_hypervisor::{DomId, HvError, Hypercall, HypercallId};
use xoar_security::containment::{blast_radius, Verdict};
use xoar_security::{corpus, evaluate, tcb_of_guest};

fn xoar_with_two_guests() -> (Platform, DomId, DomId, DomId) {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let a = p
        .create_guest(ts, GuestConfig::evaluation_guest("a"))
        .unwrap();
    let b = p
        .create_guest(ts, GuestConfig::evaluation_guest("b"))
        .unwrap();
    (p, ts, a, b)
}

#[test]
fn guests_cannot_touch_each_other_through_any_interface() {
    let (mut p, _ts, a, b) = xoar_with_two_guests();
    // Foreign mapping: denied.
    assert!(matches!(
        p.hv.hypercall(
            a,
            Hypercall::MmuMapForeign {
                target: b,
                pfn: Pfn(0)
            }
        ),
        Err(HvError::PermissionDenied { .. })
    ));
    // Event channel: denied (guest↔guest is never a shard pair).
    assert!(p
        .hv
        .hypercall(a, Hypercall::EvtchnAllocUnbound { remote: b })
        .is_err());
    // Grant offer: denied by the same IVC policy.
    assert!(p
        .hv
        .hypercall(
            a,
            Hypercall::GnttabGrantAccess {
                grantee: b,
                pfn: Pfn(0),
                access: GrantAccess::ReadOnly,
            }
        )
        .is_err());
    // XenStore: a cannot read b's tree.
    let key = format!("/local/domain/{}/name", b.0);
    assert!(p.xs.read_str(a, &key).is_err());
}

#[test]
fn no_shard_except_builder_can_map_guest_memory() {
    let (p, _ts, a, _b) = xoar_with_two_guests();
    let s = &p.services;
    let mut cannot = vec![
        s.xenstore,
        s.xenstore_state,
        s.netbacks[0],
        s.blkbacks[0],
        s.toolstacks[0],
    ];
    if let Some(c) = s.console {
        cannot.push(c);
    }
    for shard in cannot {
        let radius = blast_radius(&p, shard);
        assert!(
            !radius.memory_of.contains(&a),
            "{shard} must not reach guest memory"
        );
    }
    let builder = blast_radius(&p, s.builder);
    assert!(
        builder.memory_of.contains(&a),
        "only the Builder retains arbitrary access"
    );
}

#[test]
fn whole_corpus_side_by_side() {
    // The replay totals must balance on both platforms: 19 attacks each.
    let all = corpus::corpus();
    let mut stock = Platform::stock_xen();
    let ts = stock.services.toolstacks[0];
    let mut cfg = GuestConfig::evaluation_guest("attacker");
    cfg.hvm = true;
    let a0 = stock.create_guest(ts, cfg.clone()).unwrap();
    let stock_rep = evaluate(&stock, a0, &all);

    let mut xoar = Platform::xoar(XoarConfig::default());
    let ts = xoar.services.toolstacks[0];
    let a1 = xoar.create_guest(ts, cfg).unwrap();
    let xoar_rep = evaluate(&xoar, a1, &all);

    let total =
        |r: &xoar_security::ContainmentReport| -> usize { r.counts.iter().map(|(_, c)| c).sum() };
    assert_eq!(total(&stock_rep), 19);
    assert_eq!(total(&xoar_rep), 19);
    // Xoar strictly dominates: nothing gets worse, full compromises go
    // from 14 to 0.
    assert_eq!(stock_rep.count(Verdict::FullPlatformCompromise), 14);
    assert_eq!(xoar_rep.count(Verdict::FullPlatformCompromise), 0);
    // Unprotected class identical (the hypervisor exploit).
    assert_eq!(
        stock_rep.count(Verdict::NotProtected),
        xoar_rep.count(Verdict::NotProtected)
    );
}

#[test]
fn constraint_groups_and_audit_compose() {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let mut cfg = GuestConfig::evaluation_guest("tenant-a");
    cfg.constraint = ConstraintTag::group("a");
    let ga = p.create_guest(ts, cfg).unwrap();
    // The audit graph shows exactly which shards serve tenant A…
    let deps = p.audit.dependency_graph_at(u64::MAX);
    let serving: Vec<DomId> = deps
        .iter()
        .filter(|(g, _)| *g == ga)
        .map(|(_, s)| *s)
        .collect();
    assert_eq!(serving.len(), 2, "netback + blkback");
    // …and each of those shards carries tenant A's tag, so no
    // differently-tagged VM can ever share them.
    for s in serving {
        assert_eq!(p.shard_tag(s), Some(&ConstraintTag::group("a")));
    }
}

#[test]
fn microreboot_evicts_attacker_state() {
    let (mut p, _ts, _a, _b) = xoar_with_two_guests();
    let nb = p.services.netbacks[0];
    let builder = p.services.builder;
    // The shard snapshots itself post-boot.
    p.hv.hypercall(nb, Hypercall::VmSnapshot).unwrap();
    // Attacker compromises NetBack and plants persistence.
    p.hv.mem.write(nb, Pfn(5), b"rootkit").unwrap();
    p.hv.mem.write(nb, Pfn(9), b"exfil-buffer").unwrap();
    // The periodic restart rolls it all back.
    p.hv.hypercall(builder, Hypercall::VmRollback { target: nb })
        .unwrap();
    assert_eq!(p.hv.mem.read(nb, Pfn(5)).unwrap(), Vec::<u8>::new());
    assert_eq!(p.hv.mem.read(nb, Pfn(9)).unwrap(), Vec::<u8>::new());
}

#[test]
fn tcb_shrinks_for_every_guest_not_just_one() {
    let (p, _ts, a, b) = xoar_with_two_guests();
    for g in [a, b] {
        let tcb = tcb_of_guest(&p, g);
        assert_eq!(tcb.above_hypervisor_source(), 13_000, "guest {g}");
    }
}

#[test]
fn compromised_toolstack_cannot_escalate_to_builder_powers() {
    let (mut p, ts, a, _b) = xoar_with_two_guests();
    // The attacker owns the toolstack. It can manage its guests…
    p.hv.hypercall(ts, Hypercall::DomctlPauseDomain { target: a })
        .unwrap();
    // …but cannot write guest memory…
    assert!(p
        .hv
        .hypercall(
            ts,
            Hypercall::MmuWriteForeign {
                target: a,
                pfn: Pfn(0),
                data: PageRef::new(b"x")
            }
        )
        .is_err());
    // …cannot grant itself new privileges (it does not hold them)…
    assert!(p
        .hv
        .hypercall(
            ts,
            Hypercall::DomctlPermitHypercall {
                target: ts,
                id: HypercallId::MmuMapForeign
            }
        )
        .is_err());
    // …and cannot touch the Builder.
    assert!(p
        .hv
        .hypercall(
            ts,
            Hypercall::DomctlDestroyDomain {
                target: p.services.builder
            }
        )
        .is_err());
}

#[test]
fn dos_against_xenstore_is_quota_bounded() {
    let (mut p, _ts, a, b) = xoar_with_two_guests();
    // Guest a floods its own subtree until the node quota stops it.
    let mut created = 0;
    for i in 0..100_000 {
        match p
            .xs
            .write_str(a, &format!("/local/domain/{}/data/n{i}", a.0), "x")
        {
            Ok(()) => created += 1,
            Err(_) => break,
        }
    }
    assert!(
        created < 2_000,
        "quota must bound the flood (created {created})"
    );
    // The store still serves other guests.
    p.xs.write_str(b, &format!("/local/domain/{}/data/ok", b.0), "fine")
        .unwrap();
}

// ---------------------------------------------------------------------
// Spec-backed noninterference: the same claims the probes above make by
// poking implementation interfaces, restated as queries against the
// executable isolation spec advanced in lockstep with the hypervisor.

#[test]
fn spec_model_shows_guests_mutually_invisible() {
    let (mut p, _ts, a, b) = xoar_with_two_guests();
    let h = xoar_analysis::spec::SpecHandle::attach(&mut p.hv);
    // Drive the denied probes under the checker: failed ops must leave
    // the model (and the real state it mirrors) untouched.
    let _ = p.hv.hypercall(
        a,
        Hypercall::MmuMapForeign {
            target: b,
            pfn: Pfn(0),
        },
    );
    let _ = p.hv.hypercall(
        a,
        Hypercall::GnttabGrantAccess {
            grantee: b,
            pfn: Pfn(0),
            access: GrantAccess::ReadOnly,
        },
    );
    let s = h.state();
    assert!(!s.can_see(a, b), "guest a must not observe guest b");
    assert!(!s.can_see(b, a), "guest b must not observe guest a");
    assert_eq!(s.sharing_justification(a, b), None);
    assert!(
        h.divergence().is_none(),
        "spec diverged:\n{}",
        h.report().unwrap_or_default()
    );
}

#[test]
fn spec_model_justifies_backend_reach_by_grant_only() {
    let (mut p, _ts, a, b) = xoar_with_two_guests();
    let backend = p.services.netbacks[0];
    let h = xoar_analysis::spec::SpecHandle::attach(&mut p.hv);
    let gref =
        p.hv.hypercall(
            a,
            Hypercall::GnttabGrantAccess {
                grantee: backend,
                pfn: Pfn(7),
                access: GrantAccess::ReadWrite,
            },
        )
        .unwrap()
        .grant_ref()
        .unwrap();
    let s = h.state();
    // The backend reaches a's page through the grant and nothing wider:
    // no blanket privilege, no privileged-for edge.
    assert!(s.can_see(backend, a));
    assert_eq!(s.sharing_justification(backend, a), Some("grant"));
    assert!(!s.blanket.contains(&backend), "backend holds no blanket");
    assert!(!s.priv_for.contains(&(backend, a)));
    // The grant names exactly one page, and b stays out of the picture.
    let facts = s.grants_by(a);
    assert!(facts
        .iter()
        .any(|&(g, f)| g == gref.0 && f.grantee == backend && f.pfn == 7));
    // Whatever reach the backend has into b (its boot-time ring grants)
    // is grant-shaped too — never blanket or privileged-for.
    if s.can_see(backend, b) {
        assert_eq!(s.sharing_justification(backend, b), Some("grant"));
    }
    assert!(!s.can_see(b, a));
    // Revocation withdraws the visibility in the model too.
    drop(s);
    p.hv.hypercall(a, Hypercall::GnttabEndAccess { gref })
        .unwrap();
    let s = h.state();
    assert!(
        !s.grants_by(a)
            .iter()
            .any(|&(_, f)| f.grantee == backend && f.pfn == 7),
        "revoked grant must leave the model"
    );
    assert!(
        h.divergence().is_none(),
        "spec diverged:\n{}",
        h.report().unwrap_or_default()
    );
}

#[test]
fn spec_model_isolates_clone_template_sharing() {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let mut tool = xoar_core::toolstack::Toolstack::new(&p, 0);
    let bystander = p
        .create_guest(ts, GuestConfig::evaluation_guest("bystander"))
        .unwrap();
    let tpl = tool
        .create(&mut p, GuestConfig::evaluation_guest("golden"))
        .unwrap();
    tool.capture_template(&mut p, tpl).unwrap();
    let h = xoar_analysis::spec::SpecHandle::attach(&mut p.hv);
    let c1 = tool.clone(&mut p, tpl, "fx-1").unwrap();
    let c2 = tool.clone(&mut p, tpl, "fx-2").unwrap();
    let s = h.state();
    // Clones share with their template and siblings — and the model
    // names that justification precisely.
    assert!(s.clone_linked(c1, tpl));
    assert!(s.clone_linked(c1, c2), "siblings share a template");
    assert_eq!(s.sharing_justification(c1, tpl), Some("clone-template"));
    // The fan-out stops at the family boundary: a bystander guest gains
    // no visibility into the clones, nor they into it.
    assert!(!s.clone_linked(c1, bystander));
    assert!(!s.can_see(c1, bystander));
    assert!(!s.can_see(bystander, c1));
    assert_eq!(s.sharing_justification(c2, bystander), None);
    assert!(
        h.divergence().is_none(),
        "spec diverged:\n{}",
        h.report().unwrap_or_default()
    );
}
