//! Snapshot-fork cloning: a stamped clone must be observably equivalent
//! to a freshly built guest — same privileges, same audit-visible region
//! state, byte-identical XenStore view modulo domain ID — and the CoW
//! machinery must compose with PR-5 microreboot snapshots.

use xoar_analysis::reach::Reachability;
use xoar_analysis::rules;
use xoar_analysis::snapshot::ModelSnapshot;
use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_core::toolstack::Toolstack;
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::{DomId, DomainState, Hypercall};

/// A Xoar platform with one freshly built guest, one sealed template,
/// and one clone stamped from it.
fn cloned_world() -> (Platform, Toolstack, DomId, DomId, DomId) {
    let mut p = Platform::xoar(XoarConfig::default());
    let mut ts = Toolstack::new(&p, 0);
    let built = ts
        .create(&mut p, GuestConfig::evaluation_guest("fn-a"))
        .unwrap();
    let tpl = ts
        .create(&mut p, GuestConfig::evaluation_guest("golden"))
        .unwrap();
    ts.capture_template(&mut p, tpl).unwrap();
    let clone = ts.clone(&mut p, tpl, "fn-b").unwrap();
    (p, ts, built, tpl, clone)
}

/// Renders everything an auditor can see of one guest, with the domain
/// ID and the guest name normalised out so two guests can be compared.
fn observe_guest(p: &mut Platform, guest: DomId, name: &str) -> String {
    let ts = p.services.toolstacks[0];
    let d = p.hv.domain(guest).unwrap();
    let mut out = String::new();
    out.push_str(&format!(
        "state={:?} role={:?} memory_mib={} vcpus={}\n",
        d.state,
        d.role,
        d.memory_mib,
        d.vcpus.len()
    ));
    out.push_str(&format!(
        "privileges={}\n",
        xoar_codec::to_string(&d.privileges)
    ));
    out.push_str(&format!(
        "parent_toolstack={:?} constraint={:?}\n",
        d.parent_toolstack, d.constraint_group
    ));
    let delegated: Vec<u32> = d.delegated_shards.iter().map(|d| d.0).collect();
    out.push_str(&format!("delegated={delegated:?}\n"));
    // Audit-visible region state: every live grant as (grantee, pfn, rw),
    // sorted — grant refs are allocation order, identical by construction.
    let mut grants: Vec<(u32, u64, bool)> =
        p.hv.grant_table(guest)
            .unwrap()
            .entries_sorted()
            .into_iter()
            .map(|(_, e)| {
                (
                    e.grantee.0,
                    e.pfn.0,
                    e.access == xoar_hypervisor::grant::GrantAccess::ReadWrite,
                )
            })
            .collect();
    grants.sort();
    out.push_str(&format!("grants={grants:?}\n"));
    let mut peers: Vec<u32> = p.hv.peers_of(guest).iter().map(|d| d.0).collect();
    peers.sort();
    out.push_str(&format!("event_peers={peers:?}\n"));
    // XenStore view: a depth-first walk of the guest's home, then of its
    // rows in each backend's directory, rendering every node's value,
    // owner, default level and ACL entries.
    let handle = p.guest(guest).unwrap();
    let mut roots = vec![format!("/local/domain/{}", guest.0)];
    for (backend, kind) in [(handle.netback, "vif"), (handle.blkback, "vbd")] {
        if let Some(backend) = backend {
            roots.push(format!(
                "/local/domain/{}/backend/{kind}/{}",
                backend.0, guest.0
            ));
        }
    }
    for root in roots {
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            let value = p.xs.read_str(ts, &node).unwrap();
            let perms = &p.xs.state().peek(&node).unwrap().perms;
            let entries: Vec<(u32, _)> = perms.entries.iter().map(|e| (e.dom.0, e.level)).collect();
            out.push_str(&format!(
                "xs {node} = {value} owner={} default={:?} entries={entries:?}\n",
                perms.owner.0, perms.default
            ));
            let mut children = p.xs.directory(ts, &node).unwrap();
            children.sort();
            for child in children.into_iter().rev() {
                stack.push(format!("{node}/{child}"));
            }
        }
    }
    // What the guest is charged for, in Logic's quota accounting and in
    // State's owner index.
    out.push_str(&format!(
        "xs node_count={} owned={:?}\n",
        p.xs.logic().node_count(guest),
        p.xs.state().owner_counts().get(&guest)
    ));
    // Normalise the two identities a comparison must ignore.
    out.replace(&format!("/{}/", guest.0), "/DOMID/")
        .replace(&guest.0.to_string(), "DOMID")
        .replace(name, "NAME")
}

#[test]
fn cloned_guest_is_observably_equivalent_to_built_guest() {
    let (mut p, _ts, built, _tpl, clone) = cloned_world();
    let a = observe_guest(&mut p, built, "fn-a");
    let b = observe_guest(&mut p, clone, "fn-b");
    assert_eq!(
        a, b,
        "clone must be indistinguishable from a built guest modulo DomId"
    );
}

#[test]
fn clone_and_its_backend_read_their_own_xenstore_rows() {
    let (mut p, _ts, built, _tpl, clone) = cloned_world();
    let netback = p.guest(clone).unwrap().netback.unwrap();
    let state = format!("/local/domain/{}/device/vif/0/state", clone.0);
    assert_eq!(p.xs.read_str(clone, &state).unwrap(), "4", "Connected");
    let frontend = format!(
        "/local/domain/{}/backend/vif/{}/0/frontend",
        netback.0, clone.0
    );
    assert_eq!(
        p.xs.read_str(netback, &frontend).unwrap(),
        format!("/local/domain/{}/device/vif/0", clone.0)
    );
    // Another guest still reads neither.
    assert!(p.xs.read_str(built, &state).is_err());
    assert!(p.xs.read_str(built, &frontend).is_err());
}

/// The XenStore cost of one warm start and one teardown, as exact counts
/// of State protocol operations (a regression here is invisible in the
/// benchmark's noise): a clone is 27 Puts, one per node it creates, in
/// 33 operations; a destroy is 34 operations and leaves no node behind.
/// A guest built through the Builder leaves none behind either.
#[test]
fn clone_and_destroy_have_a_pinned_xenstore_cost() {
    let (mut p, mut ts, _built, tpl, _clone) = cloned_world();
    let nodes = p.xs.state_len();
    let (generation, ops) = (p.xs.state().generation(), p.xs.state_ops());
    let clone = ts.clone(&mut p, tpl, "fn-c").unwrap();
    let puts = p.xs.state().generation() - generation;
    assert_eq!(puts, 27, "Puts per clone");
    assert_eq!(p.xs.state_len() - nodes, 27, "one Put per node created");
    assert_eq!(p.xs.state_ops() - ops, 33, "State operations per clone");
    let ops = p.xs.state_ops();
    ts.destroy(&mut p, clone).unwrap();
    assert_eq!(p.xs.state_ops() - ops, 34, "State operations per destroy");
    assert_eq!(p.xs.state_len(), nodes, "destroy leaves no node behind");

    let built = ts
        .create(&mut p, GuestConfig::evaluation_guest("fn-d"))
        .unwrap();
    assert!(p.xs.state_len() > nodes);
    ts.destroy(&mut p, built).unwrap();
    assert_eq!(p.xs.state_len(), nodes, "nor does a built guest's destroy");
}

#[test]
fn clone_shares_template_frames_until_first_write() {
    let (p, _ts, _built, tpl, clone) = cloned_world();
    // Unbroken pages are literally the template's frames.
    let t = p.hv.mem.read(tpl, Pfn(0)).unwrap();
    let c = p.hv.mem.read(clone, Pfn(0)).unwrap();
    assert!(
        xoar_hypervisor::memory::PageRef::ptr_eq(&t, &c),
        "clone reads must hit the template frame"
    );
    // Only the four I/O ring pages (xenstore, console, vif, vbd) were
    // privatized at stamp time; the rest of the address space is shared.
    assert_eq!(p.hv.mem.clone_broken_pages(clone), 4);
}

#[test]
fn clone_write_then_rollback_restores_template_state() {
    let (mut p, _ts, _built, tpl, clone) = cloned_world();
    let golden = p.hv.mem.read(tpl, Pfn(3)).unwrap().to_vec();
    // PR-5 snapshot taken by the clone itself, then a divergent write.
    p.hv.hypercall(clone, Hypercall::VmSnapshot).unwrap();
    p.hv.mem.write(clone, Pfn(3), b"diverged-state").unwrap();
    assert_eq!(
        &p.hv.mem.read(clone, Pfn(3)).unwrap().as_slice()[..14],
        b"diverged-state"
    );
    assert_eq!(
        p.hv.mem.read(tpl, Pfn(3)).unwrap().to_vec(),
        golden,
        "template is sealed; clone writes never reach it"
    );
    // Microreboots go through the Builder (shard whitelist doctrine); the
    // rollback restores the forked-off bytes.
    let builder = p.services.builder;
    p.hv.hypercall(builder, Hypercall::VmRollback { target: clone })
        .unwrap();
    assert_eq!(p.hv.mem.read(clone, Pfn(3)).unwrap().to_vec(), golden);
}

#[test]
fn clone_lifecycle_keeps_all_analyzer_rules_green() {
    let (mut p, mut ts, _built, tpl, _clone) = cloned_world();
    // A busier world: more clones, one diverged by a write.
    let extra: Vec<DomId> = (0..8)
        .map(|i| ts.clone(&mut p, tpl, &format!("fn-x{i}")).unwrap())
        .collect();
    p.hv.mem.write(extra[0], Pfn(0), b"warm").unwrap();
    let snap = ModelSnapshot::capture(&p);
    let reach = Reachability::compute(&snap);
    let violations = rules::check(&snap, &reach);
    assert_eq!(
        violations,
        vec![],
        "clones must introduce no undeclared sharing or cross-region edges"
    );
    // The template/clone aliasing is visible — and visibly declared: every
    // shared frame is hypervisor-managed CoW with a frozen (sealed) mapper.
    assert!(
        !snap.shared_frames.is_empty(),
        "template sharing must be captured"
    );
    for f in &snap.shared_frames {
        assert!(f.cow, "mfn {} captured as raw sharing", f.mfn);
    }
    assert!(
        snap.shared_frames
            .iter()
            .any(|f| f.frozen && f.mappers.contains(&tpl)),
        "template-backed shares carry the frozen provenance"
    );
}

#[test]
fn thousand_clone_fleet_is_dense_and_analyzer_green() {
    // The ~1k checkpoint of the Table-6.1-style density sweep, with the
    // full privilege-flow audit run over the resulting model. (The 10k
    // and 100k rows run in release mode via scripts/ci.sh; the analyzer's
    // reachability matrix is O(n²), so the rule check rides the 1k row.)
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let mut gc = GuestConfig::evaluation_guest("lambda-golden");
    gc.memory_mib = 64;
    gc.vcpus = 1;
    gc.disk_bytes = 1 << 30;
    let tpl = p.create_guest(ts, gc).unwrap();
    let free_before = p.hv.mem.free_frames();
    for i in 0..1_000 {
        p.hv.hypercall(
            ts,
            Hypercall::DomctlCloneDomain {
                template: tpl,
                name: format!("fx-{i}"),
            },
        )
        .unwrap();
    }
    let actual = free_before - p.hv.mem.free_frames();
    let built_equivalent = 1_000 * 64;
    assert!(
        built_equivalent >= actual * 10,
        "density {}x below the 10x floor",
        built_equivalent / actual.max(1)
    );
    let snap = ModelSnapshot::capture(&p);
    let reach = Reachability::compute(&snap);
    let violations = rules::check(&snap, &reach);
    assert_eq!(violations, vec![], "1k-clone fleet must stay audit-clean");
}

#[test]
fn rollback_does_not_resurrect_grants_revoked_after_snapshot() {
    // Regression guard for the isolation-spec checker's sharpest case:
    // a clone takes a microreboot snapshot, then grants a page and
    // *revokes* it after the snapshot. Rolling back must restore page
    // contents only — if the rollback path ever restored region state
    // wholesale, the revoked capability would come back from the dead
    // and a stale backend mapping would be re-armed.
    let (mut p, _ts, _built, _tpl, clone) = cloned_world();
    let backend = p.services.netbacks[0];
    let h = xoar_analysis::spec::SpecHandle::attach(&mut p.hv);
    p.hv.hypercall(clone, Hypercall::VmSnapshot).unwrap();
    let gref =
        p.hv.hypercall(
            clone,
            Hypercall::GnttabGrantAccess {
                grantee: backend,
                pfn: Pfn(5),
                access: xoar_hypervisor::grant::GrantAccess::ReadWrite,
            },
        )
        .unwrap()
        .grant_ref()
        .unwrap();
    p.hv.mem.write(clone, Pfn(5), b"post-snapshot").unwrap();
    p.hv.hypercall(clone, Hypercall::GnttabEndAccess { gref })
        .unwrap();
    let builder = p.services.builder;
    p.hv.hypercall(builder, Hypercall::VmRollback { target: clone })
        .unwrap();
    // The real table must not hold the revoked capability...
    let resurrected =
        p.hv.grant_table(clone)
            .unwrap()
            .entries_sorted()
            .into_iter()
            .any(|(_, e)| e.grantee == backend && e.pfn == Pfn(5));
    assert!(!resurrected, "rollback resurrected a revoked grant");
    // ...and the lockstep checker agrees: the model still remembers the
    // revocation, and no divergence (in particular no
    // `revoked-grant-resurrected`) fired across the whole sequence.
    assert!(
        h.state()
            .revoked
            .iter()
            .any(|&(granter, f)| granter == clone && f.grantee == backend && f.pfn == 5),
        "model lost the revocation fact"
    );
    assert!(
        h.divergence().is_none(),
        "spec diverged:\n{}",
        h.report().unwrap_or_default()
    );
}

#[test]
fn destroyed_clone_frees_its_private_frames_only() {
    let (mut p, mut ts, _built, tpl, clone) = cloned_world();
    p.hv.mem.write(clone, Pfn(0), b"private").unwrap();
    let free_before = p.hv.mem.free_frames();
    ts.destroy(&mut p, clone).unwrap();
    assert!(
        p.hv.mem.free_frames() > free_before,
        "broken frames return to the allocator"
    );
    // The template is intact and can still be cloned.
    assert_eq!(p.hv.domain(tpl).unwrap().state, DomainState::Paused);
    ts.clone(&mut p, tpl, "fn-again").unwrap();
}
