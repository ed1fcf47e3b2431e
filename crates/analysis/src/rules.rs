//! Least-privilege invariants as declarative rules.
//!
//! Each rule has a stable string ID (reports and CI gates key on it),
//! takes the frozen model plus its reachability matrix, and yields zero
//! or more [`Violation`]s. The rules encode the paper's §3.1/§6.2
//! security argument as checkable statements:
//!
//! | rule ID | invariant |
//! |---|---|
//! | `xenstore-no-domain-building` | XenStore/Console shards never hold domain-building hypercalls or blanket memory access |
//! | `only-builder-blanket` | `map_foreign_any` is held by the Builder alone at steady state |
//! | `backend-grant-only` | driver backends reach frames only via explicit grants |
//! | `guest-noninterference` | no guest reaches another guest's memory except through a grant |
//! | `undeclared-sharing` | guests grant frames only to shards delegated to them (or their stub/toolstack), and guests alias machine frames only under hypervisor-managed CoW (dedup or frozen snapshot baselines) |
//! | `constraint-groups` | a shared backend never serves guests from different constraint groups |
//! | `no-undeclared-cross-region-access` | every domain×domain edge in the reachability matrix (memory paths and event channels) is covered by a kind in the hypervisor's declared-sharing ledger |

use std::collections::BTreeMap;

use xoar_hypervisor::domain::DomainRole;
use xoar_hypervisor::{DomId, HypercallId};

use crate::reach::{MemPath, Reachability};
use crate::snapshot::ModelSnapshot;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Stable rule ID.
    pub rule: &'static str,
    /// The offending domain.
    pub subject: DomId,
    /// Human-readable specifics.
    pub detail: String,
}

impl Violation {
    fn new(rule: &'static str, subject: DomId, detail: String) -> Self {
        Violation {
            rule,
            subject,
            detail,
        }
    }

    /// One-line rendering.
    pub fn render(&self) -> String {
        format!("VIOLATION {} {}: {}", self.rule, self.subject, self.detail)
    }
}

/// Hypercalls that build or reshape domains — the calls the XenStore and
/// Console shards must never hold (they are pure service endpoints).
pub const DOMAIN_BUILDING_CALLS: [HypercallId; 7] = [
    HypercallId::DomctlCreateDomain,
    HypercallId::DomctlSetRole,
    HypercallId::DomctlPermitHypercall,
    HypercallId::MemoryPopulate,
    HypercallId::MmuMapForeign,
    HypercallId::MmuWriteForeign,
    HypercallId::GnttabForeignSetup,
];

/// Runs every rule; the result is sorted (deterministic reports).
pub fn check(snap: &ModelSnapshot, reach: &Reachability) -> Vec<Violation> {
    let mut out = Vec::new();
    xenstore_no_domain_building(snap, &mut out);
    only_builder_blanket(snap, &mut out);
    backend_grant_only(snap, reach, &mut out);
    guest_noninterference(snap, reach, &mut out);
    undeclared_sharing(snap, reach, &mut out);
    constraint_groups(snap, &mut out);
    no_undeclared_cross_region_access(snap, reach, &mut out);
    out.sort();
    out.dedup();
    out
}

fn is_backend(kind: &str) -> bool {
    // The fabric is a NetBack hosting the virtual switch: switching
    // frames between guests grants it no extra reach, so it is held to
    // the same grant-only envelope as any backend.
    kind == "netback" || kind == "blkback" || kind == "fabric"
}

fn is_service_endpoint(kind: &str) -> bool {
    kind == "xenstore-logic" || kind == "xenstore-state" || kind == "console"
}

fn xenstore_no_domain_building(snap: &ModelSnapshot, out: &mut Vec<Violation>) {
    for d in snap.live_domains() {
        if !is_service_endpoint(&d.kind) {
            continue;
        }
        for id in DOMAIN_BUILDING_CALLS {
            if d.privileges.hypercalls.contains(id) {
                out.push(Violation::new(
                    "xenstore-no-domain-building",
                    d.id,
                    format!("{} shard holds {}", d.kind, id.name()),
                ));
            }
        }
        if d.privileges.map_foreign_any {
            out.push(Violation::new(
                "xenstore-no-domain-building",
                d.id,
                format!("{} shard holds blanket foreign-memory access", d.kind),
            ));
        }
    }
}

fn only_builder_blanket(snap: &ModelSnapshot, out: &mut Vec<Violation>) {
    for d in snap.live_domains() {
        if d.privileges.map_foreign_any && d.kind != "builder" {
            out.push(Violation::new(
                "only-builder-blanket",
                d.id,
                format!(
                    "map_foreign_any held by {} ({}); only the Builder may hold it",
                    d.id, d.kind
                ),
            ));
        }
    }
}

fn backend_grant_only(snap: &ModelSnapshot, reach: &Reachability, out: &mut Vec<Violation>) {
    for d in snap.live_domains() {
        if !is_backend(&d.kind) {
            continue;
        }
        for (&(accessor, owner), paths) in &reach.mem {
            if accessor != d.id {
                continue;
            }
            for p in paths {
                if !matches!(p, MemPath::Grant { .. }) {
                    out.push(Violation::new(
                        "backend-grant-only",
                        d.id,
                        format!(
                            "{} reaches {}'s memory via {} (only frontend grants allowed)",
                            d.kind,
                            owner,
                            p.label()
                        ),
                    ));
                }
            }
        }
    }
}

fn guest_noninterference(snap: &ModelSnapshot, reach: &Reachability, out: &mut Vec<Violation>) {
    for (&(accessor, owner), paths) in &reach.mem {
        let (Some(a), Some(o)) = (snap.domains.get(&accessor), snap.domains.get(&owner)) else {
            continue;
        };
        if a.role != DomainRole::Guest || o.role != DomainRole::Guest {
            continue;
        }
        for p in paths {
            if !matches!(p, MemPath::Grant { .. }) {
                out.push(Violation::new(
                    "guest-noninterference",
                    accessor,
                    format!(
                        "guest {} reaches guest {}'s memory via {} (must traverse a grant)",
                        accessor,
                        owner,
                        p.label()
                    ),
                ));
            }
        }
    }
}

fn undeclared_sharing(snap: &ModelSnapshot, reach: &Reachability, out: &mut Vec<Violation>) {
    for g in &snap.grants {
        let Some(granter) = snap.domains.get(&g.granter) else {
            continue;
        };
        if granter.role != DomainRole::Guest || !granter.is_live() {
            continue;
        }
        let declared = granter.delegated_shards.contains(&g.grantee)
            || granter.parent_toolstack == Some(g.grantee)
            || snap
                .domains
                .get(&g.grantee)
                .is_some_and(|e| e.privileged_for.contains(&g.granter));
        if !declared {
            out.push(Violation::new(
                "undeclared-sharing",
                g.granter,
                format!(
                    "guest {} grants pfn {} (ref {}) to {}, which is not a delegated \
                     shard, its toolstack, or its device model",
                    g.granter, g.pfn, g.gref, g.grantee
                ),
            ));
        }
    }
    // Cross-domain frame aliasing: benign when the hypervisor manages it
    // as copy-on-write (content dedup — a write breaks the share) or as
    // a frozen microreboot snapshot baseline. A *raw* share between two
    // live guests is a covert channel unless one reaches the other's
    // memory (between guests, that means a grant).
    for f in &snap.shared_frames {
        if f.cow || f.frozen {
            continue;
        }
        let guests: Vec<DomId> = f
            .mappers
            .iter()
            .copied()
            .filter(|m| {
                snap.domains
                    .get(m)
                    .is_some_and(|d| d.role == DomainRole::Guest && d.is_live())
            })
            .collect();
        for (i, &a) in guests.iter().enumerate() {
            for &b in &guests[i + 1..] {
                if !reach.shares_memory(a, b) {
                    out.push(Violation::new(
                        "undeclared-sharing",
                        a,
                        format!(
                            "guests {a} and {b} alias mfn {} outside hypervisor-managed \
                             CoW (not dedup, not a frozen snapshot baseline) with no \
                             grant between them",
                            f.mfn
                        ),
                    ));
                }
            }
        }
    }
}

/// Every edge the reachability matrix derives must trace back to the
/// hypervisor's declared-sharing ledger: the gate records a
/// `(kind, subject, object)` entry whenever a domain binds an event
/// channel or installs a grant, and derives the blanket, foreign and
/// clone-grant entries from live state. An edge with no covering
/// declaration means some path into another domain's region bypassed
/// the gate and the cross-region module — exactly the coupling the
/// region split exists to forbid.
fn no_undeclared_cross_region_access(
    snap: &ModelSnapshot,
    reach: &Reachability,
    out: &mut Vec<Violation>,
) {
    for (&(accessor, owner), paths) in &reach.mem {
        for p in paths {
            let (kind, object) = match p {
                MemPath::Grant { .. } => ("grant", owner),
                MemPath::BlanketForeign => ("blanket", DomId(u32::MAX)),
                MemPath::PrivilegedFor => ("foreign", owner),
            };
            if !snap.declared.contains(&(kind, accessor, object)) {
                out.push(Violation::new(
                    "no-undeclared-cross-region-access",
                    accessor,
                    format!(
                        "{} reaches {}'s region via {} with no declared {:?} cross-region op",
                        accessor,
                        owner,
                        p.label(),
                        kind
                    ),
                ));
            }
        }
    }
    for &(a, b) in &reach.signals {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        if !snap.declared.contains(&("event", lo, hi)) {
            out.push(Violation::new(
                "no-undeclared-cross-region-access",
                lo,
                format!(
                    "event channel between {lo} and {hi} with no declared \
                     \"event\" cross-region op"
                ),
            ));
        }
    }
}

fn constraint_groups(snap: &ModelSnapshot, out: &mut Vec<Violation>) {
    // grantee shard -> first (group, guest) seen among its granter guests.
    let mut adopted: BTreeMap<DomId, (String, DomId)> = BTreeMap::new();
    for g in &snap.grants {
        let Some(grantee) = snap.domains.get(&g.grantee) else {
            continue;
        };
        let Some(granter) = snap.domains.get(&g.granter) else {
            continue;
        };
        if grantee.role == DomainRole::Guest || granter.role != DomainRole::Guest {
            continue;
        }
        let Some(group) = &granter.constraint_group else {
            continue;
        };
        match adopted.get(&g.grantee) {
            None => {
                adopted.insert(g.grantee, (group.clone(), g.granter));
            }
            Some((first, first_guest)) if first != group => {
                out.push(Violation::new(
                    "constraint-groups",
                    g.grantee,
                    format!(
                        "shard {} serves guest {} (group {:?}) and guest {} (group {:?})",
                        g.grantee, first_guest, first, g.granter, group
                    ),
                ));
            }
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{DomainInfo, GrantEdge};

    fn builder(id: u32) -> DomainInfo {
        let mut d = DomainInfo::fixture(DomId(id), "builder", DomainRole::Shard);
        d.privileges.map_foreign_any = true;
        d
    }

    fn netback(id: u32) -> DomainInfo {
        DomainInfo::fixture(DomId(id), "netback", DomainRole::Shard)
    }

    fn toolstack(id: u32) -> DomainInfo {
        DomainInfo::fixture(DomId(id), "toolstack", DomainRole::Shard)
    }

    fn guest(id: u32, netback: u32, toolstack: u32) -> DomainInfo {
        let mut d = DomainInfo::fixture(DomId(id), "guest", DomainRole::Guest);
        d.delegated_shards.insert(DomId(netback));
        d.parent_toolstack = Some(DomId(toolstack));
        d
    }

    fn grant(granter: u32, grantee: u32, gref: u32) -> GrantEdge {
        GrantEdge {
            granter: DomId(granter),
            grantee: DomId(grantee),
            gref,
            pfn: 4,
            writable: true,
        }
    }

    /// A hand-built least-privilege platform: builder + netback +
    /// toolstack + two guests granting only to their delegated backend.
    fn known_good() -> ModelSnapshot {
        ModelSnapshot::fixture()
            .with_domain(builder(1))
            .with_domain(netback(2))
            .with_domain(toolstack(3))
            .with_domain(guest(10, 2, 3))
            .with_domain(guest(11, 2, 3))
            .with_grant(grant(10, 2, 0))
            .with_grant(grant(11, 2, 0))
    }

    fn run(snap: &ModelSnapshot) -> Vec<Violation> {
        let reach = Reachability::compute(snap);
        check(snap, &reach)
    }

    #[test]
    fn known_good_platform_is_clean() {
        assert_eq!(run(&known_good()), vec![]);
    }

    #[test]
    fn over_privileged_backend_fires_two_rules() {
        let mut snap = known_good();
        snap.domains
            .get_mut(&DomId(2))
            .unwrap()
            .privileges
            .map_foreign_any = true;
        let v = run(&snap);
        let rules: Vec<&str> = v.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"only-builder-blanket"), "{v:?}");
        assert!(rules.contains(&"backend-grant-only"), "{v:?}");
    }

    #[test]
    fn over_privileged_fabric_shard_is_grant_only() {
        // The virtual-switch shard is a backend: blanket foreign-memory
        // reach on it must fire the grant-only rule under its own label.
        let mut fab = DomainInfo::fixture(DomId(6), "fabric", DomainRole::Shard);
        fab.privileges.map_foreign_any = true;
        let snap = known_good().with_domain(fab);
        let v = run(&snap);
        assert!(
            v.iter()
                .any(|x| x.rule == "backend-grant-only" && x.detail.starts_with("fabric ")),
            "{v:?}"
        );
    }

    #[test]
    fn xenstore_holding_builder_calls_is_flagged() {
        let mut xs = DomainInfo::fixture(DomId(4), "xenstore-state", DomainRole::Shard);
        xs.privileges
            .permit_hypercall(HypercallId::DomctlCreateDomain);
        let snap = known_good().with_domain(xs);
        let v = run(&snap);
        assert!(
            v.iter().any(|x| x.rule == "xenstore-no-domain-building"
                && x.subject == DomId(4)
                && x.detail.contains("domctl.create")),
            "{v:?}"
        );
    }

    #[test]
    fn undeclared_sharing_edge_is_flagged() {
        // Guest 10 grants a frame to netback 5, which was never
        // delegated to it.
        let snap = known_good()
            .with_domain(netback(5))
            .with_grant(grant(10, 5, 1));
        let v = run(&snap);
        assert_eq!(
            v.iter().filter(|x| x.rule == "undeclared-sharing").count(),
            1,
            "{v:?}"
        );
        assert!(v.iter().any(|x| x.subject == DomId(10)));
    }

    #[test]
    fn raw_frame_alias_between_guests_is_flagged() {
        use crate::snapshot::SharedFrame;
        let raw = SharedFrame {
            mfn: 77,
            mappers: vec![DomId(10), DomId(11)],
            cow: false,
            frozen: false,
        };
        let v = run(&known_good().with_shared_frame(raw.clone()));
        assert!(
            v.iter()
                .any(|x| x.rule == "undeclared-sharing" && x.detail.contains("mfn 77")),
            "{v:?}"
        );
        // The same alias under hypervisor-managed CoW is benign…
        let cow = SharedFrame {
            cow: true,
            ..raw.clone()
        };
        assert_eq!(run(&known_good().with_shared_frame(cow)), vec![]);
        // …as is a frozen snapshot baseline alias…
        let frozen = SharedFrame {
            frozen: true,
            ..raw.clone()
        };
        assert_eq!(run(&known_good().with_shared_frame(frozen)), vec![]);
        // …and a raw share covered by an explicit (declared) grant is
        // consent.
        let mut snap = known_good()
            .with_shared_frame(raw)
            .with_grant(grant(10, 11, 7));
        snap.domains
            .get_mut(&DomId(10))
            .unwrap()
            .delegated_shards
            .insert(DomId(11));
        assert!(run(&snap).iter().all(|x| x.rule != "undeclared-sharing"));
    }

    #[test]
    fn shard_frame_alias_is_not_guest_sharing() {
        use crate::snapshot::SharedFrame;
        // A raw share where one mapper is a shard (e.g. a netback's
        // snapshot machinery) involves no guest pair; other rules own
        // shard privileges.
        let snap = known_good().with_shared_frame(SharedFrame {
            mfn: 5,
            mappers: vec![DomId(2), DomId(10)],
            cow: false,
            frozen: false,
        });
        assert_eq!(run(&snap), vec![]);
    }

    #[test]
    fn qemu_stub_grant_is_declared_sharing() {
        // A grant to the guest's device model (privileged_for edge) is
        // declared even though the stub is not in delegated_shards.
        let mut qemu = DomainInfo::fixture(DomId(6), "qemu", DomainRole::Shard);
        qemu.privileged_for.insert(DomId(10));
        let snap = known_good().with_domain(qemu).with_grant(grant(10, 6, 1));
        assert_eq!(run(&snap), vec![]);
    }

    #[test]
    fn guest_mapping_guest_violates_noninterference() {
        let mut snap = known_good();
        snap.domains
            .get_mut(&DomId(10))
            .unwrap()
            .privileged_for
            .insert(DomId(11));
        let v = run(&snap);
        assert!(
            v.iter()
                .any(|x| x.rule == "guest-noninterference" && x.subject == DomId(10)),
            "{v:?}"
        );
        // An explicit guest-to-guest grant, by contrast, is consent.
        let snap2 = known_good().with_grant(grant(10, 11, 3));
        assert!(run(&snap2)
            .iter()
            .all(|x| x.rule != "guest-noninterference"));
    }

    #[test]
    fn mixed_constraint_groups_on_one_shard_flagged() {
        let mut snap = known_good();
        snap.domains.get_mut(&DomId(10)).unwrap().constraint_group = Some("a".into());
        snap.domains.get_mut(&DomId(11)).unwrap().constraint_group = Some("b".into());
        let v = run(&snap);
        assert!(
            v.iter()
                .any(|x| x.rule == "constraint-groups" && x.subject == DomId(2)),
            "{v:?}"
        );
        // Same group: fine.
        snap.domains.get_mut(&DomId(11)).unwrap().constraint_group = Some("a".into());
        assert_eq!(run(&snap), vec![]);
    }

    #[test]
    fn undeclared_cross_region_edges_are_flagged() {
        // A grant edge injected behind the builders' backs (no ledger
        // entry) — as if something wrote into another domain's grant
        // table without going through the cross-region module.
        let mut snap = known_good();
        snap.grants.push(grant(11, 3, 9));
        snap.grants.sort();
        let v = run(&snap);
        assert!(
            v.iter()
                .any(|x| x.rule == "no-undeclared-cross-region-access"
                    && x.subject == DomId(3)
                    && x.detail.contains("grant")),
            "{v:?}"
        );
        // The same edge built through the declaring builder is clean.
        let declared = known_good().with_grant(grant(11, 3, 9));
        assert!(run(&declared)
            .iter()
            .all(|x| x.rule != "no-undeclared-cross-region-access"));
    }

    #[test]
    fn undeclared_event_channel_is_flagged() {
        let mut snap = known_good();
        snap.channels.push((DomId(10), DomId(11)));
        let v = run(&snap);
        assert!(
            v.iter()
                .any(|x| x.rule == "no-undeclared-cross-region-access"
                    && x.detail.contains("event channel")),
            "{v:?}"
        );
        let declared = snap.with_declared("event", DomId(10), DomId(11));
        assert!(run(&declared)
            .iter()
            .all(|x| x.rule != "no-undeclared-cross-region-access"));
    }

    #[test]
    fn fixture_builders_declare_their_own_edges() {
        // known_good has grants and a blanket-privileged builder; the
        // builders must have declared them all.
        assert_eq!(run(&known_good()), vec![]);
        let mut fixture_stub = DomainInfo::fixture(DomId(6), "qemu", DomainRole::Shard);
        fixture_stub.privileged_for.insert(DomId(10));
        let snap = known_good().with_domain(fixture_stub);
        assert!(run(&snap)
            .iter()
            .all(|x| x.rule != "no-undeclared-cross-region-access"));
    }

    #[test]
    fn dead_domains_are_ignored() {
        let mut snap = known_good();
        let d = snap.domains.get_mut(&DomId(2)).unwrap();
        d.privileges.map_foreign_any = true;
        d.state = xoar_hypervisor::DomainState::Dead;
        assert_eq!(run(&snap), vec![]);
    }

    #[test]
    fn violations_sort_deterministically() {
        let mut snap = known_good();
        snap.domains
            .get_mut(&DomId(2))
            .unwrap()
            .privileges
            .map_foreign_any = true;
        let a = run(&snap);
        let b = run(&snap);
        assert_eq!(a, b);
    }
}
