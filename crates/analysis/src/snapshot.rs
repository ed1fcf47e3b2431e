//! Freezing a running platform into an analysable model.
//!
//! [`ModelSnapshot::capture`] walks a [`Platform`] and records everything
//! the privilege-flow rules need: per-domain privilege sets and flags,
//! the live grant-table entries, the event-channel topology, and the
//! XenStore privileged-connection list. The snapshot is a plain value —
//! tests hand-build snapshots directly to exercise the rules on
//! known-good and deliberately broken configurations without booting a
//! platform.

use std::collections::{BTreeMap, BTreeSet};

use xoar_core::platform::Platform;
use xoar_hypervisor::domain::{DomainRole, DomainState};
use xoar_hypervisor::grant::GrantAccess;
use xoar_hypervisor::{DomId, PrivilegeSet};

/// Everything the rules need to know about one domain.
#[derive(Debug, Clone)]
pub struct DomainInfo {
    /// The domain's ID.
    pub id: DomId,
    /// Name as registered with the hypervisor.
    pub name: String,
    /// Shard-class label (see [`ModelSnapshot::capture`]), `"guest"`, or
    /// `"unknown"` for hand-built fixtures that don't set one.
    pub kind: String,
    /// Lifecycle state at capture time.
    pub state: DomainState,
    /// Role metadata.
    pub role: DomainRole,
    /// The full privilege assignment.
    pub privileges: PrivilegeSet,
    /// Parent toolstack recorded at creation.
    pub parent_toolstack: Option<DomId>,
    /// Shards this domain has been delegated to use.
    pub delegated_shards: BTreeSet<DomId>,
    /// Domains whose memory this domain may map (QEMU stub flag, §5.6).
    pub privileged_for: BTreeSet<DomId>,
    /// Constraint-group tag (§3.2.1).
    pub constraint_group: Option<String>,
}

impl DomainInfo {
    /// A minimal record for hand-built test fixtures.
    pub fn fixture(id: DomId, kind: &str, role: DomainRole) -> Self {
        DomainInfo {
            id,
            name: format!("{kind}-{}", id.0),
            kind: kind.to_string(),
            state: DomainState::Running,
            role,
            privileges: PrivilegeSet::default(),
            parent_toolstack: None,
            delegated_shards: BTreeSet::new(),
            privileged_for: BTreeSet::new(),
            constraint_group: None,
        }
    }

    /// Whether the domain was alive at capture time.
    pub fn is_live(&self) -> bool {
        self.state != DomainState::Dead
    }
}

/// One live grant-table entry, flattened to an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct GrantEdge {
    /// Domain owning the granted frame.
    pub granter: DomId,
    /// Domain permitted to map it.
    pub grantee: DomId,
    /// The grant reference.
    pub gref: u32,
    /// Granter-local frame number.
    pub pfn: u64,
    /// Whether the grant permits writes.
    pub writable: bool,
}

/// One machine frame mapped by more than one domain at capture time.
///
/// Cross-domain frame aliasing has two benign hypervisor-managed forms
/// that the sharing rules must not misreport: content-dedup
/// copy-on-write (any write breaks the share, so it carries no
/// information between the mappers) and microreboot snapshot baselines
/// (a frozen shard's pre-image aliases live frames until the first
/// write). The capture records both properties so the
/// `undeclared-sharing` rule fires only on *raw* aliasing — two domains
/// genuinely reading each other's writes without a grant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SharedFrame {
    /// The shared machine frame. Frame numbers are reused once freed,
    /// so the number names this frame only as of the capture.
    pub mfn: u64,
    /// The distinct mapper domains, ascending.
    pub mappers: Vec<DomId>,
    /// Hypervisor-managed copy-on-write sharing (content dedup).
    pub cow: bool,
    /// At least one mapper holds a frozen microreboot snapshot, whose
    /// CoW baseline legitimately aliases that domain's frames.
    pub frozen: bool,
}

/// The frozen model.
#[derive(Debug, Clone, Default)]
pub struct ModelSnapshot {
    /// All domains the hypervisor still tracks, keyed by ID.
    pub domains: BTreeMap<DomId, DomainInfo>,
    /// Live grant entries, sorted by `(granter, gref)`.
    pub grants: Vec<GrantEdge>,
    /// Connected interdomain event channels as ordered pairs with
    /// `pair.0 < pair.1` (channels are bidirectional), sorted + deduped.
    pub channels: Vec<(DomId, DomId)>,
    /// Domains holding privileged (ACL-bypassing) XenStore connections,
    /// ascending.
    pub xenstore_privileged: Vec<DomId>,
    /// Frames mapped by more than one domain, sorted by MFN, with their
    /// CoW/frozen provenance.
    pub shared_frames: Vec<SharedFrame>,
    /// Cross-region sharing the hypervisor has declared, as
    /// `(kind, subject, object)` — its declared-sharing ledger
    /// ([`xoar_hypervisor::Hypervisor::declared_ops`]). `"event"`
    /// edges are normalised with subject ≤ object; `"blanket"` uses
    /// `DomId(u32::MAX)` as its object (any domain). Every edge in the
    /// reachability matrix must be covered by one of these.
    pub declared: BTreeSet<(String, DomId, DomId)>,
}

impl ModelSnapshot {
    /// An empty snapshot for hand-built fixtures.
    pub fn fixture() -> Self {
        Self::default()
    }

    /// Adds a domain to a fixture snapshot, declaring the cross-region
    /// access its privilege flags imply (mirroring what the live
    /// hypervisor derives for blanket and stub-domain access).
    pub fn with_domain(mut self, info: DomainInfo) -> Self {
        if info.privileges.map_foreign_any {
            self.declared
                .insert(("blanket".to_string(), info.id, DomId(u32::MAX)));
        }
        for &owner in &info.privileged_for {
            self.declared
                .insert(("foreign".to_string(), info.id, owner));
        }
        self.domains.insert(info.id, info);
        self
    }

    /// Adds a grant edge to a fixture snapshot, declaring it (a live
    /// grant always has a ledger entry).
    pub fn with_grant(mut self, edge: GrantEdge) -> Self {
        self.declared
            .insert(("grant".to_string(), edge.grantee, edge.granter));
        self.grants.push(edge);
        self.grants.sort();
        self
    }

    /// Declares a cross-region operation kind on a fixture snapshot.
    pub fn with_declared(mut self, kind: &str, subject: DomId, object: DomId) -> Self {
        self.declared.insert((kind.to_string(), subject, object));
        self
    }

    /// Adds a shared frame to a fixture snapshot.
    pub fn with_shared_frame(mut self, frame: SharedFrame) -> Self {
        self.shared_frames.push(frame);
        self.shared_frames.sort();
        self
    }

    /// Captures a running platform.
    pub fn capture(p: &Platform) -> Self {
        let mut domains = BTreeMap::new();
        for id in p.hv.domain_ids() {
            let Ok(d) = p.hv.domain(id) else { continue };
            domains.insert(
                id,
                DomainInfo {
                    id,
                    name: d.name.clone(),
                    kind: Self::kind_label(p, id, d.role),
                    state: d.state,
                    role: d.role,
                    privileges: d.privileges.clone(),
                    parent_toolstack: d.parent_toolstack,
                    delegated_shards: d.delegated_shards.clone(),
                    privileged_for: d.privileged_for.clone(),
                    constraint_group: d.constraint_group.clone(),
                },
            );
        }
        let mut grants = Vec::new();
        for (&granter, _) in domains.iter() {
            if let Some(table) = p.hv.grant_table(granter) {
                for (gref, entry) in table.entries_sorted() {
                    grants.push(GrantEdge {
                        granter,
                        grantee: entry.grantee,
                        gref: gref.0,
                        pfn: entry.pfn.0,
                        writable: entry.access == GrantAccess::ReadWrite,
                    });
                }
            }
        }
        grants.sort();
        let mut channels: Vec<(DomId, DomId)> = Vec::new();
        for &a in domains.keys() {
            for b in p.hv.peers_of(a) {
                channels.push(if a < b { (a, b) } else { (b, a) });
            }
        }
        channels.sort();
        channels.dedup();
        // Cross-domain frame aliasing in the live memory manager only
        // arises from the hypervisor's own CoW machinery (content dedup
        // and snapshot baselines) — grant maps pin frames rather than
        // alias p2m entries — so every captured share is CoW. The
        // `frozen` bit additionally records whether a mapper holds a
        // live microreboot snapshot. Hand-built fixtures can assert raw
        // (non-CoW) shares to exercise the rule.
        let shared_frames =
            p.hv.mem
                .multi_domain_frames()
                .into_iter()
                .map(|(mfn, mappers)| SharedFrame {
                    mfn: mfn.0,
                    frozen: mappers.iter().any(|&d| p.hv.mem.is_frozen(d)),
                    mappers,
                    cow: true,
                })
                .collect();
        let declared =
            p.hv.declared_ops()
                .into_iter()
                .map(|(kind, subject, object)| (kind.to_string(), subject, object))
                .collect();
        ModelSnapshot {
            domains,
            grants,
            channels,
            xenstore_privileged: p.xs.logic().privileged_domains(),
            shared_frames,
            declared,
        }
    }

    /// The shard-class label for a domain, derived from the platform's
    /// service-identity table rather than the free-form domain name.
    fn kind_label(p: &Platform, id: DomId, role: DomainRole) -> String {
        let s = &p.services;
        let label = if id == s.xenstore {
            "xenstore-logic"
        } else if id == s.xenstore_state {
            "xenstore-state"
        } else if Some(id) == s.console {
            "console"
        } else if id == s.builder {
            "builder"
        } else if Some(id) == s.pciback {
            "pciback"
        } else if p.fabric.as_ref().is_some_and(|f| f.dom == id) {
            // The NetBack hosting the virtual network fabric: same
            // privilege envelope as any backend (grant-only reach), but
            // labeled distinctly so the rules audit the switching plane
            // by name.
            "fabric"
        } else if s.netbacks.contains(&id) {
            "netback"
        } else if s.blkbacks.contains(&id) {
            "blkback"
        } else if s.toolstacks.contains(&id) {
            "toolstack"
        } else if p.guest(id).is_some() {
            "guest"
        } else if p.guests().iter().any(|g| g.qemu == Some(id)) {
            "qemu"
        } else if role == DomainRole::ControlVm {
            // In Xoar mode the only ControlVm not in the service table is
            // the self-destructed Bootstrapper; in stock mode every
            // service ID matched above.
            "bootstrapper"
        } else if role == DomainRole::Shard {
            // A shard no longer referenced by the service table (e.g. a
            // destroyed PCIBack, or a stub whose guest died first).
            "retired-shard"
        } else {
            "unknown"
        };
        label.to_string()
    }

    /// Live domains only, in ID order.
    pub fn live_domains(&self) -> impl Iterator<Item = &DomainInfo> {
        self.domains.values().filter(|d| d.is_live())
    }

    /// A deterministic one-line-per-domain rendering (report header).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in self.domains.values() {
            out.push_str(&format!(
                "{} {} kind={} state={:?} hypercalls={} blanket={} priv_for={} delegated={}\n",
                d.id,
                d.name,
                d.kind,
                d.state,
                d.privileges.hypercalls.len(),
                d.privileges.map_foreign_any,
                d.privileged_for.len(),
                d.delegated_shards.len(),
            ));
        }
        out.push_str(&format!(
            "grants={} channels={} declared_ops={} xenstore_privileged={:?} shared_frames={} (cow={} frozen={})\n",
            self.grants.len(),
            self.channels.len(),
            self.declared.len(),
            self.xenstore_privileged
                .iter()
                .map(|d| d.0)
                .collect::<Vec<_>>(),
            self.shared_frames.len(),
            self.shared_frames.iter().filter(|f| f.cow).count(),
            self.shared_frames.iter().filter(|f| f.frozen).count(),
        ));
        out
    }
}
