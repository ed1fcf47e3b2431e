//! The domain×resource reachability matrix.
//!
//! From a [`ModelSnapshot`] this module derives, for every ordered pair
//! of live domains, *whether* and *how* one can touch the other's
//! memory, plus the signalling topology and each domain's effective
//! hypercall surface. The paths are the three mechanisms the hypervisor
//! actually enforces (see `Hypervisor::check_foreign_access`):
//!
//! * [`MemPath::BlanketForeign`] — the `map_foreign_any` Dom0-style
//!   privilege (Xoar: Builder only);
//! * [`MemPath::PrivilegedFor`] — the §5.6 per-guest stub-domain flag;
//! * [`MemPath::Grant`] — an explicit grant-table entry from the owner.
//!
//! The rules in [`crate::rules`] are all statements about which paths
//! may exist between which shard classes. The same matrix is the
//! abstract machine of the executable isolation spec ([`crate::spec`]),
//! which recomputes it after every checked hypercall: this is the one
//! definition of who may see whose memory.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use std::collections::{BTreeMap, BTreeSet};

use xoar_hypervisor::{DomId, HypercallId};

use crate::snapshot::ModelSnapshot;

/// One way a domain can reach another domain's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemPath {
    /// Holder of `map_foreign_any`: may map any frame of any domain.
    BlanketForeign,
    /// `privileged_for` edge: may map any frame of one named domain.
    PrivilegedFor,
    /// Explicit grant entry; `writable` mirrors the grant's access mode.
    Grant {
        /// Whether the grant permits writes.
        writable: bool,
    },
}

impl MemPath {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MemPath::BlanketForeign => "blanket",
            MemPath::PrivilegedFor => "priv-for",
            MemPath::Grant { writable: true } => "grant-rw",
            MemPath::Grant { writable: false } => "grant-ro",
        }
    }

    /// Whether the path lets its holder map any frame of the owner (a
    /// blanket or `privileged_for` path), not only granted pages.
    pub fn maps_at_will(self) -> bool {
        matches!(self, MemPath::BlanketForeign | MemPath::PrivilegedFor)
    }
}

/// The computed matrix.
#[derive(Debug, Clone, Default)]
pub struct Reachability {
    /// `(accessor, owner)` → sorted, deduped paths by which `accessor`
    /// reaches `owner`'s frames. Pairs with no path are absent.
    pub mem: BTreeMap<(DomId, DomId), Vec<MemPath>>,
    /// Ordered pairs `(a, b)`, `a < b`, connected by an event channel.
    pub signals: BTreeSet<(DomId, DomId)>,
    /// Each live domain's effective callable set: every unprivileged
    /// call plus its whitelisted privileged calls, in `Ord` order.
    pub hypercalls: BTreeMap<DomId, Vec<HypercallId>>,
}

impl Reachability {
    /// Computes the matrix for a snapshot. Only live domains appear.
    pub fn compute(snap: &ModelSnapshot) -> Self {
        let live: Vec<DomId> = snap.live_domains().map(|d| d.id).collect();
        let live_set: BTreeSet<DomId> = live.iter().copied().collect();
        let mut mem: BTreeMap<(DomId, DomId), Vec<MemPath>> = BTreeMap::new();
        let mut push = |accessor: DomId, owner: DomId, path: MemPath| {
            if accessor != owner {
                mem.entry((accessor, owner)).or_default().push(path);
            }
        };
        for d in snap.live_domains() {
            if d.privileges.map_foreign_any {
                for &owner in &live {
                    push(d.id, owner, MemPath::BlanketForeign);
                }
            }
            for &owner in &d.privileged_for {
                if live_set.contains(&owner) {
                    push(d.id, owner, MemPath::PrivilegedFor);
                }
            }
        }
        for g in &snap.grants {
            if live_set.contains(&g.granter) && live_set.contains(&g.grantee) {
                push(
                    g.grantee,
                    g.granter,
                    MemPath::Grant {
                        writable: g.writable,
                    },
                );
            }
        }
        for paths in mem.values_mut() {
            paths.sort();
            paths.dedup();
        }
        let mut signals = BTreeSet::new();
        for &(a, b) in &snap.channels {
            if live_set.contains(&a) && live_set.contains(&b) {
                signals.insert((a, b));
            }
        }
        let mut hypercalls = BTreeMap::new();
        for d in snap.live_domains() {
            let callable: Vec<HypercallId> = HypercallId::ALL
                .iter()
                .copied()
                .filter(|id| d.privileges.permits_hypercall(*id))
                .collect();
            hypercalls.insert(d.id, callable);
        }
        Reachability {
            mem,
            signals,
            hypercalls,
        }
    }

    /// The memory paths from `accessor` to `owner` (empty slice if none).
    pub fn mem_paths(&self, accessor: DomId, owner: DomId) -> &[MemPath] {
        self.mem
            .get(&(accessor, owner))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// `accessor`'s row of the matrix: each owner it reaches, with the
    /// paths, in owner order.
    pub fn row(&self, accessor: DomId) -> impl Iterator<Item = (DomId, &[MemPath])> {
        self.mem
            .range((accessor, DomId(0))..=(accessor, DomId(u32::MAX)))
            .map(|(&(_, owner), paths)| (owner, paths.as_slice()))
    }

    /// Whether `accessor` reaches `owner`'s memory by any means.
    pub fn reaches_memory(&self, accessor: DomId, owner: DomId) -> bool {
        !self.mem_paths(accessor, owner).is_empty()
    }

    /// Whether `accessor` may map any frame of `owner` at will.
    pub fn maps_at_will(&self, accessor: DomId, owner: DomId) -> bool {
        self.mem_paths(accessor, owner)
            .iter()
            .any(|p| p.maps_at_will())
    }

    /// Whether `a` and `b` may share memory: either reaches the other's.
    /// This is what justifies two domains aliasing one raw frame.
    pub fn shares_memory(&self, a: DomId, b: DomId) -> bool {
        self.reaches_memory(a, b) || self.reaches_memory(b, a)
    }

    /// Deterministic rendering of the full matrix (the analyzer report
    /// body): one line per memory edge, one per signal edge.
    pub fn render(&self, snap: &ModelSnapshot) -> String {
        let kind = |d: DomId| snap.domains.get(&d).map(|i| i.kind.as_str()).unwrap_or("?");
        let mut out = String::new();
        for (&(a, o), paths) in &self.mem {
            let labels: Vec<&str> = paths.iter().map(|p| p.label()).collect();
            out.push_str(&format!(
                "mem {}({}) -> {}({}) via {}\n",
                a,
                kind(a),
                o,
                kind(o),
                labels.join(","),
            ));
        }
        for &(a, b) in &self.signals {
            out.push_str(&format!("sig {}({}) <-> {}({})\n", a, kind(a), b, kind(b)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{DomainInfo, GrantEdge};
    use xoar_hypervisor::DomainRole;

    fn d(n: u32) -> DomId {
        DomId(n)
    }

    #[test]
    fn grant_reach_is_directional_and_sharing_is_not() {
        let snap = ModelSnapshot::fixture()
            .with_domain(DomainInfo::fixture(d(1), "guest", DomainRole::Guest))
            .with_domain(DomainInfo::fixture(d(2), "netback", DomainRole::Shard))
            .with_domain(DomainInfo::fixture(d(3), "guest", DomainRole::Guest))
            .with_grant(GrantEdge {
                granter: d(1),
                grantee: d(2),
                gref: 0,
                pfn: 4,
                writable: true,
            });
        let reach = Reachability::compute(&snap);
        assert!(reach.reaches_memory(d(2), d(1)), "grantee reaches granter");
        assert!(!reach.reaches_memory(d(1), d(2)), "granter gains nothing");
        assert!(!reach.maps_at_will(d(2), d(1)), "a grant is not a mapping");
        assert!(reach.shares_memory(d(1), d(2)) && reach.shares_memory(d(2), d(1)));
        assert!(!reach.shares_memory(d(1), d(3)));
    }

    #[test]
    fn blanket_and_privileged_for_map_at_will() {
        let mut builder = DomainInfo::fixture(d(0), "builder", DomainRole::Shard);
        builder.privileges.map_foreign_any = true;
        let mut qemu = DomainInfo::fixture(d(1), "qemu", DomainRole::Shard);
        qemu.privileged_for.insert(d(2));
        let snap = ModelSnapshot::fixture()
            .with_domain(builder)
            .with_domain(qemu)
            .with_domain(DomainInfo::fixture(d(2), "guest", DomainRole::Guest));
        let reach = Reachability::compute(&snap);
        assert!(reach.maps_at_will(d(0), d(2)));
        assert!(reach.maps_at_will(d(1), d(2)));
        assert!(!reach.maps_at_will(d(2), d(1)));
        assert!(!reach.reaches_memory(d(0), d(0)), "no path to oneself");
    }
}
