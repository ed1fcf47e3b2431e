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
//! may exist between which shard classes.

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
