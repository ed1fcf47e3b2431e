//! The spec's state: the abstract machine plus the concrete facts it
//! cannot express.
//!
//! [`SpecState`] is the executable isolation spec, split in the
//! hvisor-pt style into two layers:
//!
//! * **The abstract machine** is the analyzer's reachability matrix
//!   ([`Reachability`]), computed by [`Reachability::compute`] over
//!   [`ModelSnapshot::of_hypervisor`] — the same function the
//!   privilege-flow rules and the §6.2 evaluation read. It answers
//!   "who may see whose memory, and by which path". The checker keeps
//!   the pre-state matrix and recomputes it after every checked step.
//! * **The concrete machine** keeps only what reach cannot express:
//!   grant facts with the `mfn`/generation they resolved to, revoked
//!   capabilities, foreign-mapped frames, `clone → template` links,
//!   the declared-sharing ledger and the exact per-MFN owner map.
//!
//! The checker ([`super::checker`]) advances both in lockstep with the
//! real hypervisor and asserts after every hypercall that the
//! implementation *refines* them. Tests state noninterference claims as
//! queries against [`SpecState::reach`] rather than against
//! implementation internals.

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

use xoar_hypervisor::grant::{GrantAccess, GrantEntry};
use xoar_hypervisor::{DomId, Hypervisor};

use crate::reach::Reachability;
use crate::snapshot::{Edge, ModelSnapshot};

/// One grant fact: the granter's table says `grantee` may reach the
/// page at (`pfn` → `mfn`, generation `gen`) with `access`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantFact {
    /// Domain allowed to map the page.
    pub grantee: DomId,
    /// Granter-local frame number.
    pub pfn: u64,
    /// Machine frame the grant resolved to at grant time.
    pub mfn: u64,
    /// That frame's generation at grant time: MFNs are reused, and the
    /// pair names one life of one frame.
    pub gen: u32,
    /// Permitted access mode.
    pub access: GrantAccess,
}

impl GrantFact {
    /// The fact a real grant-table entry states.
    pub fn of(e: &GrantEntry) -> GrantFact {
        GrantFact {
            grantee: e.grantee,
            pfn: e.pfn.0,
            mfn: e.mfn.0,
            gen: e.gen,
            access: e.access,
        }
    }

    /// Whether `other` re-states this fact (same grantee, page, and
    /// access). Machine frames are ignored: a CoW break may have moved
    /// the page between revocation and an attempted resurrection, and a
    /// freed frame number may since belong to someone else.
    pub fn same_capability(&self, other: &GrantFact) -> bool {
        self.grantee == other.grantee && self.pfn == other.pfn && self.access == other.access
    }
}

/// The state the hypervisor must refine.
#[derive(Debug, Clone, Default)]
pub struct SpecState {
    /// Live (non-dead) domains the model tracks.
    pub live: BTreeSet<DomId>,
    /// The abstract machine: every memory path between live domains as
    /// of the last checked step (the next op's pre-state).
    pub reach: Reachability,
    /// Exact frame ownership, `mfn → owner`, of every frame a live
    /// domain maps.
    pub owner: BTreeMap<u64, DomId>,
    /// Live grant facts, keyed by `(granter, gref)`.
    pub grants: BTreeMap<(DomId, u32), GrantFact>,
    /// Facts revoked by `GnttabEndAccess` and never legitimately
    /// re-granted, kept as `(granter, fact)`. A real table entry that
    /// matches one of these without a model-side grant is diagnosed as
    /// a resurrected revocation (grant refs are monotonic, so the match
    /// is on the capability, not the ref).
    pub revoked: Vec<(DomId, GrantFact)>,
    /// Declared sharing edges (the model's copy of the ledger).
    pub declared: BTreeSet<Edge>,
    /// Frames foreign-mapped through the gate, as `(mfn, generation)`.
    /// A foreign mapping pins its frame for good, so each must stay
    /// live in the generation it was mapped in.
    pub foreign_maps: Vec<(u64, u32)>,
    /// `clone → template` links the model has observed (via
    /// `DomctlCloneDomain` or attach-time capture). A fall-through
    /// alias between a clone and a template is justified only by an
    /// edge recorded *here* — a clone space wired up behind the model's
    /// back is a divergence.
    pub clone_of: BTreeMap<DomId, DomId>,
}

impl SpecState {
    /// Captures the abstraction of a running hypervisor.
    ///
    /// Attach-time capture trusts the current state (the spec cannot
    /// retroactively justify history); from then on the checker only
    /// accepts changes its advance rules permit.
    pub fn capture(hv: &Hypervisor) -> SpecState {
        let snap = ModelSnapshot::of_hypervisor(hv);
        let live: BTreeSet<DomId> = snap.live_domains().map(|d| d.id).collect();
        let clone_of = live
            .iter()
            .filter_map(|&id| Some((id, hv.mem.template_of(id)?)))
            .collect();
        let mut grants = BTreeMap::new();
        for &granter in &live {
            let Some(table) = hv.grant_table(granter) else {
                continue;
            };
            for (gref, e) in table.entries_sorted() {
                grants.insert((granter, gref.0), GrantFact::of(e));
            }
        }
        SpecState {
            owner: owner_map(hv, &live),
            reach: Reachability::compute(&snap),
            declared: snap.declared,
            live,
            grants,
            clone_of,
            ..SpecState::default()
        }
    }

    /// Whether the model links `a` and `b` through snapshot-fork
    /// cloning: one is a clone of the other, or both are clones of the
    /// same template. Such pairs legitimately read-share the template
    /// body copy-on-write.
    pub fn clone_linked(&self, a: DomId, b: DomId) -> bool {
        self.clone_of.get(&a) == Some(&b)
            || self.clone_of.get(&b) == Some(&a)
            || matches!(
                (self.clone_of.get(&a), self.clone_of.get(&b)),
                (Some(x), Some(y)) if x == y
            )
    }

    /// Grant facts exported by `granter`, in ref order.
    pub fn grants_by(&self, granter: DomId) -> Vec<(u32, GrantFact)> {
        self.grants
            .range((granter, 0)..=(granter, u32::MAX))
            .map(|(&(_, gref), &f)| (gref, f))
            .collect()
    }
}

/// The real owner of every frame the `live` domains map, `mfn → owner`.
pub(crate) fn owner_map(hv: &Hypervisor, live: &BTreeSet<DomId>) -> BTreeMap<u64, DomId> {
    let mut owner = BTreeMap::new();
    for &d in live {
        for (_, mfn) in hv.mem.p2m_entries(d) {
            if let Ok(o) = hv.mem.owner(mfn) {
                owner.insert(mfn.0, o);
            }
        }
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(n: u32) -> DomId {
        DomId(n)
    }

    fn base() -> SpecState {
        let mut s = SpecState::default();
        s.live.extend([d(0), d(1), d(2)]);
        s
    }

    #[test]
    fn clone_links_cover_siblings_and_parents() {
        let mut s = base();
        s.clone_of.insert(d(1), d(0));
        s.clone_of.insert(d(2), d(0));
        assert!(s.clone_linked(d(1), d(0)));
        assert!(s.clone_linked(d(0), d(2)));
        assert!(s.clone_linked(d(1), d(2)), "siblings share a template");
        assert!(!s.clone_linked(d(1), d(3)));
    }

    #[test]
    fn same_capability_ignores_machine_frame() {
        let a = GrantFact {
            grantee: d(2),
            pfn: 4,
            mfn: 40,
            gen: 0,
            access: GrantAccess::ReadOnly,
        };
        let b = GrantFact { mfn: 99, ..a };
        assert!(a.same_capability(&b));
        let c = GrantFact {
            access: GrantAccess::ReadWrite,
            ..a
        };
        assert!(!a.same_capability(&c));
    }
}
