//! The high-level memory-ownership model.
//!
//! [`SpecState`] is the executable isolation spec: a deliberately tiny
//! abstraction of machine memory — per-frame `owner`, the set of
//! declared sharing edges, and the privilege relation — in the style of
//! hvisor-pt's `mappings + permissions` state machine. The checker
//! ([`super::checker`]) advances it in lockstep with the real
//! hypervisor and asserts after every hypercall that the implementation
//! *refines* it: every concrete mapping, grant entry, CoW alias, and
//! clone fall-through must be justified by the model, and no frame may
//! become cross-domain read-visible without a declared edge.
//!
//! The model is also a query interface: tests express noninterference
//! claims (`can_see`, `sharing_justification`) against the spec rather
//! than against implementation internals.

use std::collections::{BTreeMap, BTreeSet};

use xoar_hypervisor::grant::{GrantAccess, GrantEntry};
use xoar_hypervisor::{DomId, Hypervisor};

/// A declared cross-region sharing edge, as recorded by the
/// hypervisor's ledger: `(kind, subject, object)` with kind one of
/// `"grant"`, `"event"`, `"foreign"`, `"blanket"`.
pub type Edge = (&'static str, DomId, DomId);

/// Above this many owned frames (summed over live domains) the checker
/// stops maintaining the exact per-frame owner map and falls back to
/// per-domain frame counts. The small-scope driver stays far below it;
/// full platforms get the scaled check.
pub const EXACT_OWNER_LIMIT: u64 = 16_384;

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

/// The abstract machine-memory state the hypervisor must refine.
#[derive(Debug, Clone, Default)]
pub struct SpecState {
    /// Live (non-dead) domains the model tracks.
    pub live: BTreeSet<DomId>,
    /// Exact frame ownership, `mfn → owner`. Maintained only while
    /// `owner_exact` holds (small scopes); empty otherwise.
    pub owner: BTreeMap<u64, DomId>,
    /// Whether [`SpecState::owner`] is being maintained exactly.
    pub owner_exact: bool,
    /// Per-domain mapped-frame counts (the scaled ownership view).
    pub owned: BTreeMap<DomId, u64>,
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
    /// Domains holding blanket `map_foreign_any`.
    pub blanket: BTreeSet<DomId>,
    /// `(subject, object)` pairs of the `privileged_for` relation.
    pub priv_for: BTreeSet<(DomId, DomId)>,
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
        let mut s = SpecState::default();
        let mut total_owned = 0u64;
        for id in hv.domain_ids() {
            let Ok(d) = hv.domain(id) else { continue };
            if d.state == xoar_hypervisor::DomainState::Dead {
                continue;
            }
            s.live.insert(id);
            total_owned += hv.mem.owned_frames(id);
            if let Some(tpl) = hv.mem.template_of(id) {
                s.clone_of.insert(id, tpl);
            }
        }
        s.owner_exact = total_owned <= EXACT_OWNER_LIMIT;
        s.sync_owner_views(hv);
        s.sync_privileges(hv);
        s.declared = hv.declared_ops().into_iter().collect();
        for &granter in &s.live {
            let Some(table) = hv.grant_table(granter) else {
                continue;
            };
            for (gref, e) in table.entries_sorted() {
                s.grants.insert((granter, gref.0), GrantFact::of(e));
            }
        }
        s
    }

    /// Rebuilds the ownership views (exact map and per-domain counts)
    /// from the real state. Used at capture and after the checker has
    /// verified an ownership delta is justified.
    pub(crate) fn sync_owner_views(&mut self, hv: &Hypervisor) {
        self.owned = self
            .live
            .iter()
            .map(|&d| (d, hv.mem.owned_frames(d)))
            .collect();
        self.owner.clear();
        if !self.owner_exact {
            return;
        }
        for &d in &self.live {
            for (_, mfn) in hv.mem.p2m_entries(d) {
                if let Ok(o) = hv.mem.owner(mfn) {
                    self.owner.insert(mfn.0, o);
                }
            }
        }
    }

    /// Refreshes the privilege relation (blanket / privileged-for) from
    /// live domains. These are *inputs* to justification; drift in the
    /// visible sharing they imply is audited through the declared-edge
    /// ledger, which derives `"blanket"`/`"foreign"` edges from them.
    pub(crate) fn sync_privileges(&mut self, hv: &Hypervisor) {
        self.blanket.clear();
        self.priv_for.clear();
        for &id in &self.live {
            let Ok(d) = hv.domain(id) else { continue };
            if d.privileges.map_foreign_any {
                self.blanket.insert(id);
            }
            for &obj in &d.privileged_for {
                self.priv_for.insert((id, obj));
            }
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

    /// Whether a sharing edge between `a` and `b` is declared: a grant,
    /// event, or foreign edge naming both (either orientation), or a
    /// blanket privilege on either side.
    pub fn declares_sharing(&self, a: DomId, b: DomId) -> bool {
        if self.blanket.contains(&a) || self.blanket.contains(&b) {
            return true;
        }
        self.declared
            .iter()
            .any(|&(_, s, o)| (s == a && o == b) || (s == b && o == a))
    }

    /// Model-level read-visibility: can `a` observe `b`'s memory?
    ///
    /// True only along the three enforced paths (blanket mapping,
    /// `privileged_for`, a grant from `b` to `a`) or a clone/template
    /// link. This is the query satellite noninterference tests assert
    /// against in place of hand-rolled implementation probes.
    pub fn can_see(&self, a: DomId, b: DomId) -> bool {
        if a == b {
            return true;
        }
        if self.blanket.contains(&a) || self.priv_for.contains(&(a, b)) {
            return true;
        }
        if self.clone_linked(a, b) {
            return true;
        }
        self.grants
            .iter()
            .any(|(&(granter, _), f)| granter == b && f.grantee == a)
    }

    /// Why (if at all) the model justifies `a` and `b` sharing memory:
    /// `"blanket"`, `"privileged-for"`, `"grant"`, `"clone-template"`,
    /// or `None`.
    pub fn sharing_justification(&self, a: DomId, b: DomId) -> Option<&'static str> {
        if self.blanket.contains(&a) || self.blanket.contains(&b) {
            return Some("blanket");
        }
        if self.priv_for.contains(&(a, b)) || self.priv_for.contains(&(b, a)) {
            return Some("privileged-for");
        }
        if self.clone_linked(a, b) {
            return Some("clone-template");
        }
        let granted = self.grants.iter().any(|(&(granter, _), f)| {
            (granter == b && f.grantee == a) || (granter == a && f.grantee == b)
        });
        if granted {
            return Some("grant");
        }
        None
    }

    /// Grant facts exported by `granter`, in ref order.
    pub fn grants_by(&self, granter: DomId) -> Vec<(u32, GrantFact)> {
        self.grants
            .range((granter, 0)..=(granter, u32::MAX))
            .map(|(&(_, gref), &f)| (gref, f))
            .collect()
    }
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
    fn can_see_is_directional_for_grants() {
        let mut s = base();
        s.grants.insert(
            (d(1), 0),
            GrantFact {
                grantee: d(2),
                pfn: 4,
                mfn: 40,
                gen: 0,
                access: GrantAccess::ReadWrite,
            },
        );
        assert!(s.can_see(d(2), d(1)), "grantee sees granter's page");
        assert!(!s.can_see(d(1), d(2)), "granter gains nothing back");
        assert_eq!(s.sharing_justification(d(1), d(2)), Some("grant"));
        assert_eq!(s.sharing_justification(d(0), d(2)), None);
    }

    #[test]
    fn blanket_and_priv_for_dominate() {
        let mut s = base();
        s.blanket.insert(d(0));
        s.priv_for.insert((d(1), d(2)));
        assert!(s.can_see(d(0), d(2)));
        assert!(s.can_see(d(1), d(2)));
        assert!(!s.can_see(d(2), d(1)));
        assert_eq!(s.sharing_justification(d(1), d(2)), Some("privileged-for"));
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
