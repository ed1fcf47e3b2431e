//! Grant tables: page-granularity, capability-style memory sharing (§4.3).
//!
//! A domain exports its own pages through its *grant table*, an access
//! control list maintained by the hypervisor. Grant *references* act as
//! capabilities: the granting domain passes a [`GrantRef`] to a peer out of
//! band (normally through XenStore), and the peer's use of it is audited
//! against the table by the hypervisor on every map.
//!
//! Grant tables are the non-privileged alternative to blanket foreign
//! mapping, and the mechanism Xoar uses (§5.6) to deprivilege XenStore and
//! the Console Manager.

use crate::domain::DomId;
use crate::error::{GrantError, HvResult, MemError};
use crate::memory::{Mfn, Pfn};

/// A grant reference: an index into the granting domain's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GrantRef(pub u32);

xoar_codec::impl_json_newtype!(GrantRef(u32));

/// Access mode carried by a grant entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantAccess {
    /// Grantee may only read the page.
    ReadOnly,
    /// Grantee may read and write the page.
    ReadWrite,
    /// Ownership of the page is offered to the grantee (page flipping).
    Transfer,
}

xoar_codec::impl_json_enum!(GrantAccess {
    ReadOnly,
    ReadWrite,
    Transfer,
});

/// Direction of one entry in a batched grant copy (GNTTABOP_copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantCopyDir {
    /// Copy the granted page into the caller's local frame.
    FromGrant,
    /// Copy the caller's local frame into the granted page.
    ToGrant,
}

xoar_codec::impl_json_enum!(GrantCopyDir { FromGrant, ToGrant });

/// One entry of a batched hypervisor-mediated page copy.
///
/// Copies move whole pages (the model is page-granular): `gref` names
/// the remote end in the granter's table, `local_pfn` the caller-local
/// frame on the other side of the copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantCopyOp {
    /// Grant reference in the granting domain's table.
    pub gref: GrantRef,
    /// Which way the bytes flow.
    pub dir: GrantCopyDir,
    /// The caller's local frame.
    pub local_pfn: Pfn,
}

xoar_codec::impl_json_struct!(GrantCopyOp {
    gref,
    dir,
    local_pfn,
});

/// Compact per-entry status of one op in a grant batch, the analogue of
/// Xen's `GNTST_*` codes in GNTTABOP result arrays. Deliberately flat
/// and `Copy` (no strings, no heap): a 32-entry batch materialises its
/// status array for a few nanoseconds per entry, which is the whole
/// point of batching the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantOpStatus {
    /// The op succeeded; the machine frame it resolved to.
    Done(Mfn),
    /// Grant-table fault (bad ref, wrong grantee, access mode…).
    Grant(GrantError),
    /// Memory fault (bad local frame in a copy, out of frames…).
    Memory(MemError),
}

impl GrantOpStatus {
    /// Whether the entry succeeded.
    pub fn is_ok(&self) -> bool {
        matches!(self, GrantOpStatus::Done(_))
    }

    /// The resolved frame of a successful entry.
    pub fn mfn(&self) -> Option<Mfn> {
        match self {
            GrantOpStatus::Done(mfn) => Some(*mfn),
            _ => None,
        }
    }

    /// The entry's outcome as a single-op hypercall result.
    pub(crate) fn into_result(self) -> HvResult<Mfn> {
        match self {
            GrantOpStatus::Done(mfn) => Ok(mfn),
            GrantOpStatus::Grant(e) => Err(e.into()),
            GrantOpStatus::Memory(e) => Err(e.into()),
        }
    }
}

/// One entry in a grant table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrantEntry {
    /// The domain allowed to map this entry.
    pub grantee: DomId,
    /// The granting domain's frame, both as PFN and resolved MFN.
    pub pfn: Pfn,
    /// Resolved machine frame at grant time.
    pub mfn: Mfn,
    /// The frame's generation at grant time
    /// ([`crate::memory::MemoryManager::generation`]). Once the frame is
    /// freed, and perhaps reused by another domain, maps and copies
    /// through this entry are refused.
    pub gen: u32,
    /// Permitted access mode.
    pub access: GrantAccess,
    /// Number of active mappings through this entry.
    pub map_count: u32,
}

/// A single domain's grant table.
///
/// Entries live in a dense array indexed by grant ref, exactly like
/// Xen's grant-table frames: refs are allocated monotonically, so
/// `entries[r]` is the entry for ref `r` (`None` once revoked). Every op
/// indexes this array once, with no hashing; the audit queries filter
/// it (a guest's table holds a handful of entries).
///
/// Only the hypervisor changes a table: every mutator is crate-private,
/// reached from the hypercall gate through [`crate::xregion`]'s one
/// install, one map and one unmap routine.
#[derive(Debug)]
pub struct GrantTable {
    entries: Vec<Option<GrantEntry>>,
    /// Number of live (non-`None`) entries; bounded by `capacity`.
    live: u32,
    capacity: u32,
}

/// Default maximum number of grant entries per domain (matches Xen's
/// default of 32 frames of 512 v1 entries = 16384, scaled down for the
/// model).
pub const DEFAULT_GRANT_CAPACITY: u32 = 4096;

impl GrantTable {
    /// Creates an empty table with the default capacity.
    pub(crate) fn new() -> Self {
        Self::with_capacity(DEFAULT_GRANT_CAPACITY)
    }

    /// Creates a table with an explicit capacity (tests, quota experiments).
    pub(crate) fn with_capacity(capacity: u32) -> Self {
        GrantTable {
            // Sized for the common device posture (xenstore + console
            // rings plus one vif and one vbd) so a freshly stamped
            // guest's grants never grow the vector.
            entries: Vec::with_capacity(4),
            live: 0,
            capacity,
        }
    }

    /// Installs a new entry granting `grantee` `access` to (`pfn`,
    /// `mfn`), where `gen` is the frame's current generation.
    pub(crate) fn grant(
        &mut self,
        grantee: DomId,
        pfn: Pfn,
        mfn: Mfn,
        gen: u32,
        access: GrantAccess,
    ) -> HvResult<GrantRef> {
        if self.live >= self.capacity {
            return Err(GrantError::TableFull.into());
        }
        let gref = GrantRef(self.entries.len() as u32);
        self.entries.push(Some(GrantEntry {
            grantee,
            pfn,
            mfn,
            gen,
            access,
            map_count: 0,
        }));
        self.live += 1;
        Ok(gref)
    }

    /// The entry `gref` names, provided `caller` is its grantee.
    #[inline]
    fn held(&mut self, caller: DomId, gref: GrantRef) -> Result<&mut GrantEntry, GrantError> {
        let entry = self
            .entries
            .get_mut(gref.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(GrantError::BadRef(gref.0))?;
        if entry.grantee != caller {
            return Err(GrantError::AccessDenied);
        }
        Ok(entry)
    }

    /// Validates a map attempt by `caller` and returns the entry it
    /// names without counting the mapping, so the hypervisor can first
    /// pin the frame (checking its generation) and count only a mapping
    /// that took.
    ///
    /// This is the audit point the paper describes: "grant references act
    /// as capabilities and are passed to other VMs, whose use of them is
    /// audited against the grant table by the hypervisor".
    #[inline]
    pub(crate) fn mappable(
        &mut self,
        caller: DomId,
        gref: GrantRef,
    ) -> Result<&mut GrantEntry, GrantError> {
        let entry = self.held(caller, gref)?;
        if entry.access == GrantAccess::Transfer {
            // Transfer grants are accepted, not mapped.
            return Err(GrantError::NotGranted);
        }
        Ok(entry)
    }

    /// Releases one mapping by `caller`, returning the mapped frame.
    #[inline]
    pub(crate) fn unmap(&mut self, caller: DomId, gref: GrantRef) -> Result<Mfn, GrantError> {
        let entry = self.held(caller, gref)?;
        if entry.map_count == 0 {
            return Err(GrantError::NotMapped);
        }
        entry.map_count -= 1;
        Ok(entry.mfn)
    }

    /// Validates one GNTTABOP_copy op by `caller` (right grantee, not a
    /// transfer entry, writable for [`GrantCopyDir::ToGrant`]) and
    /// resolves the granted frame and its generation. The byte copy is
    /// the hypervisor's job — it owns machine memory, and checks the
    /// frame's generation. A copy leaves no mapping behind.
    #[inline]
    pub(crate) fn copyable(
        &mut self,
        caller: DomId,
        op: &GrantCopyOp,
    ) -> Result<(Mfn, u32), GrantError> {
        let entry = self.held(caller, op.gref)?;
        match (entry.access, op.dir) {
            (GrantAccess::Transfer, _) => Err(GrantError::NotGranted),
            (GrantAccess::ReadOnly, GrantCopyDir::ToGrant) => Err(GrantError::AccessDenied),
            _ => Ok((entry.mfn, entry.gen)),
        }
    }

    /// Validates `caller`'s acceptance of transfer offer `gref` (page
    /// flipping) without spending it, and yields the offered frame; the
    /// hypervisor re-points ownership, then revokes the entry. The offer
    /// is refused with [`MemError::FrameBusy`] while any other live entry
    /// of this table names the same frame — an access grant, or a
    /// duplicate offer — since after the flip that entry would name a
    /// frame its granter no longer owns. The scan runs here only, so
    /// granting and mapping stay O(1).
    pub(crate) fn transfer_offer(&mut self, caller: DomId, gref: GrantRef) -> HvResult<(Pfn, Mfn)> {
        let entry = self.held(caller, gref)?;
        if entry.access != GrantAccess::Transfer {
            return Err(GrantError::NotGranted.into());
        }
        let (pfn, mfn, gen) = (entry.pfn, entry.mfn, entry.gen);
        let busy = self
            .live_entries()
            .any(|(r, e)| r != gref && (e.mfn, e.gen) == (mfn, gen));
        if busy {
            return Err(MemError::FrameBusy(mfn.0).into());
        }
        Ok((pfn, mfn))
    }

    /// Revokes an entry. Fails with [`GrantError::InUse`] while mapped.
    pub(crate) fn end_access(&mut self, gref: GrantRef) -> HvResult<()> {
        let entry = self.entry(gref).ok_or(GrantError::BadRef(gref.0))?;
        if entry.map_count > 0 {
            return Err(GrantError::InUse.into());
        }
        self.entries[gref.0 as usize] = None;
        self.live -= 1;
        Ok(())
    }

    /// Looks up an entry without mapping it.
    pub fn entry(&self, gref: GrantRef) -> Option<&GrantEntry> {
        self.entries.get(gref.0 as usize).and_then(|s| s.as_ref())
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live as usize
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Every live entry with its ref, in ascending ref order.
    fn live_entries(&self) -> impl Iterator<Item = (GrantRef, &GrantEntry)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(r, s)| s.as_ref().map(|e| (GrantRef(r as u32), e)))
    }

    /// The `(mfn, generation)` of every live entry, in ref order.
    pub fn frames(&self) -> impl Iterator<Item = (Mfn, u32)> + '_ {
        self.entries.iter().flatten().map(|e| (e.mfn, e.gen))
    }

    /// Total active mappings across all entries.
    pub fn active_mappings(&self) -> u32 {
        self.entries.iter().flatten().map(|e| e.map_count).sum()
    }

    /// All live entries in ascending ref order (audit/analysis surface).
    pub fn entries_sorted(&self) -> Vec<(GrantRef, &GrantEntry)> {
        self.live_entries().collect()
    }

    /// Live entries granted to a specific domain, in ascending ref order
    /// (for audit).
    pub fn granted_to(&self, grantee: DomId) -> Vec<(GrantRef, &GrantEntry)> {
        self.live_entries()
            .filter(|(_, e)| e.grantee == grantee)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::HvError;
    use crate::memory::MemoryManager;
    use crate::xregion::{map_one, unmap_one};

    fn table() -> GrantTable {
        GrantTable::new()
    }

    /// A table whose granter, dom 1, owns four populated frames, and
    /// the frame behind its pfn 0 with that frame's generation.
    fn backed() -> (GrantTable, MemoryManager, Mfn, u32) {
        let mut mem = MemoryManager::new(64);
        mem.populate(DomId(1), 4).unwrap();
        let mfn = mem.exclusive_mfn(DomId(1), Pfn(0)).unwrap();
        let gen = mem.generation(mfn);
        (table(), mem, mfn, gen)
    }

    #[test]
    fn grant_and_map_round_trip() {
        let (mut t, mut mem, mfn, gen) = backed();
        let gref = t
            .grant(DomId(2), Pfn(0), mfn, gen, GrantAccess::ReadWrite)
            .unwrap();
        assert_eq!(
            map_one(&mut t, &mut mem, DomId(2), gref),
            GrantOpStatus::Done(mfn)
        );
        assert_eq!(t.entry(gref).unwrap().access, GrantAccess::ReadWrite);
        assert_eq!(t.active_mappings(), 1);
        assert_eq!(mem.mapping_count(mfn).unwrap(), 1);
    }

    #[test]
    fn map_by_wrong_domain_denied() {
        let mut t = table();
        let gref = t
            .grant(DomId(2), Pfn(0), Mfn(0x100), 0, GrantAccess::ReadOnly)
            .unwrap();
        assert_eq!(
            t.mappable(DomId(3), gref).unwrap_err(),
            GrantError::AccessDenied
        );
    }

    #[test]
    fn map_bad_ref_rejected() {
        let mut t = table();
        assert_eq!(
            t.mappable(DomId(2), GrantRef(42)).unwrap_err(),
            GrantError::BadRef(42)
        );
    }

    #[test]
    fn unmap_decrements_and_requires_mapping() {
        let (mut t, mut mem, mfn, gen) = backed();
        let gref = t
            .grant(DomId(2), Pfn(0), mfn, gen, GrantAccess::ReadOnly)
            .unwrap();
        assert_eq!(
            unmap_one(&mut t, &mut mem, DomId(2), gref),
            GrantOpStatus::Grant(GrantError::NotMapped)
        );
        assert!(map_one(&mut t, &mut mem, DomId(2), gref).is_ok());
        assert_eq!(
            unmap_one(&mut t, &mut mem, DomId(3), gref),
            GrantOpStatus::Grant(GrantError::AccessDenied)
        );
        assert_eq!(
            unmap_one(&mut t, &mut mem, DomId(2), gref),
            GrantOpStatus::Done(mfn)
        );
        assert_eq!(t.active_mappings(), 0);
        assert_eq!(mem.mapping_count(mfn).unwrap(), 0);
    }

    #[test]
    fn end_access_blocked_while_mapped() {
        let (mut t, mut mem, mfn, gen) = backed();
        let gref = t
            .grant(DomId(2), Pfn(0), mfn, gen, GrantAccess::ReadWrite)
            .unwrap();
        assert!(map_one(&mut t, &mut mem, DomId(2), gref).is_ok());
        assert!(matches!(
            t.end_access(gref).unwrap_err(),
            HvError::Grant(GrantError::InUse)
        ));
        assert!(unmap_one(&mut t, &mut mem, DomId(2), gref).is_ok());
        t.end_access(gref).unwrap();
        assert!(t.is_empty());
        assert!(matches!(
            t.end_access(gref).unwrap_err(),
            HvError::Grant(GrantError::BadRef(_))
        ));
    }

    #[test]
    fn capacity_enforced() {
        let mut t = GrantTable::with_capacity(2);
        t.grant(DomId(2), Pfn(0), Mfn(1), 0, GrantAccess::ReadOnly)
            .unwrap();
        t.grant(DomId(2), Pfn(1), Mfn(2), 0, GrantAccess::ReadOnly)
            .unwrap();
        assert!(matches!(
            t.grant(DomId(2), Pfn(2), Mfn(3), 0, GrantAccess::ReadOnly)
                .unwrap_err(),
            HvError::Grant(GrantError::TableFull)
        ));
    }

    #[test]
    fn refs_are_not_reused() {
        let mut t = table();
        let a = t
            .grant(DomId(2), Pfn(0), Mfn(1), 0, GrantAccess::ReadOnly)
            .unwrap();
        t.end_access(a).unwrap();
        let b = t
            .grant(DomId(2), Pfn(0), Mfn(1), 0, GrantAccess::ReadOnly)
            .unwrap();
        assert_ne!(a, b, "grant refs must not be recycled immediately");
    }

    #[test]
    fn map_batch_reports_per_entry_status() {
        let (mut t, mut mem, mfn, gen) = backed();
        let good = t
            .grant(DomId(2), Pfn(0), mfn, gen, GrantAccess::ReadWrite)
            .unwrap();
        let foreign = t
            .grant(DomId(3), Pfn(0), mfn, gen, GrantAccess::ReadWrite)
            .unwrap();
        let results: Vec<_> = [good, foreign, GrantRef(99)]
            .iter()
            .map(|&r| map_one(&mut t, &mut mem, DomId(2), r))
            .collect();
        assert_eq!(
            results,
            [
                GrantOpStatus::Done(mfn),
                GrantOpStatus::Grant(GrantError::AccessDenied),
                GrantOpStatus::Grant(GrantError::BadRef(99)),
            ]
        );
        // The bad entries did not abort the good one.
        assert_eq!(t.active_mappings(), 1);
        let un: Vec<_> = [good, foreign]
            .iter()
            .map(|&r| unmap_one(&mut t, &mut mem, DomId(2), r))
            .collect();
        assert_eq!(un[0], GrantOpStatus::Done(mfn));
        assert!(!un[1].is_ok());
        assert_eq!(t.active_mappings(), 0);
    }

    #[test]
    fn copy_validates_direction_against_access() {
        let mut t = table();
        let ro = t
            .grant(DomId(2), Pfn(0), Mfn(0x20), 0, GrantAccess::ReadOnly)
            .unwrap();
        let rw = t
            .grant(DomId(2), Pfn(1), Mfn(0x21), 0, GrantAccess::ReadWrite)
            .unwrap();
        let xfer = t
            .grant(DomId(2), Pfn(2), Mfn(0x22), 0, GrantAccess::Transfer)
            .unwrap();
        let mut copy = |gref, dir| {
            let op = GrantCopyOp {
                gref,
                dir,
                local_pfn: Pfn(9),
            };
            t.copyable(DomId(2), &op)
        };
        assert_eq!(copy(ro, GrantCopyDir::FromGrant), Ok((Mfn(0x20), 0)));
        assert_eq!(
            copy(ro, GrantCopyDir::ToGrant),
            Err(GrantError::AccessDenied)
        );
        assert_eq!(copy(rw, GrantCopyDir::ToGrant), Ok((Mfn(0x21), 0)));
        assert_eq!(
            copy(xfer, GrantCopyDir::FromGrant),
            Err(GrantError::NotGranted)
        );
        // Copies leave no mappings behind.
        assert_eq!(t.active_mappings(), 0);
    }

    #[test]
    fn granted_to_filters_by_grantee() {
        let mut t = table();
        let mut grant = |grantee, access| t.grant(DomId(grantee), Pfn(0), Mfn(1), 0, access);
        let a = grant(2, GrantAccess::ReadOnly).unwrap();
        grant(3, GrantAccess::ReadOnly).unwrap();
        let revoked = grant(2, GrantAccess::ReadWrite).unwrap();
        let offer = grant(2, GrantAccess::Transfer).unwrap();
        t.end_access(revoked).unwrap();
        let refs =
            |d| -> Vec<GrantRef> { t.granted_to(DomId(d)).iter().map(|(r, _)| *r).collect() };
        // Revoked entries drop out; the rest come in ascending ref order.
        assert_eq!(refs(2), [a, offer]);
        assert_eq!(refs(3).len(), 1);
        assert!(refs(4).is_empty());
    }
}

#[cfg(test)]
mod transfer_tests {
    use super::*;
    use crate::error::HvError;

    fn offered(t: &mut GrantTable) -> GrantRef {
        t.grant(DomId(2), Pfn(5), Mfn(0x77), 0, GrantAccess::Transfer)
            .unwrap()
    }

    #[test]
    fn transfer_round_trip() {
        let mut t = GrantTable::new();
        let gref = offered(&mut t);
        assert_eq!(
            t.transfer_offer(DomId(2), gref).unwrap(),
            (Pfn(5), Mfn(0x77))
        );
        // The hypervisor spends the offer once the frame has moved.
        t.end_access(gref).unwrap();
        assert!(matches!(
            t.transfer_offer(DomId(2), gref).unwrap_err(),
            HvError::Grant(GrantError::BadRef(_))
        ));
    }

    #[test]
    fn transfer_grant_cannot_be_mapped() {
        let mut t = GrantTable::new();
        let gref = offered(&mut t);
        assert_eq!(
            t.mappable(DomId(2), gref).unwrap_err(),
            GrantError::NotGranted
        );
    }

    #[test]
    fn access_grant_cannot_be_accepted() {
        let mut t = GrantTable::new();
        let gref = t
            .grant(DomId(2), Pfn(0), Mfn(1), 0, GrantAccess::ReadWrite)
            .unwrap();
        assert!(matches!(
            t.transfer_offer(DomId(2), gref).unwrap_err(),
            HvError::Grant(GrantError::NotGranted)
        ));
        // The entry survives the failed acceptance.
        assert!(t.entry(gref).is_some());
    }

    #[test]
    fn only_named_grantee_accepts() {
        let mut t = GrantTable::new();
        let gref = offered(&mut t);
        assert!(matches!(
            t.transfer_offer(DomId(3), gref).unwrap_err(),
            HvError::Grant(GrantError::AccessDenied)
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::memory::MemoryManager;
    use crate::xregion::{map_one, unmap_one};
    use xoar_sim::prop::Runner;

    /// Mapping then unmapping any number of times leaves the table and
    /// the frame with zero active mappings, and end_access then succeeds.
    #[test]
    fn map_unmap_balanced() {
        Runner::cases(64).run("map/unmap balanced", |g| {
            let n = g.usize(1..50);
            let mut mem = MemoryManager::new(16);
            mem.populate(DomId(1), 1).unwrap();
            let mfn = mem.exclusive_mfn(DomId(1), Pfn(0)).unwrap();
            let mut t = GrantTable::new();
            let gref = t
                .grant(
                    DomId(2),
                    Pfn(0),
                    mfn,
                    mem.generation(mfn),
                    GrantAccess::ReadWrite,
                )
                .unwrap();
            for _ in 0..n {
                assert!(map_one(&mut t, &mut mem, DomId(2), gref).is_ok());
            }
            for _ in 0..n {
                assert!(unmap_one(&mut t, &mut mem, DomId(2), gref).is_ok());
            }
            assert_eq!(t.active_mappings(), 0);
            assert_eq!(mem.mapping_count(mfn).unwrap(), 0);
            assert!(t.end_access(gref).is_ok());
        });
    }

    /// No sequence of grants ever exceeds the configured capacity.
    #[test]
    fn capacity_invariant() {
        Runner::cases(64).run("capacity invariant", |g| {
            let cap = g.u32(1..64);
            let attempts = g.usize(1..200);
            let mut t = GrantTable::with_capacity(cap);
            let mut ok = 0usize;
            for i in 0..attempts {
                if t.grant(
                    DomId(2),
                    Pfn(i as u64),
                    Mfn(i as u64),
                    0,
                    GrantAccess::ReadOnly,
                )
                .is_ok()
                {
                    ok += 1;
                }
            }
            assert!(ok as u32 <= cap);
            assert!(t.len() as u32 <= cap);
        });
    }

    /// A grantee other than the one named in the entry can never map it.
    #[test]
    fn only_grantee_maps() {
        Runner::cases(64).run("only the grantee maps", |g| {
            let grantee = g.u32(1..10);
            let caller = g.u32(1..10);
            let mut t = GrantTable::new();
            let gref = t
                .grant(DomId(grantee), Pfn(0), Mfn(1), 0, GrantAccess::ReadOnly)
                .unwrap();
            let res = t.mappable(DomId(caller), gref);
            if caller == grantee {
                assert!(res.is_ok());
            } else {
                assert!(res.is_err());
            }
        });
    }
}
