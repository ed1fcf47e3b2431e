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

use crate::fasthash::FastMap;

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

/// How many grant refs are indexed inline per grantee before spilling
/// to the heap. A backend typically holds one or two refs into any
/// given frontend (its ring pages), so the common posture — including
/// every snapshot-fork clone's stamped table — allocates nothing.
const GREF_INLINE: usize = 2;

/// Inline-first list of sorted grant refs (a hand-rolled smallvec; refs
/// are allocated monotonically and pushed in order, so the slice stays
/// sorted by construction).
#[derive(Debug, Clone)]
enum GrefList {
    Inline { len: u8, slots: [u32; GREF_INLINE] },
    Heap(Vec<u32>),
}

impl Default for GrefList {
    fn default() -> Self {
        GrefList::Inline {
            len: 0,
            slots: [0; GREF_INLINE],
        }
    }
}

impl GrefList {
    fn push(&mut self, r: u32) {
        match self {
            GrefList::Inline { len, slots } => {
                if (*len as usize) < GREF_INLINE {
                    slots[*len as usize] = r;
                    *len += 1;
                } else {
                    let mut v = slots.to_vec();
                    v.push(r);
                    *self = GrefList::Heap(v);
                }
            }
            GrefList::Heap(v) => v.push(r),
        }
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            GrefList::Inline { len, slots } => &slots[..*len as usize],
            GrefList::Heap(v) => v,
        }
    }

    /// Removes `r` if present, preserving sorted order.
    fn remove(&mut self, r: u32) {
        match self {
            GrefList::Inline { len, slots } => {
                let n = *len as usize;
                if let Ok(i) = slots[..n].binary_search(&r) {
                    for j in i..n - 1 {
                        slots[j] = slots[j + 1];
                    }
                    *len -= 1;
                }
            }
            GrefList::Heap(v) => {
                if let Ok(i) = v.binary_search(&r) {
                    v.remove(i);
                }
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

/// A single domain's grant table.
///
/// Entries live in a dense array indexed by grant ref, exactly like
/// Xen's grant-table frames: refs are allocated monotonically, so
/// `entries[r]` is the entry for ref `r` (`None` once revoked). The
/// batched map/unmap path indexes this array once per op with no
/// hashing.
#[derive(Debug, Default)]
pub struct GrantTable {
    entries: Vec<Option<GrantEntry>>,
    /// Number of live (non-`None`) entries; bounded by `capacity`.
    live: u32,
    /// Secondary index: grantee → sorted refs of live entries naming it.
    /// Maintained by grant/transfer/revoke so [`GrantTable::granted_to`]
    /// (the per-backend audit query) never scans the whole table.
    by_grantee: FastMap<DomId, GrefList>,
    next_ref: u32,
    capacity: u32,
}

/// Default maximum number of grant entries per domain (matches Xen's
/// default of 32 frames of 512 v1 entries = 16384, scaled down for the
/// model).
pub const DEFAULT_GRANT_CAPACITY: u32 = 4096;

impl GrantTable {
    /// Creates an empty table with the default capacity.
    pub fn new() -> Self {
        GrantTable {
            // Sized for the common device posture (xenstore + console
            // rings plus one vif and one vbd) so a freshly stamped
            // guest's grants never grow the vector.
            entries: Vec::with_capacity(4),
            live: 0,
            by_grantee: FastMap::default(),
            next_ref: 0,
            capacity: DEFAULT_GRANT_CAPACITY,
        }
    }

    /// Creates a table with an explicit capacity (tests, quota experiments).
    pub fn with_capacity(capacity: u32) -> Self {
        GrantTable {
            entries: Vec::new(),
            live: 0,
            by_grantee: FastMap::default(),
            next_ref: 0,
            capacity,
        }
    }

    #[inline]
    fn slot(&self, gref: GrantRef) -> HvResult<&GrantEntry> {
        self.entries
            .get(gref.0 as usize)
            .and_then(|s| s.as_ref())
            .ok_or_else(|| GrantError::BadRef(gref.0).into())
    }

    /// Installs a new entry granting `grantee` access to (`pfn`, `mfn`),
    /// where `gen` is the frame's current generation.
    pub fn grant(
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
        let gref = GrantRef(self.next_ref);
        self.next_ref += 1;
        debug_assert_eq!(gref.0 as usize, self.entries.len());
        self.entries.push(Some(GrantEntry {
            grantee,
            pfn,
            mfn,
            gen,
            access,
            map_count: 0,
        }));
        self.live += 1;
        self.index_add(grantee, gref.0);
        Ok(gref)
    }

    /// Validates a map attempt by `caller` and records the mapping.
    ///
    /// This is the audit point the paper describes: "grant references act
    /// as capabilities and are passed to other VMs, whose use of them is
    /// audited against the grant table by the hypervisor".
    pub fn map(&mut self, caller: DomId, gref: GrantRef) -> HvResult<(Mfn, GrantAccess)> {
        self.map_compact(caller, gref).map_err(Into::into)
    }

    /// [`Self::map`] with a compact error — the batched path's per-entry
    /// core, which never materialises an [`crate::error::HvError`].
    #[inline]
    pub(crate) fn map_compact(
        &mut self,
        caller: DomId,
        gref: GrantRef,
    ) -> Result<(Mfn, GrantAccess), GrantError> {
        let entry = self.mappable(caller, gref)?;
        entry.map_count += 1;
        Ok((entry.mfn, entry.access))
    }

    /// Validates a map attempt by `caller` and returns the entry it
    /// names without counting the mapping, so the hypervisor can first
    /// pin the frame (checking its generation) and count only a mapping
    /// that took.
    #[inline]
    pub(crate) fn mappable(
        &mut self,
        caller: DomId,
        gref: GrantRef,
    ) -> Result<&mut GrantEntry, GrantError> {
        let entry = self
            .entries
            .get_mut(gref.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(GrantError::BadRef(gref.0))?;
        if entry.grantee != caller {
            return Err(GrantError::AccessDenied);
        }
        if entry.access == GrantAccess::Transfer {
            // Transfer grants are accepted, not mapped.
            return Err(GrantError::NotGranted);
        }
        Ok(entry)
    }

    /// Releases one mapping by `caller`.
    pub fn unmap(&mut self, caller: DomId, gref: GrantRef) -> HvResult<Mfn> {
        self.unmap_compact(caller, gref).map_err(Into::into)
    }

    /// [`Self::unmap`] with a compact error (batched path core).
    #[inline]
    pub(crate) fn unmap_compact(
        &mut self,
        caller: DomId,
        gref: GrantRef,
    ) -> Result<Mfn, GrantError> {
        let entry = self
            .entries
            .get_mut(gref.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(GrantError::BadRef(gref.0))?;
        if entry.grantee != caller {
            return Err(GrantError::AccessDenied);
        }
        if entry.map_count == 0 {
            return Err(GrantError::NotMapped);
        }
        entry.map_count -= 1;
        Ok(entry.mfn)
    }

    /// Batched [`GrantTable::map`] (GNTTABOP-style): validates and
    /// applies an array of map attempts by `caller` against this one
    /// table, producing a per-entry status vector. A bad entry never
    /// aborts the batch — Xen semantics — and the caller amortises the
    /// per-domain-pair table lookup across the whole array.
    pub fn grant_map_batch(&mut self, caller: DomId, refs: &[GrantRef]) -> Vec<GrantOpStatus> {
        refs.iter()
            .map(|&gref| match self.map_compact(caller, gref) {
                Ok((mfn, _access)) => GrantOpStatus::Done(mfn),
                Err(e) => GrantOpStatus::Grant(e),
            })
            .collect()
    }

    /// Batched [`GrantTable::unmap`], mirroring [`Self::grant_map_batch`].
    pub fn grant_unmap_batch(&mut self, caller: DomId, refs: &[GrantRef]) -> Vec<GrantOpStatus> {
        refs.iter()
            .map(|&gref| match self.unmap_compact(caller, gref) {
                Ok(mfn) => GrantOpStatus::Done(mfn),
                Err(e) => GrantOpStatus::Grant(e),
            })
            .collect()
    }

    /// Batched GNTTABOP_copy validation: audits each op against the
    /// table (right grantee, not a transfer entry, writable for
    /// [`GrantCopyDir::ToGrant`]) and resolves the granted frame. The
    /// byte copy itself is the hypervisor's job — it owns machine
    /// memory, and checks the frame's generation — so this returns the
    /// resolved `(mfn, generation, op)` triples. Copies leave no mapping
    /// behind: `map_count` is untouched.
    pub fn grant_copy_batch(
        &mut self,
        caller: DomId,
        ops: &[GrantCopyOp],
    ) -> Vec<Result<(Mfn, u32, GrantCopyOp), GrantError>> {
        ops.iter()
            .map(|&op| {
                let entry = self
                    .entries
                    .get(op.gref.0 as usize)
                    .and_then(|s| s.as_ref())
                    .ok_or(GrantError::BadRef(op.gref.0))?;
                if entry.grantee != caller {
                    return Err(GrantError::AccessDenied);
                }
                match (entry.access, op.dir) {
                    (GrantAccess::Transfer, _) => Err(GrantError::NotGranted),
                    (GrantAccess::ReadOnly, GrantCopyDir::ToGrant) => Err(GrantError::AccessDenied),
                    _ => Ok((entry.mfn, entry.gen, op)),
                }
            })
            .collect()
    }

    /// Installs a *transfer* grant: an offer to give the page away
    /// entirely rather than share it (the mechanism behind classic
    /// netfront/netback page-flipping). The grantee accepts with
    /// [`GrantTable::accept_transfer`], after which the entry is spent.
    pub fn grant_transfer(
        &mut self,
        grantee: DomId,
        pfn: Pfn,
        mfn: Mfn,
        gen: u32,
    ) -> HvResult<GrantRef> {
        if self.live >= self.capacity {
            return Err(GrantError::TableFull.into());
        }
        let gref = GrantRef(self.next_ref);
        self.next_ref += 1;
        debug_assert_eq!(gref.0 as usize, self.entries.len());
        self.entries.push(Some(GrantEntry {
            grantee,
            pfn,
            mfn,
            gen,
            access: GrantAccess::Transfer,
            map_count: 0,
        }));
        self.live += 1;
        self.index_add(grantee, gref.0);
        Ok(gref)
    }

    /// Validates `caller`'s acceptance of transfer offer `gref` without
    /// spending it, and yields the offered frame. The offer is refused
    /// with [`MemError::FrameBusy`] while any other live entry of this
    /// table names the same frame — an access grant, or a duplicate
    /// offer — since after the flip that entry would name a frame its
    /// granter no longer owns. The scan runs here only, so granting and
    /// mapping stay O(1).
    pub(crate) fn transfer_offer(&self, caller: DomId, gref: GrantRef) -> HvResult<(Pfn, Mfn)> {
        let entry = self.slot(gref)?;
        if entry.grantee != caller {
            return Err(GrantError::AccessDenied.into());
        }
        if entry.access != GrantAccess::Transfer {
            return Err(GrantError::NotGranted.into());
        }
        let frame = (entry.mfn, entry.gen);
        let busy = self.entries.iter().enumerate().any(|(r, e)| {
            r != gref.0 as usize && e.as_ref().is_some_and(|e| (e.mfn, e.gen) == frame)
        });
        if busy {
            return Err(MemError::FrameBusy(entry.mfn.0).into());
        }
        Ok((entry.pfn, entry.mfn))
    }

    /// Accepts a transfer grant ([`Self::transfer_offer`]), consuming
    /// the entry and yielding the transferred frame. The caller (the
    /// hypervisor) is responsible for re-pointing page ownership.
    pub fn accept_transfer(&mut self, caller: DomId, gref: GrantRef) -> HvResult<(Pfn, Mfn)> {
        let offer = self.transfer_offer(caller, gref)?;
        // An offer is never mapped, so revoking it cannot be refused.
        self.end_access(gref)?;
        Ok(offer)
    }

    /// Revokes an entry. Fails with [`GrantError::InUse`] while mapped.
    pub fn end_access(&mut self, gref: GrantRef) -> HvResult<()> {
        let entry = self.slot(gref)?;
        if entry.map_count > 0 {
            return Err(GrantError::InUse.into());
        }
        let grantee = entry.grantee;
        self.entries[gref.0 as usize] = None;
        self.live -= 1;
        self.index_remove(grantee, gref.0);
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

    /// The `(mfn, generation)` of every live entry, in ref order.
    pub fn frames(&self) -> impl Iterator<Item = (Mfn, u32)> + '_ {
        self.entries.iter().flatten().map(|e| (e.mfn, e.gen))
    }

    /// Total active mappings across all entries.
    pub fn active_mappings(&self) -> u32 {
        self.entries.iter().flatten().map(|e| e.map_count).sum()
    }

    /// All live entries in ascending ref order (audit/analysis surface;
    /// the dense array is already in ref order).
    pub fn entries_sorted(&self) -> Vec<(GrantRef, &GrantEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(r, s)| s.as_ref().map(|e| (GrantRef(r as u32), e)))
            .collect()
    }

    /// Entries granted to a specific domain (for audit). Served from the
    /// per-grantee index in O(entries for that grantee); refs come out
    /// ascending because grants are issued with monotonically increasing
    /// refs and removals preserve order.
    pub fn granted_to(&self, grantee: DomId) -> Vec<(GrantRef, &GrantEntry)> {
        let Some(refs) = self.by_grantee.get(&grantee) else {
            return Vec::new();
        };
        refs.as_slice()
            .iter()
            .filter_map(|&r| {
                self.entries
                    .get(r as usize)
                    .and_then(|s| s.as_ref())
                    .map(|e| (GrantRef(r), e))
            })
            .collect()
    }

    fn index_add(&mut self, grantee: DomId, r: u32) {
        self.by_grantee.entry(grantee).or_default().push(r);
    }

    fn index_remove(&mut self, grantee: DomId, r: u32) {
        if let Some(refs) = self.by_grantee.get_mut(&grantee) {
            refs.remove(r);
            if refs.is_empty() {
                self.by_grantee.remove(&grantee);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::HvError;

    fn table() -> GrantTable {
        GrantTable::new()
    }

    #[test]
    fn grant_and_map_round_trip() {
        let mut t = table();
        let gref = t
            .grant(DomId(2), Pfn(3), Mfn(0x100), 0, GrantAccess::ReadWrite)
            .unwrap();
        let (mfn, access) = t.map(DomId(2), gref).unwrap();
        assert_eq!(mfn, Mfn(0x100));
        assert_eq!(access, GrantAccess::ReadWrite);
        assert_eq!(t.active_mappings(), 1);
    }

    #[test]
    fn map_by_wrong_domain_denied() {
        let mut t = table();
        let gref = t
            .grant(DomId(2), Pfn(0), Mfn(0x100), 0, GrantAccess::ReadOnly)
            .unwrap();
        let err = t.map(DomId(3), gref).unwrap_err();
        assert!(matches!(err, HvError::Grant(GrantError::AccessDenied)));
    }

    #[test]
    fn map_bad_ref_rejected() {
        let mut t = table();
        assert!(matches!(
            t.map(DomId(2), GrantRef(42)).unwrap_err(),
            HvError::Grant(GrantError::BadRef(42))
        ));
    }

    #[test]
    fn unmap_decrements_and_requires_mapping() {
        let mut t = table();
        let gref = t
            .grant(DomId(2), Pfn(0), Mfn(0x1), 0, GrantAccess::ReadOnly)
            .unwrap();
        assert!(matches!(
            t.unmap(DomId(2), gref).unwrap_err(),
            HvError::Grant(GrantError::NotMapped)
        ));
        t.map(DomId(2), gref).unwrap();
        t.unmap(DomId(2), gref).unwrap();
        assert_eq!(t.active_mappings(), 0);
    }

    #[test]
    fn end_access_blocked_while_mapped() {
        let mut t = table();
        let gref = t
            .grant(DomId(2), Pfn(0), Mfn(0x1), 0, GrantAccess::ReadWrite)
            .unwrap();
        t.map(DomId(2), gref).unwrap();
        assert!(matches!(
            t.end_access(gref).unwrap_err(),
            HvError::Grant(GrantError::InUse)
        ));
        t.unmap(DomId(2), gref).unwrap();
        t.end_access(gref).unwrap();
        assert!(t.is_empty());
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
    fn grantee_index_stays_consistent_under_revocation() {
        let mut t = table();
        // Interleave grants to three grantees with transfers.
        let mut refs = Vec::new();
        for i in 0..30u64 {
            let grantee = DomId(2 + (i % 3) as u32);
            let gref = if i % 5 == 4 {
                t.grant_transfer(grantee, Pfn(i), Mfn(i), 0).unwrap()
            } else {
                t.grant(grantee, Pfn(i), Mfn(i), 0, GrantAccess::ReadOnly)
                    .unwrap()
            };
            refs.push((grantee, gref));
        }
        // Revoke every other access grant and accept every transfer.
        for (grantee, gref) in &refs {
            match t.entry(*gref).map(|e| e.access) {
                Some(GrantAccess::Transfer) => {
                    t.accept_transfer(*grantee, *gref).unwrap();
                }
                Some(_) if gref.0 % 2 == 0 => t.end_access(*gref).unwrap(),
                _ => {}
            }
        }
        // The index answer must equal a linear scan, for every grantee,
        // in ascending ref order.
        for d in [DomId(2), DomId(3), DomId(4), DomId(9)] {
            let via_index: Vec<u32> = t.granted_to(d).iter().map(|(r, _)| r.0).collect();
            let mut via_scan: Vec<u32> = refs
                .iter()
                .filter(|(g, r)| *g == d && t.entry(*r).is_some())
                .map(|(_, r)| r.0)
                .collect();
            via_scan.sort_unstable();
            assert_eq!(via_index, via_scan, "index diverged for {d:?}");
        }
    }

    #[test]
    fn map_batch_reports_per_entry_status() {
        let mut t = table();
        let good = t
            .grant(DomId(2), Pfn(0), Mfn(0x10), 0, GrantAccess::ReadWrite)
            .unwrap();
        let foreign = t
            .grant(DomId(3), Pfn(1), Mfn(0x11), 0, GrantAccess::ReadWrite)
            .unwrap();
        let results = t.grant_map_batch(DomId(2), &[good, foreign, GrantRef(99)]);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0], GrantOpStatus::Done(Mfn(0x10)));
        assert_eq!(results[1], GrantOpStatus::Grant(GrantError::AccessDenied));
        assert_eq!(results[2], GrantOpStatus::Grant(GrantError::BadRef(99)));
        // The bad entries did not abort the good one.
        assert_eq!(t.active_mappings(), 1);
        let un = t.grant_unmap_batch(DomId(2), &[good, foreign]);
        assert_eq!(un[0], GrantOpStatus::Done(Mfn(0x10)));
        assert!(!un[1].is_ok());
        assert_eq!(t.active_mappings(), 0);
    }

    #[test]
    fn copy_batch_validates_direction_against_access() {
        let mut t = table();
        let ro = t
            .grant(DomId(2), Pfn(0), Mfn(0x20), 0, GrantAccess::ReadOnly)
            .unwrap();
        let rw = t
            .grant(DomId(2), Pfn(1), Mfn(0x21), 0, GrantAccess::ReadWrite)
            .unwrap();
        let xfer = t.grant_transfer(DomId(2), Pfn(2), Mfn(0x22), 0).unwrap();
        let op = |gref, dir| GrantCopyOp {
            gref,
            dir,
            local_pfn: Pfn(9),
        };
        let results = t.grant_copy_batch(
            DomId(2),
            &[
                op(ro, GrantCopyDir::FromGrant),
                op(ro, GrantCopyDir::ToGrant),
                op(rw, GrantCopyDir::ToGrant),
                op(xfer, GrantCopyDir::FromGrant),
            ],
        );
        assert!(matches!(results[0], Ok((Mfn(0x20), 0, _))));
        assert_eq!(results[1], Err(GrantError::AccessDenied));
        assert!(matches!(results[2], Ok((Mfn(0x21), 0, _))));
        assert_eq!(results[3], Err(GrantError::NotGranted));
        // Copies leave no mappings behind.
        assert_eq!(t.active_mappings(), 0);
    }

    #[test]
    fn granted_to_filters_by_grantee() {
        let mut t = table();
        t.grant(DomId(2), Pfn(0), Mfn(1), 0, GrantAccess::ReadOnly)
            .unwrap();
        t.grant(DomId(3), Pfn(1), Mfn(2), 0, GrantAccess::ReadOnly)
            .unwrap();
        t.grant(DomId(2), Pfn(2), Mfn(3), 0, GrantAccess::ReadWrite)
            .unwrap();
        assert_eq!(t.granted_to(DomId(2)).len(), 2);
        assert_eq!(t.granted_to(DomId(3)).len(), 1);
        assert_eq!(t.granted_to(DomId(4)).len(), 0);
    }
}

#[cfg(test)]
mod transfer_tests {
    use super::*;
    use crate::error::HvError;

    #[test]
    fn transfer_round_trip() {
        let mut t = GrantTable::new();
        let gref = t.grant_transfer(DomId(2), Pfn(5), Mfn(0x77), 0).unwrap();
        let (pfn, mfn) = t.accept_transfer(DomId(2), gref).unwrap();
        assert_eq!(pfn, Pfn(5));
        assert_eq!(mfn, Mfn(0x77));
        // Spent: cannot be accepted twice.
        assert!(matches!(
            t.accept_transfer(DomId(2), gref).unwrap_err(),
            HvError::Grant(GrantError::BadRef(_))
        ));
    }

    #[test]
    fn transfer_grant_cannot_be_mapped() {
        let mut t = GrantTable::new();
        let gref = t.grant_transfer(DomId(2), Pfn(0), Mfn(1), 0).unwrap();
        assert!(matches!(
            t.map(DomId(2), gref).unwrap_err(),
            HvError::Grant(GrantError::NotGranted)
        ));
    }

    #[test]
    fn access_grant_cannot_be_accepted() {
        let mut t = GrantTable::new();
        let gref = t
            .grant(DomId(2), Pfn(0), Mfn(1), 0, GrantAccess::ReadWrite)
            .unwrap();
        assert!(matches!(
            t.accept_transfer(DomId(2), gref).unwrap_err(),
            HvError::Grant(GrantError::NotGranted)
        ));
        // The entry survives the failed acceptance.
        assert!(t.entry(gref).is_some());
    }

    #[test]
    fn only_named_grantee_accepts() {
        let mut t = GrantTable::new();
        let gref = t.grant_transfer(DomId(2), Pfn(0), Mfn(1), 0).unwrap();
        assert!(matches!(
            t.accept_transfer(DomId(3), gref).unwrap_err(),
            HvError::Grant(GrantError::AccessDenied)
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use xoar_sim::prop::Runner;

    /// Mapping then unmapping any number of times leaves the table
    /// with zero active mappings, and end_access then succeeds.
    #[test]
    fn map_unmap_balanced() {
        Runner::cases(64).run("map/unmap balanced", |g| {
            let n = g.usize(1..50);
            let mut t = GrantTable::new();
            let gref = t
                .grant(DomId(2), Pfn(0), Mfn(7), 0, GrantAccess::ReadWrite)
                .unwrap();
            for _ in 0..n {
                t.map(DomId(2), gref).unwrap();
            }
            for _ in 0..n {
                t.unmap(DomId(2), gref).unwrap();
            }
            assert_eq!(t.active_mappings(), 0);
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
            let res = t.map(DomId(caller), gref);
            if caller == grantee {
                assert!(res.is_ok());
            } else {
                assert!(res.is_err());
            }
        });
    }
}
