//! Machine memory: frames, ownership, and pseudo-physical mappings.
//!
//! The hypervisor owns all machine memory and accounts for every 4 KiB
//! frame: which domain owns it, whether it is currently granted or foreign
//! mapped, and which consumers (snapshot, migration, HA) still have to
//! see the pages written since they last looked.
//!
//! Guests see *pseudo-physical* frame numbers ([`Pfn`]) which the
//! hypervisor translates to *machine* frame numbers ([`Mfn`]); Xoar's
//! security argument rests on the fact that only specific, whitelisted
//! domains may establish mappings of frames they do not own.
//!
//! Frame *contents* are modelled lazily: a frame holds a shared,
//! immutable page body ([`PageRef`]) capped at [`PAGE_SIZE`], so
//! simulating a multi-gigabyte guest does not consume gigabytes of host
//! memory, and `read`/dedup/copy-on-write move reference counts instead
//! of bytes.
//!
//! [`MemoryManager`] is one struct; its methods sit beside the state
//! they keep, one concern per module:
//!
//! - here: populate, translate, read and write, the CoW break, page-flip
//!   transfer, release, mapping counts, and
//!   [`MemoryManager::check_consistency`];
//! - `page`: the page-body handle, the content hash, and the interning
//!   of the empty and all-zero bodies;
//! - `frames`: the dense frame table (reverse index, slot generations,
//!   the vacant set);
//! - `p2m`: the per-domain `Pfn -> Mfn` maps;
//! - `dedup`: the integrity digest and the one dedup path,
//!   [`MemoryManager::share_identical`];
//! - `log`: per-consumer dirty logs and lazy CoW snapshots;
//! - `template`: sealed templates and their fall-through clones.
//!
//! Only the p2m and frame tables carry state; the reverse index is a
//! view of them, so determinism is unaffected (the canonical frame of a
//! dedup group is the lowest MFN, and all per-group merges commute). No
//! frame stores a hash: the two readers of content hashes, the dedup
//! sweep and the integrity digest, compute them from the bodies.
//! [`MemoryManager::check_consistency`] recomputes the views from
//! scratch and is exercised by the interleaving property tests.

mod dedup;
mod frames;
mod log;
mod p2m;
mod page;
mod template;

pub use page::{content_hash, PageRef, ZERO_PAGE_HASH};

use std::collections::HashMap;
use std::fmt;

use crate::bitmap::Bitmap;
use crate::domain::DomId;
use crate::error::{HvResult, MemError};
use crate::fasthash::FastMap;
use frames::{FrameInfo, FrameTable, RefList};
use log::FrozenImage;
use p2m::P2m;
use page::intern;
use template::TemplateInfo;

/// Size of a page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// A machine frame number (host-physical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mfn(pub u64);

xoar_codec::impl_json_newtype!(Mfn(u64));

impl fmt::Display for Mfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mfn:{:#x}", self.0)
    }
}

/// A pseudo-physical frame number (guest-physical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pfn(pub u64);

xoar_codec::impl_json_newtype!(Pfn(u64));

impl fmt::Display for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn:{:#x}", self.0)
    }
}

/// The machine-memory manager.
///
/// Tracks every allocated frame, its owner, and its mapping counts, and
/// maintains each domain's pseudo-physical map. The number of
/// pseudo-physical mappings referencing a frame (1 = exclusive; >1 =
/// deduplicated copy-on-write sharing, Difference Engine / Satori
/// style) is derived from the reverse index, so the share accounting
/// can never drift from the p2m tables.
#[derive(Debug, Clone)]
pub struct MemoryManager {
    total_frames: u64,
    frames: FrameTable,
    p2m: FastMap<DomId, P2m>,
    free_count: u64,
    /// Open dirty logs per domain: `(id, bitmap)`, one per consumer
    /// (snapshot, log-dirty cursor). No entry ⇔ no consumer.
    dirty: FastMap<DomId, Vec<(u64, Bitmap)>>,
    /// Next dirty-log id (ids are never reused).
    next_log: u64,
    /// Lazy CoW snapshot baselines of frozen domains.
    frozen: FastMap<DomId, FrozenImage>,
    /// Sealed clone templates (snapshot-fork creation).
    templates: FastMap<DomId, TemplateInfo>,
    /// `clone -> template` backing link. One level only: a template is
    /// never itself a clone, so fall-through translation never chains.
    clone_of: FastMap<DomId, DomId>,
    /// Reused dedup-merge scratch (one bucket's member MFNs): spares
    /// the fleet-scale sweep an allocation per duplicate group.
    scratch_bucket: Vec<u64>,
    /// Reused dedup-merge scratch (one bucket's moved mappers).
    scratch_moved: Vec<(DomId, u64)>,
}

impl MemoryManager {
    /// Creates a manager for a host with `total_frames` frames of RAM.
    pub fn new(total_frames: u64) -> Self {
        MemoryManager {
            total_frames,
            frames: FrameTable::new(0x1000), // Leave a hole for "firmware", as real hosts do.
            p2m: FastMap::default(),
            free_count: total_frames,
            dirty: FastMap::default(),
            next_log: 0,
            frozen: FastMap::default(),
            templates: FastMap::default(),
            clone_of: FastMap::default(),
            scratch_bucket: Vec::new(),
            scratch_moved: Vec::new(),
        }
    }

    /// Total machine frames.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Frames not allocated to any domain.
    pub fn free_frames(&self) -> u64 {
        self.free_count
    }

    /// Length of the frame table: the number of MFNs ever in use at
    /// once. Freed MFNs are reused lowest-first, so a platform that
    /// creates and destroys domains keeps this flat.
    pub fn frame_table_len(&self) -> usize {
        self.frames.slots.len()
    }

    /// The generation of `mfn`: how many times the frame has been freed.
    /// A holder that records it beside the MFN can later tell whether
    /// the number still names the same frame.
    pub fn generation(&self, mfn: Mfn) -> u32 {
        self.frames.generation(mfn.0)
    }

    /// Fails with [`MemError::BadMfn`] unless `mfn` is live and still of
    /// generation `gen`.
    pub(crate) fn check_generation(&self, mfn: Mfn, gen: u32) -> Result<(), MemError> {
        match self.frames.get(mfn.0) {
            Some(f) if f.gen == gen => Ok(()),
            _ => Err(MemError::BadMfn(mfn.0)),
        }
    }

    /// Number of frames owned by `dom`.
    pub fn owned_frames(&self, dom: DomId) -> u64 {
        self.p2m.get(&dom).map_or(0, |m| m.len() as u64)
    }

    fn rmap_remove(&mut self, raw: u64, dom: DomId, pfn: u64) {
        if let Some(f) = self.frames.get_mut(raw) {
            f.refs.remove(dom, pfn);
        }
    }

    fn rmap_len(&self, raw: u64) -> usize {
        self.frames.get(raw).map_or(0, |f| f.refs.len())
    }

    /// The frame-body store: installs `page` as `mfn`'s body.
    fn set_frame_data(&mut self, mfn: Mfn, page: PageRef) -> HvResult<()> {
        // Capture before replacement: the frozen pre-image is the body
        // this store is about to overwrite.
        self.capture_frozen(mfn);
        let f = self.frames.get_mut(mfn.0).ok_or(MemError::BadMfn(mfn.0))?;
        f.data = page;
        Ok(())
    }

    /// A fresh, never-written frame mapped once, at (`dom`, `pfn`).
    fn blank_frame(dom: DomId, pfn: u64) -> FrameInfo {
        FrameInfo {
            owner: dom,
            mappings: 0,
            gen: 0,
            data: PageRef::empty(),
            refs: RefList::one(dom, pfn),
        }
    }

    /// Allocates `count` frames to `dom`, extending its pseudo-physical
    /// space contiguously. Returns the first new [`Pfn`].
    pub fn populate(&mut self, dom: DomId, count: u64) -> HvResult<Pfn> {
        if count > self.free_count {
            return Err(MemError::OutOfFrames.into());
        }
        let p2m = self.p2m.entry(dom).or_default();
        let first = Pfn(p2m.next_pfn);
        for _ in 0..count {
            let pfn = p2m.next_pfn;
            let mfn = self.frames.alloc(Self::blank_frame(dom, pfn));
            p2m.insert(pfn, Mfn(mfn));
            p2m.next_pfn += 1;
        }
        self.free_count -= count;
        Ok(first)
    }

    /// Translates a domain-local [`Pfn`] to its machine frame.
    ///
    /// A clone's own p2m holds only the pages it has privatised; a miss
    /// falls through to the backing template's map (one level — a
    /// template is never a clone), which is what makes clone creation
    /// O(1) in the template's size.
    pub fn translate(&self, dom: DomId, pfn: Pfn) -> HvResult<Mfn> {
        if let Some(m) = self.p2m.get(&dom) {
            if let Some(mfn) = m.get(pfn.0) {
                return Ok(mfn);
            }
        }
        if let Some(&tpl) = self.clone_of.get(&dom) {
            if let Some(mfn) = self.p2m.get(&tpl).and_then(|m| m.get(pfn.0)) {
                return Ok(mfn);
            }
        }
        Err(MemError::BadPfn(pfn.0).into())
    }

    /// Whether (`dom`, `pfn`) resolves through `dom`'s *own* p2m (for a
    /// clone: whether the page has been privatised).
    fn own_mapping(&self, dom: DomId, pfn: Pfn) -> bool {
        self.p2m.get(&dom).is_some_and(|m| m.get(pfn.0).is_some())
    }

    /// Returns the owner of a machine frame.
    pub fn owner(&self, mfn: Mfn) -> HvResult<DomId> {
        self.frames
            .get(mfn.0)
            .map(|f| f.owner)
            .ok_or_else(|| MemError::BadMfn(mfn.0).into())
    }

    /// The pseudo-physical mappings currently referencing `mfn`, sorted
    /// by `(dom, pfn)` (the reverse index, read-only).
    pub fn mappers(&self, mfn: Mfn) -> Vec<(DomId, Pfn)> {
        let refs = self
            .frames
            .get(mfn.0)
            .map_or(&[][..], |f| f.refs.as_slice());
        let mut v: Vec<(DomId, Pfn)> = refs.iter().map(|&(d, p)| (d, Pfn(p))).collect();
        v.sort_by_key(|&(d, p)| (d.0, p.0));
        v
    }

    /// Writes `data` into the frame at (`dom`, `pfn`), marking it dirty.
    ///
    /// A write to a deduplicated (shared) frame first breaks the sharing
    /// copy-on-write, so the other domains mapping the frame are never
    /// affected. Writes longer than [`PAGE_SIZE`] are rejected.
    pub fn write(&mut self, dom: DomId, pfn: Pfn, data: &[u8]) -> HvResult<()> {
        self.write_page(dom, pfn, intern(data))
    }

    /// [`Self::write`] of a shared page body: the frame takes the handle
    /// itself, so shipping a page costs a refcount bump, not a copy.
    pub(crate) fn write_page(&mut self, dom: DomId, pfn: Pfn, page: PageRef) -> HvResult<()> {
        if page.len() > PAGE_SIZE {
            return Err(crate::error::HvError::InvalidArgument(format!(
                "write of {} bytes exceeds page size",
                page.len()
            )));
        }
        if self.templates.contains_key(&dom) {
            // Clones alias template frames without rmap entries, so a
            // template write could never CoW-fault on their behalf:
            // sealed templates are immutable until their last clone dies.
            return Err(crate::error::HvError::InvalidArgument(format!(
                "{dom} is a sealed template and cannot be written"
            )));
        }
        let mfn = self.exclusive_mfn(dom, pfn)?;
        self.set_frame_data(mfn, page)?;
        self.mark_dirty(mfn);
        Ok(())
    }

    /// Resolves (`dom`, `pfn`) to a frame exclusively owned by `dom`,
    /// breaking copy-on-write sharing if necessary.
    ///
    /// Used by every path that needs a writable or exportable frame:
    /// guest writes, grant installation, and foreign mapping — a shared
    /// frame must never be granted or foreign-mapped, or the grantee
    /// would reach other domains' memory.
    pub fn exclusive_mfn(&mut self, dom: DomId, pfn: Pfn) -> HvResult<Mfn> {
        let mfn = self.translate(dom, pfn)?;
        // A clone PFN still backed by the template must be privatised —
        // and must never take the rmap-length fast path: the template's
        // frame is rmap-single (the template is its only p2m mapper) yet
        // aliased by every clone.
        let backed = self.clone_of.contains_key(&dom) && !self.own_mapping(dom, pfn);
        if !backed && self.rmap_len(mfn.0) <= 1 {
            return Ok(mfn);
        }
        if self.free_count == 0 {
            return Err(MemError::OutOfFrames.into());
        }
        // Allocate a private copy (of the handle, not the bytes) and
        // remap this domain's PFN to it. A template frame keeps its rmap:
        // clones never appear in it.
        let data = self.read_mfn(mfn)?;
        self.free_count -= 1;
        let new_mfn = Mfn(self.frames.alloc(FrameInfo {
            owner: dom,
            mappings: 0,
            gen: 0,
            data,
            refs: RefList::one(dom, pfn.0),
        }));
        self.rmap_remove(mfn.0, dom, pfn.0);
        let p2m = self.p2m.get_mut(&dom).ok_or(MemError::BadPfn(pfn.0))?;
        p2m.insert(pfn.0, new_mfn);
        Ok(new_mfn)
    }

    /// Moves ownership of the frame at (`from`, `pfn`) to `to`, removing
    /// it from `from`'s pseudo-physical space and appending it to `to`'s
    /// (grant-transfer / page-flipping support). Returns the PFN the
    /// frame receives in `to`'s space.
    ///
    /// Shared or mapped frames cannot be transferred.
    pub fn transfer_frame(&mut self, from: DomId, pfn: Pfn, to: DomId) -> HvResult<Pfn> {
        let mfn = self.translate(from, pfn)?;
        if self.templates.contains_key(&from) || !self.own_mapping(from, pfn) {
            // Template frames back live clones and a clone's
            // fall-through PFN *is* a template frame: neither may change
            // hands.
            return Err(MemError::FrameBusy(mfn.0).into());
        }
        {
            let f = self.frames.get(mfn.0).ok_or(MemError::BadMfn(mfn.0))?;
            if self.rmap_len(mfn.0) > 1 || f.mappings > 0 {
                return Err(MemError::FrameBusy(mfn.0).into());
            }
        }
        // Detach from the source space.
        let src = self.p2m.get_mut(&from).ok_or(MemError::BadPfn(pfn.0))?;
        src.remove(pfn.0);
        self.rmap_remove(mfn.0, from, pfn.0);
        // Attach to the destination space.
        let dst = self.p2m.entry(to).or_default();
        let new_pfn = Pfn(dst.next_pfn);
        dst.insert(dst.next_pfn, mfn);
        dst.next_pfn += 1;
        if let Some(f) = self.frames.get_mut(mfn.0) {
            f.owner = to;
            f.refs = RefList::one(to, new_pfn.0);
        }
        self.mark_dirty(mfn);
        Ok(new_pfn)
    }

    /// Reads the logical contents of the frame at (`dom`, `pfn`) as a
    /// shared handle (no byte copy).
    pub fn read(&self, dom: DomId, pfn: Pfn) -> HvResult<PageRef> {
        let mfn = self.translate(dom, pfn)?;
        self.read_mfn(mfn)
    }

    /// Writes directly by machine frame (hypervisor-internal paths).
    pub fn write_mfn(&mut self, mfn: Mfn, data: &[u8]) -> HvResult<()> {
        self.write_mfn_page(mfn, PageRef::new(data))
    }

    /// Writes a shared page body directly by machine frame without
    /// copying bytes (snapshot rollback, ring payload delivery).
    pub fn write_mfn_page(&mut self, mfn: Mfn, page: PageRef) -> HvResult<()> {
        if let Some(f) = self.frames.get(mfn.0) {
            if self.templates.contains_key(&f.owner) {
                return Err(crate::error::HvError::InvalidArgument(format!(
                    "{mfn} belongs to a sealed template and cannot be written",
                )));
            }
        }
        self.set_frame_data(mfn, page)?;
        self.mark_dirty(mfn);
        Ok(())
    }

    /// Reads directly by machine frame as a shared handle.
    pub fn read_mfn(&self, mfn: Mfn) -> HvResult<PageRef> {
        let f = self.frames.get(mfn.0).ok_or(MemError::BadMfn(mfn.0))?;
        Ok(f.data.clone())
    }

    /// Increments the grant-mapping count of a frame, which must still
    /// be of generation `gen` (the one its grant entry recorded): a grant
    /// whose frame was freed never reaches the frame's next tenant.
    ///
    /// Returns the bare [`MemError`] so batch paths can record a compact
    /// per-entry status without widening to [`crate::error::HvError`].
    pub(crate) fn inc_grant_mapping(&mut self, mfn: Mfn, gen: u32) -> Result<(), MemError> {
        match self.frames.get_mut(mfn.0) {
            Some(f) if f.gen == gen => {
                f.mappings += 1;
                Ok(())
            }
            _ => Err(MemError::BadMfn(mfn.0)),
        }
    }

    /// Decrements the grant-mapping count of a frame. A frame its owner
    /// released while the mapping held it (no p2m entry names it any
    /// more) is freed with its last mapping.
    pub(crate) fn dec_grant_mapping(&mut self, mfn: Mfn) -> Result<(), MemError> {
        let f = self.frames.get_mut(mfn.0).ok_or(MemError::BadMfn(mfn.0))?;
        f.mappings = f.mappings.saturating_sub(1);
        if f.mappings == 0 && f.refs.len() == 0 {
            self.frames.free(mfn.0);
            self.free_count += 1;
        }
        Ok(())
    }

    /// Increments the foreign-mapping count of a frame.
    pub(crate) fn inc_foreign_mapping(&mut self, mfn: Mfn) -> HvResult<()> {
        let f = self.frames.get_mut(mfn.0).ok_or(MemError::BadMfn(mfn.0))?;
        f.mappings += 1;
        Ok(())
    }

    /// Number of active mappings (grant + foreign) of a frame.
    pub fn mapping_count(&self, mfn: Mfn) -> HvResult<u32> {
        let f = self.frames.get(mfn.0).ok_or(MemError::BadMfn(mfn.0))?;
        Ok(f.mappings)
    }

    /// Releases all frames owned by `dom`.
    ///
    /// Frames with live grant mappings outlive the domain (as in Xen,
    /// where a domain's memory cannot be recycled until grants are
    /// unmapped) and are freed by their last unmap; the rest return to
    /// the frame table for reuse. Returns the number of frames freed now.
    pub fn release_domain(&mut self, dom: DomId) -> u64 {
        if let Some(tpl) = self.clone_of.remove(&dom) {
            if let Some(info) = self.templates.get_mut(&tpl) {
                info.clones = info.clones.saturating_sub(1);
            }
        }
        self.templates.remove(&dom);
        let Some(p2m) = self.p2m.remove(&dom) else {
            return 0;
        };
        self.dirty.remove(&dom);
        self.frozen.remove(&dom);
        let mut freed = 0;
        for (pfn, mfn) in p2m.entries() {
            self.rmap_remove(mfn.0, dom, pfn);
            if self.rmap_len(mfn.0) > 0 {
                // A deduplicated frame survives; only this mapping goes
                // away.
                continue;
            }
            let unmapped = self.frames.get(mfn.0).is_some_and(|f| f.mappings == 0);
            if unmapped && self.frames.free(mfn.0).is_some() {
                freed += 1;
            }
        }
        self.free_count += freed;
        freed
    }

    /// Iterates over `dom`'s pseudo-physical map in PFN order.
    pub fn p2m_entries(&self, dom: DomId) -> Vec<(Pfn, Mfn)> {
        let Some(p2m) = self.p2m.get(&dom) else {
            return Vec::new();
        };
        let mut v: Vec<(Pfn, Mfn)> = p2m.entries().map(|(p, m)| (Pfn(p), m)).collect();
        v.sort_unstable_by_key(|(p, _)| p.0);
        v
    }

    /// Recomputes the shadow model from the p2m tables and asserts that
    /// every derived structure (reverse index, share accounting, free
    /// count) agrees with it.
    ///
    /// Test support: exercised by the interleaving property tests.
    pub fn check_consistency(&self) -> Result<(), String> {
        // Free accounting: every live frame was debited exactly once.
        if self.free_count != self.total_frames - self.frames.len() as u64 {
            return Err(format!(
                "free_count {} != total {} - frames {}",
                self.free_count,
                self.total_frames,
                self.frames.len()
            ));
        }
        // Shadow reverse index recomputed naively from the p2m tables.
        let mut shadow: HashMap<u64, Vec<(DomId, u64)>> = HashMap::new();
        for (&dom, p2m) in &self.p2m {
            for (pfn, mfn) in p2m.entries() {
                if self.frames.get(mfn.0).is_none() {
                    return Err(format!("{dom} pfn {pfn} maps missing mfn {:#x}", mfn.0));
                }
                shadow.entry(mfn.0).or_default().push((dom, pfn));
            }
        }
        for (raw, f) in self.frames.iter() {
            let mut expect = shadow.remove(&raw).unwrap_or_default();
            let mut got: Vec<(DomId, u64)> = f.refs.as_slice().to_vec();
            expect.sort_by_key(|&(d, p)| (d.0, p));
            got.sort_by_key(|&(d, p)| (d.0, p));
            if expect != got {
                return Err(format!(
                    "refs for mfn {raw:#x} disagree: shadow {expect:?} vs index {got:?}"
                ));
            }
        }
        if let Some((&raw, _)) = shadow.iter().next() {
            return Err(format!("shadow maps missing frame mfn {raw:#x}"));
        }
        // Frozen baselines only ever hold pre-freeze PFNs (younger PFNs
        // roll back to the empty page by construction).
        for (&dom, img) in &self.frozen {
            for &pfn in img.baseline.keys() {
                if pfn >= img.watermark {
                    return Err(format!(
                        "{dom} frozen baseline captured post-freeze pfn {pfn} (watermark {})",
                        img.watermark
                    ));
                }
            }
        }
        // Clone links: every clone points at a live, sealed template,
        // every template keeps the frozen image that holds its seal, and
        // the per-template clone counters match the links.
        let mut clone_counts: HashMap<DomId, u64> = HashMap::new();
        for (&clone, &tpl) in &self.clone_of {
            if !self.templates.contains_key(&tpl) {
                return Err(format!("{clone} is a clone of unsealed {tpl}"));
            }
            if self.templates.contains_key(&clone) {
                return Err(format!("{clone} is both a clone and a template"));
            }
            let watermark = self.seal(tpl).0;
            if let Some(m) = self.p2m.get(&clone) {
                if m.next_pfn < watermark {
                    return Err(format!(
                        "{clone} next_pfn {} below template watermark {watermark}",
                        m.next_pfn
                    ));
                }
            }
            *clone_counts.entry(tpl).or_default() += 1;
        }
        for (&tpl, info) in &self.templates {
            if !self.frozen.contains_key(&tpl) {
                return Err(format!("template {tpl} lost its frozen snapshot"));
            }
            let linked = clone_counts.get(&tpl).copied().unwrap_or(0);
            if info.clones != linked {
                return Err(format!(
                    "template {tpl} counts {} clones but {linked} are linked",
                    info.clones
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::HvError;

    fn mm() -> MemoryManager {
        MemoryManager::new(1024)
    }

    #[test]
    fn populate_allocates_contiguous_pfns() {
        let mut m = mm();
        let d = DomId(1);
        let first = m.populate(d, 4).unwrap();
        assert_eq!(first, Pfn(0));
        let second = m.populate(d, 2).unwrap();
        assert_eq!(second, Pfn(4));
        assert_eq!(m.owned_frames(d), 6);
        assert_eq!(m.free_frames(), 1024 - 6);
    }

    #[test]
    fn populate_fails_when_exhausted() {
        let mut m = MemoryManager::new(8);
        let d = DomId(1);
        m.populate(d, 8).unwrap();
        let err = m.populate(d, 1).unwrap_err();
        assert!(matches!(err, HvError::Memory(MemError::OutOfFrames)));
    }

    #[test]
    fn translate_and_ownership() {
        let mut m = mm();
        let a = DomId(1);
        let b = DomId(2);
        m.populate(a, 2).unwrap();
        m.populate(b, 2).unwrap();
        let mfn_a = m.translate(a, Pfn(0)).unwrap();
        let mfn_b = m.translate(b, Pfn(0)).unwrap();
        assert_ne!(
            mfn_a, mfn_b,
            "same PFN in different domains maps to different MFNs"
        );
        assert_eq!(m.owner(mfn_a).unwrap(), a);
        assert_eq!(m.owner(mfn_b).unwrap(), b);
    }

    #[test]
    fn translate_rejects_unmapped_pfn() {
        let mut m = mm();
        m.populate(DomId(1), 1).unwrap();
        assert!(m.translate(DomId(1), Pfn(5)).is_err());
        assert!(m.translate(DomId(9), Pfn(0)).is_err());
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = mm();
        let d = DomId(1);
        m.populate(d, 1).unwrap();
        m.write(d, Pfn(0), b"start-info").unwrap();
        assert_eq!(m.read(d, Pfn(0)).unwrap(), b"start-info");
    }

    #[test]
    fn read_returns_shared_handle_not_copy() {
        let mut m = mm();
        let d = DomId(1);
        m.populate(d, 1).unwrap();
        m.write(d, Pfn(0), b"page-body").unwrap();
        let a = m.read(d, Pfn(0)).unwrap();
        let b = m.read(d, Pfn(0)).unwrap();
        assert!(
            PageRef::ptr_eq(&a, &b),
            "two reads share one page allocation"
        );
    }

    #[test]
    fn oversized_write_rejected() {
        let mut m = mm();
        let d = DomId(1);
        m.populate(d, 1).unwrap();
        let big = vec![0u8; PAGE_SIZE + 1];
        assert!(m.write(d, Pfn(0), &big).is_err());
    }

    #[test]
    fn release_frees_unmapped_frames() {
        let mut m = mm();
        let d = DomId(1);
        m.populate(d, 10).unwrap();
        assert_eq!(m.release_domain(d), 10);
        assert_eq!(m.free_frames(), 1024);
        assert_eq!(m.owned_frames(d), 0);
    }

    #[test]
    fn release_leaks_granted_frames() {
        let mut m = mm();
        let d = DomId(1);
        m.populate(d, 3).unwrap();
        let mfn = m.translate(d, Pfn(0)).unwrap();
        m.inc_grant_mapping(mfn, m.generation(mfn)).unwrap();
        assert_eq!(m.release_domain(d), 2, "granted frame not reclaimed");
    }

    #[test]
    fn last_unmap_frees_a_released_frame() {
        let mut m = mm();
        let d = DomId(1);
        m.populate(d, 3).unwrap();
        let mfn = m.translate(d, Pfn(0)).unwrap();
        m.inc_grant_mapping(mfn, m.generation(mfn)).unwrap();
        m.inc_grant_mapping(mfn, m.generation(mfn)).unwrap();
        m.release_domain(d);
        m.dec_grant_mapping(mfn).unwrap();
        assert_eq!(m.free_frames(), 1024 - 1, "one mapping still holds it");
        m.dec_grant_mapping(mfn).unwrap();
        assert_eq!(m.free_frames(), 1024);
        assert!(m.owner(mfn).is_err(), "freed with its last mapping");
        m.check_consistency().unwrap();
    }

    #[test]
    fn mapping_counts() {
        let mut m = mm();
        let d = DomId(1);
        m.populate(d, 1).unwrap();
        let mfn = m.translate(d, Pfn(0)).unwrap();
        assert_eq!(m.mapping_count(mfn).unwrap(), 0);
        m.inc_grant_mapping(mfn, m.generation(mfn)).unwrap();
        m.inc_foreign_mapping(mfn).unwrap();
        assert_eq!(m.mapping_count(mfn).unwrap(), 2);
        m.dec_grant_mapping(mfn).unwrap();
        assert_eq!(m.mapping_count(mfn).unwrap(), 1);
    }

    #[test]
    fn p2m_entries_sorted() {
        let mut m = mm();
        let d = DomId(1);
        m.populate(d, 5).unwrap();
        let entries = m.p2m_entries(d);
        assert_eq!(entries.len(), 5);
        for (i, (pfn, _)) in entries.iter().enumerate() {
            assert_eq!(pfn.0, i as u64);
        }
    }

    #[test]
    fn reverse_index_tracks_mappers() {
        let mut m = mm();
        let a = DomId(1);
        let b = DomId(2);
        m.populate(a, 2).unwrap();
        m.populate(b, 2).unwrap();
        m.write(a, Pfn(0), b"same").unwrap();
        m.write(b, Pfn(0), b"same").unwrap();
        m.share_identical(&[]);
        let mfn = m.translate(a, Pfn(0)).unwrap();
        assert_eq!(m.mappers(mfn), vec![(a, Pfn(0)), (b, Pfn(0))]);
        m.write(b, Pfn(0), b"changed").unwrap();
        assert_eq!(m.mappers(mfn), vec![(a, Pfn(0))]);
        m.check_consistency().unwrap();
    }
}
