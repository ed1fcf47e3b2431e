//! Sealed templates and their snapshot-fork clones.

use super::p2m::P2m;
use super::{MemoryManager, Mfn, Pfn};
use crate::domain::DomId;
use crate::error::{HvResult, MemError};

/// Bookkeeping for a sealed clone template (snapshot-fork creation).
///
/// A template is a frozen, write-protected domain whose frames back any
/// number of clones. Clones hold an *empty* p2m that falls through to
/// the template's on translation misses, so stamping a clone allocates
/// no frames and touches no rmap entries; a clone's first write to a
/// page breaks the aliasing exactly like a CoW break. The seal-time
/// watermark and page count live in the template's frozen image,
/// which exists for as long as the template does.
#[derive(Debug, Clone)]
pub(super) struct TemplateInfo {
    /// Live clones currently backed by this template.
    pub(super) clones: u64,
}

impl MemoryManager {
    /// Privatises a batch of clone PFNs onto fresh zero frames, without
    /// reading the template's copies of the pages.
    ///
    /// The region stamp uses this for the I/O ring pages it re-grants:
    /// ring contents are re-initialised when the backend connects, so
    /// the stamp need not pay what per-page [`Self::exclusive_mfn`]
    /// breaks would — the fall-through translates into the template and
    /// the page-handle clones — and the clone's p2m is resolved once for
    /// the whole batch. It runs at clone birth, before any dirty
    /// log can be open on the clone, so it marks none. A PFN the clone
    /// already privatised yields its existing frame. Appends one [`Mfn`]
    /// per PFN, in order, to `mfns`.
    pub fn stamp_private_zero_batch(
        &mut self,
        dom: DomId,
        pfns: &[Pfn],
        mfns: &mut Vec<Mfn>,
    ) -> HvResult<()> {
        if !self.clone_of.contains_key(&dom) {
            return Err(crate::error::HvError::InvalidArgument(format!(
                "{dom} is not a clone"
            )));
        }
        mfns.reserve(pfns.len());
        let p2m = self.p2m.get_mut(&dom).ok_or(MemError::BadPfn(0))?;
        for &pfn in pfns {
            // One probe decides hit-or-stamp (the hot path stamps: a
            // fresh clone's own p2m starts empty).
            if let Some(mfn) = p2m.get(pfn.0) {
                mfns.push(mfn);
                continue;
            }
            if self.free_count == 0 {
                return Err(MemError::OutOfFrames.into());
            }
            self.free_count -= 1;
            let new_mfn = Mfn(self.frames.alloc(Self::blank_frame(dom, pfn.0)));
            p2m.insert(pfn.0, new_mfn);
            mfns.push(new_mfn);
        }
        Ok(())
    }

    /// Seals `dom` as a clone template: freezes it (so its frames carry
    /// the frozen CoW exemption the analyzer recognises) and registers
    /// it write-protected. Returns the number of pages sealed.
    /// Idempotent on an already-sealed template.
    ///
    /// A clone cannot be sealed (fall-through translation is one level
    /// deep by construction), and an empty domain has nothing to fork.
    pub fn template_arm(&mut self, dom: DomId) -> HvResult<u64> {
        if self.templates.contains_key(&dom) {
            return Ok(self.seal(dom).1);
        }
        if self.clone_of.contains_key(&dom) {
            return Err(crate::error::HvError::InvalidArgument(format!(
                "{dom} is a clone and cannot be sealed as a template"
            )));
        }
        let page_count = self.freeze(dom);
        if page_count == 0 {
            self.discard_frozen(dom);
            return Err(crate::error::HvError::InvalidArgument(format!(
                "{dom} has no populated memory to seal as a template"
            )));
        }
        self.templates.insert(dom, TemplateInfo { clones: 0 });
        Ok(page_count)
    }

    /// The seal-time `(watermark, page count)` of template `tpl`, kept
    /// in its frozen image (zeros if `tpl` is not frozen).
    pub(super) fn seal(&self, tpl: DomId) -> (u64, u64) {
        self.frozen
            .get(&tpl)
            .map_or((0, 0), |i| (i.watermark, i.page_count))
    }

    /// Stamps out `clone`'s address space from sealed template
    /// `template`: an empty p2m whose misses fall through to the
    /// template. O(1) — no frames are reserved, no page or p2m entry is
    /// copied; the clone pays for frames one CoW break at a time.
    /// Returns the number of pages the clone sees through the template.
    pub fn clone_space(&mut self, template: DomId, clone: DomId) -> HvResult<u64> {
        let info = self.templates.get_mut(&template).ok_or_else(|| {
            crate::error::HvError::InvalidArgument(format!("{template} is not a sealed template"))
        })?;
        if self.p2m.contains_key(&clone) || self.clone_of.contains_key(&clone) {
            return Err(crate::error::HvError::InvalidArgument(format!(
                "{clone} already has an address space"
            )));
        }
        info.clones += 1;
        let (watermark, page_count) = self.seal(template);
        let mut space = P2m::default();
        space.next_pfn = watermark;
        self.p2m.insert(clone, space);
        self.clone_of.insert(clone, template);
        Ok(page_count)
    }

    /// Whether `dom` is a sealed clone template.
    pub fn is_template(&self, dom: DomId) -> bool {
        self.templates.contains_key(&dom)
    }

    /// The template backing `dom`, if `dom` is a clone.
    pub fn template_of(&self, dom: DomId) -> Option<DomId> {
        self.clone_of.get(&dom).copied()
    }

    /// Live clones backed by template `dom` (`None` if not a template).
    pub fn template_clones(&self, dom: DomId) -> Option<u64> {
        self.templates.get(&dom).map(|i| i.clones)
    }

    /// Pages sealed into template `dom` (`None` if not a template).
    pub fn template_page_count(&self, dom: DomId) -> Option<u64> {
        self.is_template(dom).then(|| self.seal(dom).1)
    }

    /// Number of pages `clone` has privatised away from its template.
    pub fn clone_broken_pages(&self, clone: DomId) -> u64 {
        let Some(&tpl) = self.clone_of.get(&clone) else {
            return 0;
        };
        let wm = self.seal(tpl).0;
        self.p2m
            .get(&clone)
            .map_or(0, |m| m.entries().filter(|&(p, _)| p < wm).count() as u64)
    }
}

#[cfg(test)]
mod clone_tests {
    use super::*;
    use crate::memory::PageRef;

    /// A sealed 8-page template with distinct page bodies.
    fn template() -> (MemoryManager, DomId) {
        let mut m = MemoryManager::new(4096);
        let t = DomId(10);
        m.populate(t, 8).unwrap();
        for p in 0..8u64 {
            m.write(t, Pfn(p), format!("tpl{p}").as_bytes()).unwrap();
        }
        m.template_arm(t).unwrap();
        (m, t)
    }

    #[test]
    fn clone_space_is_frame_free() {
        let (mut m, t) = template();
        let free = m.free_frames();
        let c = DomId(20);
        assert_eq!(m.clone_space(t, c).unwrap(), 8);
        assert_eq!(m.free_frames(), free, "cloning reserves no frames");
        assert_eq!(m.owned_frames(c), 0);
        assert_eq!(m.template_clones(t), Some(1));
        assert_eq!(m.template_of(c), Some(t));
        m.check_consistency().unwrap();
    }

    #[test]
    fn clone_reads_fall_through_to_template() {
        let (mut m, t) = template();
        let c = DomId(20);
        m.clone_space(t, c).unwrap();
        for p in 0..8u64 {
            let tb = m.read(t, Pfn(p)).unwrap();
            let cb = m.read(c, Pfn(p)).unwrap();
            assert!(PageRef::ptr_eq(&tb, &cb), "clone shares the page body");
        }
        assert!(m.read(c, Pfn(8)).is_err(), "beyond the template: unmapped");
    }

    #[test]
    fn first_write_breaks_exactly_one_page() {
        let (mut m, t) = template();
        let c = DomId(20);
        m.clone_space(t, c).unwrap();
        let free = m.free_frames();
        m.write(c, Pfn(3), b"diverged").unwrap();
        assert_eq!(m.free_frames(), free - 1, "one private frame allocated");
        assert_eq!(m.clone_broken_pages(c), 1);
        assert_eq!(m.read(c, Pfn(3)).unwrap(), b"diverged");
        assert_eq!(m.read(t, Pfn(3)).unwrap(), b"tpl3", "template untouched");
        // The other seven pages still alias the template.
        for p in [0u64, 1, 2, 4, 5, 6, 7] {
            assert!(PageRef::ptr_eq(
                &m.read(t, Pfn(p)).unwrap(),
                &m.read(c, Pfn(p)).unwrap()
            ));
        }
        m.check_consistency().unwrap();
    }

    #[test]
    fn writes_to_one_clone_never_leak_to_another() {
        let (mut m, t) = template();
        let (a, b) = (DomId(20), DomId(21));
        m.clone_space(t, a).unwrap();
        m.clone_space(t, b).unwrap();
        m.write(a, Pfn(0), b"from-a").unwrap();
        assert_eq!(m.read(b, Pfn(0)).unwrap(), b"tpl0");
        m.write(b, Pfn(0), b"from-b").unwrap();
        assert_eq!(m.read(a, Pfn(0)).unwrap(), b"from-a");
        m.check_consistency().unwrap();
    }

    #[test]
    fn template_is_sealed_against_writes_and_transfer() {
        let (mut m, t) = template();
        let c = DomId(20);
        m.clone_space(t, c).unwrap();
        assert!(m.write(t, Pfn(0), b"mutate").is_err());
        let mfn = m.translate(t, Pfn(0)).unwrap();
        assert!(m.write_mfn(mfn, b"mutate").is_err());
        assert!(m.transfer_frame(t, Pfn(0), DomId(30)).is_err());
        // A clone cannot give away a template-backed (unbroken) page
        // either; once broken the page is private and transferable.
        assert!(m.transfer_frame(c, Pfn(0), DomId(30)).is_err());
        m.write(c, Pfn(0), b"mine").unwrap();
        m.transfer_frame(c, Pfn(0), DomId(30)).unwrap();
        m.check_consistency().unwrap();
    }

    #[test]
    fn grant_paths_privatise_clone_pages() {
        let (mut m, t) = template();
        let c = DomId(20);
        m.clone_space(t, c).unwrap();
        // exclusive_mfn must never hand out the template's frame, even
        // though that frame is rmap-single.
        let tpl_mfn = m.translate(t, Pfn(2)).unwrap();
        let got = m.exclusive_mfn(c, Pfn(2)).unwrap();
        assert_ne!(got, tpl_mfn, "clone got a private frame");
        assert_eq!(m.owner(got).unwrap(), c);
        assert_eq!(m.read(c, Pfn(2)).unwrap(), b"tpl2", "contents preserved");
        m.check_consistency().unwrap();
    }

    #[test]
    fn clone_cannot_be_template_and_template_cannot_be_cloned_twice() {
        let (mut m, t) = template();
        let c = DomId(20);
        m.clone_space(t, c).unwrap();
        assert!(m.template_arm(c).is_err(), "clones cannot be sealed");
        assert!(m.clone_space(t, c).is_err(), "clone already has a space");
        assert_eq!(m.template_arm(t).unwrap(), 8, "re-arming is idempotent");
    }

    #[test]
    fn release_clone_decrements_refcount_and_frees_broken_frames() {
        let (mut m, t) = template();
        let c = DomId(20);
        m.clone_space(t, c).unwrap();
        m.write(c, Pfn(1), b"broken").unwrap();
        let free = m.free_frames();
        let freed = m.release_domain(c);
        assert_eq!(freed, 1, "only the privatised frame is freed");
        assert_eq!(m.free_frames(), free + 1);
        assert_eq!(m.template_clones(t), Some(0));
        assert_eq!(m.read(t, Pfn(1)).unwrap(), b"tpl1");
        m.check_consistency().unwrap();
    }

    #[test]
    fn clone_populate_extends_above_watermark() {
        let (mut m, t) = template();
        let c = DomId(20);
        m.clone_space(t, c).unwrap();
        let first = m.populate(c, 2).unwrap();
        assert_eq!(first, Pfn(8), "new PFNs start at the template watermark");
        m.write(c, Pfn(9), b"own").unwrap();
        assert_eq!(m.read(c, Pfn(9)).unwrap(), b"own");
        assert!(m.read(t, Pfn(9)).is_err());
        m.check_consistency().unwrap();
    }

    #[test]
    fn multi_domain_frames_surface_template_sharing() {
        let (mut m, t) = template();
        let (a, b) = (DomId(20), DomId(21));
        m.clone_space(t, a).unwrap();
        m.clone_space(t, b).unwrap();
        m.write(a, Pfn(0), b"broken-in-a").unwrap();
        let shared = m.multi_domain_frames();
        assert_eq!(shared.len(), 8, "all template frames are shared");
        let mfn0 = m.translate(t, Pfn(0)).unwrap();
        let doms0 = &shared.iter().find(|&&(mf, _)| mf == mfn0).unwrap().1;
        assert_eq!(doms0, &vec![t, b], "a privatised pfn 0, b still shares");
        let mfn1 = m.translate(t, Pfn(1)).unwrap();
        let doms1 = &shared.iter().find(|&&(mf, _)| mf == mfn1).unwrap().1;
        assert_eq!(doms1, &vec![t, a, b]);
    }

    #[test]
    fn clone_snapshot_and_rollback_restores_template_bytes() {
        let (mut m, t) = template();
        let c = DomId(20);
        m.clone_space(t, c).unwrap();
        // Freeze the (unwritten) clone: it covers the template's pages.
        assert_eq!(m.freeze(c), 8);
        m.write(c, Pfn(4), b"scribble").unwrap();
        let restored = m.rollback_frozen(c, |_| false).unwrap();
        assert_eq!(restored, 1);
        assert_eq!(
            m.read(c, Pfn(4)).unwrap(),
            b"tpl4",
            "rollback restores the template pre-image into the private frame"
        );
        m.check_consistency().unwrap();
    }

    #[test]
    fn out_of_frames_surfaces_at_break_time() {
        let mut m = MemoryManager::new(8);
        let t = DomId(10);
        m.populate(t, 8).unwrap();
        m.write(t, Pfn(0), b"full").unwrap();
        m.template_arm(t).unwrap();
        let c = DomId(20);
        m.clone_space(t, c).unwrap();
        assert_eq!(m.read(c, Pfn(0)).unwrap(), b"full", "reads still work");
        let err = m.write(c, Pfn(0), b"x").unwrap_err();
        assert!(matches!(
            err,
            crate::error::HvError::Memory(MemError::OutOfFrames)
        ));
    }

    #[test]
    fn hundred_clones_share_until_first_write() {
        let (mut m, t) = template();
        let free = m.free_frames();
        for i in 0..100u32 {
            m.clone_space(t, DomId(100 + i)).unwrap();
        }
        assert_eq!(m.free_frames(), free, "100 clones, zero frames");
        for i in 0..100u32 {
            m.write(DomId(100 + i), Pfn(0), b"warm").unwrap();
        }
        assert_eq!(m.free_frames(), free - 100, "one break per clone");
        m.check_consistency().unwrap();
    }
}
