//! Dirty logs and lazy CoW snapshots.
//!
//! Each open dirty-page consumer of a domain — its snapshot
//! ([`MemoryManager::freeze`]) or a log-dirty cursor of migration or HA
//! ([`MemoryManager::shadow_op`]) — owns an exact two-level PFN
//! [`Bitmap`]. A change to a page body sets its bit in every open bitmap
//! of every mapper; draining one bitmap leaves the others alone; a remap
//! that keeps the bytes (dedup, CoW break) marks nothing; and a domain
//! with no open consumer does no dirty bookkeeping. Freezing copies
//! nothing: the first post-freeze mutation of a page records its
//! pre-image handle in the domain's [`FrozenImage`], and
//! [`MemoryManager::rollback_frozen`] restores the snapshot bitmap's
//! pages.

use super::page::PageRef;
use super::{MemoryManager, Mfn, Pfn};
use crate::bitmap::Bitmap;
use crate::domain::DomId;
use crate::error::HvResult;
use crate::fasthash::FastMap;
use crate::hypercall::{HypercallRet, ShadowOp};

/// The lazily-captured snapshot baseline of a frozen domain.
///
/// [`MemoryManager::freeze`] records only the address-space watermark;
/// page pre-images are captured copy-on-write by the first mutation that
/// would change the domain's view of a page ([`MemoryManager`] capture
/// choke points: frame-body replacement and the dedup merge). A captured
/// entry is an `Rc` handle clone — freezing and capturing never copy
/// page bytes.
#[derive(Debug, Clone, Default)]
pub(super) struct FrozenImage {
    /// `pfn -> page body at freeze time`, first-touch captured.
    pub(super) baseline: FastMap<u64, PageRef>,
    /// `next_pfn` at freeze time. PFNs are allocated monotonically and
    /// never reused, so `pfn < watermark` ⇔ the PFN existed at freeze;
    /// younger PFNs roll back to the empty page, exactly as the eager
    /// image (which never contained them) restored. For a sealed
    /// template it is also the seal watermark: clones allocate their own
    /// PFNs above it, so an own-map entry below it is a CoW break.
    pub(super) watermark: u64,
    /// Pages covered at freeze time (for a template: pages sealed).
    pub(super) page_count: u64,
}

/// The id of a frozen domain's own dirty log (the PFNs its rollback
/// restores); log-dirty cursors never get it.
const SNAPSHOT_LOG: u64 = 0;

impl MemoryManager {
    /// Records that the bytes of every mapper of `mfn` changed, in every
    /// dirty log open on the mapper's domain. Free when no domain has a
    /// consumer open.
    pub(super) fn mark_dirty(&mut self, mfn: Mfn) {
        if self.dirty.is_empty() {
            return;
        }
        // Cloning the RefList is allocation-free in the dominant
        // single-mapper (inline) case.
        let Some(l) = self.frames.get(mfn.0).map(|f| f.refs.clone()) else {
            return;
        };
        for &(d, p) in l.as_slice() {
            for (_, bits) in self.dirty.get_mut(&d).into_iter().flatten() {
                bits.set(p);
            }
        }
    }

    /// Records `data` as the frozen pre-image of (`dom`, `pfn`) if the
    /// domain is frozen, the PFN existed at freeze time, and no earlier
    /// mutation captured it already (first touch wins — it holds the
    /// freeze-time contents).
    pub(super) fn capture_frozen_one(&mut self, dom: DomId, pfn: u64, data: &PageRef) {
        if let Some(img) = self.frozen.get_mut(&dom) {
            if pfn < img.watermark && !img.baseline.contains_key(&pfn) {
                img.baseline.insert(pfn, data.clone());
            }
        }
    }

    /// CoW-captures the current body of `mfn` for every frozen mapper
    /// about to observe a change.
    pub(super) fn capture_frozen(&mut self, mfn: Mfn) {
        if self.frozen.is_empty() {
            return;
        }
        let Some((l, data)) = self
            .frames
            .get(mfn.0)
            .map(|f| (f.refs.clone(), f.data.clone()))
        else {
            return;
        };
        for &(d, p) in l.as_slice() {
            self.capture_frozen_one(d, p, &data);
        }
    }

    /// `DomctlShadowOp` on `dom`: `Enable` opens a log-dirty cursor
    /// and returns its id, `Clean` drains it (the PFNs written since it
    /// was opened or last drained, ascending), `Off` closes it. Each
    /// cursor owns its own bitmap, so migration, HA and the snapshot
    /// never drain each other's; cursor ids start at 1, and the
    /// snapshot's log (`SNAPSHOT_LOG`) is out of their reach.
    pub fn shadow_op(&mut self, dom: DomId, op: ShadowOp) -> HvResult<HypercallRet> {
        let done = match op {
            ShadowOp::Enable if self.p2m.contains_key(&dom) => {
                self.next_log += 1;
                self.open_log(dom, self.next_log);
                Some(HypercallRet::Cursor(self.next_log))
            }
            ShadowOp::Clean(id) if id != SNAPSHOT_LOG => {
                self.drain_log(dom, id).map(HypercallRet::Pfns)
            }
            ShadowOp::Off(id) if id != SNAPSHOT_LOG => {
                self.close_log(dom, id).then_some(HypercallRet::Ok)
            }
            _ => None,
        };
        done.ok_or_else(|| {
            crate::error::HvError::InvalidArgument(format!("{op:?} on {dom}: no such dirty log"))
        })
    }

    /// Opens dirty log `id` on `dom`: every later change to one of its
    /// pages sets the PFN's bit until the log is drained.
    fn open_log(&mut self, dom: DomId, id: u64) {
        self.dirty
            .entry(dom)
            .or_default()
            .push((id, Bitmap::default()));
    }

    /// Drains dirty log `id` of `dom` (`None` if it is not open),
    /// walking only the set words; every other log keeps its bits.
    fn drain_log(&mut self, dom: DomId, id: u64) -> Option<Vec<Pfn>> {
        let bits = self.log_mut(dom, id)?;
        let mut pfns = Vec::new();
        bits.drain_set_bits(|p| pfns.push(Pfn(p)));
        // A PFN page-flipped away since its write has nothing to copy.
        pfns.retain(|&p| self.translate(dom, p).is_ok());
        Some(pfns)
    }

    /// Dirty log `id` of `dom`, if open.
    fn log_mut(&mut self, dom: DomId, id: u64) -> Option<&mut Bitmap> {
        let logs = self.dirty.get_mut(&dom)?;
        logs.iter_mut()
            .find(|(i, _)| *i == id)
            .map(|(_, bits)| bits)
    }

    /// Closes dirty log `id` of `dom`; returns whether it was open.
    fn close_log(&mut self, dom: DomId, id: u64) -> bool {
        let Some(logs) = self.dirty.get_mut(&dom) else {
            return false;
        };
        let open = logs.len();
        logs.retain(|(i, _)| *i != id);
        let closed = logs.len() < open;
        if logs.is_empty() {
            self.dirty.remove(&dom);
        }
        closed
    }

    /// Freezes `dom`'s memory as a lazy copy-on-write snapshot and
    /// returns the number of pages covered.
    ///
    /// Nothing is copied here: the call records the address-space
    /// watermark, opens (or drains) the snapshot's own dirty log — the
    /// new snapshot epoch — and empties the baseline. Pre-images are
    /// captured by the first post-freeze mutation of each page, so the
    /// cost is independent of how many pages the domain owns or how clean
    /// they are. Freezing an already-frozen domain replaces the snapshot.
    pub fn freeze(&mut self, dom: DomId) -> u64 {
        let (mut count, watermark) = self
            .p2m
            .get(&dom)
            .map_or((0, 0), |m| (m.len() as u64, m.next_pfn));
        // A clone also sees every template page it has not privatised:
        // those are snapshot-covered too (the first post-freeze write
        // captures the template body as the pre-image).
        if let Some(&tpl) = self.clone_of.get(&dom) {
            count += self.seal(tpl).1 - self.clone_broken_pages(dom);
        }
        let img = self.frozen.entry(dom).or_default();
        img.baseline.clear();
        img.watermark = watermark;
        img.page_count = count;
        // Open the new epoch: pre-freeze writes must not be restored.
        match self.log_mut(dom, SNAPSHOT_LOG) {
            Some(bits) => bits.drain_set_bits(|_| {}),
            None => self.open_log(dom, SNAPSHOT_LOG),
        }
        count
    }

    /// Whether `dom` currently holds a frozen CoW snapshot.
    pub fn is_frozen(&self, dom: DomId) -> bool {
        self.frozen.contains_key(&dom)
    }

    /// Pages covered by `dom`'s frozen snapshot (`None` if not frozen).
    pub fn frozen_page_count(&self, dom: DomId) -> Option<u64> {
        self.frozen.get(&dom).map(|i| i.page_count)
    }

    /// Number of pre-images the frozen snapshot has captured so far
    /// (`None` if not frozen). Zero on a domain that has not been
    /// written since [`Self::freeze`] — the zero-copy invariant.
    pub fn frozen_baseline_len(&self, dom: DomId) -> Option<usize> {
        self.frozen.get(&dom).map(|i| i.baseline.len())
    }

    /// Drops `dom`'s frozen snapshot (and its dirty log) without
    /// restoring anything.
    pub fn discard_frozen(&mut self, dom: DomId) {
        if self.frozen.remove(&dom).is_some() {
            self.close_log(dom, SNAPSHOT_LOG);
        }
    }

    /// Rolls `dom` back to its frozen snapshot: every page in the
    /// snapshot's dirty log is restored to its captured pre-image (or the
    /// empty page for PFNs younger than the freeze), except pages for
    /// which `in_box` returns true (recovery boxes, §3.3). Returns the
    /// number of pages restored.
    ///
    /// The snapshot stays armed: the baseline persists so repeated
    /// rollbacks to the same freeze point keep working.
    pub fn rollback_frozen(
        &mut self,
        dom: DomId,
        mut in_box: impl FnMut(Pfn) -> bool,
    ) -> HvResult<u64> {
        if !self.frozen.contains_key(&dom) {
            return Err(crate::error::HvError::Snapshot(format!(
                "{dom} has no frozen snapshot to roll back to"
            )));
        }
        let mut restored = 0u64;
        for pfn in self.drain_log(dom, SNAPSHOT_LOG).unwrap_or_default() {
            if in_box(pfn) {
                continue;
            }
            // Pinning the restored body as the baseline (first touch wins)
            // keeps the restore's own capture from recording pre-restore
            // contents. A page deduplicated since its write is shared, so
            // the restore goes into a private frame.
            let page = match self.frozen.get_mut(&dom) {
                Some(img) if pfn.0 < img.watermark => {
                    img.baseline.entry(pfn.0).or_default().clone()
                }
                _ => PageRef::empty(),
            };
            let mfn = self.exclusive_mfn(dom, pfn)?;
            self.set_frame_data(mfn, page)?;
            // Every other consumer sees the restore: it is a real change.
            let logs = self.dirty.get_mut(&dom).into_iter().flatten();
            for (_, bits) in logs.filter(|(i, _)| *i != SNAPSHOT_LOG) {
                bits.set(pfn.0);
            }
            restored += 1;
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm() -> MemoryManager {
        MemoryManager::new(1024)
    }

    fn enable(m: &mut MemoryManager, d: DomId) -> u64 {
        m.shadow_op(d, ShadowOp::Enable).unwrap().cursor().unwrap()
    }

    fn clean(m: &mut MemoryManager, d: DomId, cursor: u64) -> Vec<Pfn> {
        let drained = m.shadow_op(d, ShadowOp::Clean(cursor)).unwrap();
        drained.pfns().unwrap()
    }

    #[test]
    fn write_sets_dirty_and_clean_drains() {
        let mut m = mm();
        let d = DomId(1);
        m.populate(d, 3).unwrap();
        let log = enable(&mut m, d);
        m.write(d, Pfn(1), b"x").unwrap();
        m.write(d, Pfn(2), b"y").unwrap();
        assert_eq!(clean(&mut m, d, log), vec![Pfn(1), Pfn(2)]);
        assert!(clean(&mut m, d, log).is_empty(), "bits drained");
    }

    #[test]
    fn each_dirty_log_drains_independently() {
        let mut m = mm();
        let d = DomId(1);
        m.populate(d, 3).unwrap();
        let (a, b) = (enable(&mut m, d), enable(&mut m, d));
        m.write(d, Pfn(1), b"x").unwrap();
        assert_eq!(clean(&mut m, d, a), vec![Pfn(1)]);
        assert_eq!(clean(&mut m, d, b), vec![Pfn(1)], "a's drain left b alone");
        m.shadow_op(d, ShadowOp::Off(a)).unwrap();
        assert!(m.shadow_op(d, ShadowOp::Clean(a)).is_err(), "closed");
        m.shadow_op(d, ShadowOp::Off(b)).unwrap();
        assert!(m.dirty.is_empty(), "no consumer, no bookkeeping");
        m.write(d, Pfn(2), b"y").unwrap();
        assert!(m.dirty.is_empty());
    }

    #[test]
    fn cursors_cannot_reach_the_snapshot_log() {
        let mut m = mm();
        let d = DomId(1);
        m.populate(d, 2).unwrap();
        m.freeze(d);
        m.write(d, Pfn(0), b"x").unwrap();
        assert!(m.shadow_op(d, ShadowOp::Clean(SNAPSHOT_LOG)).is_err());
        assert!(m.shadow_op(d, ShadowOp::Off(SNAPSHOT_LOG)).is_err());
        assert_eq!(m.rollback_frozen(d, |_| false).unwrap(), 1);
        assert_eq!(m.read(d, Pfn(0)).unwrap(), b"");
    }
}
