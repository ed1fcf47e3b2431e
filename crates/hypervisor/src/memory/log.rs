//! Dirty logs and lazy CoW snapshots: microreboots without full
//! reboots (§3.3).
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
//! pages, so both the snapshot and the microreboot cost are proportional
//! to the pages touched, never to the size of the VM.
//!
//! A domain's snapshot is this one record. A shard takes it with
//! `VmSnapshot` once initialised, before serving any external interface,
//! and the same call names its [`RecoveryBox`] [Baker & Sullivan '92]:
//! the PFN range whose side-effectful state (the negotiated ring details
//! of the fast restart path, Figure 6.3) every rollback leaves in place.

use super::page::PageRef;
use super::{MemoryManager, Mfn, Pfn};
use crate::bitmap::Bitmap;
use crate::domain::DomId;
use crate::error::{HvError, HvResult};
use crate::fasthash::FastMap;
use crate::hypercall::{HypercallRet, ShadowOp};

/// A contiguous PFN range excluded from rollback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryBox {
    /// First PFN of the box.
    pub start: Pfn,
    /// Number of frames.
    pub frames: u64,
}

impl RecoveryBox {
    /// Whether `pfn` lies within the box.
    pub fn contains(&self, pfn: Pfn) -> bool {
        pfn.0 >= self.start.0 && pfn.0 < self.start.0 + self.frames
    }
}

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
    /// The range every rollback leaves in place, named at freeze time.
    pub(super) recovery_box: Option<RecoveryBox>,
}

impl FrozenImage {
    /// Records `data` as the pre-image of `pfn` if the PFN existed at
    /// freeze time and no earlier mutation captured it (first touch
    /// wins: it holds the freeze-time contents).
    pub(super) fn capture(&mut self, pfn: u64, data: &PageRef) {
        if pfn < self.watermark && !self.baseline.contains_key(&pfn) {
            self.baseline.insert(pfn, data.clone());
        }
    }
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
            img.capture(pfn, data);
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
    pub(crate) fn shadow_op(&mut self, dom: DomId, op: ShadowOp) -> HvResult<HypercallRet> {
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
        done.ok_or_else(|| HvError::InvalidArgument(format!("{op:?} on {dom}: no such dirty log")))
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

    /// Freezes `dom`'s memory as a lazy copy-on-write snapshot whose
    /// rollbacks leave `recovery_box` in place, and returns the number of
    /// pages covered. A domain with no pages has nothing to snapshot and
    /// is refused, unchanged.
    ///
    /// Nothing is copied here: the call records the address-space
    /// watermark, opens (or drains) the snapshot's own dirty log — the
    /// new snapshot epoch — and empties the baseline. Pre-images are
    /// captured by the first post-freeze mutation of each page, so the
    /// cost is independent of how many pages the domain owns or how clean
    /// they are. Freezing an already-frozen domain replaces the snapshot,
    /// its recovery box included.
    pub(crate) fn freeze(
        &mut self,
        dom: DomId,
        recovery_box: Option<RecoveryBox>,
    ) -> HvResult<u64> {
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
        if count == 0 {
            return Err(HvError::Snapshot(format!(
                "{dom} has no populated memory to snapshot"
            )));
        }
        let img = self.frozen.entry(dom).or_default();
        img.baseline.clear();
        img.watermark = watermark;
        img.page_count = count;
        img.recovery_box = recovery_box;
        // Open the new epoch: pre-freeze writes must not be restored.
        match self.log_mut(dom, SNAPSHOT_LOG) {
            Some(bits) => bits.drain_set_bits(|_| {}),
            None => self.open_log(dom, SNAPSHOT_LOG),
        }
        Ok(count)
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
    /// written since the freeze — the zero-copy invariant.
    pub fn frozen_baseline_len(&self, dom: DomId) -> Option<usize> {
        self.frozen.get(&dom).map(|i| i.baseline.len())
    }

    /// Rolls `dom` back to its frozen snapshot: every page in the
    /// snapshot's dirty log is restored to its captured pre-image (or the
    /// empty page for PFNs younger than the freeze), except pages in the
    /// snapshot's recovery box. Returns the number of pages restored.
    ///
    /// The snapshot stays armed: the baseline persists so repeated
    /// rollbacks to the same freeze point keep working. A sealed
    /// template is refused: its image is the seal its clones read
    /// through, not a microreboot point.
    pub(crate) fn rollback_frozen(&mut self, dom: DomId) -> HvResult<u64> {
        if self.templates.contains_key(&dom) {
            return Err(HvError::Snapshot(format!(
                "{dom} is a sealed template and cannot be rolled back"
            )));
        }
        let Some(rbox) = self.frozen.get(&dom).map(|i| i.recovery_box) else {
            return Err(HvError::Snapshot(format!(
                "{dom} has no frozen snapshot to roll back to"
            )));
        };
        let mut restored = 0u64;
        for pfn in self.drain_log(dom, SNAPSHOT_LOG).unwrap_or_default() {
            if rbox.is_some_and(|b| b.contains(pfn)) {
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
        m.freeze(d, None).unwrap();
        m.write(d, Pfn(0), b"x").unwrap();
        assert!(m.shadow_op(d, ShadowOp::Clean(SNAPSHOT_LOG)).is_err());
        assert!(m.shadow_op(d, ShadowOp::Off(SNAPSHOT_LOG)).is_err());
        assert_eq!(m.rollback_frozen(d).unwrap(), 1);
        assert_eq!(m.read(d, Pfn(0)).unwrap(), b"");
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;

    fn setup() -> (MemoryManager, DomId) {
        let mut mem = MemoryManager::new(1024);
        let dom = DomId(7);
        mem.populate(dom, 8).unwrap();
        (mem, dom)
    }

    #[test]
    fn snapshot_captures_all_pages() {
        let (mut mem, dom) = setup();
        mem.write(dom, Pfn(0), b"boot").unwrap();
        assert_eq!(mem.freeze(dom, None).unwrap(), 8);
        assert_eq!(mem.frozen_page_count(dom), Some(8));
    }

    #[test]
    fn snapshot_of_empty_domain_fails() {
        let mut mem = MemoryManager::new(16);
        assert!(mem.freeze(DomId(9), None).is_err());
        assert!(!mem.is_frozen(DomId(9)), "a refused freeze leaves no image");
    }

    #[test]
    fn rollback_restores_dirty_pages_only() {
        let (mut mem, dom) = setup();
        mem.write(dom, Pfn(0), b"initialized").unwrap();
        mem.freeze(dom, None).unwrap();
        // Attacker scribbles over two pages.
        mem.write(dom, Pfn(0), b"pwned").unwrap();
        mem.write(dom, Pfn(3), b"implant").unwrap();
        let restored = mem.rollback_frozen(dom).unwrap();
        assert_eq!(restored, 2, "only the dirty pages are copied back");
        assert_eq!(mem.read(dom, Pfn(0)).unwrap(), b"initialized");
        assert_eq!(mem.read(dom, Pfn(3)).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn rollback_without_snapshot_fails() {
        let (mut mem, dom) = setup();
        assert!(mem.rollback_frozen(dom).is_err());
    }

    #[test]
    fn repeated_rollbacks_restore_repeatedly() {
        let (mut mem, dom) = setup();
        mem.write(dom, Pfn(1), b"good").unwrap();
        mem.freeze(dom, None).unwrap();
        for i in 0..5 {
            mem.write(dom, Pfn(1), format!("bad{i}").as_bytes())
                .unwrap();
            mem.rollback_frozen(dom).unwrap();
            assert_eq!(mem.read(dom, Pfn(1)).unwrap(), b"good");
        }
    }

    #[test]
    fn second_rollback_is_cheap_when_nothing_dirtied() {
        let (mut mem, dom) = setup();
        mem.freeze(dom, None).unwrap();
        mem.write(dom, Pfn(2), b"z").unwrap();
        assert_eq!(mem.rollback_frozen(dom).unwrap(), 1);
        // Nothing written since: zero pages to restore.
        assert_eq!(mem.rollback_frozen(dom).unwrap(), 0);
    }

    #[test]
    fn recovery_box_survives_rollback() {
        let (mut mem, dom) = setup();
        let rbox = RecoveryBox {
            start: Pfn(6),
            frames: 2,
        };
        mem.freeze(dom, Some(rbox)).unwrap();
        // Connection state lands in the recovery box; attack state outside.
        mem.write(dom, Pfn(6), b"open-connections").unwrap();
        mem.write(dom, Pfn(1), b"attack-state").unwrap();
        mem.rollback_frozen(dom).unwrap();
        assert_eq!(
            mem.read(dom, Pfn(6)).unwrap(),
            b"open-connections",
            "recovery box persists across rollback"
        );
        assert_eq!(mem.read(dom, Pfn(1)).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn new_snapshot_replaces_old() {
        let (mut mem, dom) = setup();
        mem.write(dom, Pfn(0), b"v1").unwrap();
        mem.freeze(dom, None).unwrap();
        mem.write(dom, Pfn(0), b"v2").unwrap();
        mem.freeze(dom, None).unwrap();
        mem.write(dom, Pfn(0), b"garbage").unwrap();
        mem.rollback_frozen(dom).unwrap();
        assert_eq!(
            mem.read(dom, Pfn(0)).unwrap(),
            b"v2",
            "rolls back to latest image"
        );
    }

    #[test]
    fn new_snapshot_replaces_the_recovery_box() {
        let (mut mem, dom) = setup();
        let rbox = RecoveryBox {
            start: Pfn(6),
            frames: 2,
        };
        mem.freeze(dom, Some(rbox)).unwrap();
        mem.freeze(dom, None).unwrap();
        mem.write(dom, Pfn(6), b"was-boxed").unwrap();
        assert_eq!(mem.rollback_frozen(dom).unwrap(), 1);
        assert_eq!(mem.read(dom, Pfn(6)).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn snapshot_of_clean_domain_copies_zero_page_bytes() {
        let (mut mem, dom) = setup();
        for pfn in 0..8u64 {
            mem.write(dom, Pfn(pfn), format!("boot{pfn}").as_bytes())
                .unwrap();
        }
        mem.freeze(dom, None).unwrap();
        assert_eq!(
            mem.frozen_baseline_len(dom),
            Some(0),
            "freezing a clean domain captures no pre-images at all"
        );
        assert_eq!(mem.frozen_page_count(dom), Some(8));
        // A write to one page captures exactly one pre-image — the CoW
        // fault — and leaves the other seven untouched.
        mem.write(dom, Pfn(3), b"touched").unwrap();
        assert_eq!(mem.frozen_baseline_len(dom), Some(1));
    }

    #[test]
    fn discard_removes_image() {
        let (mut mem, dom) = setup();
        mem.freeze(dom, None).unwrap();
        assert!(mem.is_frozen(dom));
        mem.release_domain(dom);
        assert!(!mem.is_frozen(dom));
    }

    #[test]
    fn sealed_template_refuses_rollback() {
        let (mut mem, dom) = setup();
        mem.write(dom, Pfn(0), b"tpl").unwrap();
        mem.template_arm(dom).unwrap();
        assert!(mem.is_frozen(dom), "the seal is a frozen image");
        assert!(mem.rollback_frozen(dom).is_err());
        assert_eq!(mem.read(dom, Pfn(0)).unwrap(), b"tpl");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use xoar_sim::prop::Runner;

    /// After any sequence of writes followed by a rollback, every page
    /// outside recovery boxes equals its snapshot-time contents.
    #[test]
    fn rollback_restores_baseline() {
        Runner::cases(48).run("rollback restores baseline", |g| {
            let writes = g.vec(0..20, |g| {
                (g.u64(0..8), g.vec(0..32, |g| g.u64(0..256) as u8))
            });
            let mut mem = MemoryManager::new(64);
            let dom = DomId(1);
            mem.populate(dom, 8).unwrap();
            // Baseline contents.
            for pfn in 0..8u64 {
                mem.write(dom, Pfn(pfn), format!("base{pfn}").as_bytes())
                    .unwrap();
            }
            mem.freeze(dom, None).unwrap();
            for (pfn, data) in &writes {
                mem.write(dom, Pfn(*pfn), data).unwrap();
            }
            mem.rollback_frozen(dom).unwrap();
            for pfn in 0..8u64 {
                assert_eq!(
                    mem.read(dom, Pfn(pfn)).unwrap(),
                    format!("base{pfn}").into_bytes()
                );
            }
        });
    }

    /// Differential test against the retired eager-copy implementation:
    /// snapshot-time contents are copied into a shadow model up front, an
    /// arbitrary write sequence runs, and after rollback every page
    /// outside recovery boxes must equal the shadow while box pages keep
    /// their post-write contents.
    #[test]
    fn cow_rollback_matches_eager_copy_semantics() {
        Runner::cases(64).run("CoW rollback ≡ eager copy", |g| {
            let mut mem = MemoryManager::new(64);
            let dom = DomId(1);
            mem.populate(dom, 8).unwrap();
            let rbox = RecoveryBox {
                start: Pfn(g.u64(0..8)),
                frames: g.u64(0..3),
            };
            for pfn in 0..8u64 {
                mem.write(dom, Pfn(pfn), format!("init{pfn}").as_bytes())
                    .unwrap();
            }
            // Shadow of the old implementation: eagerly copy every page
            // at snapshot time.
            let eager: Vec<Vec<u8>> = (0..8)
                .map(|p| mem.read(dom, Pfn(p)).unwrap().to_vec())
                .collect();
            mem.freeze(dom, Some(rbox)).unwrap();
            let writes = g.vec(0..24, |g| {
                (g.u64(0..8), g.vec(0..16, |g| g.u64(0..256) as u8))
            });
            for (pfn, data) in &writes {
                mem.write(dom, Pfn(*pfn), data).unwrap();
            }
            let post: Vec<Vec<u8>> = (0..8)
                .map(|p| mem.read(dom, Pfn(p)).unwrap().to_vec())
                .collect();
            mem.rollback_frozen(dom).unwrap();
            for pfn in 0..8u64 {
                let expect = if rbox.contains(Pfn(pfn)) {
                    &post[pfn as usize]
                } else {
                    &eager[pfn as usize]
                };
                assert_eq!(
                    &mem.read(dom, Pfn(pfn)).unwrap().to_vec(),
                    expect,
                    "pfn {pfn} diverges from the eager-copy shadow"
                );
            }
        });
    }

    /// The number of restored frames never exceeds the number of
    /// distinct pages written (CoW proportionality).
    #[test]
    fn rollback_cost_proportional_to_dirty() {
        Runner::cases(64).run("rollback cost proportional to dirty pages", |g| {
            let pfns = g.vec(0..30, |g| g.u64(0..8));
            let mut mem = MemoryManager::new(64);
            let dom = DomId(1);
            mem.populate(dom, 8).unwrap();
            mem.freeze(dom, None).unwrap();
            for pfn in &pfns {
                mem.write(dom, Pfn(*pfn), b"dirty").unwrap();
            }
            let mut distinct = pfns.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let restored = mem.rollback_frozen(dom).unwrap();
            assert_eq!(restored, distinct.len() as u64);
        });
    }
}
