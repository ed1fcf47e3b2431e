//! Snapshot and rollback: microreboots without full reboots (§3.3).
//!
//! A shard calls `vm_snapshot()` once it has booted and initialized, *before*
//! offering services over any external interface. The hypervisor freezes the
//! domain lazily ([`MemoryManager::freeze`]): nothing is copied at snapshot
//! time, the first post-snapshot write to each page captures its pre-image
//! (a `PageRef` handle clone, not a byte copy), and a rollback walks only
//! the set words of the domain's dirty bitmap — so both the snapshot and
//! the microreboot cost are proportional to the pages *touched*, never to
//! the size of the VM.
//!
//! Side-effectful state that must survive rollbacks (open connections,
//! renegotiated ring details for the "fast" restart path of Figure 6.3)
//! is placed in a **recovery box** [Baker & Sullivan '92]: a designated
//! PFN range excluded from restoration.

use std::collections::HashMap;

use crate::domain::DomId;
use crate::error::{HvError, HvResult};
use crate::memory::{MemoryManager, Pfn};

/// A contiguous PFN range registered as a recovery box.
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

/// The snapshot image of one domain.
///
/// Page contents live in the [`MemoryManager`]'s frozen baseline (captured
/// copy-on-write at first post-snapshot touch); the image itself carries
/// only the policy metadata the hypervisor keeps per snapshot (the
/// covered page count is [`MemoryManager::frozen_page_count`]).
#[derive(Debug, Clone)]
pub struct SnapshotImage {
    /// Recovery boxes excluded from rollback.
    boxes: Vec<RecoveryBox>,
    /// Number of rollbacks performed from this image.
    pub rollback_count: u64,
}

impl SnapshotImage {
    /// Whether `pfn` is shielded by a recovery box.
    pub fn in_recovery_box(&self, pfn: Pfn) -> bool {
        self.boxes.iter().any(|b| b.contains(pfn))
    }
}

/// Manages snapshot images for all domains.
#[derive(Debug, Default)]
pub struct SnapshotManager {
    images: HashMap<DomId, SnapshotImage>,
    /// Pending recovery-box registrations for domains that have not yet
    /// snapshotted.
    pending_boxes: HashMap<DomId, Vec<RecoveryBox>>,
}

impl SnapshotManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a recovery box for `dom`. Must be called before
    /// [`SnapshotManager::snapshot`]; boxes registered afterwards apply to
    /// the *next* snapshot.
    pub fn register_recovery_box(&mut self, dom: DomId, rbox: RecoveryBox) {
        self.pending_boxes.entry(dom).or_default().push(rbox);
    }

    /// Takes a snapshot of `dom`: freezes the domain's pages lazily and
    /// clears the dirty tracking so subsequent writes are recorded as CoW
    /// deltas.
    ///
    /// No page bytes are copied here — pre-images are captured by the
    /// first post-snapshot write to each page — so the cost is independent
    /// of how many (clean) pages the domain holds.
    pub fn snapshot(&mut self, dom: DomId, mem: &mut MemoryManager) -> HvResult<()> {
        if mem.freeze(dom) == 0 {
            mem.discard_frozen(dom);
            return Err(HvError::Snapshot(format!(
                "{dom} has no populated memory to snapshot"
            )));
        }
        let boxes = self.pending_boxes.get(&dom).cloned().unwrap_or_default();
        self.images.insert(
            dom,
            SnapshotImage {
                boxes,
                rollback_count: 0,
            },
        );
        Ok(())
    }

    /// Rolls `dom` back to its snapshot image.
    ///
    /// Only frames dirtied since the snapshot are restored (the CoW
    /// optimisation that makes microreboots cheap), and frames inside a
    /// recovery box are skipped. Returns the number of frames restored.
    pub fn rollback(&mut self, dom: DomId, mem: &mut MemoryManager) -> HvResult<u64> {
        let image = self
            .images
            .get_mut(&dom)
            .ok_or_else(|| HvError::Snapshot(format!("{dom} has no snapshot")))?;
        let restored = mem.rollback_frozen(dom, |pfn| image.in_recovery_box(pfn))?;
        image.rollback_count += 1;
        Ok(restored)
    }

    /// Whether `dom` has a snapshot image.
    pub fn has_snapshot(&self, dom: DomId) -> bool {
        self.images.contains_key(&dom)
    }

    /// Read-only access to a domain's image.
    pub fn image(&self, dom: DomId) -> Option<&SnapshotImage> {
        self.images.get(&dom)
    }

    /// Discards a domain's snapshot and pending boxes (domain death).
    pub fn discard(&mut self, dom: DomId) {
        self.images.remove(&dom);
        self.pending_boxes.remove(&dom);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SnapshotManager, MemoryManager, DomId) {
        let mut mem = MemoryManager::new(1024);
        let dom = DomId(7);
        mem.populate(dom, 8).unwrap();
        (SnapshotManager::new(), mem, dom)
    }

    #[test]
    fn snapshot_captures_all_pages() {
        let (mut sm, mut mem, dom) = setup();
        mem.write(dom, Pfn(0), b"boot").unwrap();
        sm.snapshot(dom, &mut mem).unwrap();
        assert_eq!(mem.frozen_page_count(dom), Some(8));
    }

    #[test]
    fn snapshot_of_empty_domain_fails() {
        let mut sm = SnapshotManager::new();
        let mut mem = MemoryManager::new(16);
        assert!(sm.snapshot(DomId(9), &mut mem).is_err());
    }

    #[test]
    fn rollback_restores_dirty_pages_only() {
        let (mut sm, mut mem, dom) = setup();
        mem.write(dom, Pfn(0), b"initialized").unwrap();
        sm.snapshot(dom, &mut mem).unwrap();
        // Attacker scribbles over two pages.
        mem.write(dom, Pfn(0), b"pwned").unwrap();
        mem.write(dom, Pfn(3), b"implant").unwrap();
        let restored = sm.rollback(dom, &mut mem).unwrap();
        assert_eq!(restored, 2, "only the dirty pages are copied back");
        assert_eq!(mem.read(dom, Pfn(0)).unwrap(), b"initialized");
        assert_eq!(mem.read(dom, Pfn(3)).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn rollback_without_snapshot_fails() {
        let (mut sm, mut mem, dom) = setup();
        assert!(sm.rollback(dom, &mut mem).is_err());
    }

    #[test]
    fn repeated_rollbacks_restore_repeatedly() {
        let (mut sm, mut mem, dom) = setup();
        mem.write(dom, Pfn(1), b"good").unwrap();
        sm.snapshot(dom, &mut mem).unwrap();
        for i in 0..5 {
            mem.write(dom, Pfn(1), format!("bad{i}").as_bytes())
                .unwrap();
            sm.rollback(dom, &mut mem).unwrap();
            assert_eq!(mem.read(dom, Pfn(1)).unwrap(), b"good");
        }
        assert_eq!(sm.image(dom).unwrap().rollback_count, 5);
    }

    #[test]
    fn second_rollback_is_cheap_when_nothing_dirtied() {
        let (mut sm, mut mem, dom) = setup();
        sm.snapshot(dom, &mut mem).unwrap();
        mem.write(dom, Pfn(2), b"z").unwrap();
        assert_eq!(sm.rollback(dom, &mut mem).unwrap(), 1);
        // Nothing written since: zero pages to restore.
        assert_eq!(sm.rollback(dom, &mut mem).unwrap(), 0);
    }

    #[test]
    fn recovery_box_survives_rollback() {
        let (mut sm, mut mem, dom) = setup();
        sm.register_recovery_box(
            dom,
            RecoveryBox {
                start: Pfn(6),
                frames: 2,
            },
        );
        sm.snapshot(dom, &mut mem).unwrap();
        // Connection state lands in the recovery box; attack state outside.
        mem.write(dom, Pfn(6), b"open-connections").unwrap();
        mem.write(dom, Pfn(1), b"attack-state").unwrap();
        sm.rollback(dom, &mut mem).unwrap();
        assert_eq!(
            mem.read(dom, Pfn(6)).unwrap(),
            b"open-connections",
            "recovery box persists across rollback"
        );
        assert_eq!(mem.read(dom, Pfn(1)).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn new_snapshot_replaces_old() {
        let (mut sm, mut mem, dom) = setup();
        mem.write(dom, Pfn(0), b"v1").unwrap();
        sm.snapshot(dom, &mut mem).unwrap();
        mem.write(dom, Pfn(0), b"v2").unwrap();
        sm.snapshot(dom, &mut mem).unwrap();
        mem.write(dom, Pfn(0), b"garbage").unwrap();
        sm.rollback(dom, &mut mem).unwrap();
        assert_eq!(
            mem.read(dom, Pfn(0)).unwrap(),
            b"v2",
            "rolls back to latest image"
        );
    }

    #[test]
    fn snapshot_of_clean_domain_copies_zero_page_bytes() {
        let (mut sm, mut mem, dom) = setup();
        for pfn in 0..8u64 {
            mem.write(dom, Pfn(pfn), format!("boot{pfn}").as_bytes())
                .unwrap();
        }
        sm.snapshot(dom, &mut mem).unwrap();
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
        let (mut sm, mut mem, dom) = setup();
        sm.snapshot(dom, &mut mem).unwrap();
        assert!(sm.has_snapshot(dom));
        sm.discard(dom);
        assert!(!sm.has_snapshot(dom));
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
            let mut sm = SnapshotManager::new();
            // Baseline contents.
            for pfn in 0..8u64 {
                mem.write(dom, Pfn(pfn), format!("base{pfn}").as_bytes())
                    .unwrap();
            }
            sm.snapshot(dom, &mut mem).unwrap();
            for (pfn, data) in &writes {
                mem.write(dom, Pfn(*pfn), data).unwrap();
            }
            sm.rollback(dom, &mut mem).unwrap();
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
            let mut sm = SnapshotManager::new();
            let rbox = RecoveryBox {
                start: Pfn(g.u64(0..8)),
                frames: g.u64(0..3),
            };
            sm.register_recovery_box(dom, rbox);
            for pfn in 0..8u64 {
                mem.write(dom, Pfn(pfn), format!("init{pfn}").as_bytes())
                    .unwrap();
            }
            // Shadow of the old implementation: eagerly copy every page
            // at snapshot time.
            let eager: Vec<Vec<u8>> = (0..8)
                .map(|p| mem.read(dom, Pfn(p)).unwrap().to_vec())
                .collect();
            sm.snapshot(dom, &mut mem).unwrap();
            let writes = g.vec(0..24, |g| {
                (g.u64(0..8), g.vec(0..16, |g| g.u64(0..256) as u8))
            });
            for (pfn, data) in &writes {
                mem.write(dom, Pfn(*pfn), data).unwrap();
            }
            let post: Vec<Vec<u8>> = (0..8)
                .map(|p| mem.read(dom, Pfn(p)).unwrap().to_vec())
                .collect();
            sm.rollback(dom, &mut mem).unwrap();
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
            let mut sm = SnapshotManager::new();
            sm.snapshot(dom, &mut mem).unwrap();
            for pfn in &pfns {
                mem.write(dom, Pfn(*pfn), b"dirty").unwrap();
            }
            let mut distinct = pfns.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let restored = sm.rollback(dom, &mut mem).unwrap();
            assert_eq!(restored, distinct.len() as u64);
        });
    }
}
