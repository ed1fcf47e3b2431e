//! The frame table and the memory manager's one change-set type.
//!
//! [`FrameTable`] keeps per-frame metadata ([`FrameInfo`]), including
//! each frame's reverse index ([`RefList`]), in a dense array.
//! [`Bitmap`] is the two-level set behind the per-consumer dirty logs and
//! the table's two slot sets: the vacant slots, reused lowest-first, and
//! the stale slots, whose content hash a bulk write deferred.

use super::page::PageRef;
use crate::domain::DomId;

/// How many reverse-index entries are stored inline before spilling to
/// the heap. Almost every frame is mapped exactly once; deduplicated
/// kernel pages are the exception.
const RMAP_INLINE: usize = 2;

/// A tiny inline-first vector of `(dom, pfn)` mappers (a hand-rolled
/// smallvec: no external crates).
#[derive(Debug, Clone)]
pub(super) enum RefList {
    Inline {
        len: u8,
        slots: [(DomId, u64); RMAP_INLINE],
    },
    Heap(Vec<(DomId, u64)>),
}

impl Default for RefList {
    fn default() -> Self {
        RefList::Inline {
            len: 0,
            slots: [(DomId(0), 0); RMAP_INLINE],
        }
    }
}

impl RefList {
    pub(super) fn one(dom: DomId, pfn: u64) -> Self {
        let mut l = RefList::default();
        l.push(dom, pfn);
        l
    }

    pub(super) fn len(&self) -> usize {
        match self {
            RefList::Inline { len, .. } => *len as usize,
            RefList::Heap(v) => v.len(),
        }
    }

    pub(super) fn as_slice(&self) -> &[(DomId, u64)] {
        match self {
            RefList::Inline { len, slots } => &slots[..*len as usize],
            RefList::Heap(v) => v,
        }
    }

    pub(super) fn push(&mut self, dom: DomId, pfn: u64) {
        match self {
            RefList::Inline { len, slots } => {
                if (*len as usize) < RMAP_INLINE {
                    slots[*len as usize] = (dom, pfn);
                    *len += 1;
                } else {
                    let mut v = slots.to_vec();
                    v.push((dom, pfn));
                    *self = RefList::Heap(v);
                }
            }
            RefList::Heap(v) => v.push((dom, pfn)),
        }
    }

    /// Appends every entry of `extra`, spilling to the heap at most
    /// once (a bulk dedup merge would otherwise pay one spill plus a
    /// growth reallocation per moved mapper).
    pub(super) fn extend_from(&mut self, extra: &[(DomId, u64)]) {
        match self {
            RefList::Inline { len, slots } => {
                let n = *len as usize;
                if n + extra.len() <= RMAP_INLINE {
                    for (i, &e) in extra.iter().enumerate() {
                        slots[n + i] = e;
                    }
                    *len += extra.len() as u8;
                } else {
                    let mut v = Vec::with_capacity(n + extra.len());
                    v.extend_from_slice(&slots[..n]);
                    v.extend_from_slice(extra);
                    *self = RefList::Heap(v);
                }
            }
            RefList::Heap(v) => v.extend_from_slice(extra),
        }
    }

    /// Removes the first occurrence of `(dom, pfn)`, preserving the
    /// order of the remaining entries (deterministic).
    pub(super) fn remove(&mut self, dom: DomId, pfn: u64) -> bool {
        match self {
            RefList::Inline { len, slots } => {
                let n = *len as usize;
                for i in 0..n {
                    if slots[i] == (dom, pfn) {
                        for j in i..n - 1 {
                            slots[j] = slots[j + 1];
                        }
                        *len -= 1;
                        return true;
                    }
                }
                false
            }
            RefList::Heap(v) => {
                if let Some(i) = v.iter().position(|&e| e == (dom, pfn)) {
                    v.remove(i);
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// Two-level bitmap: one bit per index plus a selector layer with one
/// bit per nonzero word — the event-channel `PendingBitmap`
/// construction. It is the memory manager's one change-set type: it
/// backs the per-consumer dirty-PFN logs and the frame table's vacant
/// and stale-hash slot sets. Draining a set walks only the words the
/// selectors say are live, and finding the lowest member skips 4,096
/// indices per selector word.
///
/// Guest PFNs and frame-table slots are dense and counted from zero, so
/// the word vector stays proportional to the highest index ever set;
/// clearing via [`Bitmap::drain_set_bits`] keeps the allocation for the
/// consumer's next drain.
#[derive(Debug, Clone, Default)]
pub(super) struct Bitmap {
    /// Level 2: bit `i % 64` of `words[i / 64]` ⇔ index `i` is set.
    words: Vec<u64>,
    /// Level 1: bit `w % 64` of `selectors[w / 64]` ⇔ `words[w] != 0`.
    selectors: Vec<u64>,
}

impl Bitmap {
    /// An empty bitmap with room for indices below `n` without growing.
    pub(super) fn with_capacity(n: usize) -> Self {
        Bitmap {
            words: Vec::with_capacity(n / 64 + 1),
            selectors: Vec::with_capacity(n / 4096 + 1),
        }
    }

    /// Sets the bit for `i`.
    pub(super) fn set(&mut self, i: u64) {
        let w = (i / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
            self.selectors.resize(w / 64 + 1, 0);
        }
        self.words[w] |= 1u64 << (i % 64);
        self.selectors[w / 64] |= 1u64 << (w % 64);
    }

    /// Whether the bit for `i` is set.
    #[inline]
    pub(super) fn contains(&self, i: u64) -> bool {
        self.words
            .get((i / 64) as usize)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Clears the bit for `i`.
    pub(super) fn clear(&mut self, i: u64) {
        let w = (i / 64) as usize;
        let Some(word) = self.words.get_mut(w) else {
            return;
        };
        *word &= !(1u64 << (i % 64));
        if *word == 0 {
            self.selectors[w / 64] &= !(1u64 << (w % 64));
        }
    }

    /// Number of set bits.
    pub(super) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears every set bit in ascending order, invoking `f` per index.
    /// O(set words), not O(address space).
    pub(super) fn drain_set_bits(&mut self, mut f: impl FnMut(u64)) {
        for s in 0..self.selectors.len() {
            while self.selectors[s] != 0 {
                let w = s * 64 + self.selectors[s].trailing_zeros() as usize;
                let mut word = self.words[w];
                while word != 0 {
                    let b = word.trailing_zeros();
                    f(w as u64 * 64 + b as u64);
                    word &= word - 1;
                }
                self.words[w] = 0;
                self.selectors[s] &= self.selectors[s] - 1;
            }
        }
    }

    /// Clears and returns the lowest set bit, if any.
    pub(super) fn take_lowest(&mut self) -> Option<u64> {
        let s = self.selectors.iter().position(|&sel| sel != 0)?;
        let w = s * 64 + self.selectors[s].trailing_zeros() as usize;
        let word = &mut self.words[w];
        let b = word.trailing_zeros();
        *word &= *word - 1;
        if *word == 0 {
            self.selectors[s] &= !(1u64 << (w % 64));
        }
        Some(w as u64 * 64 + u64::from(b))
    }
}

/// Per-frame metadata.
#[derive(Debug, Clone)]
pub(super) struct FrameInfo {
    pub(super) owner: DomId,
    /// Number of active grant and foreign mappings of this frame: a
    /// mapped frame is never freed, deduplicated or transferred.
    pub(super) mappings: u32,
    /// The frame's generation: how many times its slot was freed before
    /// this allocation.
    pub(super) gen: u32,
    /// Logical contents (at most one page; empty means zero-filled).
    pub(super) data: PageRef,
    /// FNV-1a hash of `data` — valid only while the frame is out of the
    /// frame table's stale set.
    pub(super) hash: u64,
    /// Reverse index: the `(dom, pfn)` p2m entries referencing this
    /// frame. Living inside the frame slot, the reverse index costs one
    /// dense-array access wherever the old side-table cost a hash probe
    /// — the difference the snapshot-fork stamp path is built around. A
    /// live frame with no referents is legal: a frame its domain released
    /// while a grant mapping held it, freed by the last unmap.
    pub(super) refs: RefList,
}

/// The dense frame table: per-frame metadata indexed by `mfn - base`,
/// as in Xen's `frame_table` array, so a frame's slot is a single
/// bounds-checked array index — the per-entry cost the batched grant
/// path pays, with no hashing.
///
/// Freed slots are recycled lowest-first: [`FrameTable::alloc`] fills
/// the lowest vacant slot before it grows the table, so the table's
/// length tracks the peak of live frames rather than their history, and
/// frame numbering stays a deterministic function of the op sequence.
/// Each slot has a *generation*, bumped whenever its frame is freed: a
/// holder that recorded `(mfn, generation)` — a grant entry — can tell
/// its frame from a later tenant of the same number. The generation
/// lives in the slot itself, and the vacant set exists only while some
/// slot is vacant, so a table without vacancies holds nothing for
/// either.
///
/// The stale set holds the live slots whose content hash a bulk write
/// deferred (the lazy-hash rehash set). Freeing a slot drops its bit, so
/// a reused slot never inherits one.
#[derive(Debug, Clone, Default)]
pub(super) struct FrameTable {
    /// First valid MFN (the "firmware hole" offset).
    pub(super) base: u64,
    pub(super) slots: Vec<Slot>,
    /// Number of live slots.
    live: usize,
    /// The vacant slots, by index.
    vacant: Bitmap,
    /// The live slots whose hash is stale, by index.
    pub(super) stale: Bitmap,
}

/// One frame-table slot. A vacant slot keeps the generation its next
/// frame will have, in space the live variant's layout leaves spare.
#[derive(Debug, Clone)]
pub(super) enum Slot {
    Live(FrameInfo),
    Vacant { gen: u32 },
}

impl FrameTable {
    pub(super) fn new(base: u64) -> Self {
        FrameTable {
            base,
            ..FrameTable::default()
        }
    }

    #[inline]
    pub(super) fn get(&self, raw: u64) -> Option<&FrameInfo> {
        let i = raw.checked_sub(self.base)? as usize;
        match self.slots.get(i)? {
            Slot::Live(f) => Some(f),
            Slot::Vacant { .. } => None,
        }
    }

    #[inline]
    pub(super) fn get_mut(&mut self, raw: u64) -> Option<&mut FrameInfo> {
        let i = raw.checked_sub(self.base)? as usize;
        match self.slots.get_mut(i)? {
            Slot::Live(f) => Some(f),
            Slot::Vacant { .. } => None,
        }
    }

    /// Stores `f` in the lowest vacant slot, or a new one past the end,
    /// under that slot's generation, and returns its MFN.
    pub(super) fn alloc(&mut self, mut f: FrameInfo) -> u64 {
        self.live += 1;
        let Some(i) = self.vacant.take_lowest() else {
            f.gen = 0;
            self.slots.push(Slot::Live(f));
            return self.base + self.slots.len() as u64 - 1;
        };
        let slot = &mut self.slots[i as usize];
        if let Slot::Vacant { gen } = *slot {
            f.gen = gen;
        }
        *slot = Slot::Live(f);
        if self.live == self.slots.len() {
            // The last vacancy is filled: a table without vacancies holds
            // no free-set memory.
            self.vacant = Bitmap::default();
        }
        self.base + i
    }

    /// Frees the frame at `raw`, making its slot the next candidate for
    /// reuse under the next generation.
    pub(super) fn free(&mut self, raw: u64) -> Option<FrameInfo> {
        let i = raw.checked_sub(self.base)? as usize;
        let gen = self.get(raw)?.gen.wrapping_add(1);
        let Slot::Live(f) = std::mem::replace(&mut self.slots[i], Slot::Vacant { gen }) else {
            return None;
        };
        self.live -= 1;
        self.stale.clear(i as u64);
        if self.vacant.words.capacity() == 0 {
            // One allocation per level covers the whole table.
            self.vacant = Bitmap::with_capacity(self.slots.len());
        }
        self.vacant.set(i as u64);
        Some(f)
    }

    /// The generation of the slot behind `raw`: its live frame's, or the
    /// one its next frame will get.
    pub(super) fn generation(&self, raw: u64) -> u32 {
        let slot = raw
            .checked_sub(self.base)
            .and_then(|i| self.slots.get(i as usize));
        match slot {
            Some(Slot::Live(f)) => f.gen,
            Some(&Slot::Vacant { gen }) => gen,
            None => 0,
        }
    }

    /// Whether the live frame at `raw` has a stale hash.
    #[inline]
    pub(super) fn is_stale(&self, raw: u64) -> bool {
        raw.checked_sub(self.base)
            .is_some_and(|i| self.stale.contains(i))
    }

    /// Marks the frame at `raw` stale (`true`) or its hash valid.
    pub(super) fn set_stale(&mut self, raw: u64, stale: bool) {
        if stale {
            self.stale.set(raw - self.base);
        } else {
            self.stale.clear(raw - self.base);
        }
    }

    pub(super) fn len(&self) -> usize {
        self.live
    }

    /// Live frames in ascending MFN order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (u64, &FrameInfo)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| match s {
                Slot::Live(f) => Some((self.base + i as u64, f)),
                Slot::Vacant { .. } => None,
            })
    }
}

#[cfg(test)]
mod reuse_tests {
    use super::*;
    use crate::error::MemError;
    use crate::memory::{MemoryManager, Mfn, Pfn, PAGE_SIZE};
    use xoar_sim::prop::Runner;

    #[test]
    pub(super) fn a_vacant_slots_generation_costs_no_space() {
        assert_eq!(
            std::mem::size_of::<Slot>(),
            std::mem::size_of::<FrameInfo>()
        );
    }

    pub(super) fn mfns(m: &MemoryManager, dom: DomId) -> Vec<u64> {
        m.p2m_entries(dom).iter().map(|&(_, mfn)| mfn.0).collect()
    }

    /// A bulk body: hashed lazily, so a write leaves the frame stale.
    pub(super) fn bulk(tag: u8) -> Vec<u8> {
        vec![tag; PAGE_SIZE]
    }

    #[test]
    pub(super) fn allocation_takes_the_lowest_free_frame_first() {
        let mut m = MemoryManager::new(64);
        let (a, b, c) = (DomId(1), DomId(2), DomId(3));
        m.populate(a, 4).unwrap();
        m.populate(b, 4).unwrap();
        assert_eq!(mfns(&m, a), [0x1000, 0x1001, 0x1002, 0x1003]);
        assert_eq!(m.release_domain(a), 4);
        assert_eq!(m.frame_table_len(), 8, "freeing never shrinks the table");
        // Reuse fills the hole from its bottom, then grows the table.
        m.populate(c, 2).unwrap();
        assert_eq!(mfns(&m, c), [0x1000, 0x1001]);
        m.populate(c, 3).unwrap();
        assert_eq!(mfns(&m, c), [0x1000, 0x1001, 0x1002, 0x1003, 0x1008]);
        assert_eq!(m.frame_table_len(), 9);
        // A CoW break allocates through the same path.
        m.write(b, Pfn(0), b"shared").unwrap();
        m.write(b, Pfn(1), b"shared").unwrap();
        assert_eq!(m.share_identical(&[]), 1);
        assert_eq!(m.translate(b, Pfn(1)).unwrap(), Mfn(0x1004));
        let broken = m.exclusive_mfn(b, Pfn(1)).unwrap();
        assert_eq!(broken, Mfn(0x1005), "the merged-away frame comes back");
        m.check_consistency().unwrap();
    }

    #[test]
    pub(super) fn generations_count_the_frees_of_each_frame() {
        let mut m = MemoryManager::new(16);
        let (a, b) = (DomId(1), DomId(2));
        m.populate(a, 2).unwrap();
        let first = m.translate(a, Pfn(0)).unwrap();
        assert_eq!(m.generation(first), 0);
        assert_eq!(m.check_generation(first, 0), Ok(()));
        m.release_domain(a);
        assert_eq!(m.generation(first), 1);
        assert_eq!(m.check_generation(first, 0), Err(MemError::BadMfn(first.0)));
        m.populate(b, 1).unwrap();
        assert_eq!(m.translate(b, Pfn(0)).unwrap(), first);
        assert_eq!(m.check_generation(first, 1), Ok(()));
        assert_eq!(
            m.inc_grant_mapping(first, 0),
            Err(MemError::BadMfn(first.0)),
            "a mapping recorded against the old life cannot pin the new one"
        );
        assert_eq!(m.mapping_count(first).unwrap(), 0);
    }

    /// One scripted op against a manager: populate, bulk write, dedup,
    /// release, or clone-and-write, each from the same draw.
    pub(super) fn apply(m: &mut MemoryManager, op: (u8, u32, u64)) {
        let (kind, d, n) = op;
        let dom = DomId(d);
        match kind {
            0 => {
                let _ = m.populate(dom, n % 8 + 1);
            }
            1 => {
                let _ = m.write(dom, Pfn(n % 8), &bulk((n % 3) as u8 + 1));
            }
            2 => {
                m.share_identical(&[]);
            }
            3 => {
                m.release_domain(dom);
            }
            _ => {
                let clone = DomId(100 + d);
                if m.template_arm(DomId(1)).is_ok() && m.clone_space(DomId(1), clone).is_ok() {
                    let _ = m.write(clone, Pfn(n % 4), &bulk(9));
                }
            }
        }
    }

    #[test]
    pub(super) fn identical_ops_give_identical_frame_numbers() {
        Runner::cases(48).run("frame numbering is deterministic", |g| {
            let ops: Vec<(u8, u32, u64)> = (0..g.usize(1..60))
                .map(|_| (g.u32(0..5) as u8, g.u32(2..6), g.u64(0..64)))
                .collect();
            let (mut x, mut y) = (MemoryManager::new(96), MemoryManager::new(96));
            for &op in &ops {
                apply(&mut x, op);
                apply(&mut y, op);
            }
            for d in (1..6).chain(102..106).map(DomId) {
                assert_eq!(mfns(&x, d), mfns(&y, d), "{d} diverged");
            }
            for raw in 0x1000..0x1000 + x.frame_table_len() as u64 {
                assert_eq!(x.generation(Mfn(raw)), y.generation(Mfn(raw)));
            }
            // Reuse keeps the free count and the table honest.
            let live = x.frames.len() as u64;
            assert_eq!(x.free_frames(), x.total_frames() - live);
            assert!(x.frame_table_len() as u64 <= x.total_frames());
            x.check_consistency().unwrap();
        });
    }

    #[test]
    pub(super) fn free_frames_accounting_holds_across_free_and_reuse() {
        let mut m = MemoryManager::new(32);
        let (a, b) = (DomId(1), DomId(2));
        m.populate(a, 20).unwrap();
        assert_eq!(m.free_frames(), 12);
        assert_eq!(m.release_domain(a), 20);
        assert_eq!(m.free_frames(), 32);
        // Every frame is reusable: the whole host fits again, with no
        // table growth.
        m.populate(b, 32).unwrap();
        assert_eq!(m.free_frames(), 0);
        assert_eq!(m.frame_table_len(), 32);
        assert!(m.populate(b, 1).is_err());
        assert_eq!(m.release_domain(b), 32);
        assert_eq!(m.free_frames(), 32);
        m.check_consistency().unwrap();
    }

    #[test]
    pub(super) fn pending_rehash_counts_a_reused_stale_frame_once() {
        let mut m = MemoryManager::new(8);
        let (a, b) = (DomId(1), DomId(2));
        m.populate(a, 1).unwrap();
        m.write(a, Pfn(0), &bulk(1)).unwrap();
        assert_eq!(m.pending_rehash(), 1);
        // Freed while stale: the free drops the slot's bit.
        m.release_domain(a);
        assert_eq!(m.pending_rehash(), 0);
        m.populate(b, 1).unwrap();
        assert_eq!(m.pending_rehash(), 0, "the reused slot starts fresh");
        m.check_consistency().unwrap();
        m.write(b, Pfn(0), &bulk(2)).unwrap();
        assert_eq!(m.pending_rehash(), 1);
        m.check_consistency().unwrap();
        assert_eq!(m.materialize_hashes(), 1);
        assert_eq!(m.pending_rehash(), 0);
        m.check_consistency().unwrap();
    }
}
