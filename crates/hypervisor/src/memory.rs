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
//! # Data-path structures
//!
//! Three structures keep the hot paths (density dedup, CoW breaking,
//! snapshot rollback) proportional to the entries they touch rather than
//! to total machine memory:
//!
//! 1. **Shared page bodies.** [`FrameInfo::data`] is an `Rc<[u8]>`
//!    handle ([`PageRef`]); `read`/`read_mfn` return clones of the
//!    handle and a CoW break copies a pointer, not a page.
//! 2. **Reverse index.** Each frame carries its small list of `(dom,
//!    pfn)` mappers inline ([`FrameInfo::refs`]), maintained
//!    incrementally by every translation-mutating operation (populate,
//!    CoW break, transfer, dedup, release) — so remapping a
//!    deduplicated frame touches only its actual mappers, and reaching
//!    a frame's mappers is the same dense-array access that reaches the
//!    frame itself (no side hash table; the snapshot-fork stamp path
//!    allocates frames at full batch speed).
//! 3. **Lazy content hashing (dirty-epoch).** Every non-empty frame
//!    body carries an FNV-1a hash indexed `hash -> mfns`, but the hash
//!    is *not* recomputed on the write path: a write stores the body,
//!    marks the hash stale, and pushes the frame onto a rehash queue.
//!    [`MemoryManager::materialize_hashes`] drains the queue in one
//!    ascending-MFN sweep at the points that consume hashes — dedup
//!    ([`MemoryManager::share_identical`], dedup-on-write), template
//!    seal, snapshot freeze, and [`MemoryManager::verify_integrity`] —
//!    bumping a generation counter per pass. Tiny bodies (≤
//!    [`INLINE_HASH_MAX`] bytes: ring slots, control records) hash
//!    inline, where deferral would cost more than the hash; the
//!    canonical zero page ([`PageRef::zero_page`]) and the empty page
//!    carry precomputed constant hashes ([`ZERO_PAGE_HASH`],
//!    [`EMPTY_HASH`]), so the dominant page bodies at density scale are
//!    never hashed at all. `share_identical` confirms hash groups with
//!    byte equality over a sharded sweep of the dense frame table.
//! 4. **Per-consumer dirty bitmaps + frozen baselines.** Each open
//!    dirty-page consumer of a domain — its snapshot
//!    ([`MemoryManager::freeze`]) or a log-dirty cursor of migration or
//!    HA ([`MemoryManager::shadow_op`]) — owns an exact two-level
//!    PFN bitmap (the event-channel `PendingBitmap` construction). A
//!    change to a page body sets its bit in every open bitmap of every
//!    mapper; draining one bitmap leaves the others alone; a remap that
//!    keeps the bytes (dedup, CoW break) marks nothing; and a domain with
//!    no open consumer does no dirty bookkeeping. Freezing copies nothing:
//!    the first post-freeze mutation of a page records its pre-image
//!    handle in the domain's [`FrozenImage`], and
//!    [`MemoryManager::rollback_frozen`] restores the snapshot bitmap's
//!    pages.
//!
//! The first three are redundant views of the p2m + frame tables; they
//! carry no independent state, so determinism is unaffected (the canonical
//! frame of a dedup group is still the lowest MFN, and all per-group
//! merges commute). [`MemoryManager::check_consistency`] recomputes the
//! shadow model from scratch and is exercised by the interleaving
//! property tests.
//!
//! # Frame reuse
//!
//! A freed MFN is reused: every allocation (populate, CoW break, clone
//! ring stamp) takes the lowest vacant frame-table slot before growing
//! the table, so memory and per-op cost follow the live frames, not the
//! platform's history, and numbering stays deterministic. A slot's
//! generation ([`MemoryManager::generation`]) is bumped on every free;
//! anything that holds an MFN across hypercalls — a grant entry —
//! records the generation beside it and is refused with
//! [`MemError::BadMfn`] once the two disagree, exactly as a freed frame
//! was refused before reuse existed. Frames still mapped (grant or
//! foreign) are never freed, and the dedup sweep leaves granted frames
//! alone.

use std::collections::HashMap;

use crate::fasthash::FastMap;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use crate::domain::DomId;
use crate::error::{HvResult, MemError};
use crate::hypercall::{HypercallRet, ShadowOp};

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

/// 64-bit FNV-1a content hash of a page body (in-tree, no dependencies).
///
/// `const` so the hashes of the two canonical bodies ([`EMPTY_HASH`],
/// [`ZERO_PAGE_HASH`]) are compile-time constants — a zero-fill write
/// never runs this loop at all.
pub const fn content_hash(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut i = 0;
    while i < data.len() {
        h ^= data[i] as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    h
}

/// Content hash of the empty (never-written, logically zero) page body.
pub const EMPTY_HASH: u64 = content_hash(&[]);

/// Content hash of the canonical all-zero page ([`PageRef::zero_page`]).
pub const ZERO_PAGE_HASH: u64 = content_hash(&[0u8; PAGE_SIZE]);

/// Bodies at most this long are hashed inline on the write path (ring
/// slots, blk sectors, control records): the FNV loop over a few dozen
/// bytes is cheaper than a rehash-queue round trip, and keeping tiny
/// control writes out of the queue keeps the materialization sweep
/// proportional to bulk data written.
pub const INLINE_HASH_MAX: usize = 64;

/// Shard count (power of two) for the dedup sweep: candidate
/// Cap on dedup shard-count bits. The sweep partitions `(hash, mfn)`
/// pairs by their top hash bits via a counting-sort pass, sizing the
/// shard count to roughly one-eighth of the candidate count (up to
/// `2^DEDUP_SHARD_BITS`), so each per-shard sort touches a handful of
/// candidates even at 50k-frame fleet scale while a small fleet pays
/// for only a small counting table. The result is deterministic
/// because the shards partition the hash space (a hash group never
/// straddles shards).
const DEDUP_SHARD_BITS: u32 = 16;

/// Whether `data` is entirely zero bytes (u64-chunked, early-exit — a
/// body with any early non-zero byte bails in the first few chunks).
fn is_all_zero(data: &[u8]) -> bool {
    let (chunks, tail) = data.as_chunks::<8>();
    chunks.iter().all(|c| u64::from_ne_bytes(*c) == 0) && tail.iter().all(|&b| b == 0)
}

/// A cheap, shared handle to an immutable page body.
///
/// Reading a page returns a `PageRef` instead of a copied `Vec<u8>`:
/// cloning the handle bumps a reference count. The handle dereferences
/// to `[u8]` and compares equal to byte slices, arrays, and `Vec<u8>`,
/// so existing callers keep working unchanged.
#[derive(Clone, Eq)]
pub struct PageRef(Rc<[u8]>);

impl PageRef {
    /// Wraps a byte slice into a shared page body (one copy, here only).
    pub fn new(data: &[u8]) -> Self {
        PageRef(Rc::from(data))
    }

    /// The empty (zero-filled, never written) page.
    ///
    /// Hands out clones of one per-thread allocation: populate and the
    /// clone-stamp path mint empty pages in bulk, and a refcount bump
    /// beats a fresh `Rc` each time. Empty pages are never deduplicated
    /// or compared by identity, so the sharing is unobservable.
    pub fn empty() -> Self {
        thread_local! {
            static EMPTY: PageRef = PageRef(Rc::from(&[][..]));
        }
        EMPTY.with(|p| p.clone())
    }

    /// The canonical all-zero page: 4 KiB of zero bytes behind one
    /// per-thread allocation, carrying the precomputed
    /// [`ZERO_PAGE_HASH`].
    ///
    /// Zero-filled frames are the dominant page body at density scale
    /// (guests zero pages long before they fill them), so a zero-fill
    /// write costs a refcount bump instead of a 4 KiB hash + copy. The
    /// canonical page is byte-equal to any freshly-built zero body, so
    /// the interning is unobservable to readers and dedup.
    pub fn zero_page() -> Self {
        thread_local! {
            static ZERO: PageRef = PageRef(Rc::from(&[0u8; PAGE_SIZE][..]));
        }
        ZERO.with(|p| p.clone())
    }

    /// Whether this handle is the canonical zero page (identity, not a
    /// byte scan).
    pub fn is_canonical_zero(&self) -> bool {
        PageRef::ptr_eq(self, &PageRef::zero_page())
    }

    /// Borrows the page bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Copies the page bytes out (compatibility shim for callers that
    /// genuinely need an owned `Vec<u8>`).
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }

    /// Whether two handles share the same underlying allocation.
    pub fn ptr_eq(a: &PageRef, b: &PageRef) -> bool {
        Rc::ptr_eq(&a.0, &b.0)
    }
}

impl Default for PageRef {
    fn default() -> Self {
        PageRef::empty()
    }
}

impl Deref for PageRef {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for PageRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl PartialEq for PageRef {
    fn eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl std::hash::Hash for PageRef {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state)
    }
}

impl PartialEq<[u8]> for PageRef {
    fn eq(&self, other: &[u8]) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&[u8]> for PageRef {
    fn eq(&self, other: &&[u8]) -> bool {
        &*self.0 == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for PageRef {
    fn eq(&self, other: &[u8; N]) -> bool {
        &*self.0 == &other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for PageRef {
    fn eq(&self, other: &&[u8; N]) -> bool {
        &*self.0 == &other[..]
    }
}

impl PartialEq<Vec<u8>> for PageRef {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &*self.0 == other.as_slice()
    }
}

impl PartialEq<PageRef> for Vec<u8> {
    fn eq(&self, other: &PageRef) -> bool {
        self.as_slice() == &*other.0
    }
}

impl From<&[u8]> for PageRef {
    fn from(data: &[u8]) -> Self {
        PageRef::new(data)
    }
}

impl From<Vec<u8>> for PageRef {
    fn from(data: Vec<u8>) -> Self {
        PageRef(Rc::from(data.into_boxed_slice()))
    }
}

/// How many reverse-index entries are stored inline before spilling to
/// the heap. Almost every frame is mapped exactly once; deduplicated
/// kernel pages are the exception.
const RMAP_INLINE: usize = 2;

/// A tiny inline-first vector of `(dom, pfn)` mappers (a hand-rolled
/// smallvec: no external crates).
#[derive(Debug, Clone)]
enum RefList {
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
    fn one(dom: DomId, pfn: u64) -> Self {
        let mut l = RefList::default();
        l.push(dom, pfn);
        l
    }

    fn len(&self) -> usize {
        match self {
            RefList::Inline { len, .. } => *len as usize,
            RefList::Heap(v) => v.len(),
        }
    }

    fn as_slice(&self) -> &[(DomId, u64)] {
        match self {
            RefList::Inline { len, slots } => &slots[..*len as usize],
            RefList::Heap(v) => v,
        }
    }

    fn push(&mut self, dom: DomId, pfn: u64) {
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
    fn extend_from(&mut self, extra: &[(DomId, u64)]) {
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
    fn remove(&mut self, dom: DomId, pfn: u64) -> bool {
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
/// construction. It backs both the per-consumer dirty-PFN logs and the
/// frame table's vacant-slot set: draining the set walks only the words
/// the selectors say are live, and finding the lowest member skips 4,096
/// indices per selector word.
///
/// Guest PFNs and frame-table slots are dense and counted from zero, so
/// the word vector stays proportional to the highest index ever set;
/// clearing via [`Bitmap::drain_set_bits`] keeps the allocation for the
/// consumer's next drain.
#[derive(Debug, Clone, Default)]
struct Bitmap {
    /// Level 2: bit `i % 64` of `words[i / 64]` ⇔ index `i` is set.
    words: Vec<u64>,
    /// Level 1: bit `w % 64` of `selectors[w / 64]` ⇔ `words[w] != 0`.
    selectors: Vec<u64>,
}

impl Bitmap {
    /// An empty bitmap with room for indices below `n` without growing.
    fn with_capacity(n: usize) -> Self {
        Bitmap {
            words: Vec::with_capacity(n / 64 + 1),
            selectors: Vec::with_capacity(n / 4096 + 1),
        }
    }

    /// Sets the bit for `i`.
    fn set(&mut self, i: u64) {
        let w = (i / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
            self.selectors.resize(w / 64 + 1, 0);
        }
        self.words[w] |= 1u64 << (i % 64);
        self.selectors[w / 64] |= 1u64 << (w % 64);
    }

    /// Clears every set bit in ascending order, invoking `f` per index.
    /// O(set words), not O(address space).
    fn drain_set_bits(&mut self, mut f: impl FnMut(u64)) {
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
    fn take_lowest(&mut self) -> Option<u64> {
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

/// The lazily-captured snapshot baseline of a frozen domain.
///
/// [`MemoryManager::freeze`] records only the address-space watermark;
/// page pre-images are captured copy-on-write by the first mutation that
/// would change the domain's view of a page ([`MemoryManager`] capture
/// choke points: frame-body replacement, write-time dedup remap, bulk
/// dedup merge). A captured entry is an `Rc`
/// handle clone — freezing and capturing never copy page bytes.
#[derive(Debug, Clone, Default)]
struct FrozenImage {
    /// `pfn -> page body at freeze time`, first-touch captured.
    baseline: FastMap<u64, PageRef>,
    /// `next_pfn` at freeze time. PFNs are allocated monotonically and
    /// never reused, so `pfn < watermark` ⇔ the PFN existed at freeze;
    /// younger PFNs roll back to the empty page, exactly as the eager
    /// image (which never contained them) restored.
    watermark: u64,
    /// Pages mapped at freeze time (the eager image's `page_count()`).
    page_count: u64,
}

/// The id of a frozen domain's own dirty log (the PFNs its rollback
/// restores); log-dirty cursors never get it.
const SNAPSHOT_LOG: u64 = 0;

/// Per-frame metadata.
#[derive(Debug, Clone)]
struct FrameInfo {
    owner: DomId,
    /// Number of active grant and foreign mappings of this frame: a
    /// mapped frame is never freed, deduplicated or transferred.
    mappings: u32,
    /// The frame's generation: how many times its slot was freed before
    /// this allocation.
    gen: u32,
    /// Logical contents (at most one page; empty means zero-filled).
    data: PageRef,
    /// FNV-1a hash of `data` — valid only while `hash_ok` is set.
    hash: u64,
    /// Whether `hash` matches `data` (the dirty-epoch lazy-hash flag).
    /// A bulk write clears this and queues the frame for the next
    /// materialization sweep instead of hashing inline; a stale frame
    /// is never present in the content-hash index.
    hash_ok: bool,
    /// Reverse index: the `(dom, pfn)` p2m entries referencing this
    /// frame. Living inside the frame slot, the reverse index costs one
    /// dense-array access wherever the old side-table cost a hash probe
    /// — the difference the snapshot-fork stamp path is built around. A
    /// live frame with no referents is legal (grant-pinned frames leaked
    /// by a dying domain).
    refs: RefList,
}

/// Hole marker in [`P2m::dense`] (never a real MFN — frame numbers are
/// frame-table indices offset by a small base, and the model never
/// approaches `u64::MAX`).
const NO_MFN: u64 = u64::MAX;

/// Per-domain pseudo-physical address space: `Pfn -> Mfn`.
///
/// Mappings live in a dense PFN-indexed window plus a spill map for
/// PFNs beyond it. `populate` and `migrate` hand out PFNs contiguously
/// from zero, so an ordinary guest's whole address space is the dense
/// window and a translate is one bounds-checked array load — which is
/// also what makes the fleet-scale dedup sweep's p2m rewrites array
/// stores instead of hash-map probes. A fresh clone starts with an
/// *empty* window and a high `next_pfn` watermark, so its scattered
/// privatised PFNs land in the spill map (exactly the sparse shape a
/// dense window would waste memory on). The window grows only by
/// appending one slot at a time — never by jumping to a far PFN — so a
/// single outlying mapping can never stretch it thin.
#[derive(Debug, Clone, Default)]
struct P2m {
    /// Dense window: slot `p` holds the mapping for PFN `p`, or
    /// [`NO_MFN`] for a hole.
    dense: Vec<u64>,
    /// Mappings whose PFN lies at or beyond the window's end.
    spill: FastMap<u64, Mfn>,
    /// Live mapping count across both stores.
    len: usize,
    next_pfn: u64,
}

impl P2m {
    /// Number of live mappings.
    fn len(&self) -> usize {
        self.len
    }

    /// Looks up the mapping for `pfn`.
    fn get(&self, pfn: u64) -> Option<Mfn> {
        match self.dense.get(pfn as usize) {
            Some(&m) if m != NO_MFN => Some(Mfn(m)),
            Some(_) => None,
            None => self.spill.get(&pfn).copied(),
        }
    }

    /// Whether `pfn` is mapped.
    fn contains(&self, pfn: u64) -> bool {
        self.get(pfn).is_some()
    }

    /// Inserts or replaces the mapping for `pfn`.
    fn insert(&mut self, pfn: u64, mfn: Mfn) {
        let i = pfn as usize;
        if i < self.dense.len() {
            if self.dense[i] == NO_MFN {
                self.len += 1;
            }
            self.dense[i] = mfn.0;
        } else if i == self.dense.len() {
            // Append growth. The PFN may have spilled before the window
            // reached it; migrating it here keeps the invariant that
            // spill keys lie beyond the window's end.
            if self.spill.is_empty() || self.spill.remove(&pfn).is_none() {
                self.len += 1;
            }
            self.dense.push(mfn.0);
        } else if self.spill.insert(pfn, mfn).is_none() {
            self.len += 1;
        }
    }

    /// Removes and returns the mapping for `pfn`.
    fn remove(&mut self, pfn: u64) -> Option<Mfn> {
        match self.dense.get_mut(pfn as usize) {
            Some(m) if *m != NO_MFN => {
                self.len -= 1;
                Some(Mfn(std::mem::replace(m, NO_MFN)))
            }
            Some(_) => None,
            None => {
                let out = self.spill.remove(&pfn);
                if out.is_some() {
                    self.len -= 1;
                }
                out
            }
        }
    }

    /// Iterates over all mappings: the dense window in PFN order, then
    /// the spill entries in map order.
    fn entries(&self) -> impl Iterator<Item = (u64, Mfn)> + '_ {
        self.dense
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m != NO_MFN)
            .map(|(p, &m)| (p as u64, Mfn(m)))
            .chain(self.spill.iter().map(|(&p, &m)| (p, m)))
    }

    /// Consumes the space, yielding all mappings.
    fn into_entries(self) -> impl Iterator<Item = (u64, Mfn)> {
        self.dense
            .into_iter()
            .enumerate()
            .filter(|&(_, m)| m != NO_MFN)
            .map(|(p, m)| (p as u64, Mfn(m)))
            .chain(self.spill)
    }
}

/// Bookkeeping for a sealed clone template (snapshot-fork creation).
///
/// A template is a frozen, write-protected domain whose frames back any
/// number of clones. Clones hold an *empty* p2m that falls through to
/// the template's on translation misses, so stamping a clone allocates
/// no frames and touches no rmap entries; a clone's first write to a
/// page breaks the aliasing exactly like a CoW break.
#[derive(Debug, Clone)]
struct TemplateInfo {
    /// Live clones currently backed by this template.
    clones: u64,
    /// Pages in the template's p2m at seal time.
    page_count: u64,
    /// `next_pfn` at seal time; clones allocate their own PFNs above it
    /// so an own-map entry below the watermark is always a CoW break.
    watermark: u64,
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
#[derive(Debug, Clone, Default)]
struct FrameTable {
    /// First valid MFN (the "firmware hole" offset).
    base: u64,
    slots: Vec<Slot>,
    /// Number of live slots.
    live: usize,
    /// The vacant slots, by index.
    vacant: Bitmap,
}

/// One frame-table slot. A vacant slot keeps the generation its next
/// frame will have, in space the live variant's layout leaves spare.
#[derive(Debug, Clone)]
enum Slot {
    Live(FrameInfo),
    Vacant { gen: u32 },
}

impl FrameTable {
    fn new(base: u64) -> Self {
        FrameTable {
            base,
            ..FrameTable::default()
        }
    }

    #[inline]
    fn get(&self, raw: u64) -> Option<&FrameInfo> {
        let i = raw.checked_sub(self.base)? as usize;
        match self.slots.get(i)? {
            Slot::Live(f) => Some(f),
            Slot::Vacant { .. } => None,
        }
    }

    #[inline]
    fn get_mut(&mut self, raw: u64) -> Option<&mut FrameInfo> {
        let i = raw.checked_sub(self.base)? as usize;
        match self.slots.get_mut(i)? {
            Slot::Live(f) => Some(f),
            Slot::Vacant { .. } => None,
        }
    }

    /// Stores `f` in the lowest vacant slot, or a new one past the end,
    /// under that slot's generation, and returns its MFN.
    fn alloc(&mut self, mut f: FrameInfo) -> u64 {
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
    fn free(&mut self, raw: u64) -> Option<FrameInfo> {
        let i = raw.checked_sub(self.base)? as usize;
        let slot = self.slots.get_mut(i)?;
        let Slot::Live(f) = slot else {
            return None;
        };
        let gen = f.gen.wrapping_add(1);
        let Slot::Live(f) = std::mem::replace(slot, Slot::Vacant { gen }) else {
            return None;
        };
        self.live -= 1;
        if self.vacant.words.capacity() == 0 {
            // One allocation per level covers the whole table.
            self.vacant = Bitmap::with_capacity(self.slots.len());
        }
        self.vacant.set(i as u64);
        Some(f)
    }

    /// The generation of the slot behind `raw`: its live frame's, or the
    /// one its next frame will get.
    fn generation(&self, raw: u64) -> u32 {
        let slot = raw
            .checked_sub(self.base)
            .and_then(|i| self.slots.get(i as usize));
        match slot {
            Some(Slot::Live(f)) => f.gen,
            Some(&Slot::Vacant { gen }) => gen,
            None => 0,
        }
    }

    #[inline]
    fn contains(&self, raw: u64) -> bool {
        self.get(raw).is_some()
    }

    fn len(&self) -> usize {
        self.live
    }

    /// Live frames in ascending MFN order.
    fn iter(&self) -> impl Iterator<Item = (u64, &FrameInfo)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| match s {
                Slot::Live(f) => Some((self.base + i as u64, f)),
                Slot::Vacant { .. } => None,
            })
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
    /// Content-hash index over non-empty frames: `hash -> mfns`.
    by_hash: FastMap<u64, Vec<u64>>,
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
    /// Opt-in incremental dedup: merge at write time (density mode).
    dedup_on_write: bool,
    /// Cumulative frames freed by the incremental dedup path.
    dedup_write_freed: u64,
    /// Rehash queue: MFNs whose hash went stale (pushed only on the
    /// valid→stale transition, so one entry covers any number of
    /// writes). An entry may outlive its frame: the drain skips MFNs
    /// that are vacant or already valid, and a reused MFN that went
    /// stale again may sit in the queue twice — the second entry finds
    /// it valid.
    stale_hashes: Vec<u64>,
    /// Dirty-epoch generation counter: bumped per materialization pass.
    rehash_epoch: u64,
    /// Cumulative frames rehashed by materialization passes.
    rehashed_frames: u64,
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
            by_hash: FastMap::default(),
            dirty: FastMap::default(),
            next_log: 0,
            frozen: FastMap::default(),
            templates: FastMap::default(),
            clone_of: FastMap::default(),
            dedup_on_write: false,
            dedup_write_freed: 0,
            stale_hashes: Vec::new(),
            rehash_epoch: 0,
            rehashed_frames: 0,
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

    /// Enables or disables incremental dedup-on-write (density mode).
    ///
    /// When enabled, a write whose contents already exist in another
    /// unpinned frame remaps the written PFN onto that frame instead of
    /// storing a duplicate — the page is recorded clean, exactly as if
    /// [`MemoryManager::share_identical`] had run immediately after the
    /// write. Intended for density-style workloads; snapshot-heavy
    /// domains should keep the default CoW write path.
    pub fn set_dedup_on_write(&mut self, on: bool) {
        self.dedup_on_write = on;
    }

    /// Whether incremental dedup-on-write is enabled.
    pub fn dedup_on_write(&self) -> bool {
        self.dedup_on_write
    }

    /// Cumulative number of duplicate frames reclaimed by the
    /// incremental dedup-on-write path.
    pub fn dedup_write_freed(&self) -> u64 {
        self.dedup_write_freed
    }

    /// Number of live frames whose hash is stale — the pending
    /// lazy-hash work, each frame counted once however many queue
    /// entries its MFN has. Zero after every materialization point
    /// (dedup, template seal, snapshot freeze, [`Self::verify_integrity`]).
    pub fn pending_rehash(&self) -> usize {
        self.frames.iter().filter(|(_, f)| !f.hash_ok).count()
    }

    /// Dirty-epoch generation counter: bumped once per materialization
    /// pass that found pending work.
    pub fn hash_epoch(&self) -> u64 {
        self.rehash_epoch
    }

    /// Cumulative number of frames rehashed by materialization passes.
    pub fn rehashed_frames(&self) -> u64 {
        self.rehashed_frames
    }

    /// Drains the rehash queue in one ascending-MFN sweep: every frame
    /// whose hash a write deferred is rehashed and re-indexed, and the
    /// dirty epoch advances. Returns the number of frames rehashed.
    /// O(1) when nothing is pending — the common case at every
    /// snapshot-freeze call site.
    pub fn materialize_hashes(&mut self) -> u64 {
        if self.stale_hashes.is_empty() {
            return 0;
        }
        let mut queue = std::mem::take(&mut self.stale_hashes);
        queue.sort_unstable();
        let mut rehashed = 0u64;
        for raw in queue.drain(..) {
            // Skip dead entries: vacant MFNs, and frames revalidated by
            // a later known-hash write or an earlier entry. An entry from
            // a freed frame's previous life that meets a stale reuse
            // rehashes the reuse, which is the frame that needs it.
            let (h, nonempty) = match self.frames.get_mut(raw) {
                Some(f) if !f.hash_ok => {
                    let h = content_hash(&f.data);
                    f.hash = h;
                    f.hash_ok = true;
                    (h, !f.data.is_empty())
                }
                _ => continue,
            };
            if nonempty {
                self.hash_index_add(h, raw);
            }
            rehashed += 1;
        }
        self.stale_hashes = queue; // keep the allocation for the next epoch
        self.rehash_epoch += 1;
        self.rehashed_frames += rehashed;
        rehashed
    }

    /// Materializes every pending hash, then folds a deterministic
    /// fleet-wide digest over `(mfn, hash)` in ascending MFN order: two
    /// managers holding the same logical memory produce the same digest
    /// regardless of when their hashes were materialized.
    pub fn verify_integrity(&mut self) -> u64 {
        self.materialize_hashes();
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for (raw, f) in self.frames.iter() {
            digest ^= raw.rotate_left(17) ^ f.hash;
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
        digest
    }

    /// Classifies a write body for the lazy-hash path: canonical bodies
    /// (empty, all-zero page) intern their shared allocation and
    /// constant hash, tiny bodies hash inline, and bulk bodies defer
    /// (`None`) to the next materialization sweep.
    fn classify_bytes(data: &[u8]) -> (PageRef, Option<u64>) {
        if data.is_empty() {
            (PageRef::empty(), Some(EMPTY_HASH))
        } else if data.len() <= INLINE_HASH_MAX {
            (PageRef::new(data), Some(content_hash(data)))
        } else if data.len() == PAGE_SIZE && is_all_zero(data) {
            (PageRef::zero_page(), Some(ZERO_PAGE_HASH))
        } else {
            (PageRef::new(data), None)
        }
    }

    /// [`Self::classify_bytes`] for an already-shared page handle
    /// (rollback restore, ring payload delivery): canonical pages are
    /// recognised by identity, so re-delivering a zero page or a
    /// restored pre-image handle never scans bytes.
    fn classify_page(page: &PageRef) -> Option<u64> {
        if page.is_empty() {
            Some(EMPTY_HASH)
        } else if page.len() <= INLINE_HASH_MAX {
            Some(content_hash(page))
        } else if page.is_canonical_zero() {
            Some(ZERO_PAGE_HASH)
        } else {
            None
        }
    }

    fn hash_index_add(&mut self, hash: u64, raw: u64) {
        self.by_hash.entry(hash).or_default().push(raw);
    }

    fn hash_index_remove(&mut self, hash: u64, raw: u64) {
        if let Some(v) = self.by_hash.get_mut(&hash) {
            if let Some(i) = v.iter().position(|&m| m == raw) {
                v.swap_remove(i);
            }
            if v.is_empty() {
                self.by_hash.remove(&hash);
            }
        }
    }

    fn rmap_remove(&mut self, raw: u64, dom: DomId, pfn: u64) {
        if let Some(f) = self.frames.get_mut(raw) {
            f.refs.remove(dom, pfn);
        }
    }

    fn rmap_len(&self, raw: u64) -> usize {
        self.frames.get(raw).map_or(0, |f| f.refs.len())
    }

    /// Records that (`dom`, `pfn`)'s bytes changed, in every dirty log
    /// open on `dom`.
    fn log_write(&mut self, dom: DomId, pfn: u64) {
        if let Some(logs) = self.dirty.get_mut(&dom) {
            for (_, bits) in logs {
                bits.set(pfn);
            }
        }
    }

    /// [`Self::log_write`] for every mapper of `mfn`, whose body just
    /// changed. Free when no domain has a consumer open.
    fn mark_dirty(&mut self, mfn: Mfn) {
        if self.dirty.is_empty() {
            return;
        }
        // Cloning the RefList is allocation-free in the dominant
        // single-mapper (inline) case.
        let Some(l) = self.frames.get(mfn.0).map(|f| f.refs.clone()) else {
            return;
        };
        for &(d, p) in l.as_slice() {
            self.log_write(d, p);
        }
    }

    /// Records `data` as the frozen pre-image of (`dom`, `pfn`) if the
    /// domain is frozen, the PFN existed at freeze time, and no earlier
    /// mutation captured it already (first touch wins — it holds the
    /// freeze-time contents).
    fn capture_frozen_one(&mut self, dom: DomId, pfn: u64, data: &PageRef) {
        if let Some(img) = self.frozen.get_mut(&dom) {
            if pfn < img.watermark && !img.baseline.contains_key(&pfn) {
                img.baseline.insert(pfn, data.clone());
            }
        }
    }

    /// CoW-captures the current body of `mfn` for every frozen mapper
    /// about to observe a change.
    fn capture_frozen(&mut self, mfn: Mfn) {
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

    /// Replaces a frame's body, keeping the content-hash machinery in
    /// sync via the lazy dirty-epoch discipline.
    fn set_frame_data(&mut self, mfn: Mfn, page: PageRef) -> HvResult<()> {
        let known = Self::classify_page(&page);
        self.set_frame_data_classified(mfn, page, known)
    }

    /// The frame-body store: installs `page`, with `known` carrying its
    /// hash if classification produced one. A deferred (`None`) hash
    /// marks the frame stale and queues it on the valid→stale
    /// transition; a stale frame is dropped from the hash index until
    /// the next materialization sweep revalidates it.
    fn set_frame_data_classified(
        &mut self,
        mfn: Mfn,
        page: PageRef,
        known: Option<u64>,
    ) -> HvResult<()> {
        // Capture before replacement: the frozen pre-image is the body
        // this store is about to overwrite.
        self.capture_frozen(mfn);
        let (old_hash, old_ok, old_nonempty) = {
            let f = self.frames.get(mfn.0).ok_or(MemError::BadMfn(mfn.0))?;
            (f.hash, f.hash_ok, !f.data.is_empty())
        };
        if old_ok && old_nonempty {
            self.hash_index_remove(old_hash, mfn.0);
        }
        let nonempty = !page.is_empty();
        let mut went_stale = false;
        {
            let f = self.frames.get_mut(mfn.0).ok_or(MemError::BadMfn(mfn.0))?;
            f.data = page;
            match known {
                Some(h) => {
                    f.hash = h;
                    f.hash_ok = true;
                }
                None => {
                    // An already-stale frame is already queued; its
                    // earlier entry covers this write too.
                    if f.hash_ok {
                        f.hash_ok = false;
                        went_stale = true;
                    }
                }
            }
        }
        if let Some(h) = known {
            if nonempty {
                self.hash_index_add(h, mfn.0);
            }
        } else if went_stale {
            self.stale_hashes.push(mfn.0);
        }
        Ok(())
    }

    /// A fresh, never-written frame mapped once, at (`dom`, `pfn`).
    fn blank_frame(dom: DomId, pfn: u64) -> FrameInfo {
        FrameInfo {
            owner: dom,
            mappings: 0,
            gen: 0,
            data: PageRef::empty(),
            hash: EMPTY_HASH,
            hash_ok: true,
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
        self.p2m.get(&dom).is_some_and(|m| m.contains(pfn.0))
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
        let mut v: Vec<(DomId, Pfn)> = self
            .frames
            .get(mfn.0)
            .map(|f| {
                f.refs
                    .as_slice()
                    .iter()
                    .map(|&(d, p)| (d, Pfn(p)))
                    .collect()
            })
            .unwrap_or_default();
        v.sort_by_key(|&(d, p)| (d.0, p.0));
        v
    }

    /// Writes `data` into the frame at (`dom`, `pfn`), marking it dirty.
    ///
    /// A write to a deduplicated (shared) frame first breaks the sharing
    /// copy-on-write, so the other domains mapping the frame are never
    /// affected. Writes longer than [`PAGE_SIZE`] are rejected.
    pub fn write(&mut self, dom: DomId, pfn: Pfn, data: &[u8]) -> HvResult<()> {
        self.write_body(dom, pfn, data, || Self::classify_bytes(data))
    }

    /// [`Self::write`] of a shared page body: the frame takes the handle
    /// itself, so shipping a page costs a refcount bump, not a copy.
    pub(crate) fn write_page(&mut self, dom: DomId, pfn: Pfn, page: PageRef) -> HvResult<()> {
        let (bytes, known) = (page.clone(), Self::classify_page(&page));
        self.write_body(dom, pfn, &bytes, move || (page, known))
    }

    /// The write path shared by [`Self::write`] and [`Self::write_page`]:
    /// `body` yields the page to store and its hash, if known.
    fn write_body(
        &mut self,
        dom: DomId,
        pfn: Pfn,
        data: &[u8],
        body: impl FnOnce() -> (PageRef, Option<u64>),
    ) -> HvResult<()> {
        if data.len() > PAGE_SIZE {
            return Err(crate::error::HvError::InvalidArgument(format!(
                "write of {} bytes exceeds page size",
                data.len()
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
        if self.dedup_on_write && !data.is_empty() && self.try_dedup_write(dom, pfn, data)? {
            return Ok(());
        }
        let (page, known) = body();
        let mfn = self.exclusive_mfn(dom, pfn)?;
        self.set_frame_data_classified(mfn, page, known)?;
        self.mark_dirty(mfn);
        Ok(())
    }

    /// Incremental dedup: if `data` already exists in an unpinned frame,
    /// remap (`dom`, `pfn`) onto the lowest such MFN (the same canonical
    /// choice `share_identical` makes) and reclaim the old frame when
    /// this was its last reference. Returns whether the write was
    /// absorbed.
    fn try_dedup_write(&mut self, dom: DomId, pfn: Pfn, data: &[u8]) -> HvResult<bool> {
        // The candidate probe below consults `by_hash`, which indexes
        // only materialized hashes; draining the queue here (usually a
        // no-op in dedup-on-write mode — absorbed writes never go
        // stale) keeps the incremental path byte-for-byte equivalent to
        // eager hashing.
        self.materialize_hashes();
        let cur = self.translate(dom, pfn)?;
        {
            let f = self.frames.get(cur.0).ok_or(MemError::BadMfn(cur.0))?;
            if f.mappings > 0 {
                // Pinned frames keep the plain CoW write path.
                return Ok(false);
            }
        }
        let hash = content_hash(data);
        let mut canon: Option<u64> = None;
        if let Some(mfns) = self.by_hash.get(&hash) {
            for &raw in mfns {
                let Some(f) = self.frames.get(raw) else {
                    continue;
                };
                if f.mappings > 0 {
                    continue;
                }
                if f.data.as_slice() != data {
                    continue; // Hash collision.
                }
                if canon.is_none_or(|c| raw < c) {
                    canon = Some(raw);
                }
            }
        }
        let Some(canon) = canon else {
            return Ok(false);
        };
        if canon == cur.0 {
            // Rewriting identical content to the canonical frame itself.
            return Ok(true);
        }
        // The remap is about to change (dom, pfn)'s view: preserve the
        // frozen pre-image (this path bypasses `set_frame_data`).
        if !self.frozen.is_empty() {
            if let Some(old) = self.frames.get(cur.0).map(|f| f.data.clone()) {
                self.capture_frozen_one(dom, pfn.0, &old);
            }
        }
        // Detach (dom, pfn) from its current frame.
        self.rmap_remove(cur.0, dom, pfn.0);
        if self.rmap_len(cur.0) == 0 {
            if let Some(old) = self.frames.free(cur.0) {
                if old.hash_ok && !old.data.is_empty() {
                    self.hash_index_remove(old.hash, cur.0);
                }
                self.free_count += 1;
                self.dedup_write_freed += 1;
            }
        }
        // Attach to the canonical frame: (dom, pfn) now reads `data`.
        if let Some(m) = self.p2m.get_mut(&dom) {
            m.insert(pfn.0, Mfn(canon));
        }
        if let Some(f) = self.frames.get_mut(canon) {
            f.refs.push(dom, pfn.0);
        }
        self.log_write(dom, pfn.0);
        Ok(true)
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
        let (data, hash, hash_ok) = {
            let f = self.frames.get(mfn.0).ok_or(MemError::BadMfn(mfn.0))?;
            (f.data.clone(), f.hash, f.hash_ok)
        };
        self.free_count -= 1;
        let nonempty = !data.is_empty();
        let new_mfn = Mfn(self.frames.alloc(FrameInfo {
            owner: dom,
            mappings: 0,
            gen: 0,
            data,
            hash,
            hash_ok,
            refs: RefList::one(dom, pfn.0),
        }));
        if hash_ok && nonempty {
            self.hash_index_add(hash, new_mfn.0);
        } else if !hash_ok {
            // The private copy inherits the stale flag; queue it so the
            // next materialization covers the new frame too.
            self.stale_hashes.push(new_mfn.0);
        }
        self.rmap_remove(mfn.0, dom, pfn.0);
        let p2m = self.p2m.get_mut(&dom).ok_or(MemError::BadPfn(pfn.0))?;
        p2m.insert(pfn.0, new_mfn);
        Ok(new_mfn)
    }

    /// Privatises a batch of clone PFNs onto fresh zero frames, without
    /// reading the template's copies of the pages.
    ///
    /// The region stamp uses this for the I/O ring pages it re-grants:
    /// ring contents are re-initialised when the backend connects, so
    /// the stamp need not pay what per-page [`Self::exclusive_mfn`]
    /// breaks would — the fall-through translates into the template, the
    /// page-handle clones and the content-hash inserts (an all-zero frame
    /// is never a dedup candidate) — and the clone's p2m is resolved
    /// once for the whole batch. It runs at clone birth, before any dirty
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
        if let Some(info) = self.templates.get(&dom) {
            return Ok(info.page_count);
        }
        if self.clone_of.contains_key(&dom) {
            return Err(crate::error::HvError::InvalidArgument(format!(
                "{dom} is a clone and cannot be sealed as a template"
            )));
        }
        // The freeze is also the template-seal materialization point:
        // clones dedup and CoW-break against template frames, so every
        // pending hash is drained before the seal.
        let page_count = self.freeze(dom);
        if page_count == 0 {
            self.discard_frozen(dom);
            return Err(crate::error::HvError::InvalidArgument(format!(
                "{dom} has no populated memory to seal as a template"
            )));
        }
        let watermark = self.p2m.get(&dom).map_or(0, |m| m.next_pfn);
        self.templates.insert(
            dom,
            TemplateInfo {
                clones: 0,
                page_count,
                watermark,
            },
        );
        Ok(page_count)
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
        let watermark = info.watermark;
        let page_count = info.page_count;
        self.p2m.insert(
            clone,
            P2m {
                next_pfn: watermark,
                ..P2m::default()
            },
        );
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
        self.templates.get(&dom).map(|i| i.page_count)
    }

    /// Number of pages `clone` has privatised away from its template.
    pub fn clone_broken_pages(&self, clone: DomId) -> u64 {
        let Some(&tpl) = self.clone_of.get(&clone) else {
            return 0;
        };
        let wm = self.templates.get(&tpl).map_or(0, |i| i.watermark);
        self.p2m
            .get(&clone)
            .map_or(0, |m| m.entries().filter(|&(p, _)| p < wm).count() as u64)
    }

    /// Content-based page deduplication across all domains (the
    /// memory-density feature of the paper's introduction [21, 38]).
    ///
    /// Pending hashes are materialized first; then **one** sweep of the
    /// dense frame table collects candidate `(hash, mfn)` pairs, which
    /// a counting-sort pass partitions into shards by their top hash
    /// bits, sized so a shard holds a handful of entries (see
    /// [`DEDUP_SHARD_BITS`]). Each shard is sorted and scanned for
    /// runs of equal hash independently, so the "sort" is a few
    /// comparisons over a cache-resident slice rather than an
    /// O(n log n) pass over the whole fleet. Because the shards
    /// partition the hash space a group never straddles shards, so the
    /// result is identical to one global pass (merges of distinct
    /// groups touch disjoint frames and commute).
    ///
    /// Identical, non-empty, unmapped frames are merged onto one
    /// canonical frame (the lowest MFN of each group, so the result is
    /// independent of hash-map iteration order); duplicates are freed;
    /// subsequent writes break the sharing via copy-on-write. A
    /// duplicate that is itself already shared moves its *entire*
    /// mapper set onto the canonical frame. Frames in `granted`
    /// (ascending) back live grant entries and stay out of the sweep, mapped or not:
    /// a grantee may map or copy through its entry at any time and must
    /// reach the page it was granted, and only that page. Returns the
    /// number of frames freed.
    pub fn share_identical(&mut self, granted: &[Mfn]) -> u64 {
        self.materialize_hashes();
        // One dense sweep collects candidates; no page bodies are
        // cloned, and no per-hash-bucket heap vectors are walked.
        let mut cands: Vec<(u64, u64)> = Vec::with_capacity(self.frames.len());
        for (raw, f) in self.frames.iter() {
            if f.mappings == 0 && !f.data.is_empty() {
                cands.push((f.hash, raw));
            }
        }
        if !granted.is_empty() {
            // Candidates and `granted` both ascend: a merge walk.
            let mut granted = granted.iter().map(|m| m.0).peekable();
            cands.retain(|&(_, raw)| {
                while granted.next_if(|&g| g < raw).is_some() {}
                granted.peek() != Some(&raw)
            });
        }
        let bits = (cands.len() / 8)
            .next_power_of_two()
            .trailing_zeros()
            .clamp(4, DEDUP_SHARD_BITS);
        let shards = 1usize << bits;
        let shard_of = |h: u64| (h >> (64 - bits)) as usize;
        // Counting-sort partition: count per shard, prefix-sum into
        // cursors, scatter into one flat buffer. Two sequential passes
        // over `cands` beat re-walking the frame table.
        let mut counts = vec![0u32; shards + 1];
        for &(h, _) in &cands {
            counts[shard_of(h) + 1] += 1;
        }
        for s in 1..counts.len() {
            counts[s] += counts[s - 1];
        }
        let mut sorted = vec![(0u64, 0u64); cands.len()];
        let mut cursors: Vec<u32> = counts[..shards].to_vec();
        for &(h, raw) in &cands {
            let c = &mut cursors[shard_of(h)];
            sorted[*c as usize] = (h, raw);
            *c += 1;
        }
        drop(cands);
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for s in 0..shards {
            let (lo, hi) = (counts[s] as usize, counts[s + 1] as usize);
            // Sort by (hash, mfn): equal-hash runs become contiguous
            // and MFN-ascending, so each run's head is its lowest MFN.
            sorted[lo..hi].sort_unstable();
            let mut i = lo;
            while i < hi {
                let mut j = i + 1;
                while j < hi && sorted[j].0 == sorted[i].0 {
                    j += 1;
                }
                if j - i >= 2 {
                    runs.push((i as u32, j as u32));
                }
                i = j;
            }
        }
        // Merge runs in ascending head-MFN order, not hash order:
        // duplicate groups are typically parallel stripes of a few
        // address spaces, so ordering by head MFN turns the otherwise
        // random frame-table accesses into a handful of sequential
        // streams the hardware prefetcher can track. Merges of
        // distinct groups touch disjoint frames and commute, so the
        // order does not affect the result.
        runs.sort_unstable_by_key(|&(i, _)| sorted[i as usize].1);
        let mut freed = 0u64;
        for &(i, j) in &runs {
            freed += self.merge_hash_run(&sorted[i as usize..j as usize]);
        }
        freed
    }

    /// Byte-equality confirm + merge for one run of equal-hash dedup
    /// candidates (MFN-ascending): splits the run into buckets of
    /// identical content (hash collisions stay separate) and merges
    /// each bucket onto its lowest MFN. Returns frames freed.
    fn merge_hash_run(&mut self, run: &[(u64, u64)]) -> u64 {
        // Fast path: every member of the run is byte-identical to the
        // first (true for all but genuine hash collisions). The bodies
        // are read once, by reference — no handle clones, no refcount
        // traffic, no bucket allocation.
        let uniform = match self.frames.get(run[0].1) {
            Some(head) => {
                let body = head.data.as_slice();
                run[1..].iter().all(|&(_, raw)| {
                    self.frames
                        .get(raw)
                        .is_some_and(|f| f.data.as_slice() == body)
                })
            }
            None => false,
        };
        if uniform {
            let mut bucket = std::mem::take(&mut self.scratch_bucket);
            bucket.clear();
            bucket.extend(run.iter().map(|&(_, raw)| raw));
            let freed = self.merge_bucket(run[0].0, &bucket);
            self.scratch_bucket = bucket;
            return freed;
        }
        // Collision path: split the run into buckets of identical
        // content. Merges happen only after bucketing, so no member is
        // evicted while the run is split.
        let mut heads: Vec<&[u8]> = Vec::with_capacity(run.len());
        let mut buckets: Vec<Vec<u64>> = Vec::new();
        for &(_, raw) in run {
            let Some(body) = self.frames.get(raw).map(|f| f.data.as_slice()) else {
                continue;
            };
            match heads.iter().position(|&h| h == body) {
                Some(i) => buckets[i].push(raw),
                None => {
                    heads.push(body);
                    buckets.push(vec![raw]);
                }
            }
        }
        drop(heads);
        let mut freed = 0u64;
        for bucket in buckets {
            if bucket.len() >= 2 {
                freed += self.merge_bucket(run[0].0, &bucket);
            }
        }
        freed
    }

    /// Moves every mapper of `bucket[1..]` (byte-identical duplicates
    /// of `bucket[0]`, MFN-ascending) onto `bucket[0]` and frees the
    /// duplicates. Canonical-frame state, the mapper transfer, and the
    /// hash-index cleanup are each paid once per bucket, not once per
    /// duplicate — this is the inner loop of the fleet-scale sweep.
    fn merge_bucket(&mut self, hash: u64, bucket: &[u64]) -> u64 {
        let canonical = bucket[0];
        // The merge is content-identical, so it marks no dirty log. A
        // frozen mapper still records the bytes it keeps seeing as its
        // pre-image (first touch wins, so an earlier capture stands).
        let canon_data = if !self.frozen.is_empty() {
            self.frames.get(canonical).map(|f| f.data.clone())
        } else {
            None
        };
        let dups = &bucket[1..];
        let mut moved = std::mem::take(&mut self.scratch_moved);
        moved.clear();
        let mut freed = 0u64;
        for &dup in dups {
            // Every dup passed the sweep's candidate filter (alive,
            // non-empty, materialized hash), so it is hash-indexed and
            // its removal below is unconditional.
            if let Some(f) = self.frames.free(dup) {
                moved.extend_from_slice(f.refs.as_slice());
                self.free_count += 1;
                freed += 1;
            }
        }
        for &(d, p) in &moved {
            if let Some(m) = self.p2m.get_mut(&d) {
                m.insert(p, Mfn(canonical));
            }
            if let Some(ref data) = canon_data {
                self.capture_frozen_one(d, p, data);
            }
        }
        if let Some(f) = self.frames.get_mut(canonical) {
            f.refs.extend_from(&moved);
        }
        // One hash-index pass drops every freed duplicate of this hash.
        if let Some(v) = self.by_hash.get_mut(&hash) {
            v.retain(|raw| !dups.contains(raw));
        }
        self.scratch_moved = moved;
        freed
    }

    /// Number of frames currently shared by more than one mapping.
    pub fn shared_frames(&self) -> u64 {
        self.frames.iter().filter(|(_, f)| f.refs.len() > 1).count() as u64
    }

    /// Frames mapped by more than one *domain* (deduplicated CoW sharing),
    /// with the distinct mapper domains sorted per frame and the result
    /// sorted by MFN. Intra-domain aliases (one domain mapping a frame at
    /// two PFNs) are not cross-domain sharing and are excluded.
    pub fn multi_domain_frames(&self) -> Vec<(Mfn, Vec<DomId>)> {
        let mut by_mfn: FastMap<u64, Vec<DomId>> = FastMap::default();
        for (mfn, f) in self.frames.iter() {
            if f.refs.len() < 2 {
                continue;
            }
            let doms: Vec<DomId> = f.refs.as_slice().iter().map(|&(d, _)| d).collect();
            by_mfn.insert(mfn, doms);
        }
        // Template fan-out: clones alias template frames without rmap
        // entries, so surface each template frame as shared between the
        // template and every clone that has not privatised that PFN.
        for (&tpl, info) in &self.templates {
            if info.clones == 0 {
                continue;
            }
            let clones: Vec<DomId> = {
                let mut v: Vec<DomId> = self
                    .clone_of
                    .iter()
                    .filter(|&(_, &t)| t == tpl)
                    .map(|(&c, _)| c)
                    .collect();
                v.sort_by_key(|d| d.0);
                v
            };
            let Some(p2m) = self.p2m.get(&tpl) else {
                continue;
            };
            for (pfn, mfn) in p2m.entries() {
                let entry = by_mfn.entry(mfn.0).or_insert_with(|| vec![tpl]);
                for &c in &clones {
                    if !self.own_mapping(c, Pfn(pfn)) {
                        entry.push(c);
                    }
                }
            }
        }
        let mut out: Vec<(Mfn, Vec<DomId>)> = Vec::new();
        for (mfn, mut doms) in by_mfn {
            doms.sort_by_key(|d| d.0);
            doms.dedup();
            if doms.len() >= 2 {
                out.push((Mfn(mfn), doms));
            }
        }
        out.sort_by_key(|&(m, _)| m.0);
        out
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
        Ok(self
            .frames
            .get(mfn.0)
            .ok_or(MemError::BadMfn(mfn.0))?
            .data
            .clone())
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

    /// Decrements the grant-mapping count of a frame.
    pub(crate) fn dec_grant_mapping(&mut self, mfn: Mfn) -> Result<(), MemError> {
        let f = self.frames.get_mut(mfn.0).ok_or(MemError::BadMfn(mfn.0))?;
        f.mappings = f.mappings.saturating_sub(1);
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
    /// Frames with live grant mappings are leaked deliberately (as in Xen,
    /// where a domain's memory cannot be recycled until grants are
    /// unmapped); the rest return to the frame table for reuse. Returns
    /// the number of frames actually freed.
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
        for (pfn, mfn) in p2m.into_entries() {
            self.rmap_remove(mfn.0, dom, pfn);
            if self.rmap_len(mfn.0) > 0 {
                // A deduplicated frame survives; only this mapping goes
                // away.
                continue;
            }
            let unmapped = self.frames.get(mfn.0).is_some_and(|f| f.mappings == 0);
            if unmapped {
                if let Some(f) = self.frames.free(mfn.0) {
                    if f.hash_ok && !f.data.is_empty() {
                        self.hash_index_remove(f.hash, mfn.0);
                    }
                    freed += 1;
                }
            }
        }
        self.free_count += freed;
        freed
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
        // Snapshot seal: materialize pending hashes so every frame the
        // frozen image can reach carries a valid content hash. O(1)
        // when nothing is pending — the common microreboot case.
        self.materialize_hashes();
        let (mut count, watermark) = self
            .p2m
            .get(&dom)
            .map_or((0, 0), |m| (m.len() as u64, m.next_pfn));
        // A clone also sees every template page it has not privatised:
        // those are snapshot-covered too (the first post-freeze write
        // captures the template body as the pre-image).
        if let Some(&tpl) = self.clone_of.get(&dom) {
            if let Some(tinfo) = self.templates.get(&tpl) {
                count += tinfo.page_count - self.clone_broken_pages(dom);
            }
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
    /// count, content-hash index) agrees with it.
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
                if !self.frames.contains(mfn.0) {
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
        // Content-hash machinery under the lazy dirty-epoch discipline:
        // a materialized hash matches the bytes and is indexed iff the
        // frame is non-empty; a stale frame is never indexed and must
        // be covered by a rehash-queue entry.
        for (raw, f) in self.frames.iter() {
            if f.hash_ok {
                if f.hash != content_hash(&f.data) {
                    return Err(format!("wrong materialized hash for mfn {raw:#x}"));
                }
                let indexed = self
                    .by_hash
                    .get(&f.hash)
                    .map_or(0, |v| v.iter().filter(|&&m| m == raw).count());
                let expect = usize::from(!f.data.is_empty());
                if indexed != expect {
                    return Err(format!(
                        "mfn {raw:#x} appears {indexed} times in hash index, expected {expect}"
                    ));
                }
            } else if !self.stale_hashes.contains(&raw) {
                return Err(format!("stale mfn {raw:#x} missing from the rehash queue"));
            }
        }
        for (&h, v) in &self.by_hash {
            for &raw in v {
                let ok = self
                    .frames
                    .get(raw)
                    .is_some_and(|f| f.hash_ok && f.hash == h && !f.data.is_empty());
                if !ok {
                    return Err(format!("hash index lists stale mfn {raw:#x}"));
                }
            }
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
        // Clone links: every clone points at a live, sealed, frozen
        // template, and the per-template clone counters match the links.
        let mut clone_counts: HashMap<DomId, u64> = HashMap::new();
        for (&clone, &tpl) in &self.clone_of {
            let Some(info) = self.templates.get(&tpl) else {
                return Err(format!("{clone} is a clone of unsealed {tpl}"));
            };
            if self.templates.contains_key(&clone) {
                return Err(format!("{clone} is both a clone and a template"));
            }
            if !self.frozen.contains_key(&tpl) {
                return Err(format!("template {tpl} lost its frozen snapshot"));
            }
            if let Some(m) = self.p2m.get(&clone) {
                if m.next_pfn < info.watermark {
                    return Err(format!(
                        "{clone} next_pfn {} below template watermark {}",
                        m.next_pfn, info.watermark
                    ));
                }
            }
            *clone_counts.entry(tpl).or_default() += 1;
        }
        for (&tpl, info) in &self.templates {
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

#[cfg(test)]
mod sharing_tests {
    use super::*;

    /// Two domains with identical page contents.
    fn twins() -> (MemoryManager, DomId, DomId) {
        let mut m = MemoryManager::new(1024);
        let a = DomId(1);
        let b = DomId(2);
        m.populate(a, 8).unwrap();
        m.populate(b, 8).unwrap();
        for pfn in 0..4u64 {
            m.write(a, Pfn(pfn), b"common-kernel-page").unwrap();
            m.write(b, Pfn(pfn), b"common-kernel-page").unwrap();
        }
        m.write(a, Pfn(4), b"a-private").unwrap();
        m.write(b, Pfn(4), b"b-private").unwrap();
        (m, a, b)
    }

    #[test]
    fn share_identical_frees_duplicates() {
        let (mut m, a, b) = twins();
        let free_before = m.free_frames();
        let freed = m.share_identical(&[]);
        // All 8 identical pages (4 per domain) collapse onto 1 canonical
        // frame — dedup merges within a domain as well as across.
        assert_eq!(freed, 7, "eight identical pages merged to one");
        assert_eq!(m.free_frames(), free_before + 7);
        assert_eq!(m.shared_frames(), 1, "one canonical frame, shared 8 ways");
        // Both domains still read the same contents.
        for pfn in 0..4u64 {
            assert_eq!(m.read(a, Pfn(pfn)).unwrap(), b"common-kernel-page");
            assert_eq!(m.read(b, Pfn(pfn)).unwrap(), b"common-kernel-page");
        }
        // Private pages untouched.
        assert_eq!(m.read(a, Pfn(4)).unwrap(), b"a-private");
        assert_eq!(m.read(b, Pfn(4)).unwrap(), b"b-private");
        m.check_consistency().unwrap();
    }

    #[test]
    fn write_breaks_sharing_copy_on_write() {
        let (mut m, a, b) = twins();
        m.share_identical(&[]);
        m.write(a, Pfn(0), b"a-modified").unwrap();
        assert_eq!(m.read(a, Pfn(0)).unwrap(), b"a-modified");
        assert_eq!(
            m.read(b, Pfn(0)).unwrap(),
            b"common-kernel-page",
            "the peer's view is never affected"
        );
    }

    #[test]
    fn exclusive_mfn_on_private_frame_is_identity() {
        let (mut m, a, _) = twins();
        let before = m.translate(a, Pfn(4)).unwrap();
        let after = m.exclusive_mfn(a, Pfn(4)).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn exclusive_mfn_on_shared_frame_allocates() {
        let (mut m, a, b) = twins();
        m.share_identical(&[]);
        let shared = m.translate(a, Pfn(1)).unwrap();
        assert_eq!(shared, m.translate(b, Pfn(1)).unwrap());
        let private = m.exclusive_mfn(a, Pfn(1)).unwrap();
        assert_ne!(private, shared);
        assert_eq!(m.translate(a, Pfn(1)).unwrap(), private);
        assert_eq!(m.translate(b, Pfn(1)).unwrap(), shared);
        // Contents preserved.
        assert_eq!(m.read(a, Pfn(1)).unwrap(), b"common-kernel-page");
        m.check_consistency().unwrap();
    }

    #[test]
    fn cow_break_shares_the_page_body() {
        let (mut m, a, b) = twins();
        m.share_identical(&[]);
        let before = m.read(b, Pfn(1)).unwrap();
        m.exclusive_mfn(a, Pfn(1)).unwrap();
        let a_view = m.read(a, Pfn(1)).unwrap();
        assert!(
            PageRef::ptr_eq(&before, &a_view),
            "CoW break moves a handle, not bytes"
        );
    }

    #[test]
    fn release_domain_keeps_shared_frames_alive() {
        let (mut m, a, b) = twins();
        m.share_identical(&[]);
        m.release_domain(a);
        // B still reads its pages (the canonical frame lost only a's
        // four references; b's four remain).
        for pfn in 0..4u64 {
            assert_eq!(m.read(b, Pfn(pfn)).unwrap(), b"common-kernel-page");
        }
        assert_eq!(m.shared_frames(), 1, "b's four PFNs still share the frame");
        // Writes by b now CoW-break down to exclusivity one by one.
        for pfn in 0..4u64 {
            m.write(b, Pfn(pfn), b"rewritten").unwrap();
        }
        assert_eq!(m.shared_frames(), 0);
        m.check_consistency().unwrap();
    }

    #[test]
    fn granted_frames_are_not_dedup_candidates() {
        let (mut m, a, _) = twins();
        let mfn = m.translate(a, Pfn(0)).unwrap();
        m.inc_grant_mapping(mfn, m.generation(mfn)).unwrap();
        let freed = m.share_identical(&[]);
        // Pfn(0) of a is pinned by the grant; the remaining 7 identical
        // pages still merge onto one canonical frame.
        assert_eq!(freed, 6);
    }

    #[test]
    fn empty_pages_are_not_merged() {
        let mut m = MemoryManager::new(64);
        m.populate(DomId(1), 4).unwrap();
        m.populate(DomId(2), 4).unwrap();
        assert_eq!(
            m.share_identical(&[]),
            0,
            "zero pages carry no content to merge"
        );
    }

    #[test]
    fn repeated_dedup_is_idempotent() {
        let (mut m, _, _) = twins();
        assert_eq!(m.share_identical(&[]), 7);
        assert_eq!(m.share_identical(&[]), 0);
    }

    /// Regression (share-count move semantics): a duplicate that is
    /// itself already shared must move its *full* mapper count onto the
    /// canonical frame, leaving exactly one shared frame behind.
    #[test]
    fn dedup_of_already_shared_duplicate_moves_full_count() {
        let mut m = MemoryManager::new(1024);
        let a = DomId(1);
        let b = DomId(2);
        m.populate(a, 4).unwrap();
        m.populate(b, 4).unwrap();
        // First group: a's two copies merge onto canonical S1.
        m.write(a, Pfn(0), b"glibc-text").unwrap();
        m.write(a, Pfn(1), b"glibc-text").unwrap();
        assert_eq!(m.share_identical(&[]), 1);
        let s1 = m.translate(a, Pfn(0)).unwrap();
        // Pin S1 so the next dedup round cannot touch it, then build a
        // second shared frame S2 with the same content in domain b.
        m.inc_grant_mapping(s1, m.generation(s1)).unwrap();
        m.write(b, Pfn(0), b"glibc-text").unwrap();
        m.write(b, Pfn(1), b"glibc-text").unwrap();
        assert_eq!(m.share_identical(&[]), 1);
        let s2 = m.translate(b, Pfn(0)).unwrap();
        assert_ne!(s1, s2);
        assert_eq!(m.shared_frames(), 2, "two independent shared frames");
        // Unpin S1: the next dedup merges S2 (share count 2) into S1.
        m.dec_grant_mapping(s1).unwrap();
        let free_before = m.free_frames();
        assert_eq!(m.share_identical(&[]), 1, "one duplicate frame freed");
        assert_eq!(m.free_frames(), free_before + 1);
        assert_eq!(
            m.shared_frames(),
            1,
            "S2's entire mapper set moved onto S1 — no partially-shared remnant"
        );
        for (dom, pfn) in [(a, Pfn(0)), (a, Pfn(1)), (b, Pfn(0)), (b, Pfn(1))] {
            assert_eq!(m.translate(dom, pfn).unwrap(), s1);
            assert_eq!(m.read(dom, pfn).unwrap(), b"glibc-text");
        }
        m.check_consistency().unwrap();
    }
}

#[cfg(test)]
mod dedup_on_write_tests {
    use super::*;

    #[test]
    fn incremental_dedup_matches_bulk_result() {
        // Bulk: write everything, then share_identical.
        let mut bulk = MemoryManager::new(1024);
        // Incremental: dedup as the writes happen.
        let mut inc = MemoryManager::new(1024);
        inc.set_dedup_on_write(true);
        for m in [&mut bulk, &mut inc] {
            for d in 1..=4u32 {
                m.populate(DomId(d), 8).unwrap();
            }
        }
        for d in 1..=4u32 {
            for pfn in 0..8u64 {
                let body = format!("lib-page-{}", pfn % 4);
                bulk.write(DomId(d), Pfn(pfn), body.as_bytes()).unwrap();
                inc.write(DomId(d), Pfn(pfn), body.as_bytes()).unwrap();
            }
        }
        let bulk_freed = bulk.share_identical(&[]);
        assert_eq!(
            inc.dedup_write_freed(),
            bulk_freed,
            "write-time merging reclaims the same duplicates"
        );
        assert_eq!(
            inc.share_identical(&[]),
            0,
            "nothing left for the bulk pass"
        );
        assert_eq!(inc.free_frames(), bulk.free_frames());
        assert_eq!(inc.shared_frames(), bulk.shared_frames());
        for d in 1..=4u32 {
            for pfn in 0..8u64 {
                assert_eq!(
                    inc.read(DomId(d), Pfn(pfn)).unwrap(),
                    bulk.read(DomId(d), Pfn(pfn)).unwrap()
                );
            }
        }
        inc.check_consistency().unwrap();
        bulk.check_consistency().unwrap();
    }

    #[test]
    fn incremental_dedup_preserves_cow_isolation() {
        let mut m = MemoryManager::new(256);
        m.set_dedup_on_write(true);
        let a = DomId(1);
        let b = DomId(2);
        m.populate(a, 2).unwrap();
        m.populate(b, 2).unwrap();
        m.write(a, Pfn(0), b"same").unwrap();
        m.write(b, Pfn(0), b"same").unwrap();
        assert_eq!(m.dedup_write_freed(), 1);
        // Diverging write CoW-breaks as usual.
        m.write(b, Pfn(0), b"different").unwrap();
        assert_eq!(m.read(a, Pfn(0)).unwrap(), b"same");
        assert_eq!(m.read(b, Pfn(0)).unwrap(), b"different");
        m.check_consistency().unwrap();
    }

    #[test]
    fn pinned_frames_bypass_incremental_dedup() {
        let mut m = MemoryManager::new(256);
        m.set_dedup_on_write(true);
        let a = DomId(1);
        let b = DomId(2);
        m.populate(a, 1).unwrap();
        m.populate(b, 1).unwrap();
        m.write(a, Pfn(0), b"ring").unwrap();
        let mfn = m.translate(b, Pfn(0)).unwrap();
        m.inc_grant_mapping(mfn, m.generation(mfn)).unwrap();
        m.write(b, Pfn(0), b"ring").unwrap();
        assert_eq!(m.dedup_write_freed(), 0, "granted frame written in place");
        assert_ne!(
            m.translate(a, Pfn(0)).unwrap(),
            m.translate(b, Pfn(0)).unwrap()
        );
        m.check_consistency().unwrap();
    }
}

#[cfg(test)]
mod sharing_proptests {
    use super::*;
    use xoar_sim::prop::Runner;

    /// Writes through either domain after page sharing never leak into
    /// the other domain's view (copy-on-write isolation).
    #[test]
    fn cow_isolation() {
        Runner::cases(64).run("CoW isolation", |g| {
            let writes = g.vec(0..40, |g| (g.u8(0..2), g.u64(0..6), g.u8(0..4)));
            let mut m = MemoryManager::new(256);
            let a = DomId(1);
            let b = DomId(2);
            m.populate(a, 6).unwrap();
            m.populate(b, 6).unwrap();
            // Identical baseline everywhere.
            for pfn in 0..6u64 {
                m.write(a, Pfn(pfn), b"base").unwrap();
                m.write(b, Pfn(pfn), b"base").unwrap();
            }
            m.share_identical(&[]);
            // Shadow state per domain.
            let mut shadow = std::collections::HashMap::new();
            for (who, pfn, val) in writes {
                let dom = if who == 0 { a } else { b };
                let data = vec![val; 8];
                m.write(dom, Pfn(pfn), &data).unwrap();
                shadow.insert((dom, pfn), data);
            }
            for dom in [a, b] {
                for pfn in 0..6u64 {
                    let expect = shadow
                        .get(&(dom, pfn))
                        .cloned()
                        .unwrap_or_else(|| b"base".to_vec());
                    assert_eq!(m.read(dom, Pfn(pfn)).unwrap(), expect);
                }
            }
        });
    }

    /// Random interleavings of populate/write/transfer/dedup/release/
    /// rollback-style operations keep every derived structure (reverse
    /// index, share accounting, content-hash index) in agreement with
    /// the naively recomputed shadow model, and every read in agreement
    /// with a per-(dom, pfn) content shadow.
    #[test]
    fn interleaved_ops_agree_with_shadow_model() {
        Runner::cases(96).run("interleaved ops vs shadow model", |g| {
            let incremental = g.u8(0..2) == 1;
            let ops = g.vec(0..60, |g| {
                (
                    g.u8(0..100), // op selector
                    g.u8(0..3),   // domain selector
                    g.u64(0..10), // pfn
                    g.u8(0..5),   // content selector
                )
            });
            let doms = [DomId(1), DomId(2), DomId(3)];
            let mut m = MemoryManager::new(4096);
            m.set_dedup_on_write(incremental);
            // Content shadow: what each live (dom, pfn) must read back.
            let mut shadow: HashMap<(DomId, u64), Vec<u8>> = HashMap::new();
            for &d in &doms {
                m.populate(d, 10).unwrap();
                for pfn in 0..10u64 {
                    shadow.insert((d, pfn), Vec::new());
                }
            }
            let mut next_pfn: HashMap<DomId, u64> = doms.iter().map(|&d| (d, 10u64)).collect();
            for (op, who, pfn, val) in ops {
                let dom = doms[who as usize % doms.len()];
                match op {
                    // Write one of a few contents (guaranteeing cross-
                    // domain duplicates for the dedup paths). Lengths
                    // straddle the inline-hash threshold, and val 0 at
                    // full page length is the canonical zero page — so
                    // the interleaving exercises inline, deferred, and
                    // constant-hash classification.
                    0..=49 => {
                        if shadow.contains_key(&(dom, pfn)) {
                            let len = [6usize, 200, PAGE_SIZE][val as usize % 3];
                            let body = vec![val; len];
                            m.write(dom, Pfn(pfn), &body).unwrap();
                            shadow.insert((dom, pfn), body);
                        }
                    }
                    // Bulk dedup.
                    50..=59 => {
                        m.share_identical(&[]);
                    }
                    // Page-flip to the next domain (only exclusive,
                    // unpinned frames transfer).
                    60..=74 => {
                        if shadow.contains_key(&(dom, pfn)) {
                            let to = doms[(who as usize + 1) % doms.len()];
                            if let Ok(new_pfn) = m.transfer_frame(dom, Pfn(pfn), to) {
                                let body = shadow.remove(&(dom, pfn)).unwrap();
                                assert_eq!(new_pfn.0, next_pfn[&to]);
                                shadow.insert((to, new_pfn.0), body);
                                *next_pfn.get_mut(&to).unwrap() += 1;
                            }
                        }
                    }
                    // Rollback-style: drain a dirty log and rewrite one
                    // of its pages by MFN (a bulk body, so the mfn write
                    // path defers its hash).
                    75..=84 => {
                        let log = m
                            .shadow_op(dom, ShadowOp::Enable)
                            .unwrap()
                            .cursor()
                            .unwrap();
                        if shadow.contains_key(&(dom, pfn)) {
                            m.write(dom, Pfn(pfn), &[val]).unwrap();
                            shadow.insert((dom, pfn), vec![val]);
                        }
                        let dirty = m
                            .shadow_op(dom, ShadowOp::Clean(log))
                            .unwrap()
                            .pfns()
                            .unwrap();
                        m.shadow_op(dom, ShadowOp::Off(log)).unwrap();
                        if let Some(&dpfn) = dirty.first() {
                            let mfn = m.translate(dom, dpfn).unwrap();
                            let body = vec![val ^ 0x5a; 120];
                            m.write_mfn(mfn, &body).unwrap();
                            // write_mfn edits the frame in place: every
                            // mapper of that MFN sees the new bytes.
                            for (d, p) in m.mappers(mfn) {
                                shadow.insert((d, p.0), body.clone());
                            }
                        }
                    }
                    // Release and repopulate a domain.
                    85..=89 => {
                        m.release_domain(dom);
                        shadow.retain(|&(d, _), _| d != dom);
                        let first = m.populate(dom, 10).unwrap();
                        for pfn in first.0..first.0 + 10 {
                            shadow.insert((dom, pfn), Vec::new());
                        }
                        next_pfn.insert(dom, first.0 + 10);
                    }
                    // CoW break without a write.
                    _ => {
                        if shadow.contains_key(&(dom, pfn)) {
                            m.exclusive_mfn(dom, Pfn(pfn)).unwrap();
                        }
                    }
                }
                if let Err(e) = m.check_consistency() {
                    panic!("inconsistent after op {op}: {e}");
                }
            }
            for (&(dom, pfn), body) in &shadow {
                assert_eq!(m.read(dom, Pfn(pfn)).unwrap(), *body);
            }
        });
    }
}

#[cfg(test)]
mod lazy_hash_tests {
    use super::*;

    #[test]
    fn bulk_write_defers_hash_until_materialization() {
        let mut m = MemoryManager::new(64);
        let d = DomId(1);
        m.populate(d, 2).unwrap();
        m.write(d, Pfn(0), &[0x5a; 512]).unwrap();
        assert_eq!(m.pending_rehash(), 1, "bulk write queued, not hashed");
        let epoch = m.hash_epoch();
        assert_eq!(m.materialize_hashes(), 1);
        assert_eq!(m.pending_rehash(), 0);
        assert_eq!(m.hash_epoch(), epoch + 1);
        assert_eq!(m.rehashed_frames(), 1);
        m.check_consistency().unwrap();
    }

    #[test]
    fn small_writes_hash_inline() {
        let mut m = MemoryManager::new(64);
        let d = DomId(1);
        m.populate(d, 1).unwrap();
        m.write(d, Pfn(0), b"ring-slot").unwrap();
        assert_eq!(m.pending_rehash(), 0, "tiny bodies never hit the queue");
        m.check_consistency().unwrap();
    }

    #[test]
    fn zero_page_write_is_canonical_and_unhashed() {
        let mut m = MemoryManager::new(64);
        let d = DomId(1);
        m.populate(d, 2).unwrap();
        m.write(d, Pfn(0), &[0u8; PAGE_SIZE]).unwrap();
        m.write(d, Pfn(1), &[0u8; PAGE_SIZE]).unwrap();
        assert_eq!(m.pending_rehash(), 0, "zero pages carry a constant hash");
        let a = m.read(d, Pfn(0)).unwrap();
        let b = m.read(d, Pfn(1)).unwrap();
        assert!(
            PageRef::ptr_eq(&a, &b),
            "both frames share the canonical zero page"
        );
        assert!(a.is_canonical_zero());
        assert_eq!(a, [0u8; PAGE_SIZE], "byte-equal to a plain zero body");
        assert_eq!(ZERO_PAGE_HASH, content_hash(&[0u8; PAGE_SIZE]));
        // Zero frames hold real content: they are dedup candidates.
        assert_eq!(m.share_identical(&[]), 1);
        m.check_consistency().unwrap();
    }

    #[test]
    fn repeated_bulk_writes_queue_once() {
        let mut m = MemoryManager::new(64);
        let d = DomId(1);
        m.populate(d, 1).unwrap();
        for i in 0..10u8 {
            m.write(d, Pfn(0), &vec![i + 1; 256]).unwrap();
        }
        assert_eq!(
            m.stale_hashes.len(),
            1,
            "only the valid→stale transition queues"
        );
        assert_eq!(m.materialize_hashes(), 1);
        m.check_consistency().unwrap();
    }

    #[test]
    fn dedup_materializes_stale_twins() {
        let mut m = MemoryManager::new(64);
        let (a, b) = (DomId(1), DomId(2));
        m.populate(a, 1).unwrap();
        m.populate(b, 1).unwrap();
        let body = vec![7u8; 1000];
        m.write(a, Pfn(0), &body).unwrap();
        m.write(b, Pfn(0), &body).unwrap();
        assert_eq!(m.pending_rehash(), 2);
        assert_eq!(
            m.share_identical(&[]),
            1,
            "stale twins materialized and merged"
        );
        assert_eq!(m.pending_rehash(), 0);
        m.check_consistency().unwrap();
    }

    #[test]
    fn cow_break_of_stale_frame_propagates_staleness() {
        let mut m = MemoryManager::new(64);
        let (a, b) = (DomId(1), DomId(2));
        m.populate(a, 1).unwrap();
        m.populate(b, 1).unwrap();
        let body = vec![9u8; 700];
        m.write(a, Pfn(0), &body).unwrap();
        m.write(b, Pfn(0), &body).unwrap();
        m.share_identical(&[]);
        // Dirty the shared frame in place via the mfn path, then break.
        let mfn = m.translate(a, Pfn(0)).unwrap();
        m.write_mfn(mfn, &[1u8; 700]).unwrap();
        assert_eq!(m.pending_rehash(), 1);
        m.exclusive_mfn(b, Pfn(0)).unwrap();
        assert_eq!(m.pending_rehash(), 2, "the private copy is stale too");
        m.check_consistency().unwrap();
        m.materialize_hashes();
        m.check_consistency().unwrap();
        assert_eq!(m.read(b, Pfn(0)).unwrap(), vec![1u8; 700]);
    }

    #[test]
    fn verify_integrity_is_schedule_independent() {
        let mut lazy = MemoryManager::new(256);
        let mut eager = MemoryManager::new(256);
        for m in [&mut lazy, &mut eager] {
            m.populate(DomId(1), 4).unwrap();
        }
        for pfn in 0..4u64 {
            let body = vec![pfn as u8 + 1; 300];
            lazy.write(DomId(1), Pfn(pfn), &body).unwrap();
            eager.write(DomId(1), Pfn(pfn), &body).unwrap();
            eager.materialize_hashes(); // eager schedule
        }
        assert_eq!(lazy.verify_integrity(), eager.verify_integrity());
        assert_eq!(lazy.pending_rehash(), 0);
    }

    #[test]
    fn freeze_and_template_seal_materialize() {
        let mut m = MemoryManager::new(256);
        let d = DomId(1);
        m.populate(d, 2).unwrap();
        m.write(d, Pfn(0), &[3u8; 400]).unwrap();
        assert_eq!(m.pending_rehash(), 1);
        m.freeze(d);
        assert_eq!(m.pending_rehash(), 0, "snapshot seal drains the queue");
        m.discard_frozen(d);
        m.write(d, Pfn(1), &[4u8; 400]).unwrap();
        assert_eq!(m.pending_rehash(), 1);
        m.template_arm(d).unwrap();
        assert_eq!(m.pending_rehash(), 0, "template seal drains the queue");
        m.check_consistency().unwrap();
    }
}

#[cfg(test)]
mod clone_tests {
    use super::*;

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

#[cfg(test)]
mod reuse_tests {
    use super::*;
    use xoar_sim::prop::Runner;

    #[test]
    fn a_vacant_slots_generation_costs_no_space() {
        assert_eq!(
            std::mem::size_of::<Slot>(),
            std::mem::size_of::<FrameInfo>()
        );
    }

    fn mfns(m: &MemoryManager, dom: DomId) -> Vec<u64> {
        m.p2m_entries(dom).iter().map(|&(_, mfn)| mfn.0).collect()
    }

    /// A bulk body: hashed lazily, so a write leaves the frame stale.
    fn bulk(tag: u8) -> Vec<u8> {
        vec![tag; PAGE_SIZE]
    }

    #[test]
    fn allocation_takes_the_lowest_free_frame_first() {
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
    fn generations_count_the_frees_of_each_frame() {
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
    fn apply(m: &mut MemoryManager, op: (u8, u32, u64)) {
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
    fn identical_ops_give_identical_frame_numbers() {
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
    fn free_frames_accounting_holds_across_free_and_reuse() {
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
    fn pending_rehash_counts_a_reused_stale_frame_once() {
        let mut m = MemoryManager::new(8);
        let (a, b) = (DomId(1), DomId(2));
        m.populate(a, 1).unwrap();
        m.write(a, Pfn(0), &bulk(1)).unwrap();
        assert_eq!(m.pending_rehash(), 1);
        // Freed while queued: the queue entry outlives the frame.
        m.release_domain(a);
        assert_eq!(m.pending_rehash(), 0);
        m.populate(b, 1).unwrap();
        m.write(b, Pfn(0), &bulk(2)).unwrap();
        assert_eq!(m.stale_hashes.len(), 2, "old and new life both queued");
        assert_eq!(m.pending_rehash(), 1);
        m.check_consistency().unwrap();
        assert_eq!(m.materialize_hashes(), 1);
        assert_eq!(m.pending_rehash(), 0);
        m.check_consistency().unwrap();
    }
}
