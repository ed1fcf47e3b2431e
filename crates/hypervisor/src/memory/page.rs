//! Page bodies and their content hash.
//!
//! A frame holds a shared, immutable page body: [`PageRef`] is an
//! `Rc<[u8]>` handle, so `read`/`read_mfn` return clones of the handle
//! and a CoW break copies a pointer, not a page. A write never hashes:
//! [`intern`] only gives the empty page and the canonical zero page
//! their shared allocations, and the FNV-1a [`content_hash`] of a body
//! is computed where bodies are compared (`dedup`).

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use super::PAGE_SIZE;

/// 64-bit FNV-1a content hash of a page body (in-tree, no dependencies).
///
/// `const` so the hash of the canonical zero page ([`ZERO_PAGE_HASH`])
/// is a compile-time constant: the dedup sweep never runs this loop
/// over a zero frame.
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

/// Content hash of the canonical all-zero page ([`PageRef::zero_page`]).
pub const ZERO_PAGE_HASH: u64 = content_hash(&[0u8; PAGE_SIZE]);

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
    /// per-thread allocation, whose hash is the constant
    /// [`ZERO_PAGE_HASH`].
    ///
    /// Zero-filled frames are the dominant page body at density scale
    /// (guests zero pages long before they fill them), so a zero-fill
    /// write costs a refcount bump instead of a 4 KiB copy, and the
    /// dedup sweep recognises the page by identity, not a rehash. The
    /// canonical page is byte-equal to any freshly-built zero body, so
    /// the interning is unobservable to readers and dedup.
    pub fn zero_page() -> Self {
        thread_local! {
            static ZERO: PageRef = PageRef(Rc::from(&[0u8; PAGE_SIZE][..]));
        }
        ZERO.with(|p| p.clone())
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

/// The page body a write of `data` stores: the empty and all-zero
/// bodies intern their shared allocations, anything else is copied once.
#[inline]
pub(super) fn intern(data: &[u8]) -> PageRef {
    if data.is_empty() {
        PageRef::empty()
    } else if data.len() == PAGE_SIZE && is_all_zero(data) {
        PageRef::zero_page()
    } else {
        PageRef::new(data)
    }
}
