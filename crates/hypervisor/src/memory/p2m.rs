//! Per-domain pseudo-physical address spaces: `Pfn -> Mfn`.

use super::Mfn;
use crate::fasthash::FastMap;

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
pub(super) struct P2m {
    /// Dense window: slot `p` holds the mapping for PFN `p`, or
    /// [`NO_MFN`] for a hole.
    dense: Vec<u64>,
    /// Mappings whose PFN lies at or beyond the window's end.
    spill: FastMap<u64, Mfn>,
    /// Live mapping count across both stores.
    len: usize,
    pub(super) next_pfn: u64,
}

impl P2m {
    /// Number of live mappings.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Looks up the mapping for `pfn`.
    #[inline]
    pub(super) fn get(&self, pfn: u64) -> Option<Mfn> {
        match self.dense.get(pfn as usize) {
            Some(&m) if m != NO_MFN => Some(Mfn(m)),
            Some(_) => None,
            None => self.spill.get(&pfn).copied(),
        }
    }

    /// Makes room for `n` mappings appended from `pfn` on: a run that
    /// extends the dense window grows it once instead of by doubling.
    pub(super) fn reserve(&mut self, pfn: u64, n: usize) {
        if pfn as usize == self.dense.len() {
            self.dense.reserve(n);
        }
    }

    /// Inserts or replaces the mapping for `pfn`.
    pub(super) fn insert(&mut self, pfn: u64, mfn: Mfn) {
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
    pub(super) fn remove(&mut self, pfn: u64) -> Option<Mfn> {
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
    pub(super) fn entries(&self) -> impl Iterator<Item = (u64, Mfn)> + '_ {
        self.dense
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m != NO_MFN)
            .map(|(p, &m)| (p as u64, Mfn(m)))
            .chain(self.spill.iter().map(|(&p, &m)| (p, m)))
    }
}
