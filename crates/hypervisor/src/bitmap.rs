//! The two-level bitmap behind the event-channel pending bits and the
//! memory manager's change sets.

/// Two-level bitmap: one bit per index plus a selector layer with one
/// bit per nonzero word — the in-model analogue of Xen's 2-level
/// event-channel ABI.
///
/// It backs each domain's pending ports, the per-consumer dirty-PFN
/// logs and the frame table's vacant slots. A single selector word spans
/// 64 × 64 = 4,096 indices, so draining walks only the words the
/// selectors say are live and finding the lowest member skips 4,096
/// indices per selector word. Port numbers, guest PFNs and frame-table
/// slots are dense and counted from zero, and both layers grow on demand
/// with the highest index ever set; draining keeps the allocation for
/// the next round. The population is kept beside the bits, so
/// [`Bitmap::len`] is O(1).
#[derive(Debug, Clone, Default)]
pub(crate) struct Bitmap {
    /// Level 2: bit `i % 64` of `words[i / 64]` ⇔ index `i` is set.
    words: Vec<u64>,
    /// Level 1: bit `w % 64` of `selectors[w / 64]` ⇔ `words[w] != 0`.
    selectors: Vec<u64>,
    /// Number of set bits.
    count: usize,
}

impl Bitmap {
    /// An empty bitmap with room for indices below `n` without growing.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Bitmap {
            words: Vec::with_capacity(n / 64 + 1),
            selectors: Vec::with_capacity(n / 4096 + 1),
            count: 0,
        }
    }

    /// Whether the bitmap holds any allocation.
    pub(crate) fn is_allocated(&self) -> bool {
        self.words.capacity() != 0
    }

    /// Sets the bit for `i`. Returns `true` iff the bit was clear — for
    /// an event port, whether this send made a new notification rather
    /// than coalescing into a pending one.
    pub(crate) fn set(&mut self, i: u64) -> bool {
        let w = (i / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let bit = 1u64 << (i % 64);
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        let s = w / 64;
        if s >= self.selectors.len() {
            self.selectors.resize(s + 1, 0);
        }
        self.selectors[s] |= 1u64 << (w % 64);
        self.count += 1;
        true
    }

    /// Number of set bits.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Clears every set bit in ascending order, invoking `f` per index.
    /// O(set words), not O(address space).
    pub(crate) fn drain_set_bits(&mut self, mut f: impl FnMut(u64)) {
        for s in 0..self.selectors.len() {
            while self.selectors[s] != 0 {
                let w = s * 64 + self.selectors[s].trailing_zeros() as usize;
                let mut word = self.words[w];
                while word != 0 {
                    f(w as u64 * 64 + u64::from(word.trailing_zeros()));
                    word &= word - 1;
                }
                self.words[w] = 0;
                self.selectors[s] &= self.selectors[s] - 1;
            }
        }
        self.count = 0;
    }

    /// Clears and returns the lowest set bit, if any.
    pub(crate) fn take_lowest(&mut self) -> Option<u64> {
        let s = self.selectors.iter().position(|&sel| sel != 0)?;
        let w = s * 64 + self.selectors[s].trailing_zeros() as usize;
        let word = &mut self.words[w];
        let b = word.trailing_zeros();
        *word &= *word - 1;
        if *word == 0 {
            self.selectors[s] &= !(1u64 << (w % 64));
        }
        self.count -= 1;
        Some(w as u64 * 64 + u64::from(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_and_takes_in_order() {
        let mut bm = Bitmap::default();
        assert!(bm.set(70));
        assert!(bm.set(3));
        assert!(!bm.set(3), "second set coalesces");
        assert_eq!(bm.len(), 2);
        assert_eq!(bm.take_lowest(), Some(3));
        assert_eq!(bm.take_lowest(), Some(70));
        assert_eq!(bm.take_lowest(), None);
        assert_eq!(bm.len(), 0);
    }

    #[test]
    fn drain_visits_ascending_order() {
        let mut bm = Bitmap::default();
        for i in [500, 1, 64, 4097] {
            bm.set(i);
        }
        let mut out = Vec::new();
        bm.drain_set_bits(|i| out.push(i));
        assert_eq!(out, vec![1, 64, 500, 4097]);
        assert_eq!(bm.len(), 0);
        assert_eq!(bm.take_lowest(), None);
    }

    #[test]
    fn grows_past_one_selector_word() {
        // Port numbers are never reused, so a long-lived domain can push
        // its port numbers past the 4096 a single selector word spans;
        // the bitmap layers must grow with it.
        let mut bm = Bitmap::default();
        assert!(bm.set(5000));
        assert_eq!(bm.take_lowest(), Some(5000));
    }
}
