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

    /// Whether the bit for `i` is set.
    pub(crate) fn contains(&self, i: u64) -> bool {
        self.words
            .get((i / 64) as usize)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Clears the lowest `n` set bits, or every set bit if fewer are set,
    /// in ascending order, invoking `f` per index, and returns how many
    /// it cleared. One selector scan serves the whole run, and each word
    /// is read and written once: taken whole, or cut below the `n`-th
    /// bit.
    pub(crate) fn take_lowest_run(&mut self, n: usize, mut f: impl FnMut(u64)) -> usize {
        let mut taken = 0;
        let mut s = 0;
        while taken < n && s < self.selectors.len() {
            let sel = self.selectors[s];
            if sel == 0 {
                s += 1;
                continue;
            }
            let w = s * 64 + sel.trailing_zeros() as usize;
            let word = self.words[w];
            let mut keep = word;
            for _ in 0..(n - taken).min(word.count_ones() as usize) {
                keep &= keep - 1;
            }
            let mut take = word & !keep;
            while take != 0 {
                f(w as u64 * 64 + u64::from(take.trailing_zeros()));
                take &= take - 1;
                taken += 1;
            }
            self.words[w] = keep;
            if keep == 0 {
                // `w` is the lowest live word of this selector.
                self.selectors[s] = sel & (sel - 1);
            }
        }
        self.count -= taken;
        taken
    }

    /// Checks the derived layers against the bits: each selector bit is
    /// set exactly for a nonzero word, and the count is the number of
    /// set bits.
    pub(crate) fn check_layers(&self) -> Result<(), String> {
        let mut count = 0;
        for w in 0..self.selectors.len().max(self.words.len().div_ceil(64)) * 64 {
            let word = self.words.get(w).copied().unwrap_or(0);
            let selected = self
                .selectors
                .get(w / 64)
                .is_some_and(|sel| sel >> (w % 64) & 1 == 1);
            if selected != (word != 0) {
                return Err(format!(
                    "selector bit of word {w} is {selected} for word {word:#x}"
                ));
            }
            count += word.count_ones() as usize;
        }
        if count != self.count {
            return Err(format!("count {} but {count} bits set", self.count));
        }
        Ok(())
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
    fn runs_take_what_single_takes_would() {
        // Vacancies across three selector words, one word cut mid-run.
        let members: Vec<u64> = (0..9000).filter(|i| i % 7 != 3 && i % 130 < 90).collect();
        let all = members.len();
        for n in [0, 1, 5, 63, 64, 65, 200, 4100, all, all + 9] {
            let (mut run, mut single) = (Bitmap::default(), Bitmap::default());
            for &i in &members {
                run.set(i);
                single.set(i);
            }
            let mut got = Vec::new();
            assert_eq!(run.take_lowest_run(n, |i| got.push(i)), got.len());
            let want: Vec<u64> = (0..n).map_while(|_| single.take_lowest()).collect();
            assert_eq!(got, want, "run of {n}");
            assert_eq!(run.len(), single.len());
            run.check_layers().unwrap();
            let (mut rest_run, mut rest_single) = (Vec::new(), Vec::new());
            run.drain_set_bits(|i| rest_run.push(i));
            single.drain_set_bits(|i| rest_single.push(i));
            assert_eq!(rest_run, rest_single);
        }
    }

    #[test]
    fn check_layers_catches_a_lost_selector_bit() {
        let mut bm = Bitmap::default();
        bm.set(5000);
        bm.set(7);
        bm.check_layers().unwrap();
        bm.selectors[1] = 0;
        assert!(bm.check_layers().is_err());
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
