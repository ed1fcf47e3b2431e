//! A fixed-seed multiply-xor hasher for the platform's hot lookup
//! tables (frame table, grant entries, domain maps, event ports).
//!
//! **The hashing rule.** [`FastMap`] is for keys the platform allocates:
//! domain ids, event ports, grant refs, ring ids and the request ids a
//! frontend assigns. SipHash (the std `HashMap` hasher, randomly seeded
//! per map) is for keys a guest or tenant chooses, such as sectors and
//! image names. The fixed-seed Fx hash multiplies by one constant, so
//! keys that share their low bits land in the same buckets, and anyone
//! who knows the constant can choose a key set that collides: one
//! tenant's keys would slow every lookup on a backend it shares.
//! Platform-allocated keys cannot be chosen, so for them that defence
//! buys nothing and costs ~20 ns per probe — which dominates the batched
//! grant path, where one multicall touches the frame table and the
//! grant table once per array entry, and the block path, where every
//! request probes the guest table and the frontend's in-flight table.
//!
//! `FastHasher` is the rustc-style Fx construction: rotate, xor,
//! multiply by a golden-ratio-derived odd constant. It is deterministic
//! across runs, which is at worst neutral for the determinism goldens
//! (nothing observable may depend on map iteration order — the random
//! SipHash seed already scrambled it every run).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A `HashMap` on the fixed-seed [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` on the fixed-seed [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// A [`FastMap`] fronted by `N` inline slots: the first `N` distinct keys
/// live in a fixed array probed linearly (no hashing, no heap), and only
/// entries beyond that spill into the hash map.
///
/// This is the small-entry fast path for tables that hold only a handful
/// of keys: a linear scan over a few inline pairs beats a hash probe
/// while staying allocation-free. The slots go to the first keys
/// inserted, and a key keeps its slot until it is removed, whether or
/// not it is still hot; in a large table every other key pays the inline
/// scan before its hash probe. The same shape as the frame table's
/// two-entry inline reverse index (see DESIGN.md "Reverse index folded
/// into the frame table"), generalised.
///
/// Lookups check the inline slots first, so an entry never exists in
/// both stores. Removing an inline entry backfills from the spill only
/// lazily (on a later insert), keeping removal O(N); iteration order is
/// inline-then-spill and deterministic for the inline prefix.
#[derive(Debug, Clone)]
pub struct InlineFastMap<K, V, const N: usize> {
    inline: [Option<(K, V)>; N],
    spill: FastMap<K, V>,
}

impl<K: Eq + Hash + Copy, V, const N: usize> InlineFastMap<K, V, N> {
    /// Creates an empty map.
    pub fn new() -> Self {
        InlineFastMap {
            inline: std::array::from_fn(|_| None),
            spill: FastMap::default(),
        }
    }

    /// Looks up `key`, probing the inline slots before the spill map.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        for slot in &self.inline {
            if let Some((k, v)) = slot {
                if k == key {
                    return Some(v);
                }
            }
        }
        self.spill.get(key)
    }

    /// Mutable lookup, same probe order as [`Self::get`].
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        for slot in &mut self.inline {
            if let Some((k, v)) = slot {
                if k == key {
                    return Some(v);
                }
            }
        }
        self.spill.get_mut(key)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key -> value`, returning the previous value if any. New
    /// keys take the first free inline slot; only when all `N` are
    /// occupied does the entry go to the spill map.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let mut free = None;
        for (i, slot) in self.inline.iter_mut().enumerate() {
            match slot {
                Some((k, v)) if *k == key => return Some(std::mem::replace(v, value)),
                None if free.is_none() => free = Some(i),
                _ => {}
            }
        }
        if let Some(old) = self.spill.remove(&key) {
            // Key was spilled; keep it wherever there is room now.
            match free {
                Some(i) => self.inline[i] = Some((key, value)),
                None => {
                    self.spill.insert(key, value);
                }
            }
            return Some(old);
        }
        match free {
            Some(i) => self.inline[i] = Some((key, value)),
            None => {
                self.spill.insert(key, value);
            }
        }
        None
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        for slot in &mut self.inline {
            if matches!(slot, Some((k, _)) if k == key) {
                return slot.take().map(|(_, v)| v);
            }
        }
        self.spill.remove(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inline.iter().filter(|s| s.is_some()).count() + self.spill.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates every entry, inline slots first.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.inline
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (k, v)))
            .chain(self.spill.iter())
    }

    /// Removes every entry, keeping the spill map's capacity.
    pub fn clear(&mut self) {
        for slot in &mut self.inline {
            *slot = None;
        }
        self.spill.clear();
    }
}

impl<K: Eq + Hash + Copy, V, const N: usize> Default for InlineFastMap<K, V, N> {
    fn default() -> Self {
        Self::new()
    }
}

/// Multiplier from FxHash: 2^64 / phi, forced odd.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// The rotate-xor-multiply hasher. One multiply per word of input; the
/// integer keys used throughout this crate hash in a single step.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes([
                c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
            ]));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = FastHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of("grant"), hash_of("grant"));
    }

    #[test]
    fn distinguishes_nearby_integer_keys() {
        // Consecutive MFNs / grant refs (the dominant key shape) must not
        // collide or cluster trivially.
        let hashes: std::collections::HashSet<u64> = (0u64..4096).map(hash_of).collect();
        assert_eq!(hashes.len(), 4096);
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FastMap<u32, &str> = FastMap::default();
        m.insert(7, "seven");
        m.insert(9, "nine");
        assert_eq!(m.get(&7), Some(&"seven"));
        assert_eq!(m.remove(&9), Some("nine"));
        assert!(m.get(&9).is_none());
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        let a = hash_of([1u8, 2, 3, 4, 5, 6, 7, 8, 9].as_slice());
        let b = hash_of([1u8, 2, 3, 4, 5, 6, 7, 8, 10].as_slice());
        assert_ne!(a, b, "the 9th byte (chunk remainder) must matter");
    }

    #[test]
    fn inline_map_basic_ops() {
        let mut m: InlineFastMap<u32, &str, 2> = InlineFastMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, "one"), None);
        assert_eq!(m.insert(2, "two"), None);
        // Third distinct key spills past the two inline slots.
        assert_eq!(m.insert(3, "three"), None);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.get(&3), Some(&"three"));
        assert_eq!(m.insert(3, "III"), Some("three"));
        assert_eq!(m.remove(&2), Some("two"));
        assert_eq!(m.get(&2), None);
        *m.get_mut(&1).unwrap() = "I";
        assert_eq!(m.get(&1), Some(&"I"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn inline_map_never_duplicates_across_stores() {
        // Fill inline, spill one, free an inline slot, then re-insert the
        // spilled key: it must end up in exactly one store.
        let mut m: InlineFastMap<u32, u32, 2> = InlineFastMap::new();
        m.insert(1, 10);
        m.insert(2, 20);
        m.insert(3, 30); // spilled
        m.remove(&1); // inline slot frees
        assert_eq!(m.insert(3, 31), Some(30)); // migrates inline
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&3), Some(&31));
        assert_eq!(m.iter().count(), 2);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(&3), None);
    }

    #[test]
    fn inline_map_agrees_with_std_map_under_random_ops() {
        // Deterministic pseudo-random op stream checked against HashMap.
        let mut m: InlineFastMap<u64, u64, 4> = InlineFastMap::new();
        let mut reference: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..4096u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 16;
            match x % 3 {
                0 => {
                    assert_eq!(m.insert(key, i), reference.insert(key, i));
                }
                1 => {
                    assert_eq!(m.remove(&key), reference.remove(&key));
                }
                _ => {
                    assert_eq!(m.get(&key), reference.get(&key));
                }
            }
            assert_eq!(m.len(), reference.len());
        }
    }
}
