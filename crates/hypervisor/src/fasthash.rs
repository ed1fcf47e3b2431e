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
//! One table breaks the rule today: the fabric's connection table keys
//! on guest-chosen flow ids, and stays on Fx because SipHash on every
//! switched frame is a cost that needs measuring on its own.
//!
//! `FastHasher` is the rustc-style Fx construction: rotate, xor,
//! multiply by a golden-ratio-derived odd constant. It is deterministic
//! across runs, which is at worst neutral for the determinism goldens
//! (nothing observable may depend on map iteration order — the random
//! SipHash seed already scrambled it every run).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` on the fixed-seed [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` on the fixed-seed [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

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
}
