//! The speed gauge: a fixed kernel of the benchmark's own whose time tells
//! how fast the machine runs at the moment it is read.
//!
//! On the shared machine this benchmark was built on, the same code runs
//! up to ~1.8× faster or slower in phases from half a second to minutes
//! long. The gauge looks up random keys in a hash table of about a
//! megabyte, as the platform's own maps do; of the kernels tried (ALU
//! chains, pointer chases from 256 KiB to 64 MiB, page copies, allocator
//! churn, page faults) it followed the workloads' phases most closely
//! (see `README.md`). It calls nothing of the program, so a change to the
//! program leaves it alone.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// Keys in the table.
const KEYS: u64 = 1 << 16;
/// Lookups per reading.
const LOOKUPS: usize = 1 << 15;
/// One reading at the reference speed, s: about a reading on the slow
/// speed of the machine this benchmark was built on (2-vCPU Xeon KVM
/// guest), so figures at the reference speed read like wall-clock ones
/// taken there.
const REFERENCE_S: f64 = 1.75e-3;

/// A hash table with fixed hasher keys, so every process probes it alike,
/// and the key stream it is read with.
pub(crate) struct Gauge {
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    key: u64,
}

impl Gauge {
    pub(crate) fn new() -> Self {
        let mut table = HashMap::with_capacity_and_hasher(KEYS as usize, Default::default());
        for k in 0..KEYS {
            table.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k);
        }
        Gauge { table, key: 7 }
    }

    /// How many times slower than the reference speed the machine runs
    /// now.
    pub(crate) fn slowdown(&mut self) -> f64 {
        let t0 = Instant::now();
        let (mut k, mut sum) = (self.key, 0u64);
        for _ in 0..LOOKUPS {
            k ^= k << 13;
            k ^= k >> 7;
            k ^= k << 17;
            let key = (k % KEYS).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            sum = sum.wrapping_add(self.table.get(&key).copied().unwrap_or(0));
        }
        black_box(sum);
        self.key = k;
        t0.elapsed().as_secs_f64() / REFERENCE_S
    }
}
