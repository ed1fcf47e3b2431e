//! The integrity digest and the one dedup path.
//!
//! No frame stores a hash of its body, and a write never computes one.
//! Content hashes are computed where bodies are compared: the dedup
//! sweep hashes each candidate as it collects it, and
//! [`MemoryManager::verify_integrity`] hashes each frame as it folds the
//! digest. The canonical zero page is recognised by identity and carries
//! the constant [`ZERO_PAGE_HASH`], so zero frames are never rescanned.
//!
//! [`MemoryManager::share_identical`] — reached through the gated
//! `SysctlDedup` — is the one dedup path. It confirms hash groups with
//! byte equality over a sharded sweep of the dense frame table and merges
//! each group onto its lowest MFN.

use super::page::{content_hash, PageRef, ZERO_PAGE_HASH};
use super::{MemoryManager, Mfn, Pfn};
use crate::domain::DomId;
use crate::fasthash::FastMap;

/// Cap on dedup shard-count bits. The sweep partitions `(hash, mfn)`
/// pairs by their top hash bits via a counting-sort pass, sizing the
/// shard count to roughly one-eighth of the candidate count (up to
/// `2^DEDUP_SHARD_BITS`), so each per-shard sort touches a handful of
/// candidates even at 50k-frame fleet scale while a small fleet pays
/// for only a small counting table. The result is deterministic
/// because the shards partition the hash space (a hash group never
/// straddles shards).
const DEDUP_SHARD_BITS: u32 = 16;

impl MemoryManager {
    /// Always 0: no write defers a hash. Kept only because the
    /// end-of-run check of the `perfbench/` benchmark
    /// (`perfbench/src/workloads/mod.rs::check_platform`) reads it.
    pub fn pending_rehash(&self) -> usize {
        0
    }

    /// A deterministic fleet-wide digest folded over `(mfn, hash)` in
    /// ascending MFN order, each hash computed from the frame's body as
    /// the fold reaches it: two managers holding the same logical memory
    /// produce the same digest.
    pub fn verify_integrity(&self) -> u64 {
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for (raw, f) in self.frames.iter() {
            digest ^= raw.rotate_left(17) ^ content_hash(&f.data);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
        digest
    }

    /// Content-based page deduplication across all domains (the
    /// memory-density feature of the paper's introduction [21, 38]).
    ///
    /// **One** sweep of the dense frame table collects candidate
    /// `(hash, mfn)` pairs, hashing each candidate's body as it goes
    /// (the canonical zero page by identity, at no cost), which
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
    /// reach the page it was granted, and only that page. A sealed
    /// template's frames stay out too, so a sweep never moves a template
    /// page onto a frame another domain owns. Returns the number of
    /// frames freed.
    pub fn share_identical(&mut self, granted: &[Mfn]) -> u64 {
        // One dense sweep collects candidates; no page bodies are
        // cloned, and no per-hash-bucket heap vectors are walked.
        let zero = PageRef::zero_page();
        let mut cands: Vec<(u64, u64)> = Vec::with_capacity(self.frames.len());
        for (raw, f) in self.frames.iter() {
            if f.mappings == 0 && !f.data.is_empty() && !self.maps_a_template(f) {
                let hash = if PageRef::ptr_eq(&f.data, &zero) {
                    ZERO_PAGE_HASH
                } else {
                    content_hash(&f.data)
                };
                cands.push((hash, raw));
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
            let freed = self.merge_bucket(&bucket);
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
                freed += self.merge_bucket(&bucket);
            }
        }
        freed
    }

    /// Moves every mapper of `bucket[1..]` (byte-identical duplicates
    /// of `bucket[0]`, MFN-ascending) onto `bucket[0]` and frees the
    /// duplicates. Canonical-frame state and the mapper transfer are each
    /// paid once per bucket, not once per duplicate — this is the inner
    /// loop of the fleet-scale sweep.
    fn merge_bucket(&mut self, bucket: &[u64]) -> u64 {
        let canonical = bucket[0];
        // The merge is content-identical, so it marks no dirty log. A
        // frozen mapper still records the bytes it keeps seeing as its
        // pre-image (first touch wins, so an earlier capture stands).
        let canon_data = if !self.frozen.is_empty() {
            self.frames.get(canonical).map(|f| f.data.clone())
        } else {
            None
        };
        let mut moved = std::mem::take(&mut self.scratch_moved);
        moved.clear();
        let mut freed = 0u64;
        for &dup in &bucket[1..] {
            let released = self.frames.release(dup, |f| {
                moved.extend_from_slice(f.refs.as_slice());
                true
            });
            if released == Ok(true) {
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
}

#[cfg(test)]
mod sharing_tests {
    use super::*;
    use crate::memory::PageRef;

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

    /// A sweep never moves a sealed template's page onto another
    /// domain's frame: once that domain is released, the frame would
    /// still name it as owner, and the sealed-template write check,
    /// which reads the owner, would let the template's page (and every
    /// clone's view of it) change in place.
    #[test]
    fn sweep_keeps_a_sealed_templates_pages_on_its_own_frames() {
        let mut m = MemoryManager::new(64);
        let (peer, tpl, clone) = (DomId(1), DomId(3), DomId(10));
        m.populate(peer, 1).unwrap();
        m.populate(tpl, 1).unwrap();
        m.write(peer, Pfn(0), b"same").unwrap();
        m.write(tpl, Pfn(0), b"same").unwrap();
        m.template_arm(tpl).unwrap();
        m.clone_space(tpl, clone).unwrap();
        m.share_identical(&[]);
        m.release_domain(peer);
        let mfn = m.translate(tpl, Pfn(0)).unwrap();
        assert!(m.write_mfn_page(mfn, PageRef::new(b"mutated")).is_err());
        assert_eq!(m.read(clone, Pfn(0)).unwrap(), b"same");
        m.check_consistency().unwrap();
    }

    /// A sweep that runs before a domain is sealed may merge its page
    /// onto another domain's frame, and sealing leaves it there. Writing
    /// that frame in place would change the template under every clone,
    /// so `write_mfn_page` refuses it while the other domain lives and
    /// after it is released.
    #[test]
    fn write_mfn_refuses_a_template_page_merged_before_sealing() {
        let mut m = MemoryManager::new(64);
        let (peer, tpl, clone) = (DomId(1), DomId(3), DomId(10));
        m.populate(peer, 1).unwrap();
        m.populate(tpl, 1).unwrap();
        m.write(peer, Pfn(0), b"same").unwrap();
        m.write(tpl, Pfn(0), b"same").unwrap();
        m.share_identical(&[]);
        let mfn = m.translate(tpl, Pfn(0)).unwrap();
        assert_eq!(m.owner(mfn).unwrap(), peer, "merged onto the peer's frame");
        m.template_arm(tpl).unwrap();
        m.clone_space(tpl, clone).unwrap();
        for peer_alive in [true, false] {
            if !peer_alive {
                m.release_domain(peer);
            }
            assert!(
                m.write_mfn_page(mfn, PageRef::new(b"mutated")).is_err(),
                "alive: {peer_alive}"
            );
            assert_eq!(m.read(clone, Pfn(0)).unwrap(), b"same");
            assert_eq!(m.read(tpl, Pfn(0)).unwrap(), b"same");
            m.check_consistency().unwrap();
        }
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
mod sharing_proptests {
    use super::*;
    use crate::hypercall::ShadowOp;
    use crate::memory::PAGE_SIZE;
    use std::collections::HashMap;
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
    /// index, share accounting) in agreement with the naively
    /// recomputed shadow model, and every read in agreement
    /// with a per-(dom, pfn) content shadow.
    #[test]
    fn interleaved_ops_agree_with_shadow_model() {
        Runner::cases(96).run("interleaved ops vs shadow model", |g| {
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
                    // domain duplicates for the dedup sweep). Lengths
                    // run from tiny to a full page, and val 0 at full
                    // page length is the canonical zero page, which the
                    // sweep recognises by identity.
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
                    // of its pages by MFN.
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
                            m.write_mfn_page(mfn, PageRef::new(&body)).unwrap();
                            // write_mfn_page edits the frame in place: every
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
mod golden_tests {
    use super::*;
    use crate::memory::{PageRef, PAGE_SIZE};
    use std::collections::BTreeMap;

    type Shadow = BTreeMap<(DomId, u64), Vec<u8>>;

    fn put(m: &mut MemoryManager, shadow: &mut Shadow, dom: DomId, pfn: u64, body: &[u8]) {
        m.write(dom, Pfn(pfn), body).unwrap();
        shadow.insert((dom, pfn), body.to_vec());
    }

    fn put_page(m: &mut MemoryManager, shadow: &mut Shadow, dom: DomId, pfn: u64, page: &PageRef) {
        m.write_page(dom, Pfn(pfn), page.clone()).unwrap();
        shadow.insert((dom, pfn), page.to_vec());
    }

    fn sharing(m: &MemoryManager) -> Vec<(u64, Vec<u32>)> {
        let md = m.multi_domain_frames();
        md.into_iter()
            .map(|(mfn, doms)| (mfn.0, doms.iter().map(|d| d.0).collect()))
            .collect()
    }

    fn read_back(m: &MemoryManager, shadow: &Shadow) {
        for (&(dom, pfn), body) in shadow {
            assert_eq!(m.read(dom, Pfn(pfn)).unwrap(), *body, "{dom} pfn {pfn}");
        }
        m.check_consistency().unwrap();
    }

    /// One fixed sequence over every kind of write body (tiny, bulk,
    /// all-zero, empty, shared handle) and every path that moves a page
    /// body (rewrite between sweeps, freeze and rollback, template seal
    /// and clone). Each sweep's freed count, the integrity digest, the
    /// cross-domain sharing and every page's read-back are pinned, so
    /// how and when bodies are hashed can never change what dedup merges.
    #[test]
    fn dedup_and_integrity_are_pinned() {
        let mut m = MemoryManager::new(256);
        let mut shadow = Shadow::new();
        let (a, b, tpl, clone) = (DomId(1), DomId(2), DomId(3), DomId(10));
        for d in [a, b, tpl] {
            m.populate(d, 8).unwrap();
            for pfn in 0..8 {
                shadow.insert((d, pfn), Vec::new());
            }
        }
        let bulk = |tag: u8| vec![tag; PAGE_SIZE];
        let tiny = b"kernel-text".to_vec();
        let zero = vec![0u8; PAGE_SIZE];
        for d in [a, b] {
            put(&mut m, &mut shadow, d, 0, &tiny);
            put(&mut m, &mut shadow, d, 1, &bulk(0x11));
            put(&mut m, &mut shadow, d, 2, &zero);
            put(&mut m, &mut shadow, d, 3, &[]);
        }
        let handle = PageRef::new(&bulk(0x22));
        put_page(&mut m, &mut shadow, a, 4, &handle);
        put_page(&mut m, &mut shadow, b, 4, &handle);
        put(&mut m, &mut shadow, a, 5, &bulk(0x33));
        put(&mut m, &mut shadow, b, 5, &bulk(0x44));
        put(&mut m, &mut shadow, a, 6, &[0x5a; 300]);
        put_page(&mut m, &mut shadow, b, 6, &PageRef::new(&[0x5a; 300]));
        put(&mut m, &mut shadow, a, 7, b"a-only");
        for d in [a, b] {
            let page = m.read(d, Pfn(2)).unwrap();
            assert!(PageRef::ptr_eq(&page, &PageRef::zero_page()), "interned");
        }
        let mut freed = vec![m.share_identical(&[])];
        read_back(&m, &shadow);
        let digest_first = m.verify_integrity();
        let sharing_first = sharing(&m);

        // Rewritten to match a peer, then to diverge from it.
        put(&mut m, &mut shadow, b, 5, &bulk(0x33));
        freed.push(m.share_identical(&[]));
        put(&mut m, &mut shadow, b, 5, &bulk(0x66));
        freed.push(m.share_identical(&[]));
        read_back(&m, &shadow);

        // Freeze, write (one write merged by a sweep while frozen), roll
        // back, and sweep the restored pre-images.
        m.freeze(a, None).unwrap();
        put(&mut m, &mut shadow, a, 1, &bulk(0x77));
        put(&mut m, &mut shadow, a, 7, &tiny);
        freed.push(m.share_identical(&[]));
        let restored = m.rollback_frozen(a).unwrap();
        shadow.insert((a, 1), bulk(0x11));
        shadow.insert((a, 7), b"a-only".to_vec());
        freed.push(m.share_identical(&[]));
        read_back(&m, &shadow);

        // A sealed template and one clone reading through it.
        put(&mut m, &mut shadow, tpl, 0, &bulk(0x11));
        put(&mut m, &mut shadow, tpl, 1, &tiny);
        put(&mut m, &mut shadow, tpl, 2, &zero);
        put(&mut m, &mut shadow, tpl, 3, &bulk(0x88));
        m.template_arm(tpl).unwrap();
        m.clone_space(tpl, clone).unwrap();
        for pfn in 0..8 {
            let body = shadow[&(tpl, pfn)].clone();
            shadow.insert((clone, pfn), body);
        }
        read_back(&m, &shadow);
        put(&mut m, &mut shadow, clone, 3, &bulk(0x11));
        put(&mut m, &mut shadow, clone, 5, &tiny);
        freed.push(m.share_identical(&[]));
        read_back(&m, &shadow);

        assert_eq!(freed, [5, 1, 0, 1, 1, 2]);
        assert_eq!(restored, 2);
        assert_eq!(digest_first, 0x46fa_5d4c_3040_12d1);
        let pair = vec![1, 2];
        assert_eq!(
            sharing_first,
            [4096, 4097, 4098, 4100, 4102].map(|mfn| (mfn, pair.clone()))
        );
        let digest_last = m.verify_integrity();
        assert_eq!(digest_last, 0xdee8_ee66_811a_9cde);
        assert_eq!(m.verify_integrity(), digest_last, "the digest is stable");
        // The clone's private pages join the pair's frames; the sealed
        // template's pages stay on its own frames.
        let fleet = vec![1, 2, 10];
        let family = vec![3, 10];
        assert_eq!(
            sharing(&m),
            [
                (4096, fleet.clone()),
                (4097, fleet),
                (4098, pair.clone()),
                (4100, pair.clone()),
                (4102, pair),
                (4112, family.clone()),
                (4113, family.clone()),
                (4114, family.clone()),
                (4116, family.clone()),
                (4118, family.clone()),
                (4119, family),
            ]
        );
    }
}
