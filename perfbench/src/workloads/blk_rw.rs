//! `blk_rw`: block reads beside writes through the split block device.
//!
//! Eight evaluation guests take turns. In its turn a guest submits one
//! batch of eight 4 KiB reads and four page writes, BlkBack processes
//! them, and the guest polls until all twelve complete. Sectors come from
//! a bounded per-guest window that set-up pre-writes, so every read hits
//! a page whose contents the benchmark knows. An op is one completed
//! request.

use xoar_core::platform::{GuestConfig, Platform};
use xoar_devices::blk::{BlkOp, BlkResponse, BlkStatus};
use xoar_devices::ring::RingError;
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::DomId;

use super::{boot, check_platform};
use crate::trace::{Span, Tracer};
use crate::{Check, Rng, Step, Workload};

const GUESTS: usize = 8;
/// Sectors per 4 KiB page.
const PAGE_SECTORS: u64 = 8;
/// Page-sized slots in each guest's sector window.
const SLOTS: u64 = 64;
/// Source pages per guest, at `SRC_PFN..SRC_PFN + SRC_PAGES`.
const SRC_PAGES: u64 = 16;
const SRC_PFN: u64 = 16;
const READS: usize = 8;
const WRITES: usize = 4;

/// The first eight bytes of source page `k` of guest `g`.
fn tag(g: usize, k: u64) -> u64 {
    0xb10c_0000_0000 | (g as u64) << 8 | k
}

fn source_page(g: usize, k: u64) -> Vec<u8> {
    let mut page = vec![(g as u8) ^ (k as u8).wrapping_mul(37); 4096];
    page[..8].copy_from_slice(&tag(g, k).to_le_bytes());
    page
}

/// The workload's state.
pub struct BlkRw {
    p: Platform,
    guests: [DomId; GUESTS],
    /// Which source page each slot of each guest last received.
    written: [[u64; SLOTS as usize]; GUESTS],
    rng: Rng,
    next_guest: usize,
    errors: u64,
    submits: u64,
    ring_full: u64,
    reads: u64,
    read_hits: u64,
}

/// Writes `(slot, source page)` pairs for guest `g` outside any span,
/// processes them, and drains their completions.
fn prewrite(p: &mut Platform, g: DomId, writes: &[(u64, u64)]) -> bool {
    for &(slot, k) in writes {
        if p.blk_write_page(g, slot * PAGE_SECTORS, SRC_PFN + k)
            .is_err()
        {
            return false;
        }
    }
    p.process_blkbacks();
    (0..writes.len()).all(|_| p.blk_poll(g).is_some_and(|r| r.status == BlkStatus::Ok))
}

impl Workload for BlkRw {
    const NAME: &'static str = "blk_rw";
    /// 16384 guest turns (about 35 ms): 2048 rounds of all eight guests.
    const WINDOW_STEPS: u64 = 16_384;
    const TRACED_STEPS: u64 = 2 * 16_384;
    const PHASE_EXPONENT: f64 = 0.92;

    fn setup<T: Tracer>(seed: u64, t: &mut T) -> Self {
        let mut rng = Rng::new(seed);
        let mut p = boot(t);
        let ts = p.services.toolstacks[0];
        let mut guests = [DomId(0); GUESTS];
        let mut written = [[0u64; SLOTS as usize]; GUESTS];
        for (g, dom) in guests.iter_mut().enumerate() {
            let o = t.begin(Span::SetupCreateGuest);
            *dom = p
                .create_guest(ts, GuestConfig::evaluation_guest(&format!("blk-{g}")))
                .expect("evaluation guest boots");
            t.end(o, 1, 1);
            for k in 0..SRC_PAGES {
                p.hv.mem
                    .write(*dom, Pfn(SRC_PFN + k), &source_page(g, k))
                    .expect("guest owns its source pages");
            }
            for first in (0..SLOTS).step_by(16) {
                let writes: Vec<(u64, u64)> = (first..first + 16)
                    .map(|slot| (slot, rng.below(SRC_PAGES)))
                    .collect();
                assert!(prewrite(&mut p, *dom, &writes), "pre-write completes");
                for (slot, k) in writes {
                    written[g][slot as usize] = k;
                }
            }
        }
        BlkRw {
            p,
            guests,
            written,
            rng,
            next_guest: 0,
            errors: 0,
            submits: 0,
            ring_full: 0,
            reads: 0,
            read_hits: 0,
        }
    }

    fn step<T: Tracer>(&mut self, t: &mut T, check: &mut Check) -> Step {
        let g = self.next_guest;
        self.next_guest = (g + 1) % GUESTS;
        let dom = self.guests[g];

        let o = t.begin(Span::ClientInputs);
        let mut reads = [(BlkOp::Read, 0u64, PAGE_SECTORS); READS];
        let mut expect = [0u64; READS];
        for (r, e) in reads.iter_mut().zip(&mut expect) {
            let slot = self.rng.below(SLOTS);
            r.1 = slot * PAGE_SECTORS;
            *e = tag(g, self.written[g][slot as usize]);
        }
        let mut writes = [(0u64, 0u64); WRITES];
        for w in &mut writes {
            *w = (self.rng.below(SLOTS), self.rng.below(SRC_PAGES));
        }
        t.end(o, 1, 1);

        let mut submitted = 0usize;
        self.submits += 1 + WRITES as u64;
        let o = t.begin(Span::BlkSubmitBatch);
        let batch = self.p.blk_submit_batch(dom, &reads).map(|ids| ids[0]);
        t.end(o, 1, 1);
        let first_read = match batch {
            Ok(first) => {
                submitted += READS;
                first
            }
            Err(e) => {
                self.ring_full += u64::from(e == RingError::Full);
                for _ in 0..READS {
                    check.op(false, "blk read batch refused by the ring");
                }
                u64::MAX
            }
        };
        let mut wrote = [Ok(0); WRITES];
        let o = t.begin(Span::BlkWritePage);
        for (r, &(slot, k)) in wrote.iter_mut().zip(&writes) {
            *r = self.p.blk_write_page(dom, slot * PAGE_SECTORS, SRC_PFN + k);
        }
        t.end(o, WRITES as u64, WRITES as u64);
        for r in wrote {
            match r {
                Ok(_) => submitted += 1,
                Err(e) => {
                    self.ring_full += u64::from(e == RingError::Full);
                    check.op(false, "blk write refused by the ring");
                }
            }
        }

        let o = t.begin(Span::BlkbackProcess);
        let stats = self.p.process_blkbacks();
        t.end(o, 1, stats.completed);
        self.errors += stats.errors;

        let mut resps: [Option<BlkResponse>; READS + WRITES] = Default::default();
        let o = t.begin(Span::BlkPoll);
        for r in &mut resps[..submitted] {
            *r = self.p.blk_poll(dom);
        }
        t.end(o, submitted as u64, submitted as u64);

        let o = t.begin(Span::ClientCheck);
        let mut ok_ops = 0;
        for resp in &resps[..submitted] {
            let Some(resp) = resp else {
                check.op(false, "blk request never completed");
                continue;
            };
            let good = resp.status == BlkStatus::Ok
                && match resp.id.checked_sub(first_read) {
                    // A read returns the page last written to its sector.
                    Some(i) if i < READS as u64 => {
                        self.reads += 1;
                        resp.payload.as_ref().is_some_and(|page| {
                            self.read_hits += 1;
                            page.len() == 4096
                                && page.as_slice()[..8] == expect[i as usize].to_le_bytes()
                        })
                    }
                    _ => true,
                };
            ok_ops += u64::from(good);
            check.op(good, "blk read returned the wrong page");
        }
        // Writes land in ring order: the last write to a slot wins.
        for &(slot, k) in &writes {
            self.written[g][slot as usize] = k;
        }
        drop(resps);
        t.end(o, 1, 1);
        Step {
            ops: ok_ops,
            latency_ns: None,
        }
    }

    fn finish(&mut self, check: &mut Check) {
        // Every slot of every guest holds exactly the last page written.
        for (g, &dom) in self.guests.iter().enumerate() {
            for first in (0..SLOTS).step_by(READS) {
                let reads: Vec<_> = (first..first + READS as u64)
                    .map(|s| (BlkOp::Read, s * PAGE_SECTORS, PAGE_SECTORS))
                    .collect();
                let Ok(ids) = self.p.blk_submit_batch(dom, &reads) else {
                    check.holds(false, "final read-back submitted");
                    return;
                };
                self.p.process_blkbacks();
                for _ in 0..READS {
                    let resp = self.p.blk_poll(dom);
                    let good = resp.is_some_and(|r| {
                        let slot = first + (r.id - ids[0]);
                        let want = source_page(g, self.written[g][slot as usize]);
                        r.payload
                            .is_some_and(|page| page.as_slice() == want.as_slice())
                    });
                    check.holds(good, "final read-back matches the last write");
                }
            }
        }
        check_platform(&mut self.p, check);
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("blkback.errors", self.errors as f64),
            (
                "ring.full_per_attempt",
                self.ring_full as f64 / self.submits.max(1) as f64,
            ),
            (
                "blk.read_hits_per_read",
                self.read_hits as f64 / self.reads.max(1) as f64,
            ),
        ]
    }
}
