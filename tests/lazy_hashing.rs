//! Differential tests for dirty-epoch (lazy) content hashing.
//!
//! Content hashes feed dedup, CoW-share verification, and the
//! analyzer's integrity audit — none of which run on the page-write hot
//! path. The lazy scheme therefore only marks a frame stale on write
//! and materializes at the consumers. These tests pin the equivalence that
//! makes that safe: a memory manager whose hashes are materialized
//! *eagerly after every operation* and one that materializes *only at
//! the built-in seams* must agree on every observable — dedup results,
//! frame accounting, page contents, p2m layout, and the integrity
//! audit — under randomized operation interleavings.

use xoar_analysis::snapshot::ModelSnapshot;
use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_hypervisor::memory::{MemoryManager, Pfn};
use xoar_hypervisor::{DomId, ShadowOp};
use xoar_sim::prop::{Gen, Runner};

const DOMS: [DomId; 3] = [DomId(1), DomId(2), DomId(3)];
const PAGES_PER_DOM: u64 = 24;

/// The operations the fuzzer interleaves. Every variant is applied
/// identically to both twins; only the hashing schedule differs.
#[derive(Debug, Clone)]
enum Op {
    /// A small write (inline-hashed on the lazy path).
    WriteSmall { dom: u8, pfn: u8, byte: u8 },
    /// A page-sized write of non-zero content (deferred rehash).
    WritePage { dom: u8, pfn: u8, fill: u8 },
    /// A page-sized all-zero write (canonical zero frame).
    WriteZero { dom: u8, pfn: u8 },
    /// An empty write (truncate to the empty page).
    WriteEmpty { dom: u8, pfn: u8 },
    /// A duplicate of another domain's page (dedup fodder).
    WriteDup { dom: u8, pfn: u8, fill: u8 },
    /// The full dedup sweep.
    Dedup,
    /// CoW break via the exclusive-frame path.
    Exclusive { dom: u8, pfn: u8 },
    /// Freeze a domain (microreboot baseline — a materialize seam).
    Freeze { dom: u8 },
    /// Drain a domain's log-dirty cursor (migration round).
    Clean { dom: u8 },
}

fn any_op(g: &mut Gen) -> Op {
    match g.u8(0..11) {
        0 | 1 => Op::WriteSmall {
            dom: g.u8(0..3),
            pfn: g.u8(0..PAGES_PER_DOM as u8),
            byte: g.u8(0..255),
        },
        2 | 3 => Op::WritePage {
            dom: g.u8(0..3),
            pfn: g.u8(0..PAGES_PER_DOM as u8),
            fill: g.u8(1..255),
        },
        4 => Op::WriteZero {
            dom: g.u8(0..3),
            pfn: g.u8(0..PAGES_PER_DOM as u8),
        },
        5 => Op::WriteEmpty {
            dom: g.u8(0..3),
            pfn: g.u8(0..PAGES_PER_DOM as u8),
        },
        6 | 7 => Op::WriteDup {
            dom: g.u8(0..3),
            pfn: g.u8(0..PAGES_PER_DOM as u8),
            fill: g.u8(1..8),
        },
        8 => Op::Dedup,
        9 => Op::Exclusive {
            dom: g.u8(0..3),
            pfn: g.u8(0..PAGES_PER_DOM as u8),
        },
        _ => {
            if g.bool() {
                Op::Freeze { dom: g.u8(0..3) }
            } else {
                Op::Clean { dom: g.u8(0..3) }
            }
        }
    }
}

/// The fleet, with one open log-dirty cursor per domain (a migration
/// in flight), in `DOMS` order.
fn fleet() -> (MemoryManager, Vec<u64>) {
    let mut m = MemoryManager::new(DOMS.len() as u64 * PAGES_PER_DOM + 16);
    for &d in &DOMS {
        m.populate(d, PAGES_PER_DOM).unwrap();
    }
    let cursors = DOMS
        .iter()
        .map(|&d| m.shadow_op(d, ShadowOp::Enable).unwrap().cursor().unwrap())
        .collect();
    (m, cursors)
}

/// Applies one op to a manager. Returns the op's numeric observable
/// (freed count, dirty-set length, …) so the twins can be compared on
/// return values too, not just end state.
fn apply(m: &mut MemoryManager, cursors: &[u64], op: &Op) -> u64 {
    let dom = |i: u8| DOMS[i as usize % DOMS.len()];
    match *op {
        Op::WriteSmall { dom: d, pfn, byte } => {
            m.write(dom(d), Pfn(pfn as u64), &[byte, byte ^ 0x5a])
                .unwrap();
            0
        }
        Op::WritePage { dom: d, pfn, fill } => {
            // Mix the fill with the pfn so distinct ops rarely collide
            // by accident; duplicates come from WriteDup.
            let body = [fill ^ pfn, fill].repeat(2048);
            m.write(dom(d), Pfn(pfn as u64), &body).unwrap();
            0
        }
        Op::WriteZero { dom: d, pfn } => {
            m.write(dom(d), Pfn(pfn as u64), &[0u8; 4096]).unwrap();
            0
        }
        Op::WriteEmpty { dom: d, pfn } => {
            m.write(dom(d), Pfn(pfn as u64), &[]).unwrap();
            0
        }
        Op::WriteDup { dom: d, pfn, fill } => {
            let body = [0xd0, fill].repeat(2048);
            m.write(dom(d), Pfn(pfn as u64), &body).unwrap();
            0
        }
        Op::Dedup => m.share_identical(&[]),
        Op::Exclusive { dom: d, pfn } => m
            .exclusive_mfn(dom(d), Pfn(pfn as u64))
            .map(|mfn| mfn.0)
            .unwrap_or(u64::MAX),
        Op::Freeze { dom: d } => m.freeze(dom(d)),
        Op::Clean { dom: d } => {
            let cursor = cursors[d as usize % DOMS.len()];
            let drained = m.shadow_op(dom(d), ShadowOp::Clean(cursor)).unwrap();
            drained.pfns().unwrap().len() as u64
        }
    }
}

/// Everything two schedules must agree on after a run.
fn observe(m: &mut MemoryManager) -> (u64, u64, Vec<u64>, Vec<Vec<(u64, u64)>>, Vec<Vec<Vec<u8>>>) {
    let per_dom_owned = DOMS.iter().map(|&d| m.owned_frames(d)).collect();
    let p2ms = DOMS
        .iter()
        .map(|&d| {
            m.p2m_entries(d)
                .into_iter()
                .map(|(p, mfn)| (p.0, mfn.0))
                .collect()
        })
        .collect();
    let contents = DOMS
        .iter()
        .map(|&d| {
            (0..PAGES_PER_DOM)
                .map(|p| m.read(d, Pfn(p)).unwrap().to_vec())
                .collect()
        })
        .collect();
    (
        m.free_frames(),
        m.shared_frames(),
        per_dom_owned,
        p2ms,
        contents,
    )
}

/// The core differential property: lazy materialization at the built-in
/// seams is observationally equivalent to materializing after every
/// single operation.
#[test]
fn lazy_hashing_equals_eager_hashing_under_random_interleavings() {
    Runner::cases(48).run("lazy hashing ≡ eager hashing", |g| {
        let ops = g.vec(1..80, any_op);
        let (mut lazy, lazy_cursors) = fleet();
        let (mut eager, eager_cursors) = fleet();
        eager.materialize_hashes();
        for (i, op) in ops.iter().enumerate() {
            let a = apply(&mut lazy, &lazy_cursors, op);
            let b = apply(&mut eager, &eager_cursors, op);
            // The eager twin re-hashes after *every* op; the lazy twin
            // only at the seams baked into dedup/freeze/verify.
            eager.materialize_hashes();
            assert_eq!(a, b, "op {i} {op:?} diverged: lazy={a} eager={b}");
        }
        assert_eq!(
            observe(&mut lazy),
            observe(&mut eager),
            "final state diverged after {} ops",
            ops.len()
        );
        // The fleet-wide integrity digests must agree: identical logical
        // memory yields identical `(mfn, hash)` folds regardless of when
        // each twin materialized.
        assert_eq!(lazy.verify_integrity(), eager.verify_integrity());
        assert_eq!(lazy.pending_rehash(), 0, "verify must drain the stale set");
        lazy.check_consistency().unwrap();
        eager.check_consistency().unwrap();
    });
}

/// Dedup must see *current* content, not stale hashes: a page that was
/// rewritten to match another page dedups, and a page rewritten away
/// from a match does not.
#[test]
fn dedup_sees_rewritten_content_not_stale_hashes() {
    let (mut m, _) = fleet();
    m.write(DomId(1), Pfn(0), &[7u8; 4096]).unwrap();
    m.write(DomId(2), Pfn(0), &[9u8; 4096]).unwrap();
    // Rewrite dom2's page to match dom1 — without materializing.
    m.write(DomId(2), Pfn(0), &[7u8; 4096]).unwrap();
    assert!(m.pending_rehash() > 0, "writes must defer hashing");
    assert_eq!(m.share_identical(&[]), 1, "rewritten match must dedup");
    // Now diverge dom2 again; the share must break and stay broken.
    m.write(DomId(2), Pfn(0), &[8u8; 4096]).unwrap();
    assert_eq!(m.share_identical(&[]), 0, "diverged page must not dedup");
    assert_eq!(m.read(DomId(1), Pfn(0)).unwrap().as_slice(), &[7u8; 4096]);
    assert_eq!(m.read(DomId(2), Pfn(0)).unwrap().as_slice(), &[8u8; 4096]);
}

/// Regression: the analyzer snapshot is a materialize seam. A capture
/// taken right after a burst of writes must never see (or leave behind)
/// a half-hashed frame table.
#[test]
fn analyzer_snapshot_materializes_pending_hashes() {
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let g = p
        .create_guest(ts, GuestConfig::evaluation_guest("lazy-snap"))
        .unwrap();
    for pfn in 0..8 {
        p.hv.mem.write(g, Pfn(pfn), &[0xabu8; 4096]).unwrap();
    }
    assert!(p.hv.mem.pending_rehash() > 0, "writes must defer hashing");
    let snap = ModelSnapshot::capture(&mut p);
    assert_eq!(
        p.hv.mem.pending_rehash(),
        0,
        "capture must materialize the stale set"
    );
    assert!(snap.domains.contains_key(&g));
    // The audit digest is stable once materialized: a second pass finds
    // no pending work and folds the same `(mfn, hash)` sequence.
    let digest = p.hv.mem.verify_integrity();
    assert_eq!(p.hv.mem.verify_integrity(), digest);
}

/// Regression: sealing a clone template (which freezes the template's
/// frames) is a materialize seam — stale hashes sealed into a template
/// would poison every clone's CoW bookkeeping.
#[test]
fn template_seal_materializes_pending_hashes() {
    // Hypervisor level: `template_arm`'s freeze drains the stale set.
    let mut m = MemoryManager::new(64);
    m.populate(DomId(1), 8).unwrap();
    for pfn in 0..8 {
        m.write(DomId(1), Pfn(pfn), &[0xcdu8; 4096]).unwrap();
    }
    assert!(m.pending_rehash() > 0, "writes must defer hashing");
    m.template_arm(DomId(1)).unwrap();
    assert_eq!(
        m.pending_rehash(),
        0,
        "template seal must materialize the stale set"
    );

    // Platform level: the first clone of a captured template performs
    // the seal; no stale hash may survive it.
    let mut p = Platform::xoar(XoarConfig::default());
    let ts = p.services.toolstacks[0];
    let tpl = p
        .create_guest(ts, GuestConfig::evaluation_guest("lazy-golden"))
        .unwrap();
    for pfn in 0..8 {
        p.hv.mem.write(tpl, Pfn(pfn), &[0xcdu8; 4096]).unwrap();
    }
    p.capture_template(ts, tpl).unwrap();
    assert!(
        p.hv.mem.pending_rehash() > 0,
        "capture alone must not rehash"
    );
    let c = p.clone_guest(ts, tpl, "lazy-clone").unwrap();
    assert_eq!(
        p.hv.mem.pending_rehash(),
        0,
        "first clone seals the template and must materialize"
    );
    assert_eq!(
        p.hv.mem.read(c, Pfn(3)).unwrap().to_vec(),
        p.hv.mem.read(tpl, Pfn(3)).unwrap().to_vec()
    );
    let digest = p.hv.mem.verify_integrity();
    assert_eq!(p.hv.mem.verify_integrity(), digest);
}
