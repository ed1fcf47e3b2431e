//! One platform run indefinitely: clone/destroy churn must hold the
//! machine-frame table, the device ring hubs and the XenStore at the size
//! of the live state, not the platform's history.
//!
//! The quick test runs a few thousand cycles in any build. The 100k
//! cycle run is `#[ignore]`d and meant for release mode; it gates on the
//! same exact structural counts and prints the cost per 10k cycles and
//! the process RSS (timing is reported, never gated):
//!
//! ```text
//! cargo test --release --test long_running -- --ignored --nocapture
//! ```

use std::collections::VecDeque;
use std::time::Instant;

use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_core::toolstack::Toolstack;
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::DomId;

/// Live clones kept; each cycle clones one and destroys the oldest.
const LIVE: usize = 8;
/// A dedup sweep runs every this many cycles.
const DEDUP_EVERY: u64 = 64;

/// Structure that must not grow once the churn is warm.
#[derive(Debug, PartialEq, Eq, Clone)]
struct Footprint {
    frame_table: usize,
    frames_in_use: u64,
    net_rings: usize,
    blk_rings: usize,
    /// XenStore nodes held.
    xs_nodes: usize,
    /// XenStore nodes per owner, in State's owner index; a live clone is
    /// named by its place in the window.
    xs_owners: Vec<(Owner, u64)>,
}

/// A XenStore node owner, with live clones named by window position so
/// that two warm points compare equal.
#[derive(Debug, PartialEq, Eq, Clone, Copy, PartialOrd, Ord)]
enum Owner {
    Domain(u32),
    LiveClone(usize),
}

/// A platform with two sealed templates and a window of live clones.
struct Churn {
    p: Platform,
    ts: Toolstack,
    templates: [DomId; 2],
    live: VecDeque<DomId>,
    cycles: u64,
}

impl Churn {
    fn new() -> Self {
        let mut p = Platform::xoar(XoarConfig::default());
        let mut ts = Toolstack::new(&p, 0);
        let mut templates = [DomId(0); 2];
        for (f, tpl) in templates.iter_mut().enumerate() {
            let mut cfg = GuestConfig::evaluation_guest(&format!("fn{f}"));
            cfg.memory_mib = 64;
            *tpl = ts.create(&mut p, cfg).unwrap();
            p.hv.mem
                .write(*tpl, Pfn(40), format!("sealed fn{f}").as_bytes())
                .unwrap();
            ts.capture_template(&mut p, *tpl).unwrap();
        }
        Churn {
            p,
            ts,
            templates,
            live: VecDeque::with_capacity(LIVE + 1),
            cycles: 0,
        }
    }

    /// One cycle: clone, warm four pages (CoW breaks), destroy the
    /// oldest clone past the window, and sweep duplicates now and then.
    fn cycle(&mut self) {
        self.cycles += 1;
        let f = (self.cycles % 2) as usize;
        let name = format!("fn{f}-{}", self.cycles);
        let dom = self
            .ts
            .clone(&mut self.p, self.templates[f], &name)
            .unwrap();
        for i in 0..4u64 {
            let pfn = 8 + (self.cycles + i * 7) % 32;
            let page = format!("warm fn{f} pfn{pfn}");
            self.p.hv.mem.write(dom, Pfn(pfn), page.as_bytes()).unwrap();
        }
        self.live.push_back(dom);
        if self.live.len() > LIVE {
            let old = self.live.pop_front().unwrap();
            self.ts.destroy(&mut self.p, old).unwrap();
        }
        if self.cycles.is_multiple_of(DEDUP_EVERY) {
            self.p.dedup_memory();
        }
    }

    fn footprint(&self) -> Footprint {
        let mem = &self.p.hv.mem;
        let mut xs_owners: Vec<(Owner, u64)> = self
            .p
            .xs
            .state()
            .owner_counts()
            .iter()
            .map(|(&dom, &nodes)| {
                let owner = match self.live.iter().position(|&d| d == dom) {
                    Some(at) => Owner::LiveClone(at),
                    None => Owner::Domain(dom.0),
                };
                (owner, nodes)
            })
            .collect();
        xs_owners.sort();
        Footprint {
            frame_table: mem.frame_table_len(),
            frames_in_use: mem.total_frames() - mem.free_frames(),
            net_rings: self.p.net_hub.len(),
            blk_rings: self.p.blk_hub.len(),
            xs_nodes: self.p.xs.state_len(),
            xs_owners,
        }
    }

    /// Runs `cycles` more cycles, checking at every dedup point that the
    /// footprint equals `warm`.
    fn run_flat(&mut self, cycles: u64, warm: &Footprint) {
        for _ in 0..cycles {
            self.cycle();
            if self.cycles.is_multiple_of(DEDUP_EVERY) {
                assert_eq!(&self.footprint(), warm, "after {} cycles", self.cycles);
            }
        }
    }

    /// Warms the churn up to a dedup point and returns its footprint.
    fn warm_up(&mut self) -> Footprint {
        for _ in 0..4 * DEDUP_EVERY {
            self.cycle();
        }
        let warm = self.footprint();
        assert_eq!(warm.net_rings, LIVE + 2, "one vif ring per live guest");
        assert_eq!(warm.blk_rings, LIVE + 2, "one vbd ring per live guest");
        warm
    }
}

/// The process's resident set in MiB, where `/proc` reports it.
fn rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[test]
fn clone_destroy_churn_keeps_frames_and_rings_flat() {
    let mut churn = Churn::new();
    let warm = churn.warm_up();
    churn.run_flat(3_000, &warm);
    churn.p.hv.mem.check_consistency().unwrap();
}

#[test]
#[ignore = "100k cycles; run in release mode"]
fn hundred_thousand_cycles_on_one_platform() {
    let mut churn = Churn::new();
    let warm = churn.warm_up();
    println!("warm footprint: {warm:?}");
    let mut per_10k = Vec::new();
    while churn.cycles < 100_000 {
        let start = Instant::now();
        churn.run_flat(10_000, &warm);
        let us = start.elapsed().as_secs_f64() * 1e6 / 10_000.0;
        per_10k.push(us);
        let rss = rss_mib().map_or_else(|| "n/a".to_string(), |m| format!("{m:.1} MiB"));
        println!(
            "cycles {:>6}: {us:>8.1} us/cycle, rss {rss}, frame table {}, xenstore nodes {}",
            churn.cycles,
            churn.p.hv.mem.frame_table_len(),
            churn.p.xs.state_len()
        );
    }
    println!(
        "last 10k / second 10k: {:.2}x",
        per_10k[per_10k.len() - 1] / per_10k[1]
    );
    churn.p.hv.mem.check_consistency().unwrap();
}
