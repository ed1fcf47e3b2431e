//! `migrate_dirty`: pre-copy live migration of a guest that keeps writing.
//!
//! One 1 GiB evaluation guest holding 1000 non-zero pages is ping-ponged
//! between two platforms. While a migration runs, the guest writes 256
//! seeded pages after the first round and 4 after the second, so
//! pre-copy converges to a four-page stop-and-copy. It is the only
//! workload that drains the dirty log and ships pages through
//! `MmuWriteForeign`. An op is one migration.

use xoar_core::migration::{migrate, MigrationConfig};
use xoar_core::platform::{GuestConfig, Platform};
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::DomId;

use super::{boot, check_platform};
use crate::trace::{Span, Tracer};
use crate::{stats, Check, Rng, Step, Workload};

/// Data pages, at `DATA_PFN..DATA_PFN + DATA_PAGES`.
const DATA_PFN: u64 = 16;
const DATA_PAGES: u64 = 1000;
/// Pages the guest dirties after pre-copy round 1, then round 2.
const DIRTY_PER_ROUND: [usize; 2] = [256, 4];

/// Contents of data page `i` at `version`.
fn page(i: u64, version: u32) -> [u8; 16] {
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&(0xda7a_0000_0000 | i).to_le_bytes());
    b[8..12].copy_from_slice(&version.to_le_bytes());
    b
}

/// The workload's state.
pub struct MigrateDirty {
    hosts: [Platform; 2],
    /// Which host runs the guest now.
    at: usize,
    guest: DomId,
    /// Version of each data page the guest last wrote.
    versions: Vec<u32>,
    rng: Rng,
    migrations: u64,
    rounds: u64,
    pages_total: u64,
    pages_final: u64,
    downtime_ms: Vec<f64>,
}

impl MigrateDirty {
    /// Whether every data page on the guest's host holds its last write.
    fn intact(&self) -> bool {
        let mem = &self.hosts[self.at].hv.mem;
        self.versions.iter().enumerate().all(|(i, &v)| {
            let i = i as u64;
            mem.read(self.guest, Pfn(DATA_PFN + i))
                .is_ok_and(|pg| pg.as_slice() == page(i, v))
        })
    }
}

impl Workload for MigrateDirty {
    const NAME: &'static str = "migrate_dirty";
    /// 64 migrations (about 35 ms): 32 round trips.
    const WINDOW_STEPS: u64 = 64;
    const TRACED_STEPS: u64 = 4 * 64;
    /// 256 migrations per pair of platforms: the heap stays under ~40 MiB.
    const LIFETIME_WINDOWS: u64 = 4;

    fn setup<T: Tracer>(seed: u64, t: &mut T) -> Self {
        let rng = Rng::new(seed);
        let mut hosts = [boot(t), boot(t)];
        let ts = hosts[0].services.toolstacks[0];
        let o = t.begin(Span::SetupCreateGuest);
        let guest = hosts[0]
            .create_guest(ts, GuestConfig::evaluation_guest("mover"))
            .expect("evaluation guest boots");
        t.end(o, 1, 1);
        for i in 0..DATA_PAGES {
            hosts[0]
                .hv
                .mem
                .write(guest, Pfn(DATA_PFN + i), &page(i, 0))
                .expect("guest owns its data pages");
        }
        MigrateDirty {
            hosts,
            at: 0,
            guest,
            versions: vec![0; DATA_PAGES as usize],
            rng,
            migrations: 0,
            rounds: 0,
            pages_total: 0,
            pages_final: 0,
            downtime_ms: Vec::with_capacity(1 << 14),
        }
    }

    fn step<T: Tracer>(&mut self, t: &mut T, check: &mut Check) -> Step {
        let (a, b) = self.hosts.split_at_mut(1);
        let (src, dst) = if self.at == 0 {
            (&mut a[0], &mut b[0])
        } else {
            (&mut b[0], &mut a[0])
        };
        let dst_ts = dst.services.toolstacks[0];
        let versions = &mut self.versions;
        let rng = &mut self.rng;
        let mut round = 0;

        let o = t.begin(Span::MigrationMigrate);
        let report = migrate(
            src,
            dst,
            self.guest,
            dst_ts,
            MigrationConfig::default(),
            |p, g| {
                let Some(&n) = DIRTY_PER_ROUND.get(round) else {
                    return;
                };
                round += 1;
                let o = t.begin(Span::MemDirtyWrite);
                let mut pages = [0u64; 256];
                for slot in pages.iter_mut().take(n) {
                    *slot = rng.below(DATA_PAGES);
                }
                // The last round's pages are distinct, so stop-and-copy
                // always ships exactly that many.
                if n == DIRTY_PER_ROUND[1] {
                    pages[..4].copy_from_slice(&rng.distinct::<4>(DATA_PAGES));
                }
                for &i in &pages[..n] {
                    versions[i as usize] += 1;
                    let ok =
                        p.hv.mem
                            .write(g, Pfn(DATA_PFN + i), &page(i, versions[i as usize]));
                    debug_assert!(ok.is_ok(), "guest owns its data pages");
                }
                t.end(o, n as u64, n as u64);
            },
        );
        t.end(o, 1, 1);

        let Ok(report) = report else {
            check.op(false, "migration completes");
            return Step {
                ops: 0,
                latency_ns: None,
            };
        };
        self.at = 1 - self.at;
        self.guest = report.new_dom;
        self.migrations += 1;
        self.rounds += u64::from(report.rounds);
        self.pages_total += report.pages_total;
        self.pages_final += report.pages_final;
        self.downtime_ms.push(report.downtime_ns as f64 / 1e6);
        // Destination pages equal the source's final contents.
        let o = t.begin(Span::ClientCheck);
        let good = self.intact();
        check.op(good, "migrated guest holds the source's final pages");
        t.end(o, 1, 1);
        Step {
            ops: u64::from(good),
            latency_ns: None,
        }
    }

    fn finish(&mut self, check: &mut Check) {
        check.holds(self.intact(), "guest memory intact at the end");
        for p in &mut self.hosts {
            check_platform(p, check);
        }
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let per = |n: u64| n as f64 / self.migrations.max(1) as f64;
        vec![
            ("migration.rounds", per(self.rounds)),
            ("migration.pages_total", per(self.pages_total)),
            ("migration.pages_final", per(self.pages_final)),
            (
                "migration.sim_downtime_ms",
                stats::median(&mut self.downtime_ms.clone()),
            ),
        ]
    }
}
