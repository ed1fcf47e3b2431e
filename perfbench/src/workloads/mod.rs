//! The four workloads. Each stresses different layers and bypasses others,
//! so a change to one layer should move one workload and leave the rest.

pub mod blk_rw;
pub mod clone_churn;
pub mod fabric_fanout;
pub mod migrate_dirty;

use xoar_core::platform::{Platform, XoarConfig};

use crate::trace::{Span, Tracer};
use crate::{Check, Workload};

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &[
    <blk_rw::BlkRw as Workload>::NAME,
    <fabric_fanout::FabricFanout as Workload>::NAME,
    <clone_churn::CloneChurn as Workload>::NAME,
    <migrate_dirty::MigrateDirty as Workload>::NAME,
];

/// Boots a Xoar platform inside a `setup.platform_boot` span.
fn boot<T: Tracer>(t: &mut T) -> Platform {
    let o = t.begin(Span::SetupPlatformBoot);
    let p = Platform::xoar(XoarConfig::default());
    t.end(o, 1, 1);
    p
}

/// End-of-run invariants every workload checks on each platform it used.
fn check_platform(p: &mut Platform, check: &mut Check) {
    check.holds(p.audit.verify_chain().is_ok(), "audit chain verifies");
    let digest = p.hv.mem.verify_integrity();
    check.holds(
        p.hv.mem.verify_integrity() == digest,
        "memory integrity digest is stable",
    );
    check.holds(
        p.hv.mem.pending_rehash() == 0,
        "no frame left awaiting rehash",
    );
}
