//! Steady-state check: over a run many windows long, neither the per-op
//! cost nor the heap may drift. A workload whose heap grows without bound
//! (as one that churns domains on a single platform does, since the
//! platform never reuses a machine frame number) fails here instead of
//! showing up as noise between runs.

use xoar_perfbench::harness::steady_state;
use xoar_perfbench::workloads::{
    blk_rw::BlkRw, clone_churn::CloneChurn, fabric_fanout::FabricFanout,
    migrate_dirty::MigrateDirty,
};
use xoar_perfbench::Workload;

/// Windows per check. Its tenth must span whole lifetimes, so that the
/// first and last tenth each hold a full build-up of a rebuilt state.
const WINDOWS: u64 = 40;
/// The last tenth of the windows must keep at least this share of the
/// first tenth's rate. The machine's own phases stay inside it; a cost
/// that grows with run length, as in a sweep over an ever-growing frame
/// table, does not.
const MIN_RATE_RATIO: f64 = 0.5;
/// Heap growth allowed per op, bytes: room for the audit records a
/// microreboot appends, nothing that scales with the ops themselves.
const MAX_HEAP_GROWTH_PER_OP: f64 = 16.0;

fn assert_steady<W: Workload>() {
    assert!(
        W::LIFETIME_WINDOWS == u64::MAX || (WINDOWS / 10).is_multiple_of(W::LIFETIME_WINDOWS),
        "a tenth of the windows spans whole lifetimes"
    );
    let s = steady_state::<W>(7, WINDOWS);
    assert!(s.check.correct(), "{}: {:?}", W::NAME, s.check.problems);
    assert!(
        s.last_rate >= MIN_RATE_RATIO * s.first_rate,
        "{}: rate fell from {:.0} to {:.0} ops/s over the run",
        W::NAME,
        s.first_rate,
        s.last_rate
    );
    assert!(
        s.heap_growth_per_op <= MAX_HEAP_GROWTH_PER_OP,
        "{}: heap grows {:.1} bytes per op",
        W::NAME,
        s.heap_growth_per_op
    );
}

#[test]
fn blk_rw_is_steady() {
    assert_steady::<BlkRw>();
}

#[test]
fn fabric_fanout_is_steady() {
    assert_steady::<FabricFanout>();
}

#[test]
fn clone_churn_is_steady() {
    assert_steady::<CloneChurn>();
}

#[test]
fn migrate_dirty_is_steady() {
    assert_steady::<MigrateDirty>();
}
