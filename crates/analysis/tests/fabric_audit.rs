//! Privilege-flow audit over the live front-tier fabric workload.
//!
//! The fleet boots, the fabric switches real LB→web traffic through a
//! NetBack microreboot, and the captured model must come back clean:
//! switching frames between guests earns the fabric shard no reach
//! beyond the frontends' ring grants. The shard must also surface under
//! its own `fabric` label so the grant-only rule audits it by name.

use xoar_analysis::reach::Reachability;
use xoar_analysis::rules;
use xoar_analysis::snapshot::ModelSnapshot;
use xoar_sim::workloads::fronttier::{fleet, run_point, FrontTierConfig};

#[test]
fn fabric_workload_audits_clean() {
    let (mut p, lb, webs) = fleet(3);
    let point = run_point(&mut p, lb, &webs, &FrontTierConfig::small(512, 1));
    assert!(point.switched_frames > 0, "the fabric carried the traffic");
    assert!(point.restarts > 0, "the NetBack microrebooted mid-traffic");

    let snap = ModelSnapshot::capture(&p);
    assert!(
        snap.live_domains().any(|d| d.kind == "fabric"),
        "the switching plane appears under its own label"
    );
    let reach = Reachability::compute(&snap);
    let violations = rules::check(&snap, &reach);
    assert_eq!(
        violations,
        vec![],
        "switching at connection scale must not widen the shard's privilege"
    );
}
