//! `xoar-analyzer` — Pass A entry point.
//!
//! Boots the traced reference scenario, snapshots the resulting model
//! state, computes the reachability matrix, checks the least-privilege
//! rules, and prints the over-privilege table. The full report is
//! byte-stable across runs (simulated time, sorted collections). Exits
//! nonzero iff any rule fires.
//!
//! `--selftest` instead injects known violations into the captured
//! snapshot (a blanket-foreign NetBack, an undeclared guest grant, raw
//! frame aliases — including one between a clone template and its
//! stamped clone) and verifies the rules catch each — proving the
//! analyzer itself has teeth before CI trusts its clean run.
//!
//! The dynamic spec pass has its own pair of modes: `--spec-exhaustive`
//! enumerates every small-scope op sequence with the lockstep checker
//! attached (plus a randomized longer-sequence sweep) and fails on any
//! divergence; `--spec-selftest` injects four known isolation
//! violations and requires each to fire its distinct rule with a shrunk
//! counterexample trace.

use std::process::ExitCode;

use xoar_analysis::overpriv::{self, Usage};
use xoar_analysis::reach::Reachability;
use xoar_analysis::rules;
use xoar_analysis::snapshot::{DomainInfo, GrantEdge, ModelSnapshot, SharedFrame};
use xoar_analysis::spec::drive;
use xoar_core::platform::Platform;
use xoar_hypervisor::domain::DomainRole;
use xoar_hypervisor::{DomId, HvError, Hypercall, HypercallId, HypercallRet};

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--spec-exhaustive") {
        return run_spec_exhaustive();
    }
    if std::env::args().any(|a| a == "--spec-selftest") {
        return run_spec_selftest();
    }
    let selftest = std::env::args().any(|a| a == "--selftest");

    let (mut platform, usage) = match overpriv::traced_scenario() {
        Ok(traced) => traced,
        Err(e) => {
            eprintln!("xoar-analyzer: scenario failed: {e}");
            return ExitCode::from(2);
        }
    };
    let snap = ModelSnapshot::capture(&mut platform);

    if selftest {
        return run_selftest(&mut platform, &usage, snap);
    }

    let reach = Reachability::compute(&snap);
    let violations = rules::check(&snap, &reach);
    let over = overpriv::report(&platform, &usage);

    print!("{}", snap.render());
    print!("{}", reach.render(&snap));
    for v in &violations {
        println!("{}", v.render());
    }
    print!("{}", overpriv::render(&over));
    println!(
        "xoar-analyzer: {} domain(s), {} memory edge(s), {} violation(s)",
        snap.domains.len(),
        reach.mem.len(),
        violations.len()
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Exhaustive small-scope run of the lockstep isolation checker:
/// every op sequence up to depth 3 over the driver alphabet, then a
/// randomized sweep of longer sequences. Exits nonzero on any
/// divergence (printing the shrunk reproducing trace).
fn run_spec_exhaustive() -> ExitCode {
    let mut ok = true;
    for depth in 1..=3 {
        let r = drive::exhaustive(depth);
        println!(
            "spec: exhaustive depth {} — {} sequences, {} ops, {} lockstep checks, {} divergence(s)",
            r.length,
            r.sequences,
            r.ops_applied,
            r.checks,
            r.divergences.len()
        );
        for (seq, d) in &r.divergences {
            ok = false;
            eprintln!(
                "spec: FAIL — divergence on sequence {seq:?}: {} ({})",
                d.rule, d.detail
            );
            for &op in seq {
                eprintln!("    {}", drive::OP_NAMES[op % drive::ALPHABET]);
            }
        }
    }
    match drive::random_sweep(300, 12) {
        None => println!("spec: random sweep — 300 sequences up to 12 ops, 0 divergences"),
        Some((minimal, report)) => {
            ok = false;
            eprintln!("spec: FAIL — random sweep diverged (minimal {minimal:?})");
            eprintln!("{report}");
        }
    }
    if ok {
        println!("xoar-analyzer: spec exhaustive passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Proves the lockstep checker has teeth: four distinct known
/// violations are injected behind the dispatch path and each must fire
/// its rule, with a shrunk counterexample trace and a copy-pasteable
/// regression test in the report.
fn run_spec_selftest() -> ExitCode {
    let mut ok = true;
    let outcomes = drive::selftest();
    for outcome in &outcomes {
        if outcome.fired {
            println!("spec selftest: {} fired as expected", outcome.rule);
        } else {
            eprintln!("spec selftest: FAIL — {} did not fire", outcome.rule);
            ok = false;
        }
        for line in outcome.report.lines() {
            println!("{line}");
        }
    }
    if ok {
        println!(
            "xoar-analyzer: spec selftest passed ({} injections caught)",
            outcomes.len()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Injects over-privilege and undeclared sharing, then checks the rules
/// fire; also probes the live platform with a smuggled privileged
/// sub-call inside a Multicall batch. Success means the analyzer (and
/// the hypercall gate it audits) detects what it claims to detect.
fn run_selftest(platform: &mut Platform, usage: &Usage, mut snap: ModelSnapshot) -> ExitCode {
    let fabric = snap
        .live_domains()
        .find(|d| d.kind == "fabric")
        .map(|d| d.id);
    let guest = snap
        .live_domains()
        .find(|d| d.kind == "guest")
        .map(|d| d.id);
    let (Some(fabric), Some(guest)) = (fabric, guest) else {
        eprintln!("xoar-analyzer: selftest: scenario lacks a fabric shard or guest");
        return ExitCode::from(2);
    };

    // Injection 1: grant the fabric-hosting NetBack the Builder's
    // blanket privilege — an over-privileged switching plane.
    snap.domains
        .get_mut(&fabric)
        .expect("fabric present")
        .privileges
        .map_foreign_any = true;
    // Injection 2: an undeclared grant from a guest to a shard it never
    // delegated to (the XenStore-State shard, never a grant target).
    let xs_state = snap
        .live_domains()
        .find(|d| d.kind == "xenstore-state")
        .map(|d| d.id);
    let Some(xs_state) = xs_state else {
        eprintln!("xoar-analyzer: selftest: scenario lacks xenstore-state");
        return ExitCode::from(2);
    };
    snap.grants.push(GrantEdge {
        granter: guest,
        grantee: xs_state,
        gref: 9999,
        pfn: 42,
        writable: true,
    });
    snap.grants.sort();
    // Injection 3: a raw cross-guest frame alias — neither CoW dedup nor
    // a frozen snapshot baseline, and no grant between the pair. The
    // sharing rule must flag it. The scenario tears its HVM guest down,
    // so the peer is a synthetic guest injected fixture-style.
    let second_guest = DomId(9999);
    snap.domains.insert(
        second_guest,
        DomainInfo::fixture(second_guest, "guest", DomainRole::Guest),
    );
    snap.shared_frames.push(SharedFrame {
        mfn: 999_001,
        mappers: vec![guest, second_guest],
        cow: false,
        frozen: false,
    });
    // …while the identical alias marked as a frozen snapshot baseline
    // must NOT fire (microreboot CoW pre-images are hypervisor-managed,
    // not guest communication).
    snap.shared_frames.push(SharedFrame {
        mfn: 999_002,
        mappers: vec![guest, second_guest],
        cow: false,
        frozen: true,
    });
    // Injection 5: a snapshot-fork pair — the scenario's sealed template
    // and its stamped clone — aliasing a frame *outside* the template
    // fan-out (which the capture marks `cow`, since a clone's first
    // write breaks it). A stamp-path bug handing a clone a raw view of
    // a template frame is exactly this shape, and no grant runs between
    // the pair, so the sharing rule must fire.
    let template = snap
        .live_domains()
        .find(|d| d.name == "golden")
        .map(|d| d.id);
    let clone = snap.live_domains().find(|d| d.name == "fx-0").map(|d| d.id);
    let (Some(template), Some(clone)) = (template, clone) else {
        eprintln!("xoar-analyzer: selftest: scenario lacks the template/clone pair");
        return ExitCode::from(2);
    };
    snap.shared_frames.push(SharedFrame {
        mfn: 999_003,
        mappers: vec![template, clone],
        cow: false,
        frozen: false,
    });
    snap.shared_frames.sort();

    // Injection 4 (live platform): a shard abuses the unprivileged
    // Multicall to smuggle a privileged sub-call it is not whitelisted
    // for. The gate must deny the entry per-Xen-semantics (no batch
    // abort) AND the usage observer must record the refusal, where the
    // privilege-flow audit sees it — batching must not launder calls.
    let nb = platform.services.netbacks[0];
    let refused_before = usage.of(nb).refused.contains(HypercallId::SysctlPhysinfo);
    let ret = platform.hv.hypercall(
        nb,
        Hypercall::Multicall {
            calls: vec![Hypercall::SysctlPhysinfo],
        },
    );
    let smuggle_denied = matches!(
        &ret,
        Ok(HypercallRet::Multi(entries))
            if entries.len() == 1
                && matches!(entries[0], Err(HvError::PermissionDenied { .. }))
    );
    let smuggle_traced =
        !refused_before && usage.of(nb).refused.contains(HypercallId::SysctlPhysinfo);

    let reach = Reachability::compute(&snap);
    let violations = rules::check(&snap, &reach);
    let rules_fired: Vec<&str> = violations.iter().map(|v| v.rule).collect();
    let mut ok = true;
    if smuggle_denied && smuggle_traced {
        println!("selftest: multicall smuggled sub-call denied and traced");
    } else {
        eprintln!(
            "selftest: FAIL — multicall smuggling (denied={smuggle_denied} traced={smuggle_traced})"
        );
        ok = false;
    }
    // Injections 1 and 2 also bypass the hypervisor's cross-region
    // ledger (no gate call ever declared the NetBack's blanket
    // reach or the smuggled grant), so the region-accounting rule must
    // fire alongside the privilege rules.
    for expected in [
        "only-builder-blanket",
        "backend-grant-only",
        "undeclared-sharing",
        "no-undeclared-cross-region-access",
    ] {
        if rules_fired.contains(&expected) {
            println!("selftest: {expected} fired as expected");
        } else {
            eprintln!("selftest: FAIL — {expected} did not fire");
            ok = false;
        }
    }
    // The over-privileged switching plane must surface under its own
    // label: the grant-only rule naming the fabric shard specifically.
    let fabric_grant_only = violations
        .iter()
        .any(|v| v.rule == "backend-grant-only" && v.detail.starts_with("fabric "));
    if fabric_grant_only {
        println!("selftest: over-privileged fabric shard caught by backend-grant-only");
    } else {
        eprintln!("selftest: FAIL — over-privileged fabric shard not flagged");
        ok = false;
    }
    let raw_alias_fired = violations
        .iter()
        .any(|v| v.rule == "undeclared-sharing" && v.detail.contains("mfn 999001"));
    let frozen_alias_fired = violations
        .iter()
        .any(|v| v.rule == "undeclared-sharing" && v.detail.contains("mfn 999002"));
    if raw_alias_fired && !frozen_alias_fired {
        println!("selftest: raw frame alias fired; frozen snapshot alias exempt");
    } else {
        eprintln!(
            "selftest: FAIL — frame aliasing (raw_fired={raw_alias_fired} \
             frozen_fired={frozen_alias_fired}; frozen CoW baselines must be exempt)"
        );
        ok = false;
    }
    let clone_alias_fired = violations
        .iter()
        .any(|v| v.rule == "undeclared-sharing" && v.detail.contains("mfn 999003"));
    if clone_alias_fired {
        println!("selftest: raw template/clone alias fired (stamp path cannot leak)");
    } else {
        eprintln!("selftest: FAIL — raw template/clone alias did not fire");
        ok = false;
    }
    if ok {
        println!(
            "xoar-analyzer: selftest passed ({} violations)",
            violations.len()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("  saw: {}", v.render());
        }
        ExitCode::FAILURE
    }
}
