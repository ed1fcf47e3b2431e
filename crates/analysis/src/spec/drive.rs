//! Small-scope interleaving driver and checker selftest.
//!
//! Alloy-style small-scope hypothesis: if the hypervisor can diverge
//! from the isolation spec, it can do so in a tiny world. [`exhaustive`]
//! therefore enumerates *every* op sequence (up to a length) over a
//! 2 MiB host with a manager, two guests, and a sealed template,
//! checking each hypercall in lockstep; [`random_sweep`] extends reach
//! to longer sequences with the in-tree property harness, shrinking any
//! divergence to a minimal reproducing op trace.
//!
//! [`selftest`] proves the oracle itself has teeth: four known
//! violations — a resurrected revoked grant, an undeclared clone
//! fall-through wired behind the model's back, a raw frame alias, and a
//! granted frame freed and reused under its grant — are injected and
//! each must fire its distinct rule, reported with a shrunk
//! counterexample trace and a copy-pasteable regression test.

use std::rc::Rc;

use xoar_hypervisor::domain::DomainRole;
use xoar_hypervisor::grant::{GrantAccess, GrantCopyDir, GrantCopyOp, GrantRef};
use xoar_hypervisor::hypercall::Hypercall;
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::{DomId, HostConfig, Hypervisor, PrivilegeSet};
use xoar_sim::prop::{replay_test_body, Gen, Runner};

use super::checker::{Divergence, SpecHandle};

/// Number of ops in the small-scope alphabet.
pub const ALPHABET: usize = 15;

/// Human-readable names of the alphabet, indexed by op number.
pub const OP_NAMES: [&str; ALPHABET] = [
    "A grants pfn1 -> B (RW)",
    "A grants pfn2 -> B (RO)",
    "B maps (A, gref0)",
    "B maps (A, gref1)",
    "B unmaps (A, gref0)",
    "A ends gref0",
    "A offers transfer pfn2 -> B",
    "B accepts A's transfer",
    "A snapshots itself",
    "mgr rolls A back",
    "mgr clones template",
    "mgr maps A pfn0 foreign",
    "A writes own pfn1",
    "newest clone writes pfn0",
    "B grant-copies (A, gref1) -> local pfn0",
];

/// The 2 MiB, four-domain world every sequence starts from.
pub struct SmallWorld {
    /// The hypervisor under test.
    pub hv: Hypervisor,
    /// Privileged manager (Dom0-style toolstack).
    pub mgr: DomId,
    /// Unprivileged guest A (granter in most ops).
    pub a: DomId,
    /// Backend shard B, delegated to A (grantee / mapper).
    pub b: DomId,
    /// Built guest used as the clone template.
    pub tpl: DomId,
    /// Clones stamped so far, in creation order.
    pub clones: Vec<DomId>,
}

/// Builds the small world: 512 frames total, manager with Dom0
/// privileges, guest A and backend shard B (delegated to A) with 8
/// populated frames each, and a 4-frame template ready to clone.
pub fn small_world() -> SmallWorld {
    let mut hv = Hypervisor::new(HostConfig {
        memory_mib: 2,
        cpus: 1,
    });
    let mgr = hv
        .create_boot_domain("mgr", DomainRole::ControlVm, 1, PrivilegeSet::dom0())
        .expect("boot mgr");
    let build_guest = |hv: &mut Hypervisor, name: &str, frames: u64| -> DomId {
        let id = hv
            .hypercall(
                mgr,
                Hypercall::DomctlCreateDomain {
                    name: name.into(),
                    memory_mib: 1,
                    vcpus: 1,
                },
            )
            .and_then(|r| r.dom_id())
            .expect("create");
        hv.hypercall(mgr, Hypercall::MemoryPopulate { target: id, frames })
            .expect("populate");
        hv.hypercall(mgr, Hypercall::DomctlUnpauseDomain { target: id })
            .expect("unpause");
        id
    };
    let a = build_guest(&mut hv, "A", 8);
    let b = build_guest(&mut hv, "B", 8);
    let tpl = build_guest(&mut hv, "tpl", 4);
    // IVC policy (§5.6) requires one end of every grant to be a shard
    // delegated to the guest end: B plays the backend-shard role here.
    hv.hypercall(
        mgr,
        Hypercall::DomctlSetRole {
            target: b,
            shard: true,
        },
    )
    .expect("make B a shard");
    if let Ok(d) = hv.domain_mut(a) {
        d.delegated_shards.insert(b);
    }
    SmallWorld {
        hv,
        mgr,
        a,
        b,
        tpl,
        clones: Vec::new(),
    }
}

/// Applies op `op` (mod [`ALPHABET`]) to the world. Failing hypercalls
/// are part of the state space (the checker verifies they change
/// nothing); direct writes are announced to the model and followed by a
/// scheduler tick so they are checked immediately.
pub fn apply_op(w: &mut SmallWorld, h: &SpecHandle, op: usize) {
    use Hypercall::*;
    let (mgr, a, b, tpl) = (w.mgr, w.a, w.b, w.tpl);
    let tick = |w: &mut SmallWorld| {
        let _ = w.hv.hypercall(mgr, SchedYield);
    };
    match op % ALPHABET {
        0 => {
            let _ = w.hv.hypercall(
                a,
                GnttabGrantAccess {
                    grantee: b,
                    pfn: Pfn(1),
                    access: GrantAccess::ReadWrite,
                },
            );
        }
        1 => {
            let _ = w.hv.hypercall(
                a,
                GnttabGrantAccess {
                    grantee: b,
                    pfn: Pfn(2),
                    access: GrantAccess::ReadOnly,
                },
            );
        }
        2 => {
            let _ = w.hv.hypercall(
                b,
                GnttabMapGrantRef {
                    granter: a,
                    gref: GrantRef(0),
                },
            );
        }
        3 => {
            let _ = w.hv.hypercall(
                b,
                GnttabMapGrantRef {
                    granter: a,
                    gref: GrantRef(1),
                },
            );
        }
        4 => {
            let _ = w.hv.hypercall(
                b,
                GnttabUnmapGrantRef {
                    granter: a,
                    gref: GrantRef(0),
                },
            );
        }
        5 => {
            let _ = w.hv.hypercall(a, GnttabEndAccess { gref: GrantRef(0) });
        }
        6 => {
            // The page op 1 grants read-only: the accept must be refused
            // while that access grant stands.
            let _ = w.hv.hypercall(
                a,
                GnttabGrantTransfer {
                    grantee: b,
                    pfn: Pfn(2),
                },
            );
        }
        7 => {
            let gref =
                w.hv.grant_table(a)
                    .and_then(|t| {
                        t.entries_sorted()
                            .into_iter()
                            .find(|(_, e)| e.grantee == b && e.access == GrantAccess::Transfer)
                            .map(|(g, _)| g)
                    })
                    .unwrap_or(GrantRef(0));
            let _ = w.hv.hypercall(b, GnttabAcceptTransfer { granter: a, gref });
        }
        8 => {
            let _ = w.hv.hypercall(a, VmSnapshot { recovery_box: None });
        }
        9 => {
            let _ = w.hv.hypercall(mgr, VmRollback { target: a });
        }
        10 => {
            let name = format!("c{}", w.clones.len());
            if let Ok(ret) = w.hv.hypercall(
                mgr,
                DomctlCloneDomain {
                    template: tpl,
                    name,
                },
            ) {
                if let Ok(c) = ret.dom_id() {
                    w.clones.push(c);
                }
            }
        }
        11 => {
            let _ = w.hv.hypercall(
                mgr,
                MmuMapForeign {
                    target: a,
                    pfn: Pfn(0),
                },
            );
        }
        12 => {
            h.note_write(a);
            let _ = w.hv.mem.write(a, Pfn(1), b"spec-driver-own-write");
            tick(w);
        }
        13 => {
            if let Some(&c) = w.clones.last() {
                h.note_write(c);
                let _ = w.hv.mem.write(c, Pfn(0), b"spec-driver-clone-write");
            }
            tick(w);
        }
        _ => {
            let ops: Rc<[GrantCopyOp]> = Rc::from(
                [GrantCopyOp {
                    gref: GrantRef(1),
                    dir: GrantCopyDir::FromGrant,
                    local_pfn: Pfn(0),
                }]
                .as_slice(),
            );
            let _ = w.hv.hypercall(b, GnttabCopyBatch { granter: a, ops });
        }
    }
}

/// Result of an exhaustive small-scope enumeration.
#[derive(Debug)]
pub struct ExhaustiveReport {
    /// Sequence length enumerated.
    pub length: usize,
    /// Number of sequences executed (`ALPHABET^length`).
    pub sequences: u64,
    /// Total ops applied across all sequences.
    pub ops_applied: u64,
    /// Total lockstep checks performed by the checker.
    pub checks: u64,
    /// Divergences found: `(op sequence, divergence)`. Empty on a
    /// correct hypervisor.
    pub divergences: Vec<(Vec<usize>, Divergence)>,
}

/// Enumerates every op sequence of exactly `length` over the alphabet,
/// running each against a fresh small world with the checker attached.
pub fn exhaustive(length: usize) -> ExhaustiveReport {
    let sequences = (ALPHABET as u64).pow(length as u32);
    let mut report = ExhaustiveReport {
        length,
        sequences,
        ops_applied: 0,
        checks: 0,
        divergences: Vec::new(),
    };
    let mut seq = vec![0usize; length];
    for n in 0..sequences {
        let mut k = n;
        for slot in seq.iter_mut() {
            *slot = (k % ALPHABET as u64) as usize;
            k /= ALPHABET as u64;
        }
        let mut w = small_world();
        let h = SpecHandle::attach(&mut w.hv);
        for &op in &seq {
            apply_op(&mut w, &h, op);
            report.ops_applied += 1;
            if h.divergence().is_some() {
                break;
            }
        }
        report.checks += h.checks();
        if let Some(d) = h.divergence() {
            report.divergences.push((seq.clone(), d));
        }
    }
    report
}

/// Randomized sweep: `cases` sequences of up to `max_len` ops drawn by
/// the property harness. Returns `None` when every sequence refines the
/// spec; otherwise the shrunk minimal choice sequence and a rendered
/// report (decoded op trace + divergence + regression-test body).
pub fn random_sweep(cases: u32, max_len: usize) -> Option<(Vec<u64>, String)> {
    let property = move |g: &mut Gen| {
        let mut w = small_world();
        let h = SpecHandle::attach(&mut w.hv);
        let n = g.usize(0..max_len + 1);
        for _ in 0..n {
            let op = g.usize(0..ALPHABET);
            apply_op(&mut w, &h, op);
            if let Some(report) = h.report() {
                panic!("spec divergence:\n{report}");
            }
        }
    };
    let minimal = Runner::cases(cases).counterexample(property)?;
    let report = decode_and_render("spec random sweep", &minimal, None);
    Some((minimal, report))
}

/// One selftest scenario: which violation is injected and how it fared.
#[derive(Debug)]
pub struct SelftestOutcome {
    /// The rule the injection must fire.
    pub rule: &'static str,
    /// Whether the checker caught it.
    pub fired: bool,
    /// Rendered report: shrunk op trace, divergence, regression body.
    pub report: String,
}

/// Index of each injection, used past the real alphabet.
const INJECT_RESURRECT: usize = ALPHABET;
const INJECT_BACKDOOR_CLONE: usize = ALPHABET + 1;
const INJECT_RAW_ALIAS: usize = ALPHABET + 2;
const INJECT_REUSE_WHILE_GRANTED: usize = ALPHABET + 3;

/// Applies one injection after the drawn prefix: a known violation the
/// checker must catch. Returns a description for the decoded trace.
fn apply_injection(w: &mut SmallWorld, h: &SpecHandle, inject: usize) -> &'static str {
    let (mgr, a, b, tpl) = (w.mgr, w.a, w.b, w.tpl);
    match inject {
        INJECT_RESURRECT => {
            // A buggy rollback path re-installing a revoked entry is
            // simulated by re-granting out-of-band (no hypercall, so
            // the model never sees a re-grant).
            let _ = w.hv.boot_grant(a, b, Pfn(1), GrantAccess::ReadWrite);
            let _ = w.hv.hypercall(mgr, Hypercall::SchedYield);
            "INJECT: out-of-band re-grant of A pfn1 -> B (RW)"
        }
        INJECT_BACKDOOR_CLONE => {
            // A clone space wired up behind the dispatch path: the
            // model records no clone link, so the fall-through
            // visibility is undeclared.
            let shell =
                w.hv.hypercall(
                    mgr,
                    Hypercall::DomctlCreateDomain {
                        name: "backdoor".into(),
                        memory_mib: 1,
                        vcpus: 1,
                    },
                )
                .and_then(|r| r.dom_id())
                .ok();
            if let Some(shell) = shell {
                let _ = w.hv.mem.template_arm(tpl);
                let _ = w.hv.mem.clone_space(tpl, shell);
            }
            let _ = w.hv.hypercall(mgr, Hypercall::SchedYield);
            "INJECT: backdoor clone_space(tpl -> fresh shell) behind the gate"
        }
        INJECT_REUSE_WHILE_GRANTED => {
            // A dedup sweep that ignores grants (the gated one leaves
            // granted frames alone) frees A's freshly granted pfn5, a
            // duplicate of pfn4, and the next populate reuses the frame.
            let _ = w.hv.hypercall(
                a,
                Hypercall::GnttabGrantAccess {
                    grantee: b,
                    pfn: Pfn(5),
                    access: GrantAccess::ReadWrite,
                },
            );
            h.note_write(a);
            let _ = w.hv.mem.write(a, Pfn(4), b"spec-driver-duplicate");
            let _ = w.hv.mem.write(a, Pfn(5), b"spec-driver-duplicate");
            w.hv.mem.share_identical(&[]);
            let _ = w.hv.mem.populate(b, 1);
            let _ = w.hv.hypercall(mgr, Hypercall::SchedYield);
            "INJECT: granted A pfn5 freed by a grant-blind dedup, reused by B"
        }
        _ => {
            // Synthetic raw alias: two guests sharing a frame with no
            // CoW pedigree and no declared edge.
            h.inject_raw_alias(999_001, vec![a, b]);
            let _ = w.hv.hypercall(mgr, Hypercall::SchedYield);
            "INJECT: raw alias of mfn 999001 between A and B"
        }
    }
}

/// Runs one injection scenario: random op prefixes followed by the
/// injection, shrunk to the minimal prefix that makes `rule` fire.
fn selftest_rule(rule: &'static str, inject: usize) -> SelftestOutcome {
    let property = move |g: &mut Gen| {
        let mut w = small_world();
        let h = SpecHandle::attach(&mut w.hv);
        let n = g.usize(0..6);
        for _ in 0..n {
            let op = g.usize(0..ALPHABET);
            apply_op(&mut w, &h, op);
            if h.divergence().is_some() {
                return; // a prefix alone must never diverge
            }
        }
        apply_injection(&mut w, &h, inject);
        if let Some(d) = h.divergence() {
            assert!(d.rule != rule, "injection caught: {}", d.rule);
        }
    };
    match Runner::cases(400).counterexample(property) {
        Some(minimal) => {
            let report = decode_and_render(rule, &minimal, Some(inject));
            SelftestOutcome {
                rule,
                fired: true,
                report,
            }
        }
        None => SelftestOutcome {
            rule,
            fired: false,
            report: format!("rule {rule} did NOT fire on its injection"),
        },
    }
}

/// Injects the four known violations and reports whether each fired
/// with its distinct rule and a shrunk counterexample trace.
pub fn selftest() -> Vec<SelftestOutcome> {
    vec![
        selftest_rule("revoked-grant-resurrected", INJECT_RESURRECT),
        selftest_rule("undeclared-clone-fanthrough", INJECT_BACKDOOR_CLONE),
        selftest_rule("raw-alias-undeclared", INJECT_RAW_ALIAS),
        selftest_rule("frame-reused-while-held", INJECT_REUSE_WHILE_GRANTED),
    ]
}

/// Replays a shrunk choice sequence, decoding it into the op trace it
/// drives, and renders trace + divergence + a copy-pasteable
/// regression-test body.
fn decode_and_render(name: &str, minimal: &[u64], inject: Option<usize>) -> String {
    use std::fmt::Write as _;
    let mut trace: Vec<String> = Vec::new();
    let mut divergence = String::new();
    let replay = |g: &mut Gen| {
        let mut w = small_world();
        let h = SpecHandle::attach(&mut w.hv);
        let n = g.usize(0..6);
        for _ in 0..n {
            let op = g.usize(0..ALPHABET);
            apply_op(&mut w, &h, op);
        }
        if let Some(inject) = inject {
            if h.divergence().is_none() {
                apply_injection(&mut w, &h, inject);
            }
        }
        (h.ops(), h.report())
    };
    // Decode outside the panic machinery: run the replay directly.
    let mut g_ops: Option<(Vec<String>, Option<String>)> = None;
    let _ = Runner::check_replay(minimal, |g| {
        g_ops = Some(replay(g));
    });
    if let Some((ops, report)) = g_ops {
        trace = ops;
        if let Some(r) = report {
            divergence = r;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "  minimal choice sequence: {minimal:?}");
    let _ = writeln!(out, "  checked op trace ({} ops):", trace.len());
    for (i, op) in trace.iter().enumerate() {
        let _ = writeln!(out, "    {:>3}. {op}", i + 1);
    }
    if !divergence.is_empty() {
        for line in divergence.lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    let _ = writeln!(out, "  regression test:");
    for line in replay_test_body(name, minimal).lines() {
        let _ = writeln!(out, "    {line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xoar_hypervisor::HvError;

    #[test]
    fn clean_world_runs_a_rich_sequence_without_divergence() {
        let mut w = small_world();
        let h = SpecHandle::attach(&mut w.hv);
        // grant, map, copy, snapshot, write, rollback, transfer,
        // accept, clone, clone-write, end — one of everything.
        for op in [0, 1, 2, 14, 8, 12, 9, 6, 7, 10, 13, 4, 5, 11] {
            apply_op(&mut w, &h, op);
            assert!(
                h.divergence().is_none(),
                "op {op} diverged:\n{}",
                h.report().unwrap_or_default()
            );
        }
        assert!(h.checks() >= 14, "every hypercall must be checked");
        let s = h.state();
        assert!(s.clone_of.contains_key(&w.clones[0]));
    }

    #[test]
    fn whitelist_denied_calls_are_checked_and_change_nothing() {
        let mut w = small_world();
        let h = SpecHandle::attach(&mut w.hv);
        let (a, b) = (w.a, w.b);
        // Guest A holds no privileged calls: the gate refuses both
        // before dispatch, and the checker still verifies each left the
        // real state equal to the model.
        for call in [
            Hypercall::SysctlPhysinfo,
            Hypercall::DomctlDestroyDomain { target: b },
        ] {
            let before = h.checks();
            let r = w.hv.hypercall(a, call);
            assert!(matches!(r, Err(HvError::PermissionDenied { .. })));
            assert_eq!(h.checks(), before + 1, "denied call must be checked");
        }
        assert!(
            h.divergence().is_none(),
            "{}",
            h.report().unwrap_or_default()
        );
        assert!(h.ops().iter().all(|op| op.ends_with("-> err")));
        assert!(h.state().live.contains(&b));
    }

    #[test]
    fn exhaustive_depth_two_is_clean() {
        let report = exhaustive(2);
        assert_eq!(report.sequences, (ALPHABET as u64).pow(2));
        assert!(
            report.divergences.is_empty(),
            "divergences: {:?}",
            report.divergences
        );
        assert!(report.checks > report.sequences, "checks ran");
    }

    #[test]
    fn selftest_fires_every_rule() {
        for outcome in selftest() {
            assert!(
                outcome.fired,
                "{} must fire:\n{}",
                outcome.rule, outcome.report
            );
            assert!(
                outcome.report.contains("minimal choice sequence"),
                "report carries the shrunk trace:\n{}",
                outcome.report
            );
            assert!(
                outcome.report.contains(outcome.rule),
                "report names the rule:\n{}",
                outcome.report
            );
        }
    }

    #[test]
    fn random_sweep_is_clean() {
        assert!(random_sweep(40, 8).is_none());
    }
}
