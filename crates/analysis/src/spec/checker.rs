//! The differential refinement checker.
//!
//! [`SpecCore`] holds a [`SpecState`] and advances it in lockstep with
//! the real hypervisor: as a gate observer it sees every hypercall
//! (post-state, call, and result) — whitelist denials included, which
//! must change no state — the core applies the spec-level semantics of
//! the op, and then *diffs* the real state against the model. Any
//! difference outside the op's permitted footprint is a divergence —
//! recorded sticky with the op trace that produced it, never panicking
//! (observers run inside the hypervisor's no-panic gate).
//!
//! Checked refinement obligations, in order:
//!
//! 1. **Grant tables** — each live domain's table must equal the
//!    model's facts exactly, both ways. An unjustified real entry that
//!    re-states a revoked capability is diagnosed as
//!    `revoked-grant-resurrected` (the satellite-2 hole); any other
//!    unjustified entry as `unjustified-grant-entry`.
//! 2. **Frame ownership** — owner changes are confined to the op's
//!    write footprint (exact per-mfn diff in small scopes, per-domain
//!    counts beyond [`super::model::EXACT_OWNER_LIMIT`]).
//! 3. **Cross-domain visibility** — every multi-domain frame alias
//!    must be justified: refs-backed CoW shares (dedup, snapshot
//!    baselines) are break-on-write and exempt, clone fall-through
//!    pairs require a model-side clone link, and injected raw aliases
//!    require a declared edge.
//! 4. **Declared-edge ledger** — ops with no declaration footprint must
//!    leave the ledger byte-identical to the model's copy.
//!
//! Direct guest writes to a domain's own memory are not hypercalls;
//! drivers announce them with [`SpecHandle::note_write`] so the CoW
//! breaks they cause are justified at the next check. Unannounced
//! out-of-band mutation — the attack model — is what the checker
//! exists to catch.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::rc::Rc;

use xoar_hypervisor::grant::GrantAccess;
use xoar_hypervisor::hypercall::{Hypercall, HypercallRet};
use xoar_hypervisor::{DomId, GateObserver, HvResult, Hypervisor};

use super::model::{GrantFact, SpecState};

/// A refinement violation: the real hypervisor did something the model
/// does not justify.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Stable rule identifier (`revoked-grant-resurrected`,
    /// `unjustified-grant-entry`, `grant-entry-vanished`,
    /// `unjustified-ownership-change`, `undeclared-clone-fanthrough`,
    /// `raw-alias-undeclared`, `foreign-map-unjustified`,
    /// `undeclared-sharing-edge`).
    pub rule: &'static str,
    /// Human-readable description of the mismatch.
    pub detail: String,
    /// Index into the op trace of the hypercall that surfaced it.
    pub op_index: usize,
}

/// The checker state behind the observer.
pub struct SpecCore {
    spec: SpecState,
    divergence: Option<Divergence>,
    ops: Vec<String>,
    checks: u64,
    /// Domains whose owned-frame sets may legitimately change at the
    /// next check (declared direct writes; consumed per step).
    pending_writes: BTreeSet<DomId>,
    /// Synthetic raw-alias fixtures for the selftest: `(mfn, mappers)`
    /// pairs fed into the visibility rule as non-CoW shares.
    injected_frames: Vec<(u64, Vec<DomId>)>,
}

impl SpecCore {
    fn new(spec: SpecState) -> Self {
        SpecCore {
            spec,
            divergence: None,
            ops: Vec::new(),
            checks: 0,
            pending_writes: BTreeSet::new(),
            injected_frames: Vec::new(),
        }
    }

    fn diverge(&mut self, rule: &'static str, detail: String) {
        if self.divergence.is_none() {
            self.divergence = Some(Divergence {
                rule,
                detail,
                op_index: self.ops.len().saturating_sub(1),
            });
        }
    }

    /// One lockstep step: advance the model for (`call`, `result`) and
    /// check refinement against the post-state `hv`.
    fn step(
        &mut self,
        hv: &Hypervisor,
        caller: DomId,
        call: &Hypercall,
        result: &HvResult<HypercallRet>,
    ) {
        if self.divergence.is_some() {
            return; // sticky: keep the first divergence and its trace
        }
        self.ops.push(format_op(caller, call, result.is_ok()));
        let mut writes = std::mem::take(&mut self.pending_writes);
        let mut declared_footprint = false;
        self.advance(
            hv,
            caller,
            call,
            result,
            &mut writes,
            &mut declared_footprint,
        );
        self.check_refinement(hv, &writes, declared_footprint);
        self.checks += 1;
    }

    /// Applies the spec-level semantics of one (sub-)call. Populates
    /// `writes` with domains whose frame ownership the op may touch and
    /// flags `declared` when the op may extend the sharing ledger.
    fn advance(
        &mut self,
        hv: &Hypervisor,
        caller: DomId,
        call: &Hypercall,
        result: &HvResult<HypercallRet>,
        writes: &mut BTreeSet<DomId>,
        declared: &mut bool,
    ) {
        use Hypercall::*;
        let Ok(ret) = result else {
            // Failed ops must leave spec-visible state alone, with one
            // deliberate exception mirroring the real gate:
            // `accept_transfer` consumes the table entry *before* the
            // memory-side transfer can still fail (e.g. a duplicate
            // offer whose frame already moved), so a failing accept may
            // legitimately spend the offer without moving ownership.
            if let GnttabAcceptTransfer { granter, gref } = call {
                let real_has = hv
                    .grant_table(*granter)
                    .and_then(|t| t.entry(*gref))
                    .is_some();
                if !real_has {
                    self.spec.grants.remove(&(*granter, gref.0));
                }
            }
            return;
        };
        match call {
            GnttabGrantAccess {
                grantee,
                pfn,
                access,
            } => {
                if let HypercallRet::GrantRef(r) = ret {
                    self.grant_added(hv, caller, r.0, *grantee, pfn.0, *access);
                    // Granting privatises the page first (CoW break),
                    // so the granter's ownership may change.
                    writes.insert(caller);
                    *declared = true;
                }
            }
            GnttabForeignSetup {
                owner,
                grantee,
                pfn,
                access,
            } => {
                if let HypercallRet::GrantRef(r) = ret {
                    self.grant_added(hv, *owner, r.0, *grantee, pfn.0, *access);
                    writes.insert(*owner);
                    *declared = true;
                }
            }
            GnttabGrantTransfer { grantee, pfn } => {
                if let HypercallRet::GrantRef(r) = ret {
                    self.grant_added(hv, caller, r.0, *grantee, pfn.0, GrantAccess::Transfer);
                    writes.insert(caller);
                    *declared = true;
                }
            }
            GnttabEndAccess { gref } => {
                if let Some(fact) = self.spec.grants.remove(&(caller, gref.0)) {
                    self.spec.revoked.push((caller, fact));
                }
            }
            GnttabAcceptTransfer { granter, gref } => {
                // Ownership of the offered frame moves granter → caller.
                self.spec.grants.remove(&(*granter, gref.0));
                writes.insert(*granter);
                writes.insert(caller);
            }
            GnttabCopyBatch { granter, .. } => {
                // Hypervisor-mediated page writes on both ends; either
                // side may take a CoW break.
                writes.insert(caller);
                writes.insert(*granter);
            }
            MmuMapForeign { target, .. } | MmuWriteForeign { target, .. } => {
                if !self.spec.blanket.contains(&caller)
                    && !self.spec.priv_for.contains(&(caller, *target))
                {
                    self.diverge(
                        "foreign-map-unjustified",
                        format!(
                            "{caller} mapped {target}'s memory without blanket or \
                             privileged-for justification in the model"
                        ),
                    );
                }
                if matches!(call, MmuWriteForeign { .. }) {
                    writes.insert(*target);
                }
            }
            MemoryPopulate { target, .. } => {
                writes.insert(*target);
            }
            DomctlCreateDomain { .. } => {
                if let HypercallRet::DomId(d) = ret {
                    self.spec.live.insert(*d);
                    self.spec.owned.insert(*d, 0);
                    *declared = true;
                }
            }
            DomctlCloneDomain { template, .. } => {
                if let HypercallRet::DomId(c) = ret {
                    self.spec.live.insert(*c);
                    self.spec.clone_of.insert(*c, *template);
                    // The clone op stamps ring frames and replays the
                    // template's grant plan; both are part of the op's
                    // declared semantics, so capture them as justified.
                    writes.insert(*c);
                    if let Some(table) = hv.grant_table(*c) {
                        for (gref, e) in table.entries_sorted() {
                            self.spec.grants.insert(
                                (*c, gref.0),
                                GrantFact {
                                    grantee: e.grantee,
                                    pfn: e.pfn.0,
                                    mfn: e.mfn.0,
                                    access: e.access,
                                },
                            );
                        }
                    }
                    *declared = true;
                }
            }
            DomctlDestroyDomain { target } => {
                self.domain_died(hv, *target, writes);
                *declared = true;
            }
            DomctlPauseDomain { .. }
            | DomctlUnpauseDomain { .. }
            | DomctlSetMaxMem { .. }
            | DomctlSetVcpus { .. }
            | DomctlAssignDevice { .. }
            | DomctlDelegate { .. }
            | DomctlSetRole { .. }
            | DomctlSetPrivilegedFor { .. }
            | DomctlIoPortPermission { .. }
            | DomctlMmioPermission { .. }
            | DomctlIrqPermission { .. }
            | DomctlPermitHypercall { .. } => {
                // Privilege surgery: no memory or grant effects, but the
                // derived blanket/foreign edges may shift.
                *declared = true;
            }
            EvtchnBindInterdomain { remote, .. } => {
                let (a, b) = (caller.min(*remote), caller.max(*remote));
                self.spec.declared.insert(("event", a, b));
                *declared = true;
            }
            EvtchnAllocUnbound { .. }
            | EvtchnBindVirq { .. }
            | EvtchnSend { .. }
            | EvtchnClose { .. }
            | GnttabMapGrantRef { .. }
            | GnttabUnmapGrantRef { .. }
            | GnttabMapBatch { .. }
            | GnttabUnmapBatch { .. }
            | VmSnapshot
            | SysctlPhysinfo
            | SchedYield
            | ConsoleWrite { .. } => {}
            // Ownership-neutral: a log-dirty cursor only records writes,
            // and a dedup merge keeps every mapping's bytes and owner.
            DomctlShadowOp { .. } | SysctlDedup => {}
            VmRollback { .. } => {
                // The spec of rollback: page *contents* revert, nothing
                // else. No ownership delta, no grant-table delta — a
                // rollback that resurrects a revoked grant diverges at
                // the table check.
            }
            Multicall { calls } => {
                if let HypercallRet::Multi(results) = ret {
                    for (sub, sub_result) in calls.iter().zip(results.iter()) {
                        self.advance(hv, caller, sub, sub_result, writes, declared);
                        if self.divergence.is_some() {
                            return;
                        }
                    }
                }
            }
        }
    }

    fn grant_added(
        &mut self,
        hv: &Hypervisor,
        granter: DomId,
        gref: u32,
        grantee: DomId,
        pfn: u64,
        access: GrantAccess,
    ) {
        let mfn = hv
            .grant_table(granter)
            .and_then(|t| t.entry(xoar_hypervisor::grant::GrantRef(gref)))
            .map(|e| e.mfn.0)
            .unwrap_or(u64::MAX);
        let fact = GrantFact {
            grantee,
            pfn,
            mfn,
            access,
        };
        // A legitimate re-grant clears the revocation: the capability
        // exists again by the granter's own (modeled) choice.
        self.spec
            .revoked
            .retain(|(g, f)| *g != granter || !f.same_capability(&fact));
        self.spec.grants.insert((granter, gref), fact);
        self.spec.declared.insert(("grant", grantee, granter));
    }

    fn domain_died(&mut self, hv: &Hypervisor, target: DomId, writes: &mut BTreeSet<DomId>) {
        // A control-VM destroy reboots the host and takes every domain
        // with it; diff the model's live set against reality.
        let mut died: Vec<DomId> = Vec::new();
        for &d in &self.spec.live {
            let dead = match hv.domain(d) {
                Ok(dom) => dom.state == xoar_hypervisor::DomainState::Dead,
                Err(_) => true,
            };
            if dead || d == target {
                died.push(d);
            }
        }
        for d in died {
            self.spec.live.remove(&d);
            self.spec.owned.remove(&d);
            self.spec.clone_of.remove(&d);
            self.spec.grants.retain(|&(granter, _), _| granter != d);
            writes.insert(d);
        }
    }

    /// The refinement check proper: diff real state against the model.
    fn check_refinement(&mut self, hv: &Hypervisor, writes: &BTreeSet<DomId>, declared: bool) {
        if self.divergence.is_some() {
            return;
        }
        self.check_grant_tables(hv);
        if self.divergence.is_none() {
            self.check_ownership(hv, writes);
        }
        if self.divergence.is_none() {
            self.check_visibility(hv);
        }
        if self.divergence.is_none() {
            self.check_declared(hv, declared);
        }
        // Privilege relation is an input to the next step's
        // justification; refresh it once this step checked out.
        if self.divergence.is_none() {
            self.spec.sync_privileges(hv);
        }
    }

    fn check_grant_tables(&mut self, hv: &Hypervisor) {
        for &granter in &self.spec.live.clone() {
            let real: Vec<(u32, GrantFact)> = hv
                .grant_table(granter)
                .map(|t| {
                    t.entries_sorted()
                        .into_iter()
                        .map(|(gref, e)| {
                            (
                                gref.0,
                                GrantFact {
                                    grantee: e.grantee,
                                    pfn: e.pfn.0,
                                    mfn: e.mfn.0,
                                    access: e.access,
                                },
                            )
                        })
                        .collect()
                })
                .unwrap_or_default();
            let modeled = self.spec.grants_by(granter);
            for &(gref, fact) in &real {
                if modeled.iter().any(|&(g, f)| g == gref && f == fact) {
                    continue;
                }
                let resurrected = self
                    .spec
                    .revoked
                    .iter()
                    .any(|(g, f)| *g == granter && f.same_capability(&fact));
                if resurrected {
                    self.diverge(
                        "revoked-grant-resurrected",
                        format!(
                            "{granter}'s table holds gref {gref} ({:?} pfn {} to {}), \
                             a capability the model saw revoked and never re-granted",
                            fact.access, fact.pfn, fact.grantee
                        ),
                    );
                } else {
                    self.diverge(
                        "unjustified-grant-entry",
                        format!(
                            "{granter}'s table holds gref {gref} ({:?} pfn {} to {}) \
                             with no corresponding model fact",
                            fact.access, fact.pfn, fact.grantee
                        ),
                    );
                }
                return;
            }
            for &(gref, fact) in &modeled {
                if !real.iter().any(|&(g, f)| g == gref && f == fact) {
                    self.diverge(
                        "grant-entry-vanished",
                        format!(
                            "model holds {granter} gref {gref} ({:?} pfn {} to {}) \
                             but the real table does not",
                            fact.access, fact.pfn, fact.grantee
                        ),
                    );
                    return;
                }
            }
        }
    }

    fn check_ownership(&mut self, hv: &Hypervisor, writes: &BTreeSet<DomId>) {
        // A domain writing its own space may break CoW against its
        // template; the template side never changes, so the closure of
        // the footprint is the writers plus nothing else.
        let allowed = |d: DomId, writes: &BTreeSet<DomId>| writes.contains(&d);
        if self.spec.owner_exact {
            let mut real: std::collections::BTreeMap<u64, DomId> =
                std::collections::BTreeMap::new();
            for &d in &self.spec.live {
                for (_, mfn) in hv.mem.p2m_entries(d) {
                    if let Ok(o) = hv.mem.owner(mfn) {
                        real.insert(mfn.0, o);
                    }
                }
            }
            for (&mfn, &owner) in &real {
                match self.spec.owner.get(&mfn) {
                    None if !allowed(owner, writes) => {
                        self.diverge(
                            "unjustified-ownership-change",
                            format!(
                                "frame {mfn} appeared owned by {owner} outside the op footprint"
                            ),
                        );
                        return;
                    }
                    Some(&prev) if prev != owner => {
                        if !allowed(prev, writes) || !allowed(owner, writes) {
                            self.diverge(
                                "unjustified-ownership-change",
                                format!(
                                    "frame {mfn} changed owner {prev} → {owner} outside \
                                     the op footprint"
                                ),
                            );
                            return;
                        }
                    }
                    _ => {}
                }
            }
            for (&mfn, &prev) in &self.spec.owner {
                if !real.contains_key(&mfn) && !allowed(prev, writes) {
                    self.diverge(
                        "unjustified-ownership-change",
                        format!("frame {mfn} owned by {prev} vanished outside the op footprint"),
                    );
                    return;
                }
            }
        } else {
            for &d in &self.spec.live {
                let now = hv.mem.owned_frames(d);
                let before = self.spec.owned.get(&d).copied().unwrap_or(0);
                if now != before && !allowed(d, writes) {
                    self.diverge(
                        "unjustified-ownership-change",
                        format!("{d}'s owned-frame count moved {before} → {now} outside the op footprint"),
                    );
                    return;
                }
            }
        }
        self.spec.sync_owner_views(hv);
    }

    fn check_visibility(&mut self, hv: &Hypervisor) {
        let shared = hv.mem.multi_domain_frames();
        for (mfn, doms) in &shared {
            let mappers: BTreeSet<DomId> =
                hv.mem.mappers(*mfn).into_iter().map(|(d, _)| d).collect();
            for (i, &a) in doms.iter().enumerate() {
                for &b in doms.iter().skip(i + 1) {
                    if mappers.contains(&a) && mappers.contains(&b) {
                        // Refs-backed share: the hypervisor's own CoW
                        // machinery (content dedup, snapshot baselines).
                        // Identical content, private again on write.
                        continue;
                    }
                    // At least one side reaches the frame by clone
                    // fall-through; the model must know the link. A
                    // refs-backed sharer may also meet a clone through
                    // the clone's template, if that template is a
                    // legitimate co-mapper of the frame.
                    let via_template = |clone: DomId, other: DomId| {
                        self.spec
                            .clone_of
                            .get(&clone)
                            .is_some_and(|t| mappers.contains(t) && mappers.contains(&other))
                    };
                    if self.spec.clone_linked(a, b) || via_template(a, b) || via_template(b, a) {
                        continue;
                    }
                    self.diverge(
                        "undeclared-clone-fanthrough",
                        format!(
                            "frame {} is read-visible to both {a} and {b} by clone \
                             fall-through, but the model records no clone link",
                            mfn.0
                        ),
                    );
                    return;
                }
            }
        }
        for (mfn, doms) in &self.injected_frames.clone() {
            for (i, &a) in doms.iter().enumerate() {
                for &b in doms.iter().skip(i + 1) {
                    if self.spec.declares_sharing(a, b) || self.spec.clone_linked(a, b) {
                        continue;
                    }
                    self.diverge(
                        "raw-alias-undeclared",
                        format!(
                            "frame {mfn} is raw-aliased between {a} and {b} with no \
                             declared sharing edge"
                        ),
                    );
                    return;
                }
            }
        }
    }

    fn check_declared(&mut self, hv: &Hypervisor, footprint: bool) {
        let real: BTreeSet<(&'static str, DomId, DomId)> = hv.declared_ops().into_iter().collect();
        if footprint {
            // The op legitimately reshapes the ledger (new grants,
            // privilege surgery, domain lifecycle): adopt it.
            self.spec.declared = real;
            return;
        }
        if real != self.spec.declared {
            let added: Vec<_> = real.difference(&self.spec.declared).collect();
            let removed: Vec<_> = self.spec.declared.difference(&real).collect();
            self.diverge(
                "undeclared-sharing-edge",
                format!(
                    "sharing ledger drifted on an op with no declaration \
                     footprint (added {added:?}, removed {removed:?})"
                ),
            );
        }
    }
}

/// The [`GateObserver`] attached to the hypercall gate.
///
/// Thin wrapper: the state lives behind an `Rc<RefCell<_>>` shared with
/// the driver-side [`SpecHandle`], so divergences and the op trace stay
/// readable while the hypervisor owns the observer.
pub struct SpecChecker {
    core: Rc<RefCell<SpecCore>>,
}

impl GateObserver for SpecChecker {
    fn observe(
        &mut self,
        hv: &Hypervisor,
        caller: DomId,
        call: &Hypercall,
        result: &HvResult<HypercallRet>,
    ) {
        if let Ok(mut core) = self.core.try_borrow_mut() {
            core.step(hv, caller, call, result);
        }
    }
}

/// Driver-side handle to an attached checker.
pub struct SpecHandle {
    core: Rc<RefCell<SpecCore>>,
}

impl SpecHandle {
    /// Captures the abstraction of `hv` and attaches the lockstep
    /// checker to its gate. From this point every hypercall is checked;
    /// the returned handle reads results out.
    pub fn attach(hv: &mut Hypervisor) -> SpecHandle {
        let core = Rc::new(RefCell::new(SpecCore::new(SpecState::capture(hv))));
        hv.attach_observer(Box::new(SpecChecker { core: core.clone() }));
        SpecHandle { core }
    }

    /// The first divergence, if the implementation ever left the model.
    pub fn divergence(&self) -> Option<Divergence> {
        self.core.borrow().divergence.clone()
    }

    /// The op trace observed so far (one line per hypercall).
    pub fn ops(&self) -> Vec<String> {
        self.core.borrow().ops.clone()
    }

    /// Number of lockstep checks performed.
    pub fn checks(&self) -> u64 {
        self.core.borrow().checks
    }

    /// A clone of the current model state, for noninterference queries.
    pub fn state(&self) -> SpecState {
        self.core.borrow().spec.clone()
    }

    /// Declares an imminent direct write by `dom` to its own memory
    /// (guest writes are not hypercalls). The CoW break it may cause is
    /// justified at the next check.
    pub fn note_write(&self, dom: DomId) {
        self.core.borrow_mut().pending_writes.insert(dom);
    }

    /// Selftest fixture: injects a synthetic raw (non-CoW) alias of
    /// `mfn` between `doms`, checked against declared sharing at every
    /// subsequent step.
    pub fn inject_raw_alias(&self, mfn: u64, doms: Vec<DomId>) {
        self.core.borrow_mut().injected_frames.push((mfn, doms));
    }

    /// Renders the divergence (if any) with its reproducing op trace.
    pub fn report(&self) -> Option<String> {
        let core = self.core.borrow();
        let d = core.divergence.as_ref()?;
        let mut out = String::new();
        let _ = writeln!(out, "divergence: {} — {}", d.rule, d.detail);
        let _ = writeln!(out, "op trace ({} ops):", core.ops.len());
        for (i, op) in core.ops.iter().enumerate() {
            let marker = if i == d.op_index {
                " <-- diverged here"
            } else {
                ""
            };
            let _ = writeln!(out, "  {:>3}. {op}{marker}", i + 1);
        }
        Some(out)
    }
}

/// Compact one-line rendering of an op for the reproducing trace.
fn format_op(caller: DomId, call: &Hypercall, ok: bool) -> String {
    let status = if ok { "ok" } else { "err" };
    format!("{caller}: {} -> {status}", call_name(call))
}

fn call_name(call: &Hypercall) -> String {
    use Hypercall::*;
    match call {
        GnttabGrantAccess {
            grantee,
            pfn,
            access,
        } => format!("GrantAccess(pfn {} -> {grantee}, {access:?})", pfn.0),
        GnttabEndAccess { gref } => format!("EndAccess(gref {})", gref.0),
        GnttabGrantTransfer { grantee, pfn } => {
            format!("GrantTransfer(pfn {} -> {grantee})", pfn.0)
        }
        GnttabAcceptTransfer { granter, gref } => {
            format!("AcceptTransfer({granter} gref {})", gref.0)
        }
        GnttabMapGrantRef { granter, gref } => format!("MapGrantRef({granter} gref {})", gref.0),
        GnttabUnmapGrantRef { granter, gref } => {
            format!("UnmapGrantRef({granter} gref {})", gref.0)
        }
        GnttabMapBatch { granter, refs } => format!("MapBatch({granter}, {} refs)", refs.len()),
        GnttabUnmapBatch { granter, refs } => {
            format!("UnmapBatch({granter}, {} refs)", refs.len())
        }
        GnttabCopyBatch { granter, ops } => format!("CopyBatch({granter}, {} ops)", ops.len()),
        GnttabForeignSetup { owner, grantee, .. } => {
            format!("ForeignSetup({owner} -> {grantee})")
        }
        DomctlCreateDomain { name, .. } => format!("CreateDomain({name:?})"),
        DomctlCloneDomain { template, name } => format!("CloneDomain({template} -> {name:?})"),
        DomctlDestroyDomain { target } => format!("DestroyDomain({target})"),
        VmSnapshot => "VmSnapshot".to_string(),
        VmRollback { target } => format!("VmRollback({target})"),
        MemoryPopulate { target, frames } => format!("MemoryPopulate({target}, {frames})"),
        MmuMapForeign { target, pfn } => format!("MapForeign({target} pfn {})", pfn.0),
        MmuWriteForeign { target, pfn, .. } => format!("WriteForeign({target} pfn {})", pfn.0),
        SchedYield => "SchedYield".to_string(),
        Multicall { calls } => format!("Multicall({} calls)", calls.len()),
        other => format!("{:?}", other.id()),
    }
}
