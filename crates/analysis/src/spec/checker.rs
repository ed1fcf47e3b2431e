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
//! The advance asks the abstract machine — the pre-state reachability
//! matrix — one question: a foreign map or write is justified only by a
//! blanket or `privileged_for` path from the caller to the target
//! (`foreign-map-unjustified`); a domain needs no path to its own
//! memory. Every other rule diffs a concrete fact.
//!
//! Checked refinement obligations, in order:
//!
//! 1. **Grant tables** — each live domain's table must equal the
//!    model's facts exactly, both ways. An unjustified real entry that
//!    re-states a revoked capability is diagnosed as
//!    `revoked-grant-resurrected` (the satellite-2 hole); any other
//!    unjustified entry as `unjustified-grant-entry`.
//! 2. **Frame lives** — MFNs are reused, so a frame must be free of
//!    holders before it is freed: every grant entry names a live frame
//!    of the generation it recorded, owned by its granter (page-flip
//!    offers excepted), and every foreign-mapped frame stays live
//!    (`frame-reused-while-held`).
//! 3. **Frame ownership** — owner changes, diffed per MFN against the
//!    model's exact owner map, are confined to the op's write footprint.
//! 4. **Cross-domain visibility** — every multi-domain frame alias
//!    must be justified: refs-backed CoW shares (dedup, snapshot
//!    baselines) are break-on-write and exempt, clone fall-through
//!    pairs require a model-side clone link, and injected raw aliases
//!    require a memory path in either direction in the post-state
//!    reachability matrix — the query the analyzer's
//!    `undeclared-sharing` rule asks of a raw share.
//! 5. **Declared-edge ledger** — ops with no declaration footprint must
//!    leave the ledger byte-identical to the model's copy.
//!
//! The post-state matrix the visibility check read becomes the next
//! op's pre-state.
//!
//! Direct guest writes to a domain's own memory are not hypercalls;
//! drivers announce them with [`SpecHandle::note_write`] so the CoW
//! breaks they cause are justified at the next check. Unannounced
//! out-of-band mutation — the attack model — is what the checker
//! exists to catch.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::rc::Rc;

use xoar_hypervisor::grant::GrantAccess;
use xoar_hypervisor::hypercall::{Hypercall, HypercallRet};
use xoar_hypervisor::memory::Mfn;
use xoar_hypervisor::{DomId, GateObserver, HvResult, Hypervisor};

use super::model::{owner_map, GrantFact, SpecState};
use crate::reach::Reachability;
use crate::snapshot::{Edge, ModelSnapshot, SharedFrame};

/// A refinement violation: the real hypervisor did something the model
/// does not justify.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Stable rule identifier (`revoked-grant-resurrected`,
    /// `unjustified-grant-entry`, `grant-entry-vanished`,
    /// `frame-reused-while-held`,
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
        // Failed ops must leave spec-visible state alone.
        let Ok(ret) = result else {
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
                if caller != *target && !self.spec.reach.maps_at_will(caller, *target) {
                    self.diverge(
                        "foreign-map-unjustified",
                        format!(
                            "{caller} mapped {target}'s memory with no blanket or \
                             privileged-for path in the reachability matrix"
                        ),
                    );
                }
                if matches!(call, MmuWriteForeign { .. }) {
                    writes.insert(*target);
                }
                if let HypercallRet::Mfn(mfn) = ret {
                    let held = (mfn.0, hv.mem.generation(*mfn));
                    if !self.spec.foreign_maps.contains(&held) {
                        self.spec.foreign_maps.push(held);
                    }
                }
            }
            MemoryPopulate { target, .. } => {
                writes.insert(*target);
            }
            DomctlCreateDomain { .. } => {
                if let HypercallRet::DomId(d) = ret {
                    self.spec.live.insert(*d);
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
                            self.spec.grants.insert((*c, gref.0), GrantFact::of(e));
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
            | VmSnapshot { .. }
            | SysctlPhysinfo
            | SchedYield
            | ConsoleWrite { .. } => {}
            // Ownership-neutral: a log-dirty cursor only records writes.
            DomctlShadowOp { .. } => {}
            SysctlDedup => {
                // A merge frees each duplicate frame and remaps its
                // mappers onto a copy another domain may own, so any
                // live domain's frames may move.
                writes.extend(self.spec.live.iter().copied());
            }
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
        let (mfn, gen) = hv
            .grant_table(granter)
            .and_then(|t| t.entry(xoar_hypervisor::grant::GrantRef(gref)))
            .map_or((u64::MAX, 0), |e| (e.mfn.0, e.gen));
        let fact = GrantFact {
            grantee,
            pfn,
            mfn,
            gen,
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
        let snap = ModelSnapshot::of_hypervisor(hv);
        let reach = Reachability::compute(&snap);
        self.check_grant_tables(hv);
        if self.divergence.is_none() {
            self.check_frame_lives(hv);
        }
        if self.divergence.is_none() {
            self.check_ownership(hv, writes);
        }
        if self.divergence.is_none() {
            self.check_visibility(hv, &snap.shared_frames, &reach);
        }
        if self.divergence.is_none() {
            self.check_declared(snap.declared, declared);
        }
        // The post-state matrix is the next step's pre-state; adopt it
        // once this step checked out.
        if self.divergence.is_none() {
            self.spec.reach = reach;
        }
    }

    fn check_grant_tables(&mut self, hv: &Hypervisor) {
        for &granter in &self.spec.live.clone() {
            let real: Vec<(u32, GrantFact)> = hv
                .grant_table(granter)
                .map(|t| {
                    t.entries_sorted()
                        .into_iter()
                        .map(|(gref, e)| (gref.0, GrantFact::of(e)))
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

    /// A frame is freed only when nothing holds it any more, so a reused
    /// frame starts its next life clean: every live grant entry, page-flip
    /// offers included, names a live frame of the generation it recorded,
    /// owned by its granter, and every frame the model saw foreign-mapped
    /// is still live in the generation it was mapped in.
    fn check_frame_lives(&mut self, hv: &Hypervisor) {
        // The owner of `mfn` while it is live in generation `gen`.
        let owner_in = |mfn: u64, gen: u32| {
            let mfn = Mfn(mfn);
            (hv.mem.generation(mfn) == gen)
                .then(|| hv.mem.owner(mfn).ok())
                .flatten()
        };
        let stale_grant = self
            .spec
            .grants
            .iter()
            .find(|(&(granter, _), f)| owner_in(f.mfn, f.gen) != Some(granter))
            .map(|(&(granter, gref), f)| {
                format!(
                    "{granter} gref {gref} ({:?} pfn {} to {}) names mfn {} of generation {}, \
                     which was freed under it (now generation {}, owner {:?})",
                    f.access,
                    f.pfn,
                    f.grantee,
                    f.mfn,
                    f.gen,
                    hv.mem.generation(Mfn(f.mfn)),
                    hv.mem.owner(Mfn(f.mfn)).ok(),
                )
            });
        let stale_map = || {
            self.spec
                .foreign_maps
                .iter()
                .find(|&&(mfn, gen)| owner_in(mfn, gen).is_none())
                .map(|(mfn, gen)| {
                    format!(
                        "foreign-mapped mfn {mfn} of generation {gen} was freed under its mapping"
                    )
                })
        };
        if let Some(detail) = stale_grant.or_else(stale_map) {
            self.diverge("frame-reused-while-held", detail);
        }
    }

    fn check_ownership(&mut self, hv: &Hypervisor, writes: &BTreeSet<DomId>) {
        // A domain writing its own space may break CoW against its
        // template; the template side never changes, so the closure of
        // the footprint is the writers plus nothing else.
        let real = owner_map(hv, &self.spec.live);
        let appeared_or_moved =
            real.iter()
                .find_map(|(&mfn, &owner)| match self.spec.owner.get(&mfn) {
                    None if !writes.contains(&owner) => Some(format!(
                        "frame {mfn} appeared owned by {owner} outside the op footprint"
                    )),
                    Some(&prev)
                        if prev != owner
                            && !(writes.contains(&prev) && writes.contains(&owner)) =>
                    {
                        Some(format!(
                            "frame {mfn} changed owner {prev} → {owner} outside the op footprint"
                        ))
                    }
                    _ => None,
                });
        let vanished = || {
            self.spec
                .owner
                .iter()
                .find(|&(mfn, prev)| !real.contains_key(mfn) && !writes.contains(prev))
                .map(|(mfn, prev)| {
                    format!("frame {mfn} owned by {prev} vanished outside the op footprint")
                })
        };
        match appeared_or_moved.or_else(vanished) {
            Some(detail) => self.diverge("unjustified-ownership-change", detail),
            None => self.spec.owner = real,
        }
    }

    fn check_visibility(&mut self, hv: &Hypervisor, shared: &[SharedFrame], reach: &Reachability) {
        for SharedFrame {
            mfn, mappers: doms, ..
        } in shared
        {
            let mappers: BTreeSet<DomId> = hv
                .mem
                .mappers(Mfn(*mfn))
                .into_iter()
                .map(|(d, _)| d)
                .collect();
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
                            "frame {mfn} is read-visible to both {a} and {b} by clone \
                             fall-through, but the model records no clone link"
                        ),
                    );
                    return;
                }
            }
        }
        let raw_alias = self.injected_frames.iter().find_map(|(mfn, doms)| {
            doms.iter().enumerate().find_map(|(i, &a)| {
                let b = doms
                    .iter()
                    .skip(i + 1)
                    .find(|&&b| !reach.shares_memory(a, b))?;
                Some(format!(
                    "frame {mfn} is raw-aliased between {a} and {b} with no memory path \
                     between them"
                ))
            })
        });
        if let Some(detail) = raw_alias {
            self.diverge("raw-alias-undeclared", detail);
        }
    }

    fn check_declared(&mut self, real: BTreeSet<Edge>, footprint: bool) {
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
        VmSnapshot { .. } => "VmSnapshot".to_string(),
        VmRollback { target } => format!("VmRollback({target})"),
        MemoryPopulate { target, frames } => format!("MemoryPopulate({target}, {frames})"),
        MmuMapForeign { target, pfn } => format!("MapForeign({target} pfn {})", pfn.0),
        MmuWriteForeign { target, pages } => {
            format!("WriteForeign({target}, {} pages)", pages.len())
        }
        SchedYield => "SchedYield".to_string(),
        Multicall { calls } => format!("Multicall({} calls)", calls.len()),
        other => format!("{:?}", other.id()),
    }
}
