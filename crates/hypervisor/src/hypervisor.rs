//! The hypervisor proper: domain table, dispatch, and access control.
//!
//! [`Hypervisor`] owns machine memory (each domain's snapshot image
//! included), the scheduler, and — since the state-region refactor — one
//! [`Region`] per domain holding that domain's grant table, event ports,
//! and console ring. It exposes exactly one entry point for
//! guest-initiated action: [`Hypervisor::hypercall`]. All access-control
//! decisions are made there, which is what lets Xoar express both
//! platforms with one mechanism:
//!
//! * **stock Xen**: Dom0 is created with [`PrivilegeSet::dom0`] (every
//!   privileged call whitelisted, blanket foreign mapping);
//! * **Xoar**: each shard is created with exactly the calls it needs
//!   (Figure 3.1's `permit_hypercall`), the Builder alone may map foreign
//!   memory, and management calls are audited against the parent-toolstack
//!   flag (§5.6).
//!
//! Inter-VM communication policy (§5.6) is enforced on the grant and
//! event-channel paths: a guest may only establish IVC with a shard that
//! has been *delegated* to it; guest↔guest channels are refused.

use std::collections::BTreeSet;

use crate::fasthash::{FastMap, FastSet};

use crate::domain::{DomId, Domain, DomainRole, DomainState};
use crate::error::{HvError, HvResult};
use crate::event::{PendingEvent, VirqKind};
use crate::grant::{GrantAccess, GrantRef, GrantTable};
use crate::hypercall::{Hypercall, HypercallId, HypercallRet};
use crate::memory::{MemoryManager, Mfn, Pfn};
use crate::privilege::PrivilegeSet;
use crate::region::Region;
use crate::sched::CreditScheduler;
use crate::xregion;

/// A declared cross-region sharing edge: `(kind, subject, object)`.
///
/// Kinds: `"event"` and `"grant"`, recorded when a channel is bound or
/// a grant installed (a clone's stamped grants are derived), plus the
/// derived `"foreign"` (`privileged_for`) and `"blanket"`
/// (map-foreign-any, object is `DomId(u32::MAX)` meaning "anyone"). The
/// analyzer audits the reachability matrix against this set.
pub type DeclaredOps = BTreeSet<(&'static str, DomId, DomId)>;

/// An observer attached to the hypercall gate.
///
/// The gate's one observation seam: every top-level hypercall is
/// observed exactly once, after the gate has decided it — whitelist
/// denials included — with the call as issued and its result. A
/// Multicall is observed once, its per-entry outcomes carried in the
/// [`HypercallRet::Multi`] result. Observers may read (never mutate)
/// the hypervisor, so `hv` shows the post-state of the call.
///
/// An observer must not panic: the gate is TCB code and the no-panic
/// lint covers the call path. Observers that accumulate findings keep
/// them behind their own handle; the driver reads them outside the gate.
pub trait GateObserver {
    /// Observes one completed (or denied) top-level hypercall.
    fn observe(
        &mut self,
        hv: &Hypervisor,
        caller: DomId,
        call: &Hypercall,
        result: &HvResult<HypercallRet>,
    );
}

/// Host hardware description.
#[derive(Debug, Clone, Copy)]
pub struct HostConfig {
    /// Machine memory in MiB.
    pub memory_mib: u64,
    /// Physical CPU count.
    pub cpus: u32,
}

impl Default for HostConfig {
    fn default() -> Self {
        // The paper's testbed: quad-core Xeon W3520, 4 GB RAM.
        HostConfig {
            memory_mib: 4096,
            cpus: 4,
        }
    }
}

/// Frames per MiB at 4 KiB pages.
pub const FRAMES_PER_MIB: u64 = 256;

/// The machine monitor.
pub struct Hypervisor {
    config: HostConfig,
    domains: FastMap<DomId, Domain>,
    next_domid: u32,
    /// Machine memory manager (global: models physically shared RAM).
    pub mem: MemoryManager,
    /// Credit scheduler.
    pub sched: CreditScheduler,
    /// Per-domain state regions (grant table, event ports, console).
    regions: FastMap<DomId, Region>,
    /// Total fresh event deliveries (clear→pending transitions).
    delivered: u64,
    /// Cross-region sharing edges declared by the operations that
    /// established them (grants, event binds). Audited by the analyzer.
    declared: FastSet<(&'static str, DomId, DomId)>,
    /// Precompiled per-template stamp plans (see [`xregion::stamp_plan`]):
    /// the grant posture a clone must be stamped with, compiled on the
    /// first clone of each sealed template and replayed thereafter.
    stamp_plans: FastMap<DomId, xregion::StampPlan>,
    /// Gate observers, in attach order. Empty on every bench and
    /// production path: the gate pays one branch for the check.
    observers: Vec<Box<dyn GateObserver>>,
    now_ns: u64,
    /// If set, a Dom0 crash reboots the whole host (stock Xen behaviour,
    /// §5.8); Xoar clears it so Bootstrapper may exit after boot.
    pub dom0_failure_is_fatal: bool,
    host_reboots: u64,
}

impl Hypervisor {
    /// Boots a hypervisor on the given host.
    pub fn new(config: HostConfig) -> Self {
        Hypervisor {
            config,
            domains: FastMap::default(),
            next_domid: 0,
            mem: MemoryManager::new(config.memory_mib * FRAMES_PER_MIB),
            sched: CreditScheduler::new(config.cpus),
            regions: FastMap::default(),
            delivered: 0,
            declared: FastSet::default(),
            stamp_plans: FastMap::default(),
            observers: Vec::new(),
            now_ns: 0,
            dom0_failure_is_fatal: true,
            host_reboots: 0,
        }
    }

    /// Boots with the paper's testbed configuration.
    pub fn with_default_host() -> Self {
        Self::new(HostConfig::default())
    }

    // ----- clock -----

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Advances the simulated clock.
    pub fn advance_time(&mut self, delta_ns: u64) {
        self.now_ns += delta_ns;
    }

    // ----- domain bootstrap (hypervisor-internal, not a hypercall) -----

    /// Creates the first domain directly, as Xen does for Dom0 (or Xoar's
    /// Bootstrapper) during host boot. Returns its ID (always `DomId(0)`
    /// for the first call).
    pub fn create_boot_domain(
        &mut self,
        name: impl Into<String>,
        role: DomainRole,
        memory_mib: u64,
        privileges: PrivilegeSet,
    ) -> HvResult<DomId> {
        let id = DomId(self.next_domid);
        self.next_domid += 1;
        let mut dom = Domain::new(id, name, role, memory_mib);
        dom.privileges = privileges;
        dom.created_at_ns = self.now_ns;
        self.register(dom)?;
        self.mem.populate(id, memory_mib * FRAMES_PER_MIB / 64)?;
        self.domain_mut(id)?.unpause();
        self.sched.set_runnable(id, true);
        Ok(id)
    }

    fn register(&mut self, dom: Domain) -> HvResult<()> {
        let id = dom.id;
        self.sched.add_domain(id);
        self.regions.insert(id, Region::new(id));
        self.domains.insert(id, dom);
        Ok(())
    }

    // ----- introspection -----

    /// Looks up a domain.
    pub fn domain(&self, id: DomId) -> HvResult<&Domain> {
        self.domains.get(&id).ok_or(HvError::NoSuchDomain(id))
    }

    /// Mutable domain lookup (platform layers, tests).
    pub fn domain_mut(&mut self, id: DomId) -> HvResult<&mut Domain> {
        self.domains.get_mut(&id).ok_or(HvError::NoSuchDomain(id))
    }

    /// All live domain IDs, sorted.
    pub fn domain_ids(&self) -> Vec<DomId> {
        let mut v: Vec<DomId> = self
            .domains
            .iter()
            .filter(|(_, d)| d.state != DomainState::Dead)
            .map(|(&id, _)| id)
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of live domains.
    pub fn domain_count(&self) -> usize {
        self.domain_ids().len()
    }

    /// Grant table of a domain (read-only, for audit).
    pub fn grant_table(&self, dom: DomId) -> Option<&GrantTable> {
        self.regions.get(&dom).map(|r| r.grant_table())
    }

    /// The frames named by a live grant entry of their current
    /// generation, ascending and without repeats: what the dedup sweep
    /// must leave where it is.
    fn granted_frames(&self) -> Vec<Mfn> {
        let entries = self.regions.values().map(|r| r.grants.len()).sum();
        let mut granted = Vec::with_capacity(entries);
        let live = |&(mfn, gen): &(Mfn, u32)| self.mem.generation(mfn) == gen;
        let frames = self.regions.values().flat_map(|r| r.grants.frames());
        granted.extend(frames.filter(live).map(|(mfn, _)| mfn));
        granted.sort_unstable();
        granted.dedup();
        granted
    }

    /// Read-only view of a domain's state region.
    pub fn region(&self, dom: DomId) -> Option<&Region> {
        self.regions.get(&dom)
    }

    fn region_mut(&mut self, id: DomId) -> HvResult<&mut Region> {
        self.regions.get_mut(&id).ok_or(HvError::NoSuchDomain(id))
    }

    /// Records a declared cross-region sharing edge. Event channels are
    /// bidirectional, so their edges are stored endpoint-normalized.
    fn declare(&mut self, kind: &'static str, subject: DomId, object: DomId) {
        if kind == "event" {
            let (a, b) = (subject.min(object), subject.max(object));
            self.declared.insert((kind, a, b));
        } else {
            self.declared.insert((kind, subject, object));
        }
    }

    /// The declared cross-region sharing edges, including edges derived
    /// from live privilege state: `("blanket", d, DomId(u32::MAX))` for
    /// every domain holding map-foreign-any, `("foreign", s, o)` for
    /// every `privileged_for` pair, and `("grant", grantee, clone)` for
    /// every grant a live clone was stamped with (read off the
    /// template's plan, so the snapshot-fork hot path records nothing
    /// per clone). The analyzer's `no-undeclared-cross-region-access`
    /// rule audits the reachability matrix against this set.
    pub fn declared_ops(&self) -> DeclaredOps {
        // The live set is hashed (declare sits on hypercall hot paths);
        // the audit view is materialised ordered, per call.
        let mut set: DeclaredOps = self.declared.iter().copied().collect();
        for (id, d) in &self.domains {
            if d.state == DomainState::Dead {
                continue;
            }
            if d.privileges.map_foreign_any {
                set.insert(("blanket", *id, DomId(u32::MAX)));
            }
            for &obj in &d.privileged_for {
                set.insert(("foreign", *id, obj));
            }
            if let Some(tpl) = self.mem.template_of(*id) {
                if let Some(plan) = self.stamp_plans.get(&tpl) {
                    for &(grantee, _, _) in &plan.entries {
                        set.insert(("grant", grantee, *id));
                    }
                }
            }
        }
        set
    }

    // ----- event-channel facade (per-region state, hypervisor view) -----

    /// Dequeues `dom`'s lowest-numbered pending event.
    pub fn poll_event(&mut self, dom: DomId) -> Option<PendingEvent> {
        self.regions.get_mut(&dom)?.poll()
    }

    /// Drains all of `dom`'s pending events, in port order.
    pub fn drain_pending(&mut self, dom: DomId) -> Vec<PendingEvent> {
        let mut out = Vec::new();
        self.drain_pending_into(dom, &mut out);
        out
    }

    /// Drains all of `dom`'s pending events into `out` in port order.
    pub fn drain_pending_into(&mut self, dom: DomId, out: &mut Vec<PendingEvent>) -> usize {
        self.regions
            .get_mut(&dom)
            .map_or(0, |r| r.drain_pending_into(out))
    }

    /// Number of distinct pending ports on `dom`.
    pub fn pending_count(&self, dom: DomId) -> usize {
        self.regions.get(&dom).map_or(0, |r| r.pending_count())
    }

    /// Total fresh event deliveries since boot (or the last event reset).
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Sorted, deduplicated interdomain peers of `dom`.
    pub fn peers_of(&self, dom: DomId) -> Vec<DomId> {
        self.regions
            .get(&dom)
            .map_or(Vec::new(), |r| r.event_peers())
    }

    /// Whether `dom`'s `port` is connected to a live interdomain peer.
    pub fn event_connected(&self, dom: DomId, port: u32) -> bool {
        self.regions
            .get(&dom)
            .is_some_and(|r| r.event_connected(port))
    }

    /// Masks or unmasks event delivery for `dom` (masking defers).
    pub fn set_event_mask(&mut self, dom: DomId, masked: bool) {
        if let Some(r) = self.regions.get_mut(&dom) {
            r.set_event_mask(masked);
        }
    }

    /// Resets every region's event half to its freshly-registered state
    /// (the hypervisor-microreboot seam used by `rehype`).
    pub fn reset_event_channels(&mut self) {
        for r in self.regions.values_mut() {
            r.reset_events();
        }
        self.delivered = 0;
    }

    /// Times the host was rebooted by a fatal control-VM failure.
    pub fn host_reboot_count(&self) -> u64 {
        self.host_reboots
    }

    /// Host configuration.
    pub fn host_config(&self) -> HostConfig {
        self.config
    }

    // ----- access-control helpers -----

    fn check_whitelist(&self, caller: DomId, id: HypercallId) -> HvResult<()> {
        let dom = self.domain(caller)?;
        if !dom.state.can_issue_hypercalls() {
            return Err(HvError::InvalidDomainState {
                dom: caller,
                expected: "Running",
            });
        }
        if dom.privileges.permits_hypercall(id) {
            Ok(())
        } else {
            Err(HvError::PermissionDenied {
                caller,
                privilege: format!("hypercall {}", id.name()),
            })
        }
    }

    /// Management check of §5.6: privileged VM-management hypercalls are
    /// audited against the parent-toolstack flag. Delegation (`delegated_to`)
    /// grants use of a shard, not its management: a toolstack that may
    /// place its guests on a shared backend may not pause or destroy it.
    fn check_management(&self, caller: DomId, target: DomId) -> HvResult<()> {
        let t = self.domain(target)?;
        let c = self.domain(caller)?;
        if t.parent_toolstack == Some(caller) || c.privileges.map_foreign_any {
            Ok(())
        } else {
            Err(HvError::PermissionDenied {
                caller,
                privilege: format!("management of {target}"),
            })
        }
    }

    /// IVC policy of §5.6: sharing requires one end to be a shard, and a
    /// guest end must have that shard delegated to it.
    fn check_ivc(&self, a: DomId, b: DomId) -> HvResult<()> {
        let da = self.domain(a)?;
        let db = self.domain(b)?;
        let ok = match (da.is_shard(), db.is_shard()) {
            (true, true) => true,
            (true, false) => db.delegated_shards.contains(&a),
            (false, true) => da.delegated_shards.contains(&b),
            (false, false) => false,
        };
        if ok {
            Ok(())
        } else {
            Err(HvError::PermissionDenied {
                caller: a,
                privilege: format!("IVC between {a} and {b} (not a delegated shard pair)"),
            })
        }
    }

    fn check_foreign_access(&self, caller: DomId, target: DomId) -> HvResult<()> {
        let c = self.domain(caller)?;
        if c.privileges.map_foreign_any || c.privileged_for.contains(&target) {
            Ok(())
        } else {
            Err(HvError::PermissionDenied {
                caller,
                privilege: format!("foreign mapping of {target}"),
            })
        }
    }

    // ----- the hypercall gate -----

    /// Dispatches a hypercall from `caller`.
    ///
    /// This is the single trap gate of the platform: whitelist check
    /// first, then per-argument access control, then the operation.
    pub fn hypercall(&mut self, caller: DomId, call: Hypercall) -> HvResult<HypercallRet> {
        if !self.observers.is_empty() {
            return self.hypercall_observed(caller, call);
        }
        self.check_whitelist(caller, call.id())?;
        self.dispatch(caller, call)
    }

    /// The observed slow path of the gate: decide the call as the fast
    /// path does, keeping a copy for the observers (dispatch consumes
    /// it), then let each observer read the post-state. Outlined so the
    /// common observer-less dispatch pays exactly one predicted-not-taken
    /// branch.
    #[inline(never)]
    fn hypercall_observed(&mut self, caller: DomId, call: Hypercall) -> HvResult<HypercallRet> {
        let result = match self.check_whitelist(caller, call.id()) {
            Ok(()) => self.dispatch(caller, call.clone()),
            Err(e) => Err(e),
        };
        // Take/put-back: observers borrow `self` immutably while they
        // are not reachable through `self`, so no aliasing.
        let mut observers = std::mem::take(&mut self.observers);
        for o in &mut observers {
            o.observe(self, caller, &call, &result);
        }
        self.observers = observers;
        result
    }

    /// Attaches a gate observer; it sees every hypercall from now on,
    /// after those attached before it.
    pub fn attach_observer(&mut self, observer: Box<dyn GateObserver>) {
        self.observers.push(observer);
    }

    /// Detaches and returns every attached observer, in attach order.
    pub fn take_observers(&mut self) -> Vec<Box<dyn GateObserver>> {
        std::mem::take(&mut self.observers)
    }

    // No wildcard arm: a new `Hypercall` variant fails to compile until
    // it is dispatched here.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    #[deny(unreachable_patterns)]
    fn dispatch(&mut self, caller: DomId, call: Hypercall) -> HvResult<HypercallRet> {
        use Hypercall::*;
        match call {
            EvtchnAllocUnbound { remote } => {
                self.check_ivc(caller, remote)?;
                let port = self.region_mut(caller)?.alloc_unbound(remote)?;
                Ok(HypercallRet::Port(port))
            }
            EvtchnBindInterdomain {
                remote,
                remote_port,
            } => {
                self.check_ivc(caller, remote)?;
                let port =
                    xregion::bind_interdomain(&mut self.regions, caller, remote, remote_port)?;
                self.declare("event", caller, remote);
                Ok(HypercallRet::Port(port))
            }
            EvtchnBindVirq { virq } => {
                let port = self.region_mut(caller)?.bind_virq(virq)?;
                Ok(HypercallRet::Port(port))
            }
            EvtchnSend { port } => {
                xregion::event_send(&mut self.regions, &mut self.delivered, caller, port)?;
                Ok(HypercallRet::Ok)
            }
            EvtchnClose { port } => {
                xregion::event_close(&mut self.regions, caller, port)?;
                Ok(HypercallRet::Ok)
            }
            GnttabGrantAccess {
                grantee,
                pfn,
                access,
            } => {
                self.check_ivc(caller, grantee)?;
                let gref = self.install_grant(caller, grantee, pfn, access)?;
                Ok(HypercallRet::GrantRef(gref))
            }
            GnttabEndAccess { gref } => {
                self.region_mut(caller)?.grants.end_access(gref)?;
                Ok(HypercallRet::Ok)
            }
            GnttabGrantTransfer { grantee, pfn } => {
                self.check_ivc(caller, grantee)?;
                let gref = self.install_grant(caller, grantee, pfn, GrantAccess::Transfer)?;
                Ok(HypercallRet::GrantRef(gref))
            }
            GnttabAcceptTransfer { granter, gref } => {
                let new_pfn = xregion::accept_transfer(
                    &mut self.regions,
                    &mut self.mem,
                    caller,
                    granter,
                    gref,
                )?;
                Ok(HypercallRet::Pfn(new_pfn))
            }
            GnttabMapGrantRef { granter, gref } => {
                let (regions, mem) = (&mut self.regions, &mut self.mem);
                let mfn =
                    xregion::grant_one(regions, mem, caller, granter, gref, xregion::map_one)?;
                Ok(HypercallRet::Mfn(mfn))
            }
            GnttabUnmapGrantRef { granter, gref } => {
                let (regions, mem) = (&mut self.regions, &mut self.mem);
                xregion::grant_one(regions, mem, caller, granter, gref, xregion::unmap_one)?;
                self.drop_unheld_region(granter);
                Ok(HypercallRet::Ok)
            }
            GnttabMapBatch { granter, refs } => {
                let (regions, mem) = (&mut self.regions, &mut self.mem);
                let done =
                    xregion::grant_batch(regions, mem, caller, granter, &refs, xregion::map_one)?;
                Ok(HypercallRet::GrantBatch(done))
            }
            GnttabUnmapBatch { granter, refs } => {
                let (regions, mem) = (&mut self.regions, &mut self.mem);
                let done =
                    xregion::grant_batch(regions, mem, caller, granter, &refs, xregion::unmap_one)?;
                self.drop_unheld_region(granter);
                Ok(HypercallRet::GrantBatch(done))
            }
            GnttabCopyBatch { granter, ops } => Ok(HypercallRet::GrantBatch(
                xregion::grant_copy_batch(&mut self.regions, &mut self.mem, caller, granter, &ops)?,
            )),
            GnttabForeignSetup {
                owner,
                grantee,
                pfn,
                access,
            } => {
                // Builder-only (§5.6): install a grant in `owner`'s table.
                let gref = self.install_grant(owner, grantee, pfn, access)?;
                Ok(HypercallRet::GrantRef(gref))
            }
            DomctlCreateDomain {
                name,
                memory_mib,
                vcpus,
            } => {
                if self.mem.free_frames() < memory_mib * FRAMES_PER_MIB / 64 {
                    return Err(HvError::Memory(crate::error::MemError::OutOfFrames));
                }
                let id = DomId(self.next_domid);
                self.next_domid += 1;
                let mut dom = Domain::new(id, name, DomainRole::Guest, memory_mib);
                dom.set_vcpus(vcpus);
                dom.parent_toolstack = Some(caller);
                dom.created_at_ns = self.now_ns;
                self.register(dom)?;
                Ok(HypercallRet::DomId(id))
            }
            DomctlCloneDomain { template, name } => {
                self.check_management(caller, template)?;
                // One template read covers the seal check and the identity
                // the clone inherits (pausing below mutates none of it).
                let (state, memory_mib, vcpus, delegated, group, privs) = {
                    let t = self.domain(template)?;
                    (
                        t.state,
                        t.memory_mib,
                        t.vcpus.len() as u32,
                        t.delegated_shards.clone(),
                        t.constraint_group.clone(),
                        t.privileges.clone(),
                    )
                };
                // Seal the template: a running guest is paused in place, a
                // half-built one cannot be forked.
                match state {
                    DomainState::Paused => {}
                    DomainState::Running => {
                        self.domain_mut(template)?.state = DomainState::Paused;
                        self.sched.set_runnable(template, false);
                    }
                    DomainState::Building | DomainState::Dead => {
                        return Err(HvError::InvalidDomainState {
                            dom: template,
                            expected: "Running|Paused",
                        })
                    }
                }
                self.mem.template_arm(template)?;
                // No free-frames admission check: a clone reserves zero frames
                // up front; OutOfFrames surfaces at first-write break time.
                let id = DomId(self.next_domid);
                self.next_domid += 1;
                let mut dom = Domain::new(id, name, DomainRole::Guest, memory_mib);
                dom.set_vcpus(vcpus);
                dom.delegated_shards = delegated;
                dom.constraint_group = group;
                dom.privileges = privs;
                dom.parent_toolstack = Some(caller);
                dom.created_at_ns = self.now_ns;
                // Born running: the clone resumes from the template's state
                // rather than waiting on a builder handshake.
                dom.unpause();
                self.register(dom)?;
                // A step refused after `register` tears the clone down
                // again: no orphan stays live or holds the template.
                if let Err(e) = self.stamp_clone(template, id) {
                    let _ = self.destroy(id);
                    return Err(e);
                }
                // The stamped grants' declared-sharing edges are derived in
                // `declared_ops` from the live plan, like blanket/foreign
                // edges — no per-clone bookkeeping on this path.
                self.sched.set_runnable(id, true);
                Ok(HypercallRet::DomId(id))
            }
            DomctlDestroyDomain { target } => {
                self.check_management(caller, target)?;
                self.destroy(target)?;
                Ok(HypercallRet::Ok)
            }
            DomctlPauseDomain { target } => {
                self.check_management(caller, target)?;
                let d = self.domain_mut(target)?;
                if d.state != DomainState::Running {
                    return Err(HvError::InvalidDomainState {
                        dom: target,
                        expected: "Running",
                    });
                }
                d.state = DomainState::Paused;
                self.sched.set_runnable(target, false);
                Ok(HypercallRet::Ok)
            }
            DomctlUnpauseDomain { target } => {
                self.check_management(caller, target)?;
                let d = self.domain_mut(target)?;
                match d.state {
                    DomainState::Building | DomainState::Paused => {
                        d.unpause();
                        self.sched.set_runnable(target, true);
                        Ok(HypercallRet::Ok)
                    }
                    DomainState::Running | DomainState::Dead => Err(HvError::InvalidDomainState {
                        dom: target,
                        expected: "Building|Paused",
                    }),
                }
            }
            DomctlSetMaxMem { target, memory_mib } => {
                self.check_management(caller, target)?;
                self.domain_mut(target)?.memory_mib = memory_mib;
                Ok(HypercallRet::Ok)
            }
            DomctlSetVcpus { target, vcpus } => {
                self.check_management(caller, target)?;
                self.domain_mut(target)?.set_vcpus(vcpus);
                Ok(HypercallRet::Ok)
            }
            DomctlAssignDevice { target, device } => {
                self.check_management(caller, target)?;
                // A device may be passed through to at most one domain.
                for (id, d) in &self.domains {
                    if *id != target
                        && d.state != DomainState::Dead
                        && d.privileges.pci_devices.contains(&device)
                    {
                        return Err(HvError::AlreadyAssigned(format!(
                            "PCI device {device} already assigned to {id}"
                        )));
                    }
                }
                self.domain_mut(target)?
                    .privileges
                    .assign_pci_device(device);
                Ok(HypercallRet::Ok)
            }
            DomctlDelegate { target, manager } => {
                self.check_management(caller, target)?;
                self.domain(manager)?;
                let t = self.domain_mut(target)?;
                t.privileges.allow_delegation(manager);
                // Management moves with a guest's hand-over, never with a
                // shard's: a shard serves every toolstack it is delegated to.
                if !t.is_shard()
                    && (t.parent_toolstack.is_none() || t.parent_toolstack == Some(caller))
                {
                    t.parent_toolstack = Some(manager);
                }
                Ok(HypercallRet::Ok)
            }
            DomctlSetRole { target, shard } => {
                self.check_management(caller, target)?;
                self.domain_mut(target)?.role = if shard {
                    DomainRole::Shard
                } else {
                    DomainRole::Guest
                };
                Ok(HypercallRet::Ok)
            }
            DomctlSetPrivilegedFor { subject, object } => {
                self.check_management(caller, subject)?;
                self.domain(object)?;
                self.domain_mut(subject)?.privileged_for.insert(object);
                Ok(HypercallRet::Ok)
            }
            DomctlIoPortPermission { target, range } => {
                self.check_management(caller, target)?;
                self.domain_mut(target)?.privileges.io_ports.insert(range);
                Ok(HypercallRet::Ok)
            }
            DomctlMmioPermission { target, range } => {
                self.check_management(caller, target)?;
                self.domain_mut(target)?.privileges.mmio.insert(range);
                Ok(HypercallRet::Ok)
            }
            DomctlIrqPermission { target, irq } => {
                self.check_management(caller, target)?;
                self.domain_mut(target)?.privileges.irqs.insert(irq);
                Ok(HypercallRet::Ok)
            }
            DomctlPermitHypercall { target, id } => {
                self.check_management(caller, target)?;
                // Privilege amplification guard: a domain may only hand out
                // privileges it holds itself. Blanket-privileged domains
                // (Dom0, the boot-time Bootstrapper) are outside the
                // least-privilege regime and exempt.
                let c = self.domain(caller)?;
                if !c.privileges.map_foreign_any && !c.privileges.permits_hypercall(id) {
                    return Err(HvError::PermissionDenied {
                        caller,
                        privilege: format!("granting {} without holding it", id.name()),
                    });
                }
                self.domain_mut(target)?.privileges.permit_hypercall(id);
                Ok(HypercallRet::Ok)
            }
            MemoryPopulate { target, frames } => {
                self.check_management(caller, target)?;
                let d = self.domain(target)?;
                if d.state != DomainState::Building {
                    return Err(HvError::InvalidDomainState {
                        dom: target,
                        expected: "Building",
                    });
                }
                let first = self.mem.populate(target, frames)?;
                let _ = first;
                Ok(HypercallRet::Ok)
            }
            MmuMapForeign { target, pfn } => {
                self.check_foreign_access(caller, target)?;
                let mfn = xregion::foreign_map(&mut self.mem, target, pfn)?;
                Ok(HypercallRet::Mfn(mfn))
            }
            MmuWriteForeign { target, pages } => {
                self.check_foreign_access(caller, target)?;
                xregion::foreign_write(&mut self.mem, target, &pages)?;
                Ok(HypercallRet::Ok)
            }
            DomctlShadowOp { target, op } => {
                self.check_management(caller, target)?;
                self.mem.shadow_op(target, op)
            }
            VmSnapshot { recovery_box } => {
                self.mem.freeze(caller, recovery_box)?;
                Ok(HypercallRet::Ok)
            }
            VmRollback { target } => {
                self.check_management(caller, target)?;
                let restored = self.mem.rollback_frozen(target)?;
                self.domain_mut(target)?.restart_count += 1;
                Ok(HypercallRet::Count(restored))
            }
            SysctlDedup => {
                let granted = self.granted_frames();
                Ok(HypercallRet::Count(self.mem.share_identical(&granted)))
            }
            SysctlPhysinfo => Ok(HypercallRet::Physinfo {
                total_frames: self.mem.total_frames(),
                free_frames: self.mem.free_frames(),
                cpus: self.config.cpus,
            }),
            SchedYield => Ok(HypercallRet::Ok),
            ConsoleWrite { data } => {
                self.region_mut(caller)?.console_write(&data);
                Ok(HypercallRet::Ok)
            }
            Multicall { calls } => self.multicall(caller, calls),
        }
    }

    // ----- batched hypercall bodies -----
    //
    // The grant batches live in `xregion` (they are cross-region by
    // nature); only the multicall body stays here, outlined so the batch
    // loop does not bloat the hot single-op dispatch path.

    /// The gate already did the caller lookup and liveness screen once
    /// for the whole batch; snapshot the whitelist bitset (a u64 copy)
    /// so each sub-call is screened without re-walking the domain table.
    #[inline(never)]
    fn multicall(&mut self, caller: DomId, calls: Vec<Hypercall>) -> HvResult<HypercallRet> {
        let permitted = self.domain(caller)?.privileges.hypercalls;
        let mut results = Vec::with_capacity(calls.len());
        for sub in calls {
            let sub_id = sub.id();
            if sub_id == HypercallId::Multicall {
                results.push(Err(HvError::InvalidArgument(
                    "nested multicall".to_string(),
                )));
                continue;
            }
            // Per-entry whitelist screen: a multicall must not
            // smuggle a call the caller could not issue directly.
            // The denial lands in the entry's result, which gate
            // observers see like a direct denial.
            if sub_id.is_privileged() && !permitted.contains(sub_id) {
                results.push(Err(HvError::PermissionDenied {
                    caller,
                    privilege: format!("hypercall {}", sub_id.name()),
                }));
                continue;
            }
            results.push(self.dispatch(caller, sub));
        }
        Ok(HypercallRet::Multi(results))
    }

    // ----- non-hypercall services -----

    /// Successful rollbacks of `dom` (its [`Domain::restart_count`]; 0
    /// for an unknown domain).
    pub fn rollback_count(&self, dom: DomId) -> u64 {
        self.domain(dom).map_or(0, |d| d.restart_count)
    }

    /// Drains a domain's console output (used by the console service).
    pub fn console_take(&mut self, dom: DomId) -> Vec<u8> {
        self.regions
            .get_mut(&dom)
            .map(|r| r.console_take())
            .unwrap_or_default()
    }

    /// Raises a VIRQ (hypervisor-originated interrupt delivery).
    pub fn raise_virq(&mut self, dom: DomId, virq: VirqKind) -> bool {
        match self.regions.get_mut(&dom).and_then(|r| r.raise_virq(virq)) {
            Some(fresh) => {
                if fresh {
                    self.delivered += 1;
                }
                true
            }
            None => false,
        }
    }

    /// Checks a trapped I/O-port access by `dom` (§5.8: the hypervisor
    /// "sets up MMIO and I/O-port privileges" — hard-coded to Dom0 in
    /// stock Xen, remapped to the Console Manager and PCIBack in Xoar).
    pub fn check_io_port(&self, dom: DomId, port: u16) -> HvResult<()> {
        let d = self.domain(dom)?;
        if d.privileges.permits_io_port(port) {
            Ok(())
        } else {
            Err(HvError::PermissionDenied {
                caller: dom,
                privilege: format!("I/O port {port:#x}"),
            })
        }
    }

    /// Checks a trapped MMIO access by `dom` to machine frame `mfn`.
    pub fn check_mmio(&self, dom: DomId, mfn: u64) -> HvResult<()> {
        let d = self.domain(dom)?;
        if d.privileges.permits_mmio(mfn) {
            Ok(())
        } else {
            Err(HvError::PermissionDenied {
                caller: dom,
                privilege: format!("MMIO frame {mfn:#x}"),
            })
        }
    }

    /// Simulates the crash of a domain.
    ///
    /// If the crashed domain is Dom0 and [`Self::dom0_failure_is_fatal`] is
    /// set (stock Xen, §5.8), the whole host reboots: every domain dies.
    /// Otherwise only the crashed domain is destroyed.
    pub fn crash_domain(&mut self, dom: DomId) -> HvResult<()> {
        self.domain(dom)?;
        if dom.is_dom0() && self.dom0_failure_is_fatal {
            self.host_reboots += 1;
            let mut ids = self.domain_ids();
            // Clones first: a template with live clones refuses to die.
            ids.sort_by_key(|&id| (self.mem.template_of(id).is_none(), id));
            for id in ids {
                let _ = self.destroy(id);
            }
        } else {
            self.destroy(dom)?;
        }
        Ok(())
    }

    /// Gives clone `id` its template's address space and stamps its
    /// region from the template's cached stamp plan.
    fn stamp_clone(&mut self, template: DomId, id: DomId) -> HvResult<()> {
        self.mem.clone_space(template, id)?;
        let plan = match self.stamp_plans.entry(template) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(xregion::stamp_plan(&self.regions, template)?)
            }
        };
        xregion::clone_stamp(&mut self.regions, &mut self.mem, id, plan)
    }

    fn destroy(&mut self, target: DomId) -> HvResult<()> {
        // A sealed template's frames back every live clone's address space;
        // it cannot be torn down until the last clone is gone.
        if self.mem.template_clones(target).unwrap_or(0) > 0 {
            return Err(HvError::InvalidDomainState {
                dom: target,
                expected: "template with no live clones",
            });
        }
        let d = self.domain_mut(target)?;
        if d.state == DomainState::Dead {
            return Err(HvError::InvalidDomainState {
                dom: target,
                expected: "not already Dead",
            });
        }
        d.state = DomainState::Dead;
        self.sched.remove_domain(target);
        xregion::teardown(&mut self.regions, target);
        self.mem.release_domain(target);
        self.stamp_plans.remove(&target);
        Ok(())
    }

    /// Drops the region of `dom` once it is dead and no peer maps its
    /// grants any more (see [`xregion::teardown`]).
    fn drop_unheld_region(&mut self, dom: DomId) {
        let dead = self
            .domains
            .get(&dom)
            .is_none_or(|d| d.state == DomainState::Dead);
        if dead
            && self
                .regions
                .get(&dom)
                .is_some_and(|r| r.grants.active_mappings() == 0)
        {
            self.regions.remove(&dom);
        }
    }

    // ----- grant install -----

    /// Installs a grant in `owner`'s table through the one install
    /// routine ([`xregion::install_grant`]) and records its
    /// declared-sharing edge. The gate's three install arms call it after
    /// their checks.
    fn install_grant(
        &mut self,
        owner: DomId,
        grantee: DomId,
        pfn: Pfn,
        access: GrantAccess,
    ) -> HvResult<GrantRef> {
        let gref = xregion::install_grant(
            &mut self.regions,
            &mut self.mem,
            owner,
            grantee,
            pfn,
            access,
        )?;
        self.declare("grant", grantee, owner);
        Ok(gref)
    }

    /// Installs a grant in `owner`'s table with `GnttabForeignSetup`
    /// semantics but no hypercall: no gate check, audit record or
    /// observer. Its only caller is `--spec-selftest`'s out-of-band
    /// re-grant injection, which must reach the table behind the gate.
    pub fn boot_grant(
        &mut self,
        owner: DomId,
        grantee: DomId,
        pfn: Pfn,
        access: GrantAccess,
    ) -> HvResult<GrantRef> {
        self.install_grant(owner, grantee, pfn, access)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercall::ShadowOp;
    use crate::memory::{PageRef, RecoveryBox, PAGE_SIZE};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// What a [`Recorder`] saw: `(caller, call id, result)` per call.
    pub(super) type Log = Rc<RefCell<Vec<(DomId, HypercallId, HvResult<HypercallRet>)>>>;

    /// Test observer appending every observed call to a shared log.
    struct Recorder(Log);

    impl GateObserver for Recorder {
        fn observe(
            &mut self,
            _hv: &Hypervisor,
            caller: DomId,
            call: &Hypercall,
            result: &HvResult<HypercallRet>,
        ) {
            self.0
                .borrow_mut()
                .push((caller, call.id(), result.clone()));
        }
    }

    /// Attaches a fresh [`Recorder`] and returns its log.
    pub(super) fn record(hv: &mut Hypervisor) -> Log {
        let log = Log::default();
        hv.attach_observer(Box::new(Recorder(Rc::clone(&log))));
        log
    }

    /// Builds a hypervisor with a Dom0-style control VM.
    pub(super) fn xen_like() -> (Hypervisor, DomId) {
        let mut hv = Hypervisor::with_default_host();
        let dom0 = hv
            .create_boot_domain("dom0", DomainRole::ControlVm, 750, PrivilegeSet::dom0())
            .unwrap();
        (hv, dom0)
    }

    pub(super) fn build_guest(hv: &mut Hypervisor, dom0: DomId, name: &str) -> DomId {
        let id = hv
            .hypercall(
                dom0,
                Hypercall::DomctlCreateDomain {
                    name: name.into(),
                    memory_mib: 64,
                    vcpus: 1,
                },
            )
            .unwrap()
            .dom_id()
            .unwrap();
        hv.hypercall(
            dom0,
            Hypercall::MemoryPopulate {
                target: id,
                frames: 16,
            },
        )
        .unwrap();
        hv.hypercall(dom0, Hypercall::DomctlUnpauseDomain { target: id })
            .unwrap();
        // Let the guest talk to the control VM (split drivers, xenstore).
        hv.domain_mut(id).unwrap().delegated_shards.insert(dom0);
        id
    }

    #[test]
    fn dom0_is_domid_zero() {
        let (_, dom0) = xen_like();
        assert_eq!(dom0, DomId::DOM0);
    }

    #[test]
    fn guest_cannot_issue_privileged_hypercalls() {
        let (mut hv, dom0) = xen_like();
        let g = build_guest(&mut hv, dom0, "guest");
        let err = hv
            .hypercall(
                g,
                Hypercall::DomctlCreateDomain {
                    name: "evil".into(),
                    memory_mib: 64,
                    vcpus: 1,
                },
            )
            .unwrap_err();
        assert!(matches!(err, HvError::PermissionDenied { .. }));
    }

    #[test]
    fn shadow_op_is_whitelisted_and_management_checked() {
        let (mut hv, dom0) = xen_like();
        let a = build_guest(&mut hv, dom0, "a");
        let b = build_guest(&mut hv, dom0, "b");
        let enable = |target| Hypercall::DomctlShadowOp {
            target,
            op: ShadowOp::Enable,
        };
        let err = hv.hypercall(a, enable(b)).unwrap_err();
        assert!(matches!(err, HvError::PermissionDenied { .. }));
        let cursor = hv.hypercall(dom0, enable(b)).unwrap().cursor().unwrap();
        hv.mem.write(b, Pfn(1), b"dirty").unwrap();
        let clean = Hypercall::DomctlShadowOp {
            target: b,
            op: ShadowOp::Clean(cursor),
        };
        let drained = hv.hypercall(dom0, clean).unwrap().pfns().unwrap();
        assert_eq!(drained, vec![Pfn(1)]);
        let freed = hv.hypercall(dom0, Hypercall::SysctlDedup).unwrap();
        assert_eq!(freed, HypercallRet::Count(0));
        assert!(hv.hypercall(a, Hypercall::SysctlDedup).is_err());
    }

    #[test]
    fn guest_cannot_map_foreign_memory() {
        let (mut hv, dom0) = xen_like();
        let a = build_guest(&mut hv, dom0, "a");
        let b = build_guest(&mut hv, dom0, "b");
        let err = hv
            .hypercall(
                a,
                Hypercall::MmuMapForeign {
                    target: b,
                    pfn: Pfn(0),
                },
            )
            .unwrap_err();
        assert!(matches!(err, HvError::PermissionDenied { .. }));
    }

    #[test]
    fn dom0_can_map_and_write_guest_memory() {
        let (mut hv, dom0) = xen_like();
        let g = build_guest(&mut hv, dom0, "guest");
        hv.hypercall(
            dom0,
            Hypercall::MmuWriteForeign {
                target: g,
                pages: vec![(Pfn(0), PageRef::new(b"start-info"))],
            },
        )
        .unwrap();
        assert_eq!(hv.mem.read(g, Pfn(0)).unwrap(), b"start-info");
    }

    #[test]
    fn privileged_for_edge_allows_limited_foreign_mapping() {
        let (mut hv, dom0) = xen_like();
        let qemu = build_guest(&mut hv, dom0, "qemu-stub");
        let hvm = build_guest(&mut hv, dom0, "hvm-guest");
        // Without the flag: denied.
        assert!(hv
            .hypercall(
                qemu,
                Hypercall::MmuMapForeign {
                    target: hvm,
                    pfn: Pfn(0)
                }
            )
            .is_err());
        // Grant MmuMapForeign + the privileged_for edge (as the Builder
        // does for QEMU stub domains, §5.6).
        hv.hypercall(
            dom0,
            Hypercall::DomctlPermitHypercall {
                target: qemu,
                id: HypercallId::MmuMapForeign,
            },
        )
        .unwrap();
        hv.hypercall(
            dom0,
            Hypercall::DomctlSetPrivilegedFor {
                subject: qemu,
                object: hvm,
            },
        )
        .unwrap();
        assert!(hv
            .hypercall(
                qemu,
                Hypercall::MmuMapForeign {
                    target: hvm,
                    pfn: Pfn(0)
                }
            )
            .is_ok());
        // But not of any *other* domain.
        let other = build_guest(&mut hv, dom0, "other");
        assert!(hv
            .hypercall(
                qemu,
                Hypercall::MmuMapForeign {
                    target: other,
                    pfn: Pfn(0)
                }
            )
            .is_err());
    }

    #[test]
    fn guest_to_guest_ivc_refused() {
        let (mut hv, dom0) = xen_like();
        let a = build_guest(&mut hv, dom0, "a");
        let b = build_guest(&mut hv, dom0, "b");
        let err = hv
            .hypercall(a, Hypercall::EvtchnAllocUnbound { remote: b })
            .unwrap_err();
        assert!(matches!(err, HvError::PermissionDenied { .. }));
    }

    #[test]
    fn guest_to_delegated_shard_ivc_allowed() {
        let (mut hv, dom0) = xen_like();
        let g = build_guest(&mut hv, dom0, "g");
        let port = hv
            .hypercall(g, Hypercall::EvtchnAllocUnbound { remote: dom0 })
            .unwrap()
            .port()
            .unwrap();
        let p0 = hv
            .hypercall(
                dom0,
                Hypercall::EvtchnBindInterdomain {
                    remote: g,
                    remote_port: port,
                },
            )
            .unwrap()
            .port()
            .unwrap();
        hv.hypercall(g, Hypercall::EvtchnSend { port }).unwrap();
        assert_eq!(hv.poll_event(dom0).unwrap().port, p0);
    }

    #[test]
    fn guest_to_undelegated_shard_ivc_refused() {
        let (mut hv, dom0) = xen_like();
        // A second shard the guest was never delegated.
        let other_backend = hv
            .create_boot_domain("netback2", DomainRole::Shard, 128, PrivilegeSet::default())
            .unwrap();
        let g = build_guest(&mut hv, dom0, "g");
        let err = hv
            .hypercall(
                g,
                Hypercall::EvtchnAllocUnbound {
                    remote: other_backend,
                },
            )
            .unwrap_err();
        assert!(matches!(err, HvError::PermissionDenied { .. }));
    }

    #[test]
    fn grant_path_checks_ivc_policy() {
        let (mut hv, dom0) = xen_like();
        let a = build_guest(&mut hv, dom0, "a");
        let b = build_guest(&mut hv, dom0, "b");
        // Guest→guest grant refused...
        assert!(hv
            .hypercall(
                a,
                Hypercall::GnttabGrantAccess {
                    grantee: b,
                    pfn: Pfn(0),
                    access: GrantAccess::ReadWrite,
                }
            )
            .is_err());
        // ...guest→delegated-shard grant allowed, and dom0 can map it.
        let gref = hv
            .hypercall(
                a,
                Hypercall::GnttabGrantAccess {
                    grantee: dom0,
                    pfn: Pfn(0),
                    access: GrantAccess::ReadWrite,
                },
            )
            .unwrap()
            .grant_ref()
            .unwrap();
        hv.hypercall(dom0, Hypercall::GnttabMapGrantRef { granter: a, gref })
            .unwrap();
    }

    #[test]
    fn management_gated_on_parent_toolstack() {
        let (mut hv, _dom0) = xen_like();
        // Two "toolstack" shards without blanket privileges.
        let mut priv_ts = PrivilegeSet::default();
        for id in [
            HypercallId::DomctlCreateDomain,
            HypercallId::DomctlDestroyDomain,
            HypercallId::DomctlPauseDomain,
            HypercallId::DomctlUnpauseDomain,
            HypercallId::MemoryPopulate,
        ] {
            priv_ts.permit_hypercall(id);
        }
        let ts1 = hv
            .create_boot_domain("toolstack-1", DomainRole::Shard, 128, priv_ts.clone())
            .unwrap();
        let ts2 = hv
            .create_boot_domain("toolstack-2", DomainRole::Shard, 128, priv_ts)
            .unwrap();
        let g = hv
            .hypercall(
                ts1,
                Hypercall::DomctlCreateDomain {
                    name: "tenant".into(),
                    memory_mib: 64,
                    vcpus: 1,
                },
            )
            .unwrap()
            .dom_id()
            .unwrap();
        // The other toolstack holds the same *hypercalls* but is not the
        // parent: per-argument check refuses it.
        let err = hv
            .hypercall(ts2, Hypercall::DomctlDestroyDomain { target: g })
            .unwrap_err();
        assert!(matches!(err, HvError::PermissionDenied { .. }));
        // The parent may destroy.
        hv.hypercall(ts1, Hypercall::DomctlDestroyDomain { target: g })
            .unwrap();
        assert_eq!(hv.domain(g).unwrap().state, DomainState::Dead);
    }

    #[test]
    fn privilege_amplification_refused() {
        let (mut hv, dom0) = xen_like();
        let mut p = PrivilegeSet::default();
        p.permit_hypercall(HypercallId::DomctlPermitHypercall);
        p.permit_hypercall(HypercallId::DomctlCreateDomain);
        let ts = hv
            .create_boot_domain("toolstack", DomainRole::Shard, 128, p)
            .unwrap();
        let g = hv
            .hypercall(
                ts,
                Hypercall::DomctlCreateDomain {
                    name: "g".into(),
                    memory_mib: 64,
                    vcpus: 1,
                },
            )
            .unwrap()
            .dom_id()
            .unwrap();
        // The toolstack does not itself hold MmuMapForeign, so it cannot
        // confer it.
        let err = hv
            .hypercall(
                ts,
                Hypercall::DomctlPermitHypercall {
                    target: g,
                    id: HypercallId::MmuMapForeign,
                },
            )
            .unwrap_err();
        assert!(matches!(err, HvError::PermissionDenied { .. }));
        let _ = dom0;
    }

    #[test]
    fn pci_device_single_assignment() {
        let (mut hv, dom0) = xen_like();
        let a = build_guest(&mut hv, dom0, "netback");
        let b = build_guest(&mut hv, dom0, "evil");
        let nic = crate::privilege::PciAddress::new(0, 2, 0);
        hv.hypercall(
            dom0,
            Hypercall::DomctlAssignDevice {
                target: a,
                device: nic,
            },
        )
        .unwrap();
        let err = hv
            .hypercall(
                dom0,
                Hypercall::DomctlAssignDevice {
                    target: b,
                    device: nic,
                },
            )
            .unwrap_err();
        assert!(matches!(err, HvError::AlreadyAssigned(_)));
    }

    #[test]
    fn snapshot_rollback_via_hypercalls() {
        let (mut hv, dom0) = xen_like();
        let g = build_guest(&mut hv, dom0, "netback");
        hv.mem.write(g, Pfn(0), b"initialized").unwrap();
        hv.hypercall(g, Hypercall::VmSnapshot { recovery_box: None })
            .unwrap();
        hv.mem.write(g, Pfn(0), b"compromised").unwrap();
        hv.hypercall(dom0, Hypercall::VmRollback { target: g })
            .unwrap();
        assert_eq!(hv.mem.read(g, Pfn(0)).unwrap(), b"initialized");
        assert_eq!(hv.domain(g).unwrap().restart_count, 1);
        assert_eq!(hv.rollback_count(g), 1);
    }

    #[test]
    fn repeated_rollbacks_count_once_each() {
        let (mut hv, dom0) = xen_like();
        let g = build_guest(&mut hv, dom0, "netback");
        hv.mem.write(g, Pfn(1), b"good").unwrap();
        hv.hypercall(g, Hypercall::VmSnapshot { recovery_box: None })
            .unwrap();
        for i in 0..5 {
            hv.mem
                .write(g, Pfn(1), format!("bad{i}").as_bytes())
                .unwrap();
            hv.hypercall(dom0, Hypercall::VmRollback { target: g })
                .unwrap();
            assert_eq!(hv.mem.read(g, Pfn(1)).unwrap(), b"good");
        }
        assert_eq!(hv.rollback_count(g), 5);
        assert_eq!(hv.domain(g).unwrap().restart_count, 5);
        // A refused rollback counts nothing.
        let other = build_guest(&mut hv, dom0, "never-snapshotted");
        assert!(hv
            .hypercall(dom0, Hypercall::VmRollback { target: other })
            .is_err());
        assert_eq!(hv.rollback_count(other), 0);
    }

    #[test]
    fn second_snapshot_replaces_the_recovery_box() {
        let (mut hv, dom0) = xen_like();
        let g = build_guest(&mut hv, dom0, "netback");
        let recovery_box = Some(RecoveryBox {
            start: Pfn(0),
            frames: 2,
        });
        hv.hypercall(g, Hypercall::VmSnapshot { recovery_box })
            .unwrap();
        hv.mem.write(g, Pfn(1), b"ring-config").unwrap();
        hv.hypercall(dom0, Hypercall::VmRollback { target: g })
            .unwrap();
        assert_eq!(hv.mem.read(g, Pfn(1)).unwrap(), b"ring-config", "boxed");
        // The second snapshot names no box: its rollbacks restore pfn 1.
        hv.hypercall(g, Hypercall::VmSnapshot { recovery_box: None })
            .unwrap();
        hv.mem.write(g, Pfn(1), b"ring-config-v2").unwrap();
        hv.hypercall(dom0, Hypercall::VmRollback { target: g })
            .unwrap();
        assert_eq!(hv.mem.read(g, Pfn(1)).unwrap(), b"ring-config");
    }

    #[test]
    fn dom0_crash_reboots_host_in_stock_xen() {
        let (mut hv, dom0) = xen_like();
        let g = build_guest(&mut hv, dom0, "guest");
        hv.crash_domain(dom0).unwrap();
        assert_eq!(hv.host_reboot_count(), 1);
        assert_eq!(hv.domain(g).unwrap().state, DomainState::Dead);
    }

    #[test]
    fn shard_crash_is_contained_when_not_fatal() {
        let (mut hv, dom0) = xen_like();
        hv.dom0_failure_is_fatal = false;
        let g = build_guest(&mut hv, dom0, "guest");
        hv.crash_domain(dom0).unwrap();
        assert_eq!(hv.host_reboot_count(), 0);
        assert_eq!(hv.domain(g).unwrap().state, DomainState::Running);
    }

    #[test]
    fn paused_domain_cannot_hypercall() {
        let (mut hv, dom0) = xen_like();
        let g = build_guest(&mut hv, dom0, "g");
        hv.hypercall(dom0, Hypercall::DomctlPauseDomain { target: g })
            .unwrap();
        let err = hv.hypercall(g, Hypercall::SchedYield).unwrap_err();
        assert!(matches!(err, HvError::InvalidDomainState { .. }));
    }

    #[test]
    fn console_write_and_drain() {
        let (mut hv, dom0) = xen_like();
        let g = build_guest(&mut hv, dom0, "g");
        hv.hypercall(
            g,
            Hypercall::ConsoleWrite {
                data: b"Linux version 2.6.31\n".to_vec(),
            },
        )
        .unwrap();
        assert_eq!(hv.console_take(g), b"Linux version 2.6.31\n");
        assert!(hv.console_take(g).is_empty());
    }

    #[test]
    fn observer_sees_denied_calls() {
        let (mut hv, dom0) = xen_like();
        let g = build_guest(&mut hv, dom0, "g");
        let log = record(&mut hv);
        let _ = hv.hypercall(g, Hypercall::SysctlPhysinfo);
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        let (caller, id, result) = &log[0];
        assert_eq!((*caller, *id), (g, HypercallId::SysctlPhysinfo));
        assert!(matches!(result, Err(HvError::PermissionDenied { .. })));
    }

    #[test]
    fn physinfo_reports_host() {
        let (mut hv, dom0) = xen_like();
        match hv.hypercall(dom0, Hypercall::SysctlPhysinfo).unwrap() {
            HypercallRet::Physinfo {
                total_frames, cpus, ..
            } => {
                assert_eq!(total_frames, 4096 * FRAMES_PER_MIB);
                assert_eq!(cpus, 4);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn write_foreign_bounded_by_page() {
        let (mut hv, dom0) = xen_like();
        let g = build_guest(&mut hv, dom0, "g");
        let err = hv
            .hypercall(
                dom0,
                Hypercall::MmuWriteForeign {
                    target: g,
                    pages: vec![(Pfn(0), vec![0; PAGE_SIZE + 1].into())],
                },
            )
            .unwrap_err();
        assert!(matches!(err, HvError::InvalidArgument(_)));
    }
}

#[cfg(test)]
mod transfer_hypercall_tests {
    use super::*;
    use crate::memory::Pfn;

    fn platform() -> (Hypervisor, DomId, DomId, DomId) {
        let mut hv = Hypervisor::with_default_host();
        let dom0 = hv
            .create_boot_domain("dom0", DomainRole::ControlVm, 512, PrivilegeSet::dom0())
            .unwrap();
        let g = hv
            .hypercall(
                dom0,
                Hypercall::DomctlCreateDomain {
                    name: "g".into(),
                    memory_mib: 64,
                    vcpus: 1,
                },
            )
            .unwrap()
            .dom_id()
            .unwrap();
        hv.hypercall(
            dom0,
            Hypercall::MemoryPopulate {
                target: g,
                frames: 8,
            },
        )
        .unwrap();
        hv.hypercall(dom0, Hypercall::DomctlUnpauseDomain { target: g })
            .unwrap();
        hv.domain_mut(g).unwrap().delegated_shards.insert(dom0);
        let nb = hv
            .create_boot_domain("netback", DomainRole::Shard, 128, PrivilegeSet::default())
            .unwrap();
        hv.domain_mut(g).unwrap().delegated_shards.insert(nb);
        (hv, dom0, g, nb)
    }

    #[test]
    fn page_flip_moves_ownership() {
        let (mut hv, _dom0, g, nb) = platform();
        hv.mem.write(g, Pfn(3), b"rx-buffer").unwrap();
        let owned_before_g = hv.mem.owned_frames(g);
        let owned_before_nb = hv.mem.owned_frames(nb);
        let gref = hv
            .hypercall(
                g,
                Hypercall::GnttabGrantTransfer {
                    grantee: nb,
                    pfn: Pfn(3),
                },
            )
            .unwrap()
            .grant_ref()
            .unwrap();
        let new_pfn = match hv
            .hypercall(nb, Hypercall::GnttabAcceptTransfer { granter: g, gref })
            .unwrap()
        {
            HypercallRet::Pfn(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        // Contents travelled with the frame.
        assert_eq!(hv.mem.read(nb, new_pfn).unwrap(), b"rx-buffer");
        // Ownership counts moved.
        assert_eq!(hv.mem.owned_frames(g), owned_before_g - 1);
        assert_eq!(hv.mem.owned_frames(nb), owned_before_nb + 1);
        // The source can no longer touch the page.
        assert!(hv.mem.read(g, Pfn(3)).is_err());
    }

    #[test]
    fn transfer_respects_ivc_policy() {
        let (mut hv, dom0, g, _nb) = platform();
        // A second guest with no delegation relationship.
        let g2 = hv
            .hypercall(
                dom0,
                Hypercall::DomctlCreateDomain {
                    name: "g2".into(),
                    memory_mib: 64,
                    vcpus: 1,
                },
            )
            .unwrap()
            .dom_id()
            .unwrap();
        hv.hypercall(
            dom0,
            Hypercall::MemoryPopulate {
                target: g2,
                frames: 4,
            },
        )
        .unwrap();
        hv.hypercall(dom0, Hypercall::DomctlUnpauseDomain { target: g2 })
            .unwrap();
        let err = hv
            .hypercall(
                g,
                Hypercall::GnttabGrantTransfer {
                    grantee: g2,
                    pfn: Pfn(0),
                },
            )
            .unwrap_err();
        assert!(matches!(err, HvError::PermissionDenied { .. }));
    }

    #[test]
    fn only_grantee_accepts_transfer() {
        let (mut hv, dom0, g, nb) = platform();
        let gref = hv
            .hypercall(
                g,
                Hypercall::GnttabGrantTransfer {
                    grantee: nb,
                    pfn: Pfn(0),
                },
            )
            .unwrap()
            .grant_ref()
            .unwrap();
        let err = hv
            .hypercall(dom0, Hypercall::GnttabAcceptTransfer { granter: g, gref })
            .unwrap_err();
        assert!(matches!(err, HvError::Grant(_)));
        // The rightful grantee still can.
        hv.hypercall(nb, Hypercall::GnttabAcceptTransfer { granter: g, gref })
            .unwrap();
    }

    /// An access grant must never outlive a page flip of its frame: the
    /// grantee would read whatever the frame's new owner writes.
    #[test]
    fn page_flip_is_refused_while_an_access_grant_names_the_frame() {
        let (mut hv, dom0, g, nb) = platform();
        hv.mem.write(g, Pfn(3), b"g-page").unwrap();
        let grant = |hv: &mut Hypervisor, call| hv.hypercall(g, call).unwrap().grant_ref().unwrap();
        let access = grant(
            &mut hv,
            Hypercall::GnttabGrantAccess {
                grantee: dom0,
                pfn: Pfn(3),
                access: GrantAccess::ReadOnly,
            },
        );
        let offer = grant(
            &mut hv,
            Hypercall::GnttabGrantTransfer {
                grantee: nb,
                pfn: Pfn(3),
            },
        );
        let accept = Hypercall::GnttabAcceptTransfer {
            granter: g,
            gref: offer,
        };
        let err = hv.hypercall(nb, accept.clone()).unwrap_err();
        assert!(matches!(
            err,
            HvError::Memory(crate::error::MemError::FrameBusy(_))
        ));
        // The refused accept changed nothing: the offer stands and the
        // access grant still reaches g's page, owned by g.
        assert!(hv.grant_table(g).unwrap().entry(offer).is_some());
        let map = Hypercall::GnttabMapGrantRef {
            granter: g,
            gref: access,
        };
        let HypercallRet::Mfn(mfn) = hv.hypercall(dom0, map).unwrap() else {
            panic!("a map returns the frame");
        };
        assert_eq!(hv.mem.owner(mfn).unwrap(), g);
        assert_eq!(hv.mem.read_mfn(mfn).unwrap(), b"g-page");
        hv.hypercall(
            dom0,
            Hypercall::GnttabUnmapGrantRef {
                granter: g,
                gref: access,
            },
        )
        .unwrap();
        hv.hypercall(g, Hypercall::GnttabEndAccess { gref: access })
            .unwrap();
        // A duplicate offer holds the frame the same way.
        let dup = grant(
            &mut hv,
            Hypercall::GnttabGrantTransfer {
                grantee: nb,
                pfn: Pfn(3),
            },
        );
        let err = hv.hypercall(nb, accept.clone()).unwrap_err();
        assert!(matches!(
            err,
            HvError::Memory(crate::error::MemError::FrameBusy(_))
        ));
        // Once no other entry names the frame, the flip goes through.
        hv.hypercall(g, Hypercall::GnttabEndAccess { gref: dup })
            .unwrap();
        hv.hypercall(nb, accept).unwrap();
        assert!(hv.mem.read(g, Pfn(3)).is_err());
    }
}

#[cfg(test)]
mod multicall_tests {
    use super::tests::record;
    use super::*;
    use crate::error::{EventError, GrantError};
    use crate::grant::{GrantAccess, GrantOpStatus};

    /// Dom0, a running guest, and an unprivileged netback shard
    /// delegated to the guest.
    fn platform() -> (Hypervisor, DomId, DomId, DomId) {
        let mut hv = Hypervisor::with_default_host();
        let dom0 = hv
            .create_boot_domain("dom0", DomainRole::ControlVm, 512, PrivilegeSet::dom0())
            .unwrap();
        let g = hv
            .hypercall(
                dom0,
                Hypercall::DomctlCreateDomain {
                    name: "g".into(),
                    memory_mib: 64,
                    vcpus: 1,
                },
            )
            .unwrap()
            .dom_id()
            .unwrap();
        hv.hypercall(
            dom0,
            Hypercall::MemoryPopulate {
                target: g,
                frames: 8,
            },
        )
        .unwrap();
        hv.hypercall(dom0, Hypercall::DomctlUnpauseDomain { target: g })
            .unwrap();
        hv.domain_mut(g).unwrap().delegated_shards.insert(dom0);
        let nb = hv
            .create_boot_domain("netback", DomainRole::Shard, 128, PrivilegeSet::default())
            .unwrap();
        hv.domain_mut(g).unwrap().delegated_shards.insert(nb);
        (hv, dom0, g, nb)
    }

    #[test]
    fn multicall_runs_all_entries_without_partial_abort() {
        let (mut hv, _dom0, g, _nb) = platform();
        let ret = hv
            .hypercall(
                g,
                Hypercall::Multicall {
                    calls: vec![
                        Hypercall::SchedYield,
                        // Sending on a port the guest never opened fails...
                        Hypercall::EvtchnSend { port: 77 },
                        // ...but the entries after it still run.
                        Hypercall::SchedYield,
                    ],
                },
            )
            .unwrap()
            .multi()
            .unwrap();
        assert_eq!(ret.len(), 3);
        assert_eq!(ret[0], Ok(HypercallRet::Ok));
        assert!(matches!(
            ret[1],
            Err(HvError::Event(EventError::BadPort(77)))
        ));
        assert_eq!(ret[2], Ok(HypercallRet::Ok));
    }

    #[test]
    fn multicall_cannot_smuggle_unwhitelisted_subcall() {
        let (mut hv, _dom0, _g, nb) = platform();
        let log = record(&mut hv);
        let ret = hv
            .hypercall(
                nb,
                Hypercall::Multicall {
                    calls: vec![Hypercall::SchedYield, Hypercall::SysctlPhysinfo],
                },
            )
            .unwrap()
            .multi()
            .unwrap();
        assert_eq!(ret[0], Ok(HypercallRet::Ok));
        assert!(matches!(ret[1], Err(HvError::PermissionDenied { .. })));
        // The batch is observed once, as permitted, and the denied
        // sub-call is visible to observers in its per-entry result,
        // exactly as a direct denied call would be.
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        let (caller, id, result) = &log[0];
        assert_eq!((*caller, *id), (nb, HypercallId::Multicall));
        assert_eq!(result, &Ok(HypercallRet::Multi(ret)));
    }

    #[test]
    fn two_observers_see_the_same_sequence() {
        let (mut hv, _dom0, g, nb) = platform();
        let first = record(&mut hv);
        let second = record(&mut hv);
        hv.hypercall(g, Hypercall::SchedYield).unwrap();
        // Whitelist-denied direct call, then the same call smuggled
        // inside a batch.
        let _ = hv.hypercall(nb, Hypercall::SysctlPhysinfo);
        hv.hypercall(
            nb,
            Hypercall::Multicall {
                calls: vec![Hypercall::SchedYield, Hypercall::SysctlPhysinfo],
            },
        )
        .unwrap();
        let seen = first.borrow().clone();
        assert_eq!(seen, *second.borrow());
        let ids: Vec<_> = seen.iter().map(|(c, id, _)| (*c, *id)).collect();
        assert_eq!(
            ids,
            vec![
                (g, HypercallId::SchedOp),
                (nb, HypercallId::SysctlPhysinfo),
                (nb, HypercallId::Multicall),
            ]
        );
        assert_eq!(seen[0].2, Ok(HypercallRet::Ok));
        assert!(matches!(seen[1].2, Err(HvError::PermissionDenied { .. })));
        let entries = seen[2].2.clone().unwrap().multi().unwrap();
        assert_eq!(entries[0], Ok(HypercallRet::Ok));
        assert!(matches!(entries[1], Err(HvError::PermissionDenied { .. })));
        // Detached observers see nothing further.
        assert_eq!(hv.take_observers().len(), 2);
        hv.hypercall(g, Hypercall::SchedYield).unwrap();
        assert_eq!(first.borrow().len(), 3);
        assert_eq!(second.borrow().len(), 3);
    }

    #[test]
    fn nested_multicall_rejected_per_entry() {
        let (mut hv, _dom0, g, _nb) = platform();
        let ret = hv
            .hypercall(
                g,
                Hypercall::Multicall {
                    calls: vec![
                        Hypercall::Multicall { calls: vec![] },
                        Hypercall::SchedYield,
                    ],
                },
            )
            .unwrap()
            .multi()
            .unwrap();
        assert!(matches!(ret[0], Err(HvError::InvalidArgument(_))));
        assert_eq!(ret[1], Ok(HypercallRet::Ok));
    }

    #[test]
    fn grant_batch_round_trip_matches_singles() {
        let (mut hv, _dom0, g, nb) = platform();
        let mut refs = Vec::new();
        for pfn in 0..4u64 {
            refs.push(
                hv.hypercall(
                    g,
                    Hypercall::GnttabGrantAccess {
                        grantee: nb,
                        pfn: Pfn(pfn),
                        access: GrantAccess::ReadWrite,
                    },
                )
                .unwrap()
                .grant_ref()
                .unwrap(),
            );
        }
        let mut batch = refs.clone();
        batch.push(GrantRef(999)); // bad entry rides along
        let batch: std::rc::Rc<[GrantRef]> = batch.into();
        let mapped = hv
            .hypercall(
                nb,
                Hypercall::GnttabMapBatch {
                    granter: g,
                    refs: batch.clone(),
                },
            )
            .unwrap()
            .grant_batch()
            .unwrap();
        assert_eq!(mapped.len(), 5);
        for r in &mapped[..4] {
            assert!(matches!(r, GrantOpStatus::Done(_)));
        }
        assert_eq!(mapped[4], GrantOpStatus::Grant(GrantError::BadRef(999)));
        let unmapped = hv
            .hypercall(
                nb,
                Hypercall::GnttabUnmapBatch {
                    granter: g,
                    refs: batch,
                },
            )
            .unwrap()
            .grant_batch()
            .unwrap();
        for (m, u) in mapped[..4].iter().zip(&unmapped[..4]) {
            assert_eq!(m, u, "unmap must release the same frame map resolved");
        }
        assert!(!unmapped[4].is_ok());
    }

    #[test]
    fn copy_batch_moves_bytes_both_ways() {
        let (mut hv, _dom0, g, nb) = platform();
        hv.mem.write(g, Pfn(1), b"from-guest").unwrap();
        let gref = hv
            .hypercall(
                g,
                Hypercall::GnttabGrantAccess {
                    grantee: nb,
                    pfn: Pfn(1),
                    access: GrantAccess::ReadWrite,
                },
            )
            .unwrap()
            .grant_ref()
            .unwrap();
        let ops = vec![crate::grant::GrantCopyOp {
            gref,
            dir: crate::grant::GrantCopyDir::FromGrant,
            local_pfn: Pfn(0),
        }];
        let ret = hv
            .hypercall(
                nb,
                Hypercall::GnttabCopyBatch {
                    granter: g,
                    ops: ops.into(),
                },
            )
            .unwrap()
            .grant_batch()
            .unwrap();
        assert!(ret[0].is_ok());
        let page = hv.mem.read(nb, Pfn(0)).unwrap();
        assert_eq!(&page.as_slice()[..10], b"from-guest");
        // And back: the shard pushes a reply into the guest's frame.
        hv.mem.write(nb, Pfn(0), b"from-shard").unwrap();
        let ops = vec![crate::grant::GrantCopyOp {
            gref,
            dir: crate::grant::GrantCopyDir::ToGrant,
            local_pfn: Pfn(0),
        }];
        let ret = hv
            .hypercall(
                nb,
                Hypercall::GnttabCopyBatch {
                    granter: g,
                    ops: ops.into(),
                },
            )
            .unwrap()
            .grant_batch()
            .unwrap();
        assert!(ret[0].is_ok());
        let page = hv.mem.read(g, Pfn(1)).unwrap();
        assert_eq!(&page.as_slice()[..10], b"from-shard");
        // Copies leave no grant mappings behind: revocation succeeds.
        hv.hypercall(g, Hypercall::GnttabEndAccess { gref })
            .unwrap();
    }
}

#[cfg(test)]
mod clone_hypercall_tests {
    use super::tests::{build_guest, xen_like};
    use super::*;

    /// Builds a guest, writes recognisable ring bytes, grants its ring page
    /// to Dom0 and returns it ready to serve as a clone template.
    fn template_guest(hv: &mut Hypervisor, dom0: DomId) -> DomId {
        let g = build_guest(hv, dom0, "template");
        hv.mem.write(g, Pfn(0), b"boot-state").unwrap();
        hv.mem.write(g, Pfn(4), b"ring-state").unwrap();
        hv.hypercall(
            dom0,
            Hypercall::GnttabForeignSetup {
                owner: g,
                grantee: dom0,
                pfn: Pfn(4),
                access: GrantAccess::ReadWrite,
            },
        )
        .unwrap();
        g
    }

    #[test]
    fn clone_hypercall_forks_a_running_guest() {
        let (mut hv, dom0) = xen_like();
        let g = template_guest(&mut hv, dom0);
        let c = hv
            .hypercall(
                dom0,
                Hypercall::DomctlCloneDomain {
                    template: g,
                    name: "fn-0".into(),
                },
            )
            .unwrap()
            .dom_id()
            .unwrap();
        // The template is sealed (paused); the clone is live.
        assert_eq!(hv.domain(g).unwrap().state, DomainState::Paused);
        assert_eq!(hv.domain(c).unwrap().state, DomainState::Running);
        assert_eq!(hv.domain(c).unwrap().parent_toolstack, Some(dom0));
        // Unbroken pages read through to the template's frames.
        let page = hv.mem.read(c, Pfn(0)).unwrap();
        assert_eq!(&page.as_slice()[..10], b"boot-state");
        // The stamped grant exposes the clone's own (privatised) ring.
        let entries = hv.regions[&c].grant_table().entries_sorted();
        assert_eq!(entries.len(), 1);
        let (_, e) = entries[0];
        assert_eq!(e.grantee, dom0);
        assert_eq!(e.pfn, Pfn(4));
        assert_eq!(e.mfn, hv.mem.translate(c, Pfn(4)).unwrap());
        assert_ne!(e.mfn, hv.mem.translate(g, Pfn(4)).unwrap());
        // The sharing is on the declared-ops ledger for the analyzer —
        // derived from the template's stamp plan, not recorded per clone.
        assert!(hv.declared_ops().contains(&("grant", dom0, c)));
        assert!(!hv.declared.contains(&("grant", dom0, c)));
    }

    #[test]
    fn clone_writes_break_frames_without_touching_the_template() {
        let (mut hv, dom0) = xen_like();
        let g = template_guest(&mut hv, dom0);
        let c = hv
            .hypercall(
                dom0,
                Hypercall::DomctlCloneDomain {
                    template: g,
                    name: "fn-0".into(),
                },
            )
            .unwrap()
            .dom_id()
            .unwrap();
        hv.mem.write(c, Pfn(0), b"clone-data").unwrap();
        assert_eq!(
            &hv.mem.read(c, Pfn(0)).unwrap().as_slice()[..10],
            b"clone-data"
        );
        assert_eq!(
            &hv.mem.read(g, Pfn(0)).unwrap().as_slice()[..10],
            b"boot-state"
        );
    }

    #[test]
    fn rollback_of_a_sealed_template_is_refused() {
        let (mut hv, dom0) = xen_like();
        let g = template_guest(&mut hv, dom0);
        hv.hypercall(
            dom0,
            Hypercall::DomctlCloneDomain {
                template: g,
                name: "fn-0".into(),
            },
        )
        .unwrap();
        assert!(hv.mem.is_template(g));
        let err = hv
            .hypercall(dom0, Hypercall::VmRollback { target: g })
            .unwrap_err();
        assert!(matches!(err, HvError::Snapshot(_)), "{err:?}");
        assert_eq!(hv.rollback_count(g), 0);
        assert_eq!(hv.domain(g).unwrap().restart_count, 0);
        assert_eq!(
            &hv.mem.read(g, Pfn(0)).unwrap().as_slice()[..10],
            b"boot-state"
        );
    }

    #[test]
    fn sealed_template_refuses_rollback_even_after_its_own_snapshot() {
        let (mut hv, dom0) = xen_like();
        let g = template_guest(&mut hv, dom0);
        hv.hypercall(g, Hypercall::VmSnapshot { recovery_box: None })
            .unwrap();
        hv.hypercall(
            dom0,
            Hypercall::DomctlCloneDomain {
                template: g,
                name: "fn-0".into(),
            },
        )
        .unwrap();
        let err = hv
            .hypercall(dom0, Hypercall::VmRollback { target: g })
            .unwrap_err();
        assert!(matches!(err, HvError::Snapshot(_)), "{err:?}");
        assert_eq!(hv.rollback_count(g), 0);
    }

    #[test]
    fn template_refuses_destroy_while_clones_live() {
        let (mut hv, dom0) = xen_like();
        let g = template_guest(&mut hv, dom0);
        let c = hv
            .hypercall(
                dom0,
                Hypercall::DomctlCloneDomain {
                    template: g,
                    name: "fn-0".into(),
                },
            )
            .unwrap()
            .dom_id()
            .unwrap();
        let err = hv
            .hypercall(dom0, Hypercall::DomctlDestroyDomain { target: g })
            .unwrap_err();
        assert!(matches!(err, HvError::InvalidDomainState { .. }));
        // Once the clone is gone the template can die.
        hv.hypercall(dom0, Hypercall::DomctlDestroyDomain { target: c })
            .unwrap();
        hv.hypercall(dom0, Hypercall::DomctlDestroyDomain { target: g })
            .unwrap();
    }

    #[test]
    fn host_reboot_tears_down_clones_before_templates() {
        let (mut hv, dom0) = xen_like();
        hv.dom0_failure_is_fatal = true;
        let g = template_guest(&mut hv, dom0);
        for i in 0..3 {
            hv.hypercall(
                dom0,
                Hypercall::DomctlCloneDomain {
                    template: g,
                    name: format!("fn-{i}"),
                },
            )
            .unwrap();
        }
        hv.crash_domain(dom0).unwrap();
        for id in hv.domain_ids() {
            assert_eq!(hv.domain(id).unwrap().state, DomainState::Dead);
        }
    }

    #[test]
    fn clone_of_a_building_domain_is_rejected() {
        let (mut hv, dom0) = xen_like();
        let id = hv
            .hypercall(
                dom0,
                Hypercall::DomctlCreateDomain {
                    name: "half-built".into(),
                    memory_mib: 64,
                    vcpus: 1,
                },
            )
            .unwrap()
            .dom_id()
            .unwrap();
        let err = hv
            .hypercall(
                dom0,
                Hypercall::DomctlCloneDomain {
                    template: id,
                    name: "fn-0".into(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, HvError::InvalidDomainState { .. }));
    }
}

#[cfg(test)]
mod frame_reuse_tests {
    use super::tests::{build_guest, xen_like};
    use super::*;
    use crate::error::{GrantError, MemError};
    use crate::grant::{GrantCopyDir, GrantCopyOp, GrantOpStatus};
    use std::rc::Rc;

    /// Guest `a` grants its pfn 1 to Dom0, and `early` — built first, so
    /// its frames are lower — holds the same bytes: the granted frame is
    /// the duplicate a dedup sweep would free.
    fn granted_duplicate(hv: &mut Hypervisor, dom0: DomId) -> (DomId, GrantRef) {
        let early = build_guest(hv, dom0, "early");
        let a = build_guest(hv, dom0, "a");
        hv.mem.write(early, Pfn(0), b"a's ring page").unwrap();
        hv.mem.write(a, Pfn(1), b"a's ring page").unwrap();
        let gref = hv
            .hypercall(
                a,
                Hypercall::GnttabGrantAccess {
                    grantee: dom0,
                    pfn: Pfn(1),
                    access: GrantAccess::ReadWrite,
                },
            )
            .unwrap()
            .grant_ref()
            .unwrap();
        (a, gref)
    }

    /// Guest `a` and `early` (built first, so its frames are lower)
    /// hold the same bytes at pfn 0, and a dedup sweep has merged them
    /// onto `early`'s frame.
    fn shared_pair(hv: &mut Hypervisor, dom0: DomId) -> (DomId, DomId) {
        let early = build_guest(hv, dom0, "early");
        let a = build_guest(hv, dom0, "a");
        hv.mem.write(early, Pfn(0), b"shared body").unwrap();
        hv.mem.write(a, Pfn(0), b"shared body").unwrap();
        hv.hypercall(dom0, Hypercall::SysctlDedup).unwrap();
        let shared = hv.mem.translate(early, Pfn(0)).unwrap();
        assert_eq!(hv.mem.translate(a, Pfn(0)).unwrap(), shared);
        (early, a)
    }

    /// Each way of installing a grant — the granter's access or transfer
    /// grant, or the Builder's foreign setup — hands the grantee a frame
    /// of `a`'s alone, never the one a dedup sweep shares with `early`:
    /// a copy into the grant leaves `early`'s page as it was.
    #[test]
    fn every_install_path_grants_a_private_frame() {
        for path in 0..3 {
            let (mut hv, dom0) = xen_like();
            let (early, a) = shared_pair(&mut hv, dom0);
            let shared = hv.mem.translate(early, Pfn(0)).unwrap();
            let (caller, call) = match path {
                0 => (
                    a,
                    Hypercall::GnttabGrantAccess {
                        grantee: dom0,
                        pfn: Pfn(0),
                        access: GrantAccess::ReadWrite,
                    },
                ),
                1 => (
                    a,
                    Hypercall::GnttabGrantTransfer {
                        grantee: dom0,
                        pfn: Pfn(0),
                    },
                ),
                _ => (
                    dom0,
                    Hypercall::GnttabForeignSetup {
                        owner: a,
                        grantee: dom0,
                        pfn: Pfn(0),
                        access: GrantAccess::ReadWrite,
                    },
                ),
            };
            let gref = hv.hypercall(caller, call).unwrap().grant_ref().unwrap();
            let entry = hv.grant_table(a).unwrap().entry(gref).unwrap().clone();
            assert_ne!(entry.mfn, shared, "install path {path}");
            assert_eq!(hv.mem.translate(a, Pfn(0)).unwrap(), entry.mfn);
            assert_eq!(hv.mem.owner(entry.mfn).unwrap(), a);

            hv.mem.write(dom0, Pfn(0), b"dom0's bytes").unwrap();
            let ops: Rc<[GrantCopyOp]> = Rc::from(
                [GrantCopyOp {
                    gref,
                    dir: GrantCopyDir::ToGrant,
                    local_pfn: Pfn(0),
                }]
                .as_slice(),
            );
            let copied = hv
                .hypercall(dom0, Hypercall::GnttabCopyBatch { granter: a, ops })
                .unwrap()
                .grant_batch()
                .unwrap();
            if entry.access == GrantAccess::Transfer {
                // An offer is accepted, never copied through.
                assert_eq!(copied, [GrantOpStatus::Grant(GrantError::NotGranted)]);
                let accept = Hypercall::GnttabAcceptTransfer { granter: a, gref };
                hv.hypercall(dom0, accept).unwrap();
                assert_eq!(hv.mem.owner(entry.mfn).unwrap(), dom0);
            } else {
                assert_eq!(copied, [GrantOpStatus::Done(entry.mfn)]);
                assert_eq!(hv.mem.read(a, Pfn(0)).unwrap(), b"dom0's bytes");
            }
            assert_eq!(hv.mem.translate(early, Pfn(0)).unwrap(), shared);
            assert_eq!(hv.mem.read(early, Pfn(0)).unwrap(), b"shared body");
            hv.mem.check_consistency().unwrap();
        }
    }

    /// A transfer offer made with `GnttabGrantAccess` and one made with
    /// `GnttabGrantTransfer` are the same entry, accepted the same way.
    #[test]
    fn access_call_with_transfer_equals_transfer_call() {
        let offer = |transfer_call: bool| {
            let (mut hv, dom0) = xen_like();
            let a = build_guest(&mut hv, dom0, "a");
            hv.mem.write(a, Pfn(2), b"flipped page").unwrap();
            let call = if transfer_call {
                Hypercall::GnttabGrantTransfer {
                    grantee: dom0,
                    pfn: Pfn(2),
                }
            } else {
                Hypercall::GnttabGrantAccess {
                    grantee: dom0,
                    pfn: Pfn(2),
                    access: GrantAccess::Transfer,
                }
            };
            let gref = hv.hypercall(a, call).unwrap().grant_ref().unwrap();
            let entry = hv.grant_table(a).unwrap().entry(gref).cloned();
            let map = hv.hypercall(dom0, Hypercall::GnttabMapGrantRef { granter: a, gref });
            let accept = Hypercall::GnttabAcceptTransfer { granter: a, gref };
            let accepted = hv.hypercall(dom0, accept.clone());
            let read = match &accepted {
                Ok(HypercallRet::Pfn(pfn)) => hv.mem.read(dom0, *pfn).ok(),
                _ => None,
            };
            let again = hv.hypercall(dom0, accept);
            (gref, entry, map, accepted, read, again)
        };
        let (via_access, via_transfer) = (offer(false), offer(true));
        assert_eq!(via_access.1.as_ref().unwrap().access, GrantAccess::Transfer);
        assert!(via_access.3.is_ok());
        assert_eq!(via_access.4.as_deref(), Some(&b"flipped page"[..]));
        assert_eq!(via_access, via_transfer);
    }

    #[test]
    fn live_grant_survives_a_dedup_sweep() {
        let (mut hv, dom0) = xen_like();
        let (a, gref) = granted_duplicate(&mut hv, dom0);
        let granted = hv.mem.translate(a, Pfn(1)).unwrap();
        hv.hypercall(dom0, Hypercall::SysctlDedup).unwrap();
        assert_eq!(hv.mem.translate(a, Pfn(1)).unwrap(), granted);
        let mapped = hv
            .hypercall(dom0, Hypercall::GnttabMapGrantRef { granter: a, gref })
            .unwrap();
        assert_eq!(mapped, HypercallRet::Mfn(granted));
        assert_eq!(hv.mem.read_mfn(granted).unwrap(), b"a's ring page");
        // Once the grant ends the page is an ordinary duplicate again.
        hv.hypercall(dom0, Hypercall::GnttabUnmapGrantRef { granter: a, gref })
            .unwrap();
        hv.hypercall(a, Hypercall::GnttabEndAccess { gref })
            .unwrap();
        assert_eq!(
            hv.hypercall(dom0, Hypercall::SysctlDedup).unwrap(),
            HypercallRet::Count(1)
        );
        assert_ne!(hv.mem.translate(a, Pfn(1)).unwrap(), granted);
    }

    #[test]
    fn mapped_grant_outlives_its_domain_until_unmapped() {
        let (mut hv, dom0) = xen_like();
        let (a, gref) = granted_duplicate(&mut hv, dom0);
        let granted = hv.mem.translate(a, Pfn(1)).unwrap();
        hv.hypercall(dom0, Hypercall::GnttabMapGrantRef { granter: a, gref })
            .unwrap();
        let free = hv.mem.free_frames();
        hv.hypercall(dom0, Hypercall::DomctlDestroyDomain { target: a })
            .unwrap();
        // The mapping holds the frame and keeps the table that names it.
        assert_eq!(hv.mem.owner(granted).unwrap(), a);
        assert!(hv.grant_table(a).is_some());
        let held = hv.mem.free_frames();
        hv.hypercall(dom0, Hypercall::GnttabUnmapGrantRef { granter: a, gref })
            .unwrap();
        assert_eq!(hv.mem.free_frames(), held + 1, "freed with its mapping");
        assert!(free < held);
        assert!(hv.mem.owner(granted).is_err());
        assert!(hv.grant_table(a).is_none(), "the table goes with it");
        hv.mem.check_consistency().unwrap();
    }

    #[test]
    fn stale_grant_never_reaches_the_frames_next_owner() {
        let (mut hv, dom0) = xen_like();
        let (a, gref) = granted_duplicate(&mut hv, dom0);
        let granted = hv.mem.translate(a, Pfn(1)).unwrap();
        // A sweep that ignores the grant frees the granted frame, and the
        // next guest built is handed that frame number.
        assert_eq!(hv.mem.share_identical(&[]), 1);
        let c = build_guest(&mut hv, dom0, "c");
        assert_eq!(hv.mem.translate(c, Pfn(0)).unwrap(), granted);
        hv.mem.write(c, Pfn(0), b"c's secret").unwrap();

        let map = hv.hypercall(dom0, Hypercall::GnttabMapGrantRef { granter: a, gref });
        assert!(
            matches!(map, Err(HvError::Memory(MemError::BadMfn(m))) if m == granted.0),
            "{map:?}"
        );
        let batch = hv
            .hypercall(
                dom0,
                Hypercall::GnttabMapBatch {
                    granter: a,
                    refs: Rc::from([gref].as_slice()),
                },
            )
            .unwrap()
            .grant_batch()
            .unwrap();
        assert_eq!(batch, [GrantOpStatus::Memory(MemError::BadMfn(granted.0))]);
        assert_eq!(hv.mem.mapping_count(granted).unwrap(), 0);
        assert_eq!(hv.grant_table(a).unwrap().active_mappings(), 0);

        hv.mem.write(dom0, Pfn(0), b"dom0's bytes").unwrap();
        let copy = |dir| GrantCopyOp {
            gref,
            dir,
            local_pfn: Pfn(0),
        };
        let ops: Rc<[GrantCopyOp]> =
            Rc::from([copy(GrantCopyDir::ToGrant), copy(GrantCopyDir::FromGrant)].as_slice());
        let copied = hv
            .hypercall(dom0, Hypercall::GnttabCopyBatch { granter: a, ops })
            .unwrap()
            .grant_batch()
            .unwrap();
        assert_eq!(
            copied,
            [GrantOpStatus::Memory(MemError::BadMfn(granted.0)); 2]
        );
        assert_eq!(hv.mem.read(c, Pfn(0)).unwrap(), b"c's secret");
        assert_eq!(hv.mem.read(dom0, Pfn(0)).unwrap(), b"dom0's bytes");
    }
}
