//! Cross-region operations: the only paths that touch two domains'
//! state regions at once.
//!
//! The state-region refactor (see [`crate::region`]) gives every domain
//! its own shard of hypervisor hot state. The paper's isolation argument
//! then reduces to an enumeration problem: the channels between two
//! domains are exactly the functions in this module, each taking the
//! `DomId`s of the regions it touches. The hypercall gate runs every
//! access check before it calls in here. The analyzer's
//! `no-undeclared-cross-region-access` rule checks that every
//! reachability edge it derives from a platform snapshot is covered by a
//! kind on the hypervisor's declared-sharing ledger
//! ([`crate::hypervisor::Hypervisor::declared_ops`]).
//!
//! Mechanically, [`region_pair_mut`] is the single place that splits a
//! mutable borrow across two regions (`xoar-lint` forbids the token
//! anywhere else in the crate), and [`object_region_mut`] is the
//! single-sided variant for operations like grant maps whose mutation
//! lands entirely in the *object* region. Operations that cross domains
//! through globally-shared machine memory (foreign maps and writes, CoW
//! rollback) take only the domain whose memory they touch.

use crate::fasthash::FastMap;

use crate::domain::DomId;
use crate::error::{EventError, HvError, HvResult, MemError};
use crate::event::{PendingEvent, PortState};
use crate::grant::{GrantAccess, GrantCopyDir, GrantCopyOp, GrantOpStatus, GrantRef, GrantTable};
use crate::memory::{MemoryManager, Mfn, PageRef, Pfn};
use crate::region::Region;
use crate::snapshot::SnapshotManager;

/// Splits a mutable borrow across the regions of `a` (the subject, the
/// domain acting) and `b` (the object, the domain reached into), running
/// `f(a's region, b's region)`.
///
/// This is the *only* split-borrow helper in the crate (`xoar-lint`
/// enforces the confinement): it temporarily lifts the subject region
/// out of the table so both sides are plain `&mut Region`, with no
/// `unsafe` and no aliasing. A pair whose endpoints coincide is
/// rejected — a same-domain operation is by definition intra-region and
/// must not take this path.
pub(crate) fn region_pair_mut<R>(
    regions: &mut FastMap<DomId, Region>,
    a: DomId,
    b: DomId,
    f: impl FnOnce(&mut Region, &mut Region) -> R,
) -> HvResult<R> {
    if a == b {
        return Err(HvError::InvalidArgument(format!(
            "cross-region borrow names a single region ({a:?})"
        )));
    }
    let mut ra = regions.remove(&a).ok_or(HvError::NoSuchDomain(a))?;
    let out = match regions.get_mut(&b) {
        Some(rb) => Ok(f(&mut ra, rb)),
        None => Err(HvError::NoSuchDomain(b)),
    };
    regions.insert(a, ra);
    out
}

/// Borrows only the *object* region, that of `dom` — for cross-region
/// operations (grant map/copy/transfer validation, foreign setup, clone
/// stamp) whose mutation lands entirely in the object's region.
pub(crate) fn object_region_mut<R>(
    regions: &mut FastMap<DomId, Region>,
    dom: DomId,
    f: impl FnOnce(&mut Region) -> R,
) -> HvResult<R> {
    let r = regions.get_mut(&dom).ok_or(HvError::NoSuchDomain(dom))?;
    Ok(f(r))
}

// ----- event channels -----

/// Sends a notification through `port` of `sender`.
///
/// For interdomain ports the peer's port is marked pending; the data-
/// free nature of channels means delivery is just a bit set, so a send
/// on an already-pending port coalesces (Xen semantics). The bit is set
/// even while the receiver is masked — masking defers delivery, it does
/// not drop it. A send whose receiver has died is silently dropped, as
/// on real hardware. `delivered` counts clear→pending transitions.
pub(crate) fn event_send(
    regions: &mut FastMap<DomId, Region>,
    delivered: &mut u64,
    sender: DomId,
    port: u32,
) -> HvResult<()> {
    let sr = regions.get(&sender).ok_or(EventError::BadRemote)?;
    let (remote, remote_port) = match sr.ports.ports.get(&port) {
        Some(PortState::Interdomain {
            remote,
            remote_port,
        }) => (*remote, *remote_port),
        _ => return Err(EventError::BadPort(port).into()),
    };
    if remote == sender {
        // A shard's self-channel: intra-region by definition.
        if let Some(r) = regions.get_mut(&sender) {
            if r.ports.pending.set(remote_port.into()) {
                *delivered += 1;
            }
        }
        return Ok(());
    }
    // Delivery is a bit set in the *receiver's* bitmap only — a
    // cross-region op (the analyzer audits the "event" edge declared at
    // bind time) but single-sided mechanically, so the hot path stays
    // two map lookups instead of moving the sender's region through the
    // pair borrow.
    if let Some(receiver) = regions.get_mut(&remote) {
        if receiver.ports.pending.set(remote_port.into()) {
            *delivered += 1;
        }
    }
    Ok(())
}

/// Binds `binder`'s new local port to (`remote`, `remote_port`),
/// completing both ends of the interdomain handshake.
///
/// Succeeds only if the remote port is unbound and names `binder` as
/// the permitted remote — the access-control core of the mechanism.
pub(crate) fn bind_interdomain(
    regions: &mut FastMap<DomId, Region>,
    binder: DomId,
    remote: DomId,
    remote_port: u32,
) -> HvResult<u32> {
    // Validate the remote side first.
    {
        let rd = regions.get(&remote).ok_or(EventError::BadRemote)?;
        match rd.ports.ports.get(&remote_port) {
            Some(PortState::Unbound { remote: permitted }) if *permitted == binder => {}
            Some(PortState::Unbound { .. }) => return Err(EventError::BindMismatch.into()),
            Some(_) => return Err(EventError::AlreadyBound(remote_port).into()),
            None => return Err(EventError::BadPort(remote_port).into()),
        }
    }
    if binder == remote {
        // Shard self-channel: both ends in one region.
        let r = regions.get_mut(&binder).ok_or(EventError::BadRemote)?;
        let local_port = r.ports.alloc_port()?;
        r.ports.ports.insert(
            local_port,
            PortState::Interdomain {
                remote,
                remote_port,
            },
        );
        r.ports.ports.insert(
            remote_port,
            PortState::Interdomain {
                remote: binder,
                remote_port: local_port,
            },
        );
        return Ok(local_port);
    }
    if !regions.contains_key(&binder) {
        return Err(EventError::BadRemote.into());
    }
    region_pair_mut(regions, binder, remote, |b, r| -> HvResult<u32> {
        let local_port = b.ports.alloc_port()?;
        b.ports.ports.insert(
            local_port,
            PortState::Interdomain {
                remote,
                remote_port,
            },
        );
        r.ports.ports.insert(
            remote_port,
            PortState::Interdomain {
                remote: binder,
                remote_port: local_port,
            },
        );
        Ok(local_port)
    })?
}

/// Closes `port` on `dom`, reclaiming it; the peer's end (if any) is
/// reclaimed too. Port *numbers* are never reused — freshness of
/// numbers keeps stale rendezvous data in XenStore harmless.
pub(crate) fn event_close(
    regions: &mut FastMap<DomId, Region>,
    dom: DomId,
    port: u32,
) -> HvResult<()> {
    let peer = {
        let dr = regions.get_mut(&dom).ok_or(EventError::BadRemote)?;
        let state = dr
            .ports
            .ports
            .remove(&port)
            .ok_or(EventError::BadPort(port))?;
        match state {
            PortState::Interdomain {
                remote,
                remote_port,
            } => Some((remote, remote_port)),
            _ => None,
        }
    };
    if let Some((peer, pport)) = peer {
        if peer == dom {
            if let Some(r) = regions.get_mut(&dom) {
                r.ports.ports.remove(&pport);
            }
        } else {
            // Like delivery, peer reclamation mutates only the object
            // region; a dead peer is simply gone.
            if let Some(pr) = regions.get_mut(&peer) {
                pr.ports.ports.remove(&pport);
            }
        }
    }
    Ok(())
}

// ----- grant tables -----

/// Validates a map of `granter`'s grant `gref` by `grantee` and records
/// the mapping (the audit point of §4.3), pinning the frame against
/// dedup/reclaim in the global frame table.
pub(crate) fn grant_map(
    regions: &mut FastMap<DomId, Region>,
    mem: &mut MemoryManager,
    grantee: DomId,
    granter: DomId,
    gref: GrantRef,
) -> HvResult<Mfn> {
    match object_region_mut(regions, granter, |r| {
        map_one(&mut r.grants, mem, grantee, gref)
    })? {
        GrantOpStatus::Done(mfn) => Ok(mfn),
        GrantOpStatus::Grant(e) => Err(e.into()),
        GrantOpStatus::Memory(e) => Err(e.into()),
    }
}

/// One map through `table`: pins the granted frame — refused with
/// `BadMfn` if the frame was freed since the grant, even if its number
/// now names another domain's frame — and only then counts the mapping
/// in the entry.
#[inline]
fn map_one(
    table: &mut GrantTable,
    mem: &mut MemoryManager,
    grantee: DomId,
    gref: GrantRef,
) -> GrantOpStatus {
    let entry = match table.mappable(grantee, gref) {
        Ok(entry) => entry,
        Err(e) => return GrantOpStatus::Grant(e),
    };
    match mem.inc_grant_mapping(entry.mfn, entry.gen) {
        Ok(()) => {
            entry.map_count += 1;
            GrantOpStatus::Done(entry.mfn)
        }
        Err(e) => GrantOpStatus::Memory(e),
    }
}

/// Releases one mapping of `granter`'s grant `gref` by `grantee`.
pub(crate) fn grant_unmap(
    regions: &mut FastMap<DomId, Region>,
    mem: &mut MemoryManager,
    grantee: DomId,
    granter: DomId,
    gref: GrantRef,
) -> HvResult<Mfn> {
    let mfn = object_region_mut(regions, granter, |r| r.grants.unmap(grantee, gref))??;
    mem.dec_grant_mapping(mfn)?;
    Ok(mfn)
}

/// Batched [`grant_map`] (GNTTABOP-style): one region lookup for the
/// whole (granter, grantee) pair; per-entry compact status after that,
/// as in GNTTABOP result arrays. A bad entry never aborts the batch.
#[inline(never)]
pub(crate) fn grant_map_batch(
    regions: &mut FastMap<DomId, Region>,
    mem: &mut MemoryManager,
    grantee: DomId,
    granter: DomId,
    refs: &[GrantRef],
) -> HvResult<Vec<GrantOpStatus>> {
    let table = &mut regions
        .get_mut(&granter)
        .ok_or(HvError::NoSuchDomain(granter))?
        .grants;
    Ok(refs
        .iter()
        .map(|&gref| map_one(table, mem, grantee, gref))
        .collect())
}

/// Batched [`grant_unmap`], mirroring [`grant_map_batch`].
#[inline(never)]
pub(crate) fn grant_unmap_batch(
    regions: &mut FastMap<DomId, Region>,
    mem: &mut MemoryManager,
    grantee: DomId,
    granter: DomId,
    refs: &[GrantRef],
) -> HvResult<Vec<GrantOpStatus>> {
    let table = &mut regions
        .get_mut(&granter)
        .ok_or(HvError::NoSuchDomain(granter))?
        .grants;
    let mut results = Vec::with_capacity(refs.len());
    for &gref in refs {
        results.push(match table.unmap_compact(grantee, gref) {
            Ok(mfn) => match mem.dec_grant_mapping(mfn) {
                Ok(()) => GrantOpStatus::Done(mfn),
                Err(e) => GrantOpStatus::Memory(e),
            },
            Err(e) => GrantOpStatus::Grant(e),
        });
    }
    Ok(results)
}

/// Batched GNTTABOP_copy: audits each op against `granter`'s table and
/// moves the page bytes through globally-shared machine memory. Copies
/// leave no mapping behind.
#[inline(never)]
pub(crate) fn grant_copy_batch(
    regions: &mut FastMap<DomId, Region>,
    mem: &mut MemoryManager,
    grantee: DomId,
    granter: DomId,
    ops: &[GrantCopyOp],
) -> HvResult<Vec<GrantOpStatus>> {
    let resolved = object_region_mut(regions, granter, |r| {
        r.grants.grant_copy_batch(grantee, ops)
    })?;
    let results = resolved
        .into_iter()
        .map(|r| {
            let (mfn, gen, entry) = match r {
                Ok(resolved) => resolved,
                Err(e) => return GrantOpStatus::Grant(e),
            };
            // A grant whose frame was freed reaches nothing, whoever
            // holds the frame number now.
            if let Err(e) = mem.check_generation(mfn, gen) {
                return GrantOpStatus::Memory(e);
            }
            let copied = match entry.dir {
                GrantCopyDir::FromGrant => mem.read_mfn(mfn).and_then(|page| {
                    // The caller's frame may be CoW-shared;
                    // break sharing before clobbering it.
                    let local = mem.exclusive_mfn(grantee, entry.local_pfn)?;
                    mem.write_mfn_page(local, page)
                }),
                GrantCopyDir::ToGrant => mem
                    .read(grantee, entry.local_pfn)
                    .and_then(|page| mem.write_mfn_page(mfn, page)),
            };
            match copied {
                Ok(()) => GrantOpStatus::Done(mfn),
                Err(HvError::Memory(e)) => GrantOpStatus::Memory(e),
                // read/exclusive/write only surface memory faults
                // on this path; keep the match total regardless.
                Err(_) => GrantOpStatus::Memory(MemError::BadMfn(mfn.0)),
            }
        })
        .collect();
    Ok(results)
}

/// Accepts a page-flip transfer: validates the offer in the granter's
/// table, re-points frame ownership in machine memory, and only then
/// spends the entry, so a refused accept changes nothing. Returns the
/// accepted frame's PFN in the grantee's address space.
pub(crate) fn accept_transfer(
    regions: &mut FastMap<DomId, Region>,
    mem: &mut MemoryManager,
    grantee: DomId,
    granter: DomId,
    gref: GrantRef,
) -> HvResult<Pfn> {
    let (pfn, _mfn) =
        object_region_mut(regions, granter, |r| r.grants.transfer_offer(grantee, gref))??;
    let new_pfn = mem.transfer_frame(granter, pfn, grantee)?;
    object_region_mut(regions, granter, |r| r.grants.end_access(gref))??;
    Ok(new_pfn)
}

/// Builder-only (§5.6): installs a grant for `grantee` in `owner`'s
/// table on the owner's behalf, breaking CoW sharing on the page first.
pub(crate) fn foreign_setup(
    regions: &mut FastMap<DomId, Region>,
    mem: &mut MemoryManager,
    owner: DomId,
    grantee: DomId,
    pfn: Pfn,
    access: GrantAccess,
) -> HvResult<GrantRef> {
    let mfn = mem.exclusive_mfn(owner, pfn)?;
    let gen = mem.generation(mfn);
    object_region_mut(regions, owner, |r| {
        r.grants.grant(grantee, pfn, mfn, gen, access)
    })?
}

/// A sealed template's precompiled stamp plan.
///
/// The plan is computed once per template and cached by the hypervisor
/// (a sealed template is paused and frozen, so its grant table cannot
/// change under the cache); the per-clone stamp then replays it without
/// walking the template's region at all — the same precompiled-plan
/// move the microreboot engine makes for restarts.
#[derive(Debug, Clone)]
pub(crate) struct StampPlan {
    /// Every live grant entry of the template as
    /// `(grantee, pfn, access)`, in grant-ref order.
    pub entries: Vec<(DomId, Pfn, GrantAccess)>,
    /// The granted PFNs alone, in the same order (the batch the memory
    /// manager privatises per clone).
    pub pfns: Vec<Pfn>,
}

/// Compiles the stamp plan of a sealed template.
pub(crate) fn stamp_plan(regions: &FastMap<DomId, Region>, template: DomId) -> HvResult<StampPlan> {
    let entries: Vec<(DomId, Pfn, GrantAccess)> = regions
        .get(&template)
        .ok_or(HvError::NoSuchDomain(template))?
        .grant_table()
        .entries_sorted()
        .into_iter()
        .map(|(_, e)| (e.grantee, e.pfn, e.access))
        .collect();
    let pfns = entries.iter().map(|&(_, pfn, _)| pfn).collect();
    Ok(StampPlan { entries, pfns })
}

/// Snapshot-fork region stamp: replays the template's precompiled stamp
/// plan into the clone's fresh region. Each stamped grant is
/// established against a fresh private frame of the clone
/// ([`MemoryManager::stamp_private_zero_batch`]): ring contents are
/// re-initialised when the backend connects, and a backend mapping the
/// clone's ring must never reach the template frame the clone still
/// aliases elsewhere.
pub(crate) fn clone_stamp(
    regions: &mut FastMap<DomId, Region>,
    mem: &mut MemoryManager,
    clone: DomId,
    plan: &StampPlan,
) -> HvResult<()> {
    let mut mfns = Vec::with_capacity(plan.pfns.len());
    mem.stamp_private_zero_batch(clone, &plan.pfns, &mut mfns)?;
    object_region_mut(regions, clone, |r| {
        for (&(grantee, pfn, access), &mfn) in plan.entries.iter().zip(&mfns) {
            r.grants
                .grant(grantee, pfn, mfn, mem.generation(mfn), access)?;
        }
        Ok(())
    })?
}

// ----- foreign memory and rollback (global machine memory) -----

/// Maps a frame of `owner`'s memory for a foreign accessor (blanket or
/// `privileged_for`-scoped), pinning it against reclaim.
pub(crate) fn foreign_map(mem: &mut MemoryManager, owner: DomId, pfn: Pfn) -> HvResult<Mfn> {
    let mfn = mem.exclusive_mfn(owner, pfn)?;
    mem.inc_foreign_mapping(mfn)?;
    Ok(mfn)
}

/// Writes into `owner`'s memory for a foreign accessor (builder
/// populating a guest image, device-model emulation).
pub(crate) fn foreign_write(
    mem: &mut MemoryManager,
    owner: DomId,
    pfn: Pfn,
    data: PageRef,
) -> HvResult<()> {
    mem.write_page(owner, pfn, data)
}

/// Rolls `target`'s memory back to its snapshot image (the
/// microreboot path), returning how many pages were restored.
pub(crate) fn rollback(
    snapshots: &mut SnapshotManager,
    mem: &mut MemoryManager,
    target: DomId,
) -> HvResult<u64> {
    snapshots.rollback(target, mem)
}

// ----- teardown -----

/// Destroys `target`'s region, reclaiming the peers' half-open ends of
/// its interdomain channels (as when a real backend observes the
/// frontend's death and closes its end). A grant table a peer still maps
/// outlives the domain, alone in an otherwise empty region, so that the
/// peer can unmap it: the hypervisor drops it with the last mapping.
pub(crate) fn teardown(regions: &mut FastMap<DomId, Region>, target: DomId) {
    let Some(region) = regions.remove(&target) else {
        return;
    };
    let peers: Vec<(DomId, u32)> = region
        .ports
        .ports
        .values()
        .filter_map(|s| match s {
            PortState::Interdomain {
                remote,
                remote_port,
            } => Some((*remote, *remote_port)),
            _ => None,
        })
        .collect();
    for (peer, pport) in peers {
        if let Some(pr) = regions.get_mut(&peer) {
            pr.ports.ports.remove(&pport);
        }
    }
    if region.grants.active_mappings() > 0 {
        let mut held = Region::new(target);
        held.grants = region.grants;
        regions.insert(target, held);
    }
}

// ----- test-only switch mirroring the old system-wide API -----

/// Applies a drained event batch to a map (test/bench convenience kept
/// out of the hot path).
pub fn ports_of(events: &[PendingEvent]) -> Vec<u32> {
    events.iter().map(|e| e.port).collect()
}

/// A standalone region table with the pre-refactor system-wide
/// event-switch API, used by the unit/property tests in this module to
/// exercise the cross-region paths without a full hypervisor. The field
/// names mirror [`crate::hypervisor::Hypervisor`]'s.
#[cfg(test)]
pub(crate) struct TestSwitch {
    regions: FastMap<DomId, Region>,
    delivered: u64,
}

#[cfg(test)]
impl TestSwitch {
    pub(crate) fn new() -> Self {
        TestSwitch {
            regions: FastMap::default(),
            delivered: 0,
        }
    }

    pub(crate) fn register_domain(&mut self, dom: DomId) {
        self.regions.entry(dom).or_insert_with(|| Region::new(dom));
    }

    pub(crate) fn remove_domain(&mut self, dom: DomId) {
        teardown(&mut self.regions, dom);
    }

    fn region_mut(&mut self, dom: DomId) -> HvResult<&mut Region> {
        self.regions
            .get_mut(&dom)
            .ok_or(EventError::BadRemote.into())
    }

    pub(crate) fn alloc_unbound(&mut self, owner: DomId, remote: DomId) -> HvResult<u32> {
        self.region_mut(owner)?.alloc_unbound(remote)
    }

    pub(crate) fn bind_interdomain(
        &mut self,
        binder: DomId,
        remote: DomId,
        remote_port: u32,
    ) -> HvResult<u32> {
        bind_interdomain(&mut self.regions, binder, remote, remote_port)
    }

    pub(crate) fn bind_virq(&mut self, dom: DomId, virq: crate::event::VirqKind) -> HvResult<u32> {
        self.region_mut(dom)?.bind_virq(virq)
    }

    pub(crate) fn raise_virq(&mut self, dom: DomId, virq: crate::event::VirqKind) -> bool {
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

    pub(crate) fn send(&mut self, sender: DomId, port: u32) -> HvResult<()> {
        event_send(&mut self.regions, &mut self.delivered, sender, port)
    }

    pub(crate) fn poll(&mut self, dom: DomId) -> Option<PendingEvent> {
        self.regions.get_mut(&dom)?.poll()
    }

    pub(crate) fn drain_pending(&mut self, dom: DomId) -> Vec<PendingEvent> {
        let mut out = Vec::new();
        if let Some(r) = self.regions.get_mut(&dom) {
            r.drain_pending_into(&mut out);
        }
        out
    }

    pub(crate) fn pending_count(&self, dom: DomId) -> usize {
        self.regions.get(&dom).map_or(0, |r| r.pending_count())
    }

    pub(crate) fn set_masked(&mut self, dom: DomId, masked: bool) {
        if let Some(r) = self.regions.get_mut(&dom) {
            r.set_event_mask(masked);
        }
    }

    pub(crate) fn close(&mut self, dom: DomId, port: u32) -> HvResult<()> {
        event_close(&mut self.regions, dom, port)
    }

    pub(crate) fn is_connected(&self, dom: DomId, port: u32) -> bool {
        self.regions
            .get(&dom)
            .is_some_and(|r| r.event_connected(port))
    }

    pub(crate) fn delivered_count(&self) -> u64 {
        self.delivered
    }

    pub(crate) fn peers_of(&self, dom: DomId) -> Vec<DomId> {
        self.regions
            .get(&dom)
            .map_or(Vec::new(), |r| r.event_peers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::VirqKind;
    use crate::grant::GrantAccess;

    fn two_domains() -> (TestSwitch, DomId, DomId) {
        let mut ev = TestSwitch::new();
        let a = DomId(1);
        let b = DomId(2);
        ev.register_domain(a);
        ev.register_domain(b);
        (ev, a, b)
    }

    #[test]
    fn pair_borrow_rejects_single_region() {
        let mut regions: FastMap<DomId, Region> = FastMap::default();
        regions.insert(DomId(1), Region::new(DomId(1)));
        let err = region_pair_mut(&mut regions, DomId(1), DomId(1), |_, _| ()).unwrap_err();
        assert!(matches!(err, HvError::InvalidArgument(_)));
        assert!(regions.contains_key(&DomId(1)), "region not lost");
    }

    #[test]
    fn pair_borrow_restores_subject_on_missing_object() {
        let mut regions: FastMap<DomId, Region> = FastMap::default();
        regions.insert(DomId(1), Region::new(DomId(1)));
        let err = region_pair_mut(&mut regions, DomId(1), DomId(9), |_, _| ()).unwrap_err();
        assert!(matches!(err, HvError::NoSuchDomain(DomId(9))));
        assert!(
            regions.contains_key(&DomId(1)),
            "subject region must be reinserted on failure"
        );
    }

    #[test]
    fn handshake_connects_both_ends() {
        let (mut ev, a, b) = two_domains();
        let pa = ev.alloc_unbound(a, b).unwrap();
        let pb = ev.bind_interdomain(b, a, pa).unwrap();
        assert!(ev.is_connected(a, pa));
        assert!(ev.is_connected(b, pb));
        assert_eq!(ev.peers_of(a), vec![b]);
    }

    #[test]
    fn bind_by_wrong_domain_rejected() {
        let (mut ev, a, b) = two_domains();
        let c = DomId(3);
        ev.register_domain(c);
        let pa = ev.alloc_unbound(a, b).unwrap();
        let err = ev.bind_interdomain(c, a, pa).unwrap_err();
        assert!(matches!(err, HvError::Event(EventError::BindMismatch)));
    }

    #[test]
    fn bind_to_bound_port_rejected() {
        let (mut ev, a, b) = two_domains();
        let pa = ev.alloc_unbound(a, b).unwrap();
        ev.bind_interdomain(b, a, pa).unwrap();
        let err = ev.bind_interdomain(b, a, pa).unwrap_err();
        assert!(matches!(err, HvError::Event(EventError::AlreadyBound(_))));
    }

    #[test]
    fn send_delivers_to_peer_port() {
        let (mut ev, a, b) = two_domains();
        let pa = ev.alloc_unbound(a, b).unwrap();
        let pb = ev.bind_interdomain(b, a, pa).unwrap();
        ev.send(a, pa).unwrap();
        let got = ev.poll(b).unwrap();
        assert_eq!(got.port, pb);
        assert!(ev.poll(b).is_none());
        // And in the other direction.
        ev.send(b, pb).unwrap();
        assert_eq!(ev.poll(a).unwrap().port, pa);
        assert_eq!(ev.delivered_count(), 2);
    }

    #[test]
    fn send_on_unbound_port_fails() {
        let (mut ev, a, b) = two_domains();
        let pa = ev.alloc_unbound(a, b).unwrap();
        assert!(ev.send(a, pa).is_err());
    }

    #[test]
    fn masked_domain_defers_events() {
        let (mut ev, a, b) = two_domains();
        let pa = ev.alloc_unbound(a, b).unwrap();
        let pb = ev.bind_interdomain(b, a, pa).unwrap();
        ev.set_masked(b, true);
        ev.send(a, pa).unwrap();
        // Masking defers: the bit is set but invisible to poll.
        assert_eq!(ev.pending_count(b), 1);
        assert!(ev.poll(b).is_none());
        assert!(ev.drain_pending(b).is_empty());
        ev.set_masked(b, false);
        assert_eq!(ev.poll(b).unwrap().port, pb);
        assert!(ev.poll(b).is_none());
    }

    #[test]
    fn repeated_sends_coalesce() {
        let (mut ev, a, b) = two_domains();
        let pa = ev.alloc_unbound(a, b).unwrap();
        let pb = ev.bind_interdomain(b, a, pa).unwrap();
        for _ in 0..5 {
            ev.send(a, pa).unwrap();
        }
        assert_eq!(ev.pending_count(b), 1);
        assert_eq!(ev.delivered_count(), 1);
        assert_eq!(ev.poll(b).unwrap().port, pb);
        assert!(ev.poll(b).is_none());
        // Once consumed, the next send is a fresh notification.
        ev.send(a, pa).unwrap();
        assert_eq!(ev.delivered_count(), 2);
        assert_eq!(ev.poll(b).unwrap().port, pb);
    }

    #[test]
    fn repeated_virq_raises_coalesce() {
        let (mut ev, a, _) = two_domains();
        let p = ev.bind_virq(a, VirqKind::Timer).unwrap();
        assert!(ev.raise_virq(a, VirqKind::Timer));
        assert!(
            ev.raise_virq(a, VirqKind::Timer),
            "coalesced raise still reported"
        );
        assert_eq!(ev.pending_count(a), 1);
        assert_eq!(ev.delivered_count(), 1);
        assert_eq!(ev.poll(a).unwrap().port, p);
    }

    #[test]
    fn poll_returns_lowest_port_first() {
        let (mut ev, a, b) = two_domains();
        let pa1 = ev.alloc_unbound(a, b).unwrap();
        let pb1 = ev.bind_interdomain(b, a, pa1).unwrap();
        let pa2 = ev.alloc_unbound(a, b).unwrap();
        let pb2 = ev.bind_interdomain(b, a, pa2).unwrap();
        assert!(pb1 < pb2);
        ev.send(a, pa2).unwrap();
        ev.send(a, pa1).unwrap();
        assert_eq!(ev.poll(b).unwrap().port, pb1);
        assert_eq!(ev.poll(b).unwrap().port, pb2);
    }

    #[test]
    fn drain_pending_returns_all_in_port_order() {
        let (mut ev, a, b) = two_domains();
        let mut peer_ports = Vec::new();
        for _ in 0..3 {
            let pa = ev.alloc_unbound(a, b).unwrap();
            peer_ports.push((pa, ev.bind_interdomain(b, a, pa).unwrap()));
        }
        // Send in reverse, with a duplicate thrown in.
        for &(pa, _) in peer_ports.iter().rev() {
            ev.send(a, pa).unwrap();
        }
        ev.send(a, peer_ports[1].0).unwrap();
        let drained = ev.drain_pending(b);
        let expected: Vec<u32> = peer_ports.iter().map(|&(_, pb)| pb).collect();
        assert_eq!(ports_of(&drained), expected);
        assert_eq!(ev.pending_count(b), 0);
        assert!(ev.drain_pending(b).is_empty());
    }

    #[test]
    fn virq_bind_and_raise() {
        let (mut ev, a, _) = two_domains();
        let p = ev.bind_virq(a, VirqKind::Console).unwrap();
        assert!(ev.raise_virq(a, VirqKind::Console));
        assert_eq!(ev.poll(a).unwrap().port, p);
        assert!(
            !ev.raise_virq(a, VirqKind::Timer),
            "unbound VIRQ not delivered"
        );
    }

    #[test]
    fn close_propagates_to_peer() {
        let (mut ev, a, b) = two_domains();
        let pa = ev.alloc_unbound(a, b).unwrap();
        let pb = ev.bind_interdomain(b, a, pa).unwrap();
        ev.close(a, pa).unwrap();
        assert!(!ev.is_connected(a, pa));
        assert!(!ev.is_connected(b, pb));
        assert!(ev.send(b, pb).is_err());
    }

    #[test]
    fn remove_domain_breaks_channels() {
        let (mut ev, a, b) = two_domains();
        let pa = ev.alloc_unbound(a, b).unwrap();
        let pb = ev.bind_interdomain(b, a, pa).unwrap();
        ev.remove_domain(a);
        assert!(!ev.is_connected(b, pb));
        assert!(ev.send(b, pb).is_err());
    }

    #[test]
    fn send_to_dead_peer_is_silently_dropped() {
        let (mut ev, a, b) = two_domains();
        let pa = ev.alloc_unbound(a, b).unwrap();
        let pb = ev.bind_interdomain(b, a, pa).unwrap();
        // Remove the receiver's region out from under the channel,
        // leaving a's half-open end in place (the reverse of teardown):
        // the send must not error, matching the old switch's behaviour.
        let removed = ev.regions.remove(&b).unwrap();
        assert!(ev.send(a, pa).is_err() == false);
        ev.regions.insert(b, removed);
        // Nothing was delivered while the peer was gone.
        assert_eq!(ev.pending_count(b), 0);
        let _ = pb;
    }

    #[test]
    fn self_channel_stays_intra_region() {
        // A shard binding a channel to itself exercises the same-domain
        // special case that must NOT take the pair-borrow path.
        let mut ev = TestSwitch::new();
        let a = DomId(4);
        ev.register_domain(a);
        let unbound = ev.alloc_unbound(a, a).unwrap();
        let local = ev.bind_interdomain(a, a, unbound).unwrap();
        assert!(ev.is_connected(a, unbound));
        assert!(ev.is_connected(a, local));
        ev.send(a, local).unwrap();
        assert_eq!(ev.poll(a).unwrap().port, unbound);
        ev.close(a, local).unwrap();
        assert!(!ev.is_connected(a, unbound));
    }

    #[test]
    fn grant_map_across_regions_round_trips() {
        let mut regions: FastMap<DomId, Region> = FastMap::default();
        let (granter, grantee) = (DomId(1), DomId(2));
        regions.insert(granter, Region::new(granter));
        regions.insert(grantee, Region::new(grantee));
        let mut mem = MemoryManager::new(64);
        mem.populate(granter, 4).unwrap();
        mem.populate(grantee, 4).unwrap();
        let mfn = mem.exclusive_mfn(granter, Pfn(0)).unwrap();
        let gref = regions
            .get_mut(&granter)
            .unwrap()
            .grants
            .grant(
                grantee,
                Pfn(0),
                mfn,
                mem.generation(mfn),
                GrantAccess::ReadWrite,
            )
            .unwrap();
        let mapped = grant_map(&mut regions, &mut mem, grantee, granter, gref).unwrap();
        assert_eq!(mapped, mfn);
        grant_unmap(&mut regions, &mut mem, grantee, granter, gref).unwrap();
        // Batch path agrees with the single-op path.
        let statuses = grant_map_batch(&mut regions, &mut mem, grantee, granter, &[gref]).unwrap();
        assert_eq!(statuses[0], GrantOpStatus::Done(mfn));
        let statuses =
            grant_unmap_batch(&mut regions, &mut mem, grantee, granter, &[gref]).unwrap();
        assert_eq!(statuses[0], GrantOpStatus::Done(mfn));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use xoar_sim::prop::Runner;

    /// Every *signalled port* is delivered exactly once no matter how
    /// many sends hit it: repeated sends on a pending port coalesce
    /// (Xen bitmap semantics), so what poll yields is the set of
    /// distinct signalled ports, in ascending port order.
    #[test]
    fn signalled_ports_delivered_exactly_once() {
        Runner::cases(64).run("signalled ports delivered exactly once", |g| {
            let channels = g.usize(1..8);
            let sends = g.usize(1..100);
            let mut ev = TestSwitch::new();
            let (a, b) = (DomId(1), DomId(2));
            ev.register_domain(a);
            ev.register_domain(b);
            let mut pairs = Vec::new();
            for _ in 0..channels {
                let pa = ev.alloc_unbound(a, b).unwrap();
                let pb = ev.bind_interdomain(b, a, pa).unwrap();
                pairs.push((pa, pb));
            }
            let mut signalled = std::collections::BTreeSet::new();
            for _ in 0..sends {
                let (pa, pb) = pairs[g.usize(0..pairs.len())];
                ev.send(a, pa).unwrap();
                signalled.insert(pb);
            }
            assert_eq!(ev.pending_count(b), signalled.len());
            let mut received = Vec::new();
            while let Some(e) = ev.poll(b) {
                received.push(e.port);
            }
            let expected: Vec<u32> = signalled.into_iter().collect();
            assert_eq!(received, expected);
            assert_eq!(ev.delivered_count(), expected.len() as u64);
        });
    }

    /// drain_pending is equivalent to polling until empty.
    #[test]
    fn drain_equals_poll_until_empty() {
        Runner::cases(64).run("drain equals poll until empty", |g| {
            let channels = g.usize(1..6);
            let sends = g.usize(0..40);
            let mk = || {
                let mut ev = TestSwitch::new();
                let (a, b) = (DomId(1), DomId(2));
                ev.register_domain(a);
                ev.register_domain(b);
                let mut ports = Vec::new();
                for _ in 0..channels {
                    let pa = ev.alloc_unbound(a, b).unwrap();
                    ev.bind_interdomain(b, a, pa).unwrap();
                    ports.push(pa);
                }
                (ev, a, b, ports)
            };
            let (mut ev1, a1, b1, ports1) = mk();
            let (mut ev2, _, b2, _) = mk();
            for _ in 0..sends {
                let i = g.usize(0..ports1.len());
                ev1.send(a1, ports1[i]).unwrap();
                ev2.send(a1, ports1[i]).unwrap();
            }
            let drained = ports_of(&ev1.drain_pending(b1));
            let mut polled = Vec::new();
            while let Some(e) = ev2.poll(b2) {
                polled.push(e.port);
            }
            assert_eq!(drained, polled);
        });
    }

    /// The handshake is symmetric: after binding, both sides report
    /// each other as peers.
    #[test]
    fn handshake_symmetry() {
        Runner::cases(64).run("handshake symmetry", |g| {
            let a_id = g.u32(1..50);
            let b_id = g.u32(51..100);
            let mut ev = TestSwitch::new();
            let (a, b) = (DomId(a_id), DomId(b_id));
            ev.register_domain(a);
            ev.register_domain(b);
            let pa = ev.alloc_unbound(a, b).unwrap();
            ev.bind_interdomain(b, a, pa).unwrap();
            assert_eq!(ev.peers_of(a), vec![b]);
            assert_eq!(ev.peers_of(b), vec![a]);
        });
    }

    /// The pair-borrow helper never loses a region, whichever endpoints
    /// are named and whichever exist.
    #[test]
    fn pair_borrow_preserves_regions() {
        Runner::cases(64).run("pair borrow preserves regions", |g| {
            let n = g.usize(1..6);
            let mut regions: FastMap<DomId, Region> = FastMap::default();
            for i in 0..n {
                let d = DomId(i as u32);
                regions.insert(d, Region::new(d));
            }
            let a = DomId(g.u32(0..8));
            let b = DomId(g.u32(0..8));
            let before = regions.len();
            let _ = region_pair_mut(&mut regions, a, b, |ra, rb| {
                assert_eq!(ra.owner(), a);
                assert_eq!(rb.owner(), b);
            });
            assert_eq!(regions.len(), before, "no region may be lost");
            for i in 0..n {
                assert!(regions.contains_key(&DomId(i as u32)));
            }
        });
    }
}
