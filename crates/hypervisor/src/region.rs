//! Per-domain state regions: the unit of hot-state isolation inside the
//! hypervisor.
//!
//! The monolithic monitor used to own one system-wide grant map, one
//! event-channel switch, and one console table; any operation could read
//! any domain's state through them. A [`Region`] gathers everything the
//! hypervisor keeps *per domain* on the hot path — the grant table, the
//! event-channel port table with its 2-level pending bitmap, and the
//! console ring — behind one owner, so that:
//!
//! * **intra-region** operations (allocating a port, installing a grant
//!   in your own table, writing your console) borrow exactly one region
//!   and by construction cannot reach another domain's state;
//! * **cross-region** operations (delivering an event, mapping a peer's
//!   grant, accepting a page transfer) must go through [`crate::xregion`],
//!   whose functions take the `DomId` of each region they touch and are
//!   the only code that splits borrows across two regions.
//!
//! Machine memory stays global in [`crate::memory::MemoryManager`]: the
//! frame table models physically shared RAM, and region ownership there
//! is already tracked per frame. Everything else that was keyed by
//! [`DomId`] in the monitor now lives here.

use crate::domain::DomId;
use crate::event::{DomainPorts, PendingEvent, VirqKind};
use crate::grant::GrantTable;

/// The per-domain shard of hypervisor hot state.
///
/// Owned by the [`crate::hypervisor::Hypervisor`]'s region table and
/// created/destroyed with the domain itself.
#[derive(Debug)]
pub struct Region {
    /// The domain whose state this is.
    owner: DomId,
    /// This domain's grant table (entries it exports to peers).
    pub(crate) grants: GrantTable,
    /// This domain's event ports and pending bitmap.
    pub(crate) ports: DomainPorts,
    /// This domain's console output ring (drained by the console
    /// service).
    pub(crate) console: Vec<u8>,
}

impl Region {
    /// Creates the empty region for a freshly registered domain.
    pub(crate) fn new(owner: DomId) -> Self {
        Region {
            owner,
            grants: GrantTable::new(),
            ports: DomainPorts::default(),
            console: Vec::new(),
        }
    }

    /// The domain owning this region.
    pub fn owner(&self) -> DomId {
        self.owner
    }

    /// Read-only view of the grant table (audit/analysis surface).
    pub fn grant_table(&self) -> &GrantTable {
        &self.grants
    }

    // ----- intra-region event operations -----

    /// Allocates an unbound port bindable only by `remote`.
    pub(crate) fn alloc_unbound(&mut self, remote: DomId) -> crate::error::HvResult<u32> {
        self.ports.alloc_unbound(remote)
    }

    /// Binds a VIRQ to a fresh local port.
    pub(crate) fn bind_virq(&mut self, virq: VirqKind) -> crate::error::HvResult<u32> {
        self.ports.bind_virq(virq)
    }

    /// Marks the port bound to `virq` pending; `Some(fresh)` if bound.
    pub(crate) fn raise_virq(&mut self, virq: VirqKind) -> Option<bool> {
        self.ports.raise_virq(virq)
    }

    /// Dequeues the lowest-numbered pending event (`None` while masked).
    pub(crate) fn poll(&mut self) -> Option<PendingEvent> {
        self.ports.poll()
    }

    /// Drains all pending events into `out`; 0 while masked.
    pub(crate) fn drain_pending_into(&mut self, out: &mut Vec<PendingEvent>) -> usize {
        self.ports.drain_pending_into(out)
    }

    /// Number of distinct pending ports.
    pub fn pending_count(&self) -> usize {
        self.ports.pending_count()
    }

    /// Masks or unmasks event delivery (masking defers, never drops).
    pub(crate) fn set_event_mask(&mut self, masked: bool) {
        self.ports.set_masked(masked);
    }

    /// Whether `port` is connected to a live interdomain peer.
    pub fn event_connected(&self, port: u32) -> bool {
        self.ports.is_connected(port)
    }

    /// Sorted, deduplicated interdomain peers of this region.
    pub fn event_peers(&self) -> Vec<DomId> {
        self.ports.peers()
    }

    /// Resets the event half of the region to its freshly-registered
    /// state (the hypervisor-microreboot seam: ports, pending bits, and
    /// the mask all vanish, and port numbering restarts).
    pub(crate) fn reset_events(&mut self) {
        self.ports = DomainPorts::default();
    }

    // ----- intra-region console operations -----

    /// Appends bytes to the console ring.
    pub(crate) fn console_write(&mut self, data: &[u8]) {
        self.console.extend_from_slice(data);
    }

    /// Drains the console ring.
    pub(crate) fn console_take(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.console)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_region_is_empty() {
        let r = Region::new(DomId(7));
        assert_eq!(r.owner(), DomId(7));
        assert!(r.grant_table().is_empty());
        assert_eq!(r.pending_count(), 0);
        assert!(r.event_peers().is_empty());
    }

    #[test]
    fn console_round_trip() {
        let mut r = Region::new(DomId(1));
        r.console_write(b"hello ");
        r.console_write(b"world");
        assert_eq!(r.console_take(), b"hello world");
        assert!(r.console_take().is_empty());
    }

    #[test]
    fn reset_events_clears_ports_and_numbering() {
        let mut r = Region::new(DomId(1));
        let p = r.alloc_unbound(DomId(2)).unwrap();
        r.bind_virq(VirqKind::Timer).unwrap();
        r.raise_virq(VirqKind::Timer).unwrap();
        assert_eq!(r.pending_count(), 1);
        r.reset_events();
        assert_eq!(r.pending_count(), 0);
        assert!(r.raise_virq(VirqKind::Timer).is_none());
        // Numbering restarts from scratch, like a fresh registration.
        assert_eq!(r.alloc_unbound(DomId(2)).unwrap(), p);
    }

    #[test]
    fn virq_delivery_is_region_local() {
        let mut r = Region::new(DomId(3));
        let p = r.bind_virq(VirqKind::Console).unwrap();
        assert_eq!(r.raise_virq(VirqKind::Console), Some(true));
        assert_eq!(r.poll().unwrap().port, p);
        assert!(r.poll().is_none());
    }
}
