//! Event channels: data-free signalling between VMs and from the
//! hypervisor (§4.2).
//!
//! Two flavours exist:
//!
//! * **VIRQs** — uni-directional upcalls from the hypervisor used for
//!   virtualized interrupt delivery (timer, console, debug);
//! * **interdomain channels** — bi-directional notification pairs used
//!   between the two halves of split drivers and for XenStore wakeups.
//!
//! An interdomain channel is established with the classic Xen handshake:
//! side A allocates an *unbound* port naming B as the permitted remote,
//! passes the port number out of band, and B binds its own port to it.
//!
//! Since the state-region refactor the event-channel switch is no longer
//! a system-wide table: each domain's port table and pending bitmap live
//! in its own [`crate::region::Region`], and the only operation that
//! touches two domains at once — delivering a notification across the
//! boundary, completing a bind handshake, propagating a close — goes
//! through the typed [`crate::xregion`] paths. This module keeps the
//! *per-domain* half: [`DomainPorts`] and the 2-level pending bitmap.
//!
//! Pending delivery uses Xen's 2-level bitmap ABI rather than an event
//! queue: each domain keeps one pending *bit* per port plus a selector
//! layer with one bit per nonzero word. Repeated sends on an
//! already-pending port therefore coalesce into a single notification
//! (events are data-free, so nothing is lost), and polling or draining
//! scans only the words the selector says are live — O(words), not
//! O(sends).

use crate::bitmap::Bitmap;
use crate::domain::DomId;
use crate::error::{EventError, HvResult};
use crate::fasthash::FastMap;

/// Kinds of virtual IRQ the hypervisor can deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VirqKind {
    /// Periodic timer tick.
    Timer,
    /// Console input available (Xen serial console, §5.5).
    Console,
    /// Debug/diagnostic interrupt.
    Debug,
    /// A domain has been destroyed (toolstack wakeups).
    DomExc,
}

xoar_codec::impl_json_enum!(VirqKind {
    Timer,
    Console,
    Debug,
    DomExc,
});

/// State of one port in a domain's event-channel table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PortState {
    /// Allocated, waiting for `remote` to bind.
    Unbound {
        /// Domain permitted to bind the other end.
        remote: DomId,
    },
    /// Connected to (`remote`, `remote_port`).
    Interdomain {
        /// Peer domain.
        remote: DomId,
        /// Peer's port number.
        remote_port: u32,
    },
    /// Bound to a virtual IRQ.
    Virq(VirqKind),
}

/// A pending notification delivered to a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingEvent {
    /// Local port that fired.
    pub port: u32,
}

/// Per-domain limit on event-channel ports (Xen's default for PV guests is
/// 1024 with the 2-level ABI).
pub const MAX_PORTS_PER_DOMAIN: u32 = 1024;

/// One domain's half of the event-channel mechanism: its port table, the
/// 2-level pending bitmap, and the delivery mask. Owned by the domain's
/// [`crate::region::Region`]; every operation here touches exactly this
/// domain's state.
#[derive(Debug, Default)]
pub(crate) struct DomainPorts {
    /// Port number → state. Port numbers are never reused.
    pub(crate) ports: FastMap<u32, PortState>,
    /// Next port number to hand out.
    next_port: u32,
    /// The 2-level pending bitmap, one bit per port. Port *numbers*
    /// are never reused (see [`crate::xregion::event_close`]), so it
    /// grows with the highest port a long-lived domain has opened.
    pub(crate) pending: Bitmap,
    /// While set, `poll`/`drain` return nothing (delivery is deferred,
    /// not dropped).
    masked: bool,
}

impl DomainPorts {
    /// Allocates a fresh port number, enforcing the per-domain limit.
    /// Port *numbers* are never reused — freshness keeps stale
    /// rendezvous data in XenStore harmless — but table slots count
    /// against [`MAX_PORTS_PER_DOMAIN`] only while open.
    pub(crate) fn alloc_port(&mut self) -> HvResult<u32> {
        if self.ports.len() as u32 >= MAX_PORTS_PER_DOMAIN {
            return Err(EventError::NoFreePorts.into());
        }
        let p = self.next_port;
        self.next_port += 1;
        Ok(p)
    }

    /// Allocates an unbound port, bindable only by `remote`.
    pub(crate) fn alloc_unbound(&mut self, remote: DomId) -> HvResult<u32> {
        let port = self.alloc_port()?;
        self.ports.insert(port, PortState::Unbound { remote });
        Ok(port)
    }

    /// Binds a VIRQ to a fresh local port (one port per VIRQ kind).
    pub(crate) fn bind_virq(&mut self, virq: VirqKind) -> HvResult<u32> {
        if self
            .ports
            .values()
            .any(|s| matches!(s, PortState::Virq(v) if *v == virq))
        {
            return Err(EventError::AlreadyBound(0).into());
        }
        let port = self.alloc_port()?;
        self.ports.insert(port, PortState::Virq(virq));
        Ok(port)
    }

    /// Marks the port bound to `virq` pending, if one exists.
    ///
    /// `Some(fresh)` when the VIRQ is bound (with `fresh` reporting a
    /// clear→pending transition), `None` when unbound.
    pub(crate) fn raise_virq(&mut self, virq: VirqKind) -> Option<bool> {
        let port = self.ports.iter().find_map(|(&p, s)| match s {
            PortState::Virq(v) if *v == virq => Some(p),
            _ => None,
        })?;
        Some(self.pending.set(port.into()))
    }

    /// Dequeues the lowest-numbered pending event, or `None` while
    /// masked (the bits stay set and reappear on unmask).
    pub(crate) fn poll(&mut self) -> Option<PendingEvent> {
        if self.masked {
            return None;
        }
        self.pending
            .take_lowest()
            .map(|port| PendingEvent { port: port as u32 })
    }

    /// Drains every pending event (ascending port order) into `out`,
    /// returning how many were appended; 0 while masked.
    pub(crate) fn drain_pending_into(&mut self, out: &mut Vec<PendingEvent>) -> usize {
        if self.masked {
            return 0;
        }
        let drained = self.pending.len();
        self.pending
            .drain_set_bits(|port| out.push(PendingEvent { port: port as u32 }));
        drained
    }

    /// Number of distinct pending ports.
    pub(crate) fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Masks or unmasks event delivery. Masking defers delivery: sends
    /// still set pending bits, but nothing is visible until unmask.
    pub(crate) fn set_masked(&mut self, masked: bool) {
        self.masked = masked;
    }

    /// Whether `port` is connected to a live peer.
    pub(crate) fn is_connected(&self, port: u32) -> bool {
        matches!(self.ports.get(&port), Some(PortState::Interdomain { .. }))
    }

    /// The interdomain peers of this domain (for the audit dependency
    /// graph), sorted and deduplicated.
    pub(crate) fn peers(&self) -> Vec<DomId> {
        let mut peers: Vec<DomId> = self
            .ports
            .values()
            .filter_map(|s| match s {
                PortState::Interdomain { remote, .. } => Some(*remote),
                _ => None,
            })
            .collect();
        peers.sort_unstable();
        peers.dedup();
        peers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::HvError;

    #[test]
    fn port_limit_enforced() {
        let mut dp = DomainPorts::default();
        for _ in 0..MAX_PORTS_PER_DOMAIN {
            dp.alloc_unbound(DomId(2)).unwrap();
        }
        assert!(matches!(
            dp.alloc_unbound(DomId(2)).unwrap_err(),
            HvError::Event(EventError::NoFreePorts)
        ));
    }

    #[test]
    fn port_numbers_not_reused_after_close() {
        let mut dp = DomainPorts::default();
        let a = dp.alloc_unbound(DomId(2)).unwrap();
        dp.ports.remove(&a);
        let b = dp.alloc_unbound(DomId(2)).unwrap();
        assert_ne!(a, b, "port numbers must stay fresh");
    }

    #[test]
    fn duplicate_virq_bind_rejected() {
        let mut dp = DomainPorts::default();
        dp.bind_virq(VirqKind::Timer).unwrap();
        assert!(dp.bind_virq(VirqKind::Timer).is_err());
        dp.bind_virq(VirqKind::Console).unwrap();
    }

    #[test]
    fn masked_ports_defer_delivery() {
        let mut dp = DomainPorts::default();
        let p = dp.bind_virq(VirqKind::Debug).unwrap();
        dp.set_masked(true);
        assert_eq!(dp.raise_virq(VirqKind::Debug), Some(true));
        assert_eq!(dp.pending_count(), 1);
        assert!(dp.poll().is_none());
        let mut out = Vec::new();
        assert_eq!(dp.drain_pending_into(&mut out), 0);
        dp.set_masked(false);
        assert_eq!(dp.poll().unwrap().port, p);
    }

    #[test]
    fn raise_virq_reports_binding_and_freshness() {
        let mut dp = DomainPorts::default();
        assert_eq!(dp.raise_virq(VirqKind::Timer), None, "unbound");
        dp.bind_virq(VirqKind::Timer).unwrap();
        assert_eq!(dp.raise_virq(VirqKind::Timer), Some(true), "fresh");
        assert_eq!(dp.raise_virq(VirqKind::Timer), Some(false), "coalesced");
    }
}
