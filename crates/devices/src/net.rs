//! The paravirtual network path: NetFront ↔ NetBack (§5.4).
//!
//! Each NetBack virtualises exactly one physical NIC (modelled by
//! [`NicModel`]) and exposes abstract network devices to guests. Frames
//! are carried in GSO-style aggregates of up to [`MAX_GSO_BYTES`], as real
//! netback does, so simulating a 2 GB transfer costs tens of thousands of
//! ring operations rather than millions of per-MTU packets.
//!
//! The module also models the *external* side: a [`WireEndpoint`] stands
//! in for the remote host of the wget/Apache experiments and carries the
//! packets NetBack puts on the wire.

use std::collections::VecDeque;

use crate::fabric::Fabric;
use crate::hw::NicModel;
use crate::ring::{RingError, RingHub};
use crate::xenbus::Connection;

use xoar_hypervisor::fasthash::FastMap;
use xoar_hypervisor::memory::PageRef;
use xoar_hypervisor::DomId;

/// Largest GSO aggregate carried by one ring slot (64 KiB, as in Linux).
pub const MAX_GSO_BYTES: usize = 65_536;

/// A network frame. `bytes` always carries the aggregate size (the only
/// thing the timing model needs); `payload` optionally carries the actual
/// page body as a shared [`PageRef`] handle, so a frame sourced from guest
/// memory crosses the backend and reaches the wire by refcount move —
/// never by copying the page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetPacket {
    /// Flow this packet belongs to (a TCP connection in the workloads).
    pub flow: u64,
    /// Sequence number within the flow.
    pub seq: u64,
    /// Payload bytes.
    pub bytes: usize,
    /// Shared handle on the page body, when the frame carries real data.
    pub payload: Option<PageRef>,
}

impl NetPacket {
    /// A size-only frame (no page body) — the common case for the timing
    /// workloads, where only sizes and flow identity matter.
    pub fn meta(flow: u64, seq: u64, bytes: usize) -> Self {
        NetPacket {
            flow,
            seq,
            bytes,
            payload: None,
        }
    }

    /// A frame carrying `page` by shared handle; `bytes` is the page size.
    pub fn with_payload(flow: u64, seq: u64, page: PageRef) -> Self {
        NetPacket {
            flow,
            seq,
            bytes: page.len(),
            payload: Some(page),
        }
    }
}

/// The ring hub type for the network protocol (tx and rx share the ring
/// in this model: requests are guest→wire, responses are wire→guest).
pub type NetRingHub = RingHub<NetPacket, NetPacket>;

/// Per-pass statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetBackStats {
    /// Frames moved guest→wire.
    pub tx_frames: u64,
    /// Bytes moved guest→wire.
    pub tx_bytes: u64,
    /// Frames moved wire→guest.
    pub rx_frames: u64,
    /// Bytes moved wire→guest.
    pub rx_bytes: u64,
    /// Frames dropped (oversize / no attachment / ring full).
    pub dropped: u64,
    /// Simulated NIC service time (ns).
    pub service_ns: u64,
}

impl std::ops::AddAssign for NetBackStats {
    fn add_assign(&mut self, s: Self) {
        self.tx_frames += s.tx_frames;
        self.tx_bytes += s.tx_bytes;
        self.rx_frames += s.rx_frames;
        self.rx_bytes += s.rx_bytes;
        self.dropped += s.dropped;
        self.service_ns += s.service_ns;
    }
}

/// The far end of the physical wire: queues of packets in transit in each
/// direction, standing in for the test client on the LAN.
#[derive(Debug, Default)]
pub struct WireEndpoint {
    /// Packets the host transmitted (awaiting the remote peer).
    pub outbound: VecDeque<NetPacket>,
    /// Packets the remote peer sent toward a guest: `(dest guest, packet)`.
    pub inbound: VecDeque<(DomId, NetPacket)>,
}

impl WireEndpoint {
    /// Creates an idle wire.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remote peer sends `pkt` toward `guest`.
    pub fn send_to_guest(&mut self, guest: DomId, pkt: NetPacket) {
        self.inbound.push_back((guest, pkt));
    }

    /// Remote peer sends a page-carrying frame toward `guest`; the page
    /// body travels as a shared handle all the way into the guest ring.
    pub fn send_page_to_guest(&mut self, guest: DomId, flow: u64, seq: u64, page: PageRef) {
        self.inbound
            .push_back((guest, NetPacket::with_payload(flow, seq, page)));
    }

    /// Drains everything the host transmitted.
    pub fn take_outbound(&mut self) -> Vec<NetPacket> {
        self.outbound.drain(..).collect()
    }
}

/// The network driver domain.
#[derive(Debug)]
pub struct NetBack {
    /// Hosting domain.
    pub dom: DomId,
    /// The physical NIC.
    pub nic: NicModel,
    attachments: FastMap<DomId, Connection>,
    lifetime: NetBackStats,
    /// Scratch queue for rx frames that hit backpressure. Persistent so
    /// its capacity survives across passes — the rx requeue path never
    /// allocates in steady state.
    rx_requeue: VecDeque<(DomId, NetPacket)>,
}

impl NetBack {
    /// Creates a backend for `dom` driving `nic`.
    pub fn new(dom: DomId, nic: NicModel) -> Self {
        NetBack {
            dom,
            nic,
            attachments: FastMap::default(),
            lifetime: NetBackStats::default(),
            rx_requeue: VecDeque::new(),
        }
    }

    /// Attaches a negotiated guest connection.
    pub fn attach(&mut self, conn: Connection) {
        self.attachments.insert(conn.guest, conn);
    }

    /// Detaches a guest.
    pub fn detach_guest(&mut self, guest: DomId) -> Option<Connection> {
        self.attachments.remove(&guest)
    }

    /// Iterates current connections without allocating, in arbitrary
    /// order (the restart fast path sorts into its own scratch).
    pub fn conn_iter(&self) -> impl Iterator<Item = &Connection> + '_ {
        self.attachments.values()
    }

    /// One processing pass: move guest tx frames onto the wire and deliver
    /// pending wire rx frames into guest rings.
    pub fn process(&mut self, hub: &mut NetRingHub, wire: &mut WireEndpoint) -> NetBackStats {
        let mut stats = NetBackStats::default();
        // TX: guest → wire.
        self.drain_tx(hub, &mut stats, |_, pkt| wire.outbound.push_back(pkt));
        // RX: wire → guest. Backpressured frames collect in the persistent
        // scratch queue and are swapped back onto the wire at the end.
        debug_assert!(self.rx_requeue.is_empty());
        while let Some((guest, pkt)) = wire.inbound.pop_front() {
            let Some(conn) = self.attachments.get(&guest) else {
                stats.dropped += 1;
                continue;
            };
            let ring = match hub.get_mut(conn.ring) {
                Ok(r) => r,
                Err(_) => {
                    stats.dropped += 1;
                    continue;
                }
            };
            if !ring.is_attached() {
                stats.dropped += 1;
                continue;
            }
            stats.service_ns += self.nic.tx_time_ns(pkt.bytes);
            self.nic.record_rx(pkt.bytes);
            stats.rx_frames += 1;
            stats.rx_bytes += pkt.bytes as u64;
            // Deliver as an unsolicited response (rx path). If the response
            // queue is saturated the packet would be dropped by a real NIC
            // too; the model delivers since responses are unbounded, but we
            // cap rx bursts per pass to the ring size via requeue.
            if ring.pending_responses() >= 4 * crate::ring::DEFAULT_RING_SLOTS {
                stats.rx_frames -= 1;
                stats.rx_bytes -= pkt.bytes as u64;
                self.rx_requeue.push_back((guest, pkt));
                continue;
            }
            let _ = ring.push_response(pkt);
        }
        // `wire.inbound` is drained here, so the swap leaves the requeued
        // frames on the wire and keeps the (empty) deque's capacity as next
        // pass's scratch.
        std::mem::swap(&mut wire.inbound, &mut self.rx_requeue);
        self.lifetime += stats;
        stats
    }

    /// One processing pass terminating into the virtual fabric instead
    /// of the physical wire: guest tx frames enter the switch's ingress
    /// queue (the switch decides guest/uplink per flow), and — on the
    /// backend hosting the fabric — external frames leave the wire for
    /// the switch's uplink port. Tx validation, completions, and NIC
    /// accounting are identical to [`NetBack::process`]; the caller runs
    /// [`Fabric::switch`] after all backends have passed.
    pub fn process_with_fabric(
        &mut self,
        hub: &mut NetRingHub,
        fabric: &mut Fabric,
        wire: &mut WireEndpoint,
    ) -> NetBackStats {
        let mut stats = NetBackStats::default();
        // TX: guest → fabric ingress.
        self.drain_tx(hub, &mut stats, |guest, pkt| fabric.enqueue(guest, pkt));
        // RX: wire → uplink port. Only the backend hosting the fabric
        // drains the wire, so external frames enter the switch once.
        if fabric.dom == self.dom {
            while let Some((guest, pkt)) = wire.inbound.pop_front() {
                stats.service_ns += self.nic.tx_time_ns(pkt.bytes);
                self.nic.record_rx(pkt.bytes);
                stats.rx_frames += 1;
                stats.rx_bytes += pkt.bytes as u64;
                fabric.enqueue_from_uplink(guest, pkt);
            }
        }
        self.lifetime += stats;
        stats
    }

    /// The TX half of a pass: pops every attached guest's tx requests,
    /// drops malformed aggregates, accounts NIC time, hands each valid
    /// frame with its sending guest to `deliver` and acks its slot.
    fn drain_tx(
        &mut self,
        hub: &mut NetRingHub,
        stats: &mut NetBackStats,
        mut deliver: impl FnMut(DomId, NetPacket),
    ) {
        for conn in self.attachments.values() {
            let ring = match hub.get_mut(conn.ring) {
                Ok(r) => r,
                Err(_) => continue,
            };
            while let Some(pkt) = ring.pop_request() {
                if pkt.bytes > MAX_GSO_BYTES {
                    // Backend validation: malformed aggregate.
                    stats.dropped += 1;
                    let _ = ring.push_response(NetPacket::meta(pkt.flow, pkt.seq, 0));
                    continue;
                }
                stats.service_ns += self.nic.tx_time_ns(pkt.bytes);
                self.nic.record_tx(pkt.bytes);
                stats.tx_frames += 1;
                stats.tx_bytes += pkt.bytes as u64;
                // Ack the slot so the frontend can reuse it (completions
                // never carry the body — the destination takes the
                // handle).
                let ack = NetPacket::meta(pkt.flow, pkt.seq, pkt.bytes);
                deliver(conn.guest, pkt);
                let _ = ring.push_response(ack);
            }
        }
    }

    /// Lifetime statistics.
    pub fn lifetime_stats(&self) -> NetBackStats {
        self.lifetime
    }
}

/// The guest-side network frontend.
#[derive(Debug)]
pub struct NetFront {
    /// The negotiated connection.
    pub conn: Connection,
    next_seq: u64,
}

impl NetFront {
    /// Creates a frontend over a negotiated connection.
    pub fn new(conn: Connection) -> Self {
        NetFront { conn, next_seq: 0 }
    }

    /// Transmits an aggregate of `bytes` on `flow`.
    pub fn transmit(
        &mut self,
        hub: &mut NetRingHub,
        flow: u64,
        bytes: usize,
    ) -> Result<u64, RingError> {
        let seq = self.next_seq;
        hub.get_mut(self.conn.ring)?
            .push_request(NetPacket::meta(flow, seq, bytes))?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Transmits a batch of aggregates on `flow` in one ring operation.
    /// All-or-nothing: if the ring lacks room for every frame, nothing is
    /// queued and `RingError::Full` is returned. Returns the sequence
    /// number of the first frame; the batch occupies `seq..seq + n`.
    pub fn transmit_many(
        &mut self,
        hub: &mut NetRingHub,
        flow: u64,
        sizes: &[usize],
    ) -> Result<u64, RingError> {
        let first = self.next_seq;
        let reqs: Vec<NetPacket> = sizes
            .iter()
            .enumerate()
            .map(|(i, &bytes)| NetPacket::meta(flow, first + i as u64, bytes))
            .collect();
        hub.get_mut(self.conn.ring)?.push_requests(reqs)?;
        self.next_seq += sizes.len() as u64;
        Ok(first)
    }

    /// Transmits a page-carrying aggregate on `flow`. The page body moves
    /// through the ring and the backend to the wire as a shared handle —
    /// the zero-copy data path the density experiments rely on.
    pub fn transmit_page(
        &mut self,
        hub: &mut NetRingHub,
        flow: u64,
        page: PageRef,
    ) -> Result<u64, RingError> {
        let seq = self.next_seq;
        hub.get_mut(self.conn.ring)?
            .push_request(NetPacket::with_payload(flow, seq, page))?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Receives the next delivered frame (rx or tx completion).
    pub fn receive(&mut self, hub: &mut NetRingHub) -> Option<NetPacket> {
        hub.get_mut(self.conn.ring).ok()?.pop_response()
    }

    /// Replaces the connection after renegotiation.
    pub fn reconnect(&mut self, conn: Connection) {
        self.conn = conn;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingId;
    use crate::xenbus::DeviceKind;
    use xoar_hypervisor::grant::GrantRef;
    use xoar_hypervisor::PciAddress;

    fn conn(guest: u32, gref: u32) -> Connection {
        Connection {
            guest: DomId(guest),
            backend: DomId(2),
            kind: DeviceKind::Vif,
            index: 0,
            ring: RingId {
                granter: DomId(guest),
                gref: GrantRef(gref),
            },
            front_port: 1,
            back_port: 1,
        }
    }

    fn setup() -> (NetBack, NetFront, NetRingHub, WireEndpoint) {
        let mut nb = NetBack::new(DomId(2), NicModel::gigabit(PciAddress::new(0, 2, 0)));
        let c = conn(5, 0);
        let mut hub = NetRingHub::new();
        hub.create(c.ring);
        nb.attach(c);
        (nb, NetFront::new(c), hub, WireEndpoint::new())
    }

    #[test]
    fn tx_reaches_wire_with_completion() {
        let (mut nb, mut nf, mut hub, mut wire) = setup();
        nf.transmit(&mut hub, 1, 1500).unwrap();
        nf.transmit(&mut hub, 1, 1500).unwrap();
        let stats = nb.process(&mut hub, &mut wire);
        assert_eq!(stats.tx_frames, 2);
        assert_eq!(stats.tx_bytes, 3000);
        assert!(stats.service_ns > 0);
        assert_eq!(wire.take_outbound().len(), 2);
        // Completions free the ring slots.
        assert_eq!(nf.receive(&mut hub).unwrap().bytes, 1500);
        assert_eq!(nf.receive(&mut hub).unwrap().bytes, 1500);
    }

    #[test]
    fn rx_delivered_to_right_guest() {
        let (mut nb, mut nf, mut hub, mut wire) = setup();
        wire.send_to_guest(DomId(5), NetPacket::meta(9, 0, 64_000));
        wire.send_to_guest(DomId(6), NetPacket::meta(9, 1, 64_000));
        let stats = nb.process(&mut hub, &mut wire);
        assert_eq!(stats.rx_frames, 1, "only dom5 is attached");
        assert_eq!(stats.dropped, 1, "dom6 frame dropped");
        let got = nf.receive(&mut hub).unwrap();
        assert_eq!(got.flow, 9);
        assert_eq!(got.bytes, 64_000);
    }

    #[test]
    fn oversize_aggregate_dropped() {
        let (mut nb, mut nf, mut hub, mut wire) = setup();
        nf.transmit(&mut hub, 1, MAX_GSO_BYTES + 1).unwrap();
        let stats = nb.process(&mut hub, &mut wire);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.tx_frames, 0);
        // Completion arrives with zero bytes (error marker).
        assert_eq!(nf.receive(&mut hub).unwrap().bytes, 0);
    }

    #[test]
    fn detached_ring_drops_rx() {
        let (mut nb, nf, mut hub, mut wire) = setup();
        hub.get_mut(nf.conn.ring).unwrap().detach();
        wire.send_to_guest(DomId(5), NetPacket::meta(1, 0, 1000));
        let stats = nb.process(&mut hub, &mut wire);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.rx_frames, 0);
    }

    #[test]
    fn detach_guest_stops_service() {
        let (mut nb, mut nf, mut hub, mut wire) = setup();
        nb.detach_guest(DomId(5)).unwrap();
        nf.transmit(&mut hub, 1, 100).unwrap();
        let stats = nb.process(&mut hub, &mut wire);
        assert_eq!(stats.tx_frames, 0, "no attachment, nothing serviced");
    }

    #[test]
    fn tx_page_payload_reaches_wire_by_handle() {
        let (mut nb, mut nf, mut hub, mut wire) = setup();
        let page = PageRef::new(&[7u8; 4096]);
        nf.transmit_page(&mut hub, 3, page.clone()).unwrap();
        let stats = nb.process(&mut hub, &mut wire);
        assert_eq!(stats.tx_frames, 1);
        assert_eq!(stats.tx_bytes, 4096);
        let out = wire.take_outbound();
        let wired = out[0].payload.as_ref().expect("payload crosses backend");
        assert!(
            PageRef::ptr_eq(&page, wired),
            "the wire holds the same page body, not a copy"
        );
        // The tx completion does not duplicate the body.
        assert!(nf.receive(&mut hub).unwrap().payload.is_none());
    }

    #[test]
    fn rx_page_payload_delivered_by_handle() {
        let (mut nb, mut nf, mut hub, mut wire) = setup();
        let page = PageRef::new(&[9u8; 2048]);
        wire.send_page_to_guest(DomId(5), 4, 0, page.clone());
        let stats = nb.process(&mut hub, &mut wire);
        assert_eq!(stats.rx_frames, 1);
        let got = nf.receive(&mut hub).unwrap();
        assert!(PageRef::ptr_eq(&page, got.payload.as_ref().unwrap()));
        assert_eq!(got.bytes, 2048);
    }

    #[test]
    fn transmit_many_is_all_or_nothing_and_numbers_contiguously() {
        let (mut nb, mut nf, mut hub, mut wire) = setup();
        let first = nf.transmit_many(&mut hub, 7, &[100, 200, 300]).unwrap();
        assert_eq!(first, 0);
        // Overfill: the ring has DEFAULT_RING_SLOTS slots, 3 used.
        let too_many = vec![64; crate::ring::DEFAULT_RING_SLOTS];
        assert_eq!(
            nf.transmit_many(&mut hub, 7, &too_many),
            Err(RingError::Full)
        );
        // Failed batch consumed no sequence numbers.
        assert_eq!(nf.transmit(&mut hub, 7, 400).unwrap(), 3);
        let stats = nb.process(&mut hub, &mut wire);
        assert_eq!(stats.tx_frames, 4);
        let out = wire.take_outbound();
        let seqs: Vec<u64> = out.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn rx_backpressure_requeues() {
        let (mut nb, _nf, mut hub, mut wire) = setup();
        // Flood far beyond the rx cap.
        for i in 0..200 {
            wire.send_to_guest(DomId(5), NetPacket::meta(1, i, 1000));
        }
        let stats = nb.process(&mut hub, &mut wire);
        assert!(stats.rx_frames <= 4 * crate::ring::DEFAULT_RING_SLOTS as u64);
        assert!(!wire.inbound.is_empty(), "excess stays queued on the wire");
    }
}
