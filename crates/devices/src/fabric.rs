//! The virtual network fabric: a software switch between guest vifs.
//!
//! The hardware model ([`crate::net::WireEndpoint`]) only carries
//! guest ↔ external-host traffic, so the wget/Apache figures run on a
//! loopback. The fabric adds the inter-guest network the fleet-scale
//! experiments need: NetBack terminates its guests' tx frames into the
//! switch instead of putting every frame on the physical wire, and the
//! switch delivers guest→guest frames directly into the destination
//! ring — one hop, no wire, payloads moved by [`PageRef`] refcount.
//!
//! Structure (the krata vbridge/NAT design, collapsed into one model):
//!
//! * **no port table of its own**: the fabric is the bridge inside the
//!   NetBack driver domain, and its ports are the NetBacks' vif
//!   attachments. [`Fabric::switch`] reads a destination's connection
//!   from them ([`NetBack::connection`]), so a vif is reachable from the
//!   moment its NetBack attaches it, at the ring it attached, and a
//!   detached vif's frames are dropped; the uplink to the
//!   [`WireEndpoint`] is the one port that is not a vif;
//! * a **per-flow connection table** keyed by `(flow, src)` on a
//!   [`FastMap`], each entry holding its direction's destination and
//!   statistics (up to ~100k concurrent connections);
//! * a **NAT allocator** for guest ↔ external flows: each such
//!   connection holds an external port from the ephemeral range for its
//!   lifetime, released (and recycled) when the flow closes;
//! * **batched switching**: one [`Fabric::switch`] pass drains the whole
//!   ingress queue, delivers each frame, and records *one* notify target
//!   per destination backend — the caller issues each as one
//!   `EvtchnSend`, the same batched-notify discipline as the tx path.
//!
//! [`PageRef`]: xoar_hypervisor::memory::PageRef

use crate::net::{NetBack, NetPacket, NetRingHub, WireEndpoint, MAX_GSO_BYTES};
use crate::ring::DEFAULT_RING_SLOTS;
use crate::xenbus::Connection;

use xoar_hypervisor::fasthash::FastMap;
use xoar_hypervisor::DomId;

/// The pseudo-domain standing for "beyond the uplink": flows whose far
/// end is an external host are keyed against this id in the connection
/// table. Never a real domain (`u32::MAX` is the analyzer's blanket
/// marker, so the uplink sits one below it).
pub const UPLINK: DomId = DomId(u32::MAX - 1);

/// First port of the NAT ephemeral range (49152, the IANA dynamic base).
pub const NAT_PORT_BASE: u16 = 0xC000;

/// Size of the NAT ephemeral range (49152..=65535).
pub const NAT_PORT_SPAN: u16 = u16::MAX - NAT_PORT_BASE + 1;

/// A connection-table key: one flow between two endpoints, directional.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Flow identifier (a TCP connection in the workloads).
    pub flow: u64,
    /// Source endpoint.
    pub src: DomId,
    /// Destination endpoint ([`UPLINK`] for guest→external).
    pub dst: DomId,
}

/// Per-flow connection state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowEntry {
    /// NAT external port held by this connection (guest↔external only).
    pub nat_port: Option<u16>,
    /// Frames switched on this flow.
    pub packets: u64,
    /// Bytes switched on this flow.
    pub bytes: u64,
    /// Last sequence number seen.
    pub last_seq: u64,
}

/// NAT external-port allocator over the ephemeral range: a free list of
/// recycled ports in front of a monotonic high-water mark. Allocation
/// and release are O(1) and allocation-free in steady state (the free
/// list's capacity is retained across the recycle churn).
#[derive(Debug, Default)]
pub struct NatAlloc {
    /// Next never-used offset above [`NAT_PORT_BASE`].
    high_water: u16,
    /// Released ports awaiting reuse (LIFO: the hottest port first).
    free: Vec<u16>,
    /// Exhaustion events (allocation requests refused).
    exhausted: u64,
}

impl NatAlloc {
    /// Creates an empty allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates an external port, preferring recycled ones. `None` when
    /// the whole ephemeral range is in flight (port exhaustion — the
    /// caller sees the connection refused, as with a real NAT).
    pub fn alloc(&mut self) -> Option<u16> {
        if let Some(p) = self.free.pop() {
            return Some(p);
        }
        if self.high_water == NAT_PORT_SPAN {
            self.exhausted += 1;
            return None;
        }
        let p = NAT_PORT_BASE + self.high_water;
        self.high_water += 1;
        Some(p)
    }

    /// Returns `port` to the pool. Only ports handed out by
    /// [`Self::alloc`] may come back; debug builds assert the range.
    pub fn release(&mut self, port: u16) {
        debug_assert!(port >= NAT_PORT_BASE);
        debug_assert!((port - NAT_PORT_BASE) < self.high_water);
        debug_assert!(!self.free.contains(&port), "double release of {port}");
        self.free.push(port);
    }

    /// Ports currently held by live connections.
    pub fn in_use(&self) -> usize {
        self.high_water as usize - self.free.len()
    }

    /// Allocation requests refused for exhaustion.
    pub fn exhausted_count(&self) -> u64 {
        self.exhausted
    }
}

/// Per-pass / lifetime switching statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SwitchStats {
    /// Frames switched guest→guest.
    pub to_guests: u64,
    /// Frames switched to the uplink (guest→external).
    pub to_uplink: u64,
    /// Bytes switched in total.
    pub bytes: u64,
    /// Frames dropped (oversize, unknown destination, detached ring).
    pub dropped: u64,
    /// Frames requeued under destination-ring backpressure.
    pub requeued: u64,
    /// Connection-table entries created by conn-track during switching.
    pub flows_learned: u64,
}

/// One direction of a connection as the switch's single hot-table
/// entry: the resolved destination stored next to the flow statistics,
/// so the per-frame switching path costs exactly one table probe.
#[derive(Debug, Clone, Copy)]
struct RouteEntry {
    /// Destination endpoint ([`UPLINK`] for guest→external).
    dst: DomId,
    /// The public per-flow statistics.
    entry: FlowEntry,
}

/// The virtual switch.
#[derive(Debug)]
pub struct Fabric {
    /// The shard domain hosting the switching plane (a NetBack: the
    /// fabric holds no privilege of its own — its only reach into guests
    /// is the grant-mapped rings of the vifs its NetBacks attached, and
    /// its only hypercalls are the event-channel notifies the caller
    /// issues).
    pub dom: DomId,
    /// The per-flow connection table, keyed by `(flow, src)` — each
    /// direction of a connection resolves to exactly one destination, so
    /// the key's `dst` leg lives inside the [`RouteEntry`] and one probe
    /// yields both the route and the statistics slot.
    flows: FastMap<(u64, DomId), RouteEntry>,
    /// Cold pre-learned resolutions: `(flow, src)` → dst for directions
    /// that have not carried traffic yet (the reverse leg written by
    /// [`Fabric::open_flow`], uplink ingress conn-track). Consulted only
    /// on a connection-table miss.
    resolve: FastMap<(u64, DomId), DomId>,
    /// NAT port allocator for guest↔external connections.
    nat: NatAlloc,
    /// Reverse NAT: external port → the guest-side flow holding it.
    nat_back: FastMap<u16, FlowKey>,
    /// Ingress queue: frames terminated into the switch, with their
    /// source endpoint.
    ingress: Vec<(DomId, NetPacket)>,
    /// Persistent backpressure scratch (swapped with `ingress` at the
    /// end of each pass, so the switch path never allocates in steady
    /// state — the same discipline as NetBack's rx requeue).
    requeue: Vec<(DomId, NetPacket)>,
    /// Persistent per-frame route scratch of the current pass: each
    /// frame's destination endpoint (`None` for a drop) written while
    /// routing, read back as run boundaries while delivering. Frames
    /// themselves never move until they drain straight into their
    /// destination ring.
    routes: Vec<Option<DomId>>,
    /// Notify targets of the last pass: one `(backend, back_port)` per
    /// destination backend, deduplicated.
    notify: Vec<(DomId, u32)>,
    lifetime: SwitchStats,
}

impl Fabric {
    /// Creates a fabric hosted by `dom`, with no connection open.
    pub fn new(dom: DomId) -> Self {
        Fabric {
            dom,
            flows: FastMap::default(),
            resolve: FastMap::default(),
            nat: NatAlloc::new(),
            nat_back: FastMap::default(),
            ingress: Vec::new(),
            requeue: Vec::new(),
            routes: Vec::new(),
            notify: Vec::new(),
            lifetime: SwitchStats::default(),
        }
    }

    // ================= connection table =================

    /// Opens a connection `flow: src → dst` (and its reverse-resolution
    /// entry — connections are bidirectional). For guest↔external flows
    /// (`dst == UPLINK`) an external NAT port is allocated and held for
    /// the connection's lifetime; `None` is returned on port exhaustion
    /// and the flow is not opened.
    pub fn open_flow(&mut self, flow: u64, src: DomId, dst: DomId) -> Option<FlowKey> {
        let key = FlowKey { flow, src, dst };
        if self.flows.get(&(flow, src)).is_some_and(|re| re.dst == dst) {
            return Some(key);
        }
        let nat_port = if dst == UPLINK || src == UPLINK {
            let p = self.nat.alloc()?;
            self.nat_back.insert(p, key);
            Some(p)
        } else {
            None
        };
        self.flows.insert(
            (flow, src),
            RouteEntry {
                dst,
                entry: FlowEntry {
                    nat_port,
                    ..FlowEntry::default()
                },
            },
        );
        self.resolve.entry((flow, dst)).or_insert(src);
        Some(key)
    }

    /// Closes a connection, dropping both directions' state and
    /// releasing its NAT port for reuse.
    pub fn close_flow(&mut self, flow: u64, src: DomId, dst: DomId) -> bool {
        if !self.flows.get(&(flow, src)).is_some_and(|re| re.dst == dst) {
            return false;
        }
        let re = self.flows.remove(&(flow, src)).expect("checked above");
        if self
            .flows
            .get(&(flow, dst))
            .is_some_and(|rev| rev.dst == src)
        {
            self.flows.remove(&(flow, dst));
        }
        self.resolve.remove(&(flow, src));
        self.resolve.remove(&(flow, dst));
        if let Some(p) = re.entry.nat_port {
            self.nat_back.remove(&p);
            self.nat.release(p);
        }
        true
    }

    /// Connection-table lookup — the gated hot path: one hash probe.
    #[inline]
    pub fn lookup(&self, key: &FlowKey) -> Option<&FlowEntry> {
        match self.flows.get(&(key.flow, key.src)) {
            Some(re) if re.dst == key.dst => Some(&re.entry),
            _ => None,
        }
    }

    /// Live connection count.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// The flow holding NAT `port`, if any (reverse translation).
    pub fn nat_flow(&self, port: u16) -> Option<&FlowKey> {
        self.nat_back.get(&port)
    }

    /// NAT ports currently held.
    pub fn nat_in_use(&self) -> usize {
        self.nat.in_use()
    }

    // ================= switching =================

    /// Terminates a frame into the switch from `src` (a guest port; a
    /// NetBack calls this for each validated tx frame).
    #[inline]
    pub fn enqueue(&mut self, src: DomId, pkt: NetPacket) {
        self.ingress.push((src, pkt));
    }

    /// Terminates a whole tx burst from `src` in one sweep: one capacity
    /// reservation, no per-frame call. How NetBack hands over the frames
    /// of one batched pass.
    pub fn enqueue_batch(&mut self, src: DomId, pkts: impl IntoIterator<Item = NetPacket>) {
        self.ingress.extend(pkts.into_iter().map(|p| (src, p)));
    }

    /// Terminates an external frame into the switch from the uplink
    /// toward `dst`, conn-tracking the reverse resolution so replies
    /// switch without explicit setup.
    pub fn enqueue_from_uplink(&mut self, dst: DomId, pkt: NetPacket) {
        self.resolve.insert((pkt.flow, UPLINK), dst);
        self.resolve.entry((pkt.flow, dst)).or_insert(UPLINK);
        self.ingress.push((UPLINK, pkt));
    }

    /// Pending ingress frames.
    pub fn ingress_len(&self) -> usize {
        self.ingress.len()
    }

    /// One switching pass: O(batch) over the ingress queue.
    ///
    /// Each frame is resolved through the connection table (conn-track
    /// creates entries for flows first seen mid-stream; unresolvable
    /// flows flood to the uplink, as a switch floods unknown unicast).
    /// Each run of frames toward one guest finds that guest's vif in the
    /// `netbacks`' attachment tables, one probe per NetBack at most, and
    /// is dropped if no NetBack serves the guest. Payload handles move
    /// into the destination ring or onto the wire without copying, and
    /// the destination's backend is recorded in [`Self::notify_targets`]
    /// exactly once per pass. Frames whose destination ring is saturated
    /// are requeued onto the (persistent) scratch queue and re-enter the
    /// next pass.
    pub fn switch(
        &mut self,
        netbacks: &[NetBack],
        hub: &mut NetRingHub,
        wire: &mut WireEndpoint,
    ) -> SwitchStats {
        let mut stats = SwitchStats::default();
        debug_assert!(self.requeue.is_empty());
        self.notify.clear();
        // Both scratches move out of `self` for the pass so routing
        // (`&mut self`), the frames (`&ingress`), and delivery
        // (`&mut hub`) stay disjoint borrows with no per-frame
        // bookkeeping.
        let mut ingress = std::mem::take(&mut self.ingress);
        let mut routes = std::mem::take(&mut self.routes);
        routes.clear();
        routes.reserve(ingress.len());

        // Phase 1 — route: one connection-table probe per frame, its
        // destination written to the route scratch, and the frames
        // untouched in place.
        for (src, pkt) in ingress.iter() {
            routes.push(self.route_frame(*src, pkt, &mut stats));
        }

        // Phase 2 — deliver: each maximal run of equal routes resolves
        // its vif once and drains straight from the ingress buffer into
        // its destination in one bulk push (one ring lookup, one room
        // check, one notify record per run); each payload handle moves
        // exactly once, drain slot → destination ring.
        let mut frames = ingress.drain(..);
        let mut i = 0;
        while i < routes.len() {
            let route = routes[i];
            let mut j = i + 1;
            while j < routes.len() && routes[j] == route {
                j += 1;
            }
            let len = j - i;
            match route {
                Some(UPLINK) => {
                    // Guest→external: out the uplink, translated through
                    // the connection's held NAT port.
                    wire.outbound
                        .extend(frames.by_ref().take(len).map(|(_, p)| p));
                    stats.to_uplink += len as u64;
                }
                Some(dst) => match netbacks.iter().find_map(|nb| nb.connection(dst)) {
                    Some(conn) => self.deliver_run(hub, conn, &mut frames, len, &mut stats),
                    None => {
                        stats.dropped += len as u64;
                        frames.by_ref().take(len).for_each(drop);
                    }
                },
                None => {
                    stats.dropped += len as u64;
                    frames.by_ref().take(len).for_each(drop);
                }
            }
            i = j;
        }
        debug_assert!(frames.next().is_none(), "every routed frame consumed");
        drop(frames);
        self.routes = routes;
        // Put the drained buffer back as the persistent scratch: the
        // requeued frames become next pass's ingress and the emptied
        // buffer keeps its capacity, so steady state never allocates.
        std::mem::swap(&mut self.ingress, &mut self.requeue);
        self.requeue = ingress;
        self.lifetime.to_guests += stats.to_guests;
        self.lifetime.to_uplink += stats.to_uplink;
        self.lifetime.bytes += stats.bytes;
        self.lifetime.dropped += stats.dropped;
        self.lifetime.requeued += stats.requeued;
        self.lifetime.flows_learned += stats.flows_learned;
        stats
    }

    /// Connection-table miss path: the direction has not carried traffic
    /// yet. A pre-learned resolution (the reverse leg of an open flow,
    /// uplink conn-track) promotes to a full table entry; a flow nobody
    /// opened floods to the uplink as guest→external, as a switch floods
    /// unknown unicast. `None` only on NAT exhaustion.
    #[cold]
    fn conn_track(
        &mut self,
        src: DomId,
        pkt: &NetPacket,
        stats: &mut SwitchStats,
    ) -> Option<DomId> {
        let dst = match self.resolve.get(&(pkt.flow, src)) {
            Some(&d) => {
                self.flows.insert(
                    (pkt.flow, src),
                    RouteEntry {
                        dst: d,
                        entry: FlowEntry::default(),
                    },
                );
                d
            }
            None => {
                self.open_flow(pkt.flow, src, UPLINK)?;
                UPLINK
            }
        };
        stats.flows_learned += 1;
        let re = self.flows.get_mut(&(pkt.flow, src)).expect("just inserted");
        re.entry.packets += 1;
        re.entry.bytes += pkt.bytes as u64;
        re.entry.last_seq = pkt.seq;
        Some(dst)
    }

    /// Routes one frame: resolves its destination through the connection
    /// table (updating the flow statistics in the same probe) and
    /// returns it ([`UPLINK`] for guest→external), or `None` to drop the
    /// frame.
    #[inline]
    fn route_frame(
        &mut self,
        src: DomId,
        pkt: &NetPacket,
        stats: &mut SwitchStats,
    ) -> Option<DomId> {
        if pkt.bytes > MAX_GSO_BYTES {
            return None;
        }
        let dst = match self.flows.get_mut(&(pkt.flow, src)) {
            Some(re) => {
                re.entry.packets += 1;
                re.entry.bytes += pkt.bytes as u64;
                re.entry.last_seq = pkt.seq;
                re.dst
            }
            // `None` on NAT exhaustion.
            None => self.conn_track(src, pkt, stats)?,
        };
        stats.bytes += pkt.bytes as u64;
        Some(dst)
    }

    /// Delivers the next `len` frames of the drain into `conn`'s ring:
    /// one ring lookup, one room check, one bulk push, and one notify
    /// record for the whole run. Frames over the rx burst cap re-enter
    /// the next pass from the persistent scratch queue; a detached ring
    /// drops the run (the frontend is renegotiating).
    fn deliver_run(
        &mut self,
        hub: &mut NetRingHub,
        conn: &Connection,
        frames: &mut std::vec::Drain<'_, (DomId, NetPacket)>,
        len: usize,
        stats: &mut SwitchStats,
    ) {
        let ring = match hub.get_mut(conn.ring) {
            Ok(r) if r.is_attached() => r,
            _ => {
                stats.dropped += len as u64;
                frames.by_ref().take(len).for_each(drop);
                return;
            }
        };
        // Same rx burst cap as NetBack.
        let room = (4 * DEFAULT_RING_SLOTS).saturating_sub(ring.pending_responses());
        let deliver = room.min(len);
        if deliver > 0 {
            match ring.push_responses_iter(frames.by_ref().take(deliver).map(|(_, p)| p)) {
                Ok(pushed) => {
                    stats.to_guests += pushed as u64;
                    if !self.notify.iter().any(|&(b, _)| b == conn.backend) {
                        self.notify.push((conn.backend, conn.back_port));
                    }
                }
                Err(_) => stats.dropped += deliver as u64,
            }
        }
        if deliver < len {
            stats.requeued += (len - deliver) as u64;
            self.requeue.extend(frames.by_ref().take(len - deliver));
        }
    }

    /// The notify targets of the last [`Self::switch`] pass: one
    /// `(backend, back_port)` per destination backend. The caller issues
    /// each as one `EvtchnSend`.
    pub fn notify_targets(&self) -> &[(DomId, u32)] {
        &self.notify
    }

    /// Lifetime statistics.
    pub fn lifetime_stats(&self) -> SwitchStats {
        self.lifetime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::NicModel;
    use crate::ring::RingId;
    use crate::xenbus::DeviceKind;
    use xoar_hypervisor::grant::GrantRef;
    use xoar_hypervisor::memory::PageRef;
    use xoar_hypervisor::PciAddress;

    fn conn(guest: u32, backend: u32, gref: u32, back_port: u32) -> Connection {
        Connection {
            guest: DomId(guest),
            backend: DomId(backend),
            kind: DeviceKind::Vif,
            index: 0,
            ring: RingId {
                granter: DomId(guest),
                gref: GrantRef(gref),
            },
            front_port: back_port,
            back_port,
        }
    }

    fn netback(dom: u32) -> NetBack {
        NetBack::new(DomId(dom), NicModel::gigabit(PciAddress::new(0, 2, 0)))
    }

    /// A fabric hosted by NetBack 2, which has attached a vif for each
    /// of `guests`.
    fn fabric_with(guests: &[u32]) -> (Fabric, [NetBack; 1], NetRingHub, WireEndpoint) {
        let mut nb = netback(2);
        let mut hub = NetRingHub::new();
        for (i, &g) in guests.iter().enumerate() {
            let c = conn(g, 2, i as u32, 10 + i as u32);
            hub.create(c.ring);
            nb.attach(c);
        }
        (Fabric::new(DomId(2)), [nb], hub, WireEndpoint::new())
    }

    fn ring_pop(hub: &mut NetRingHub, guest: u32, gref: u32) -> Option<NetPacket> {
        hub.get_mut(RingId {
            granter: DomId(guest),
            gref: GrantRef(gref),
        })
        .unwrap()
        .pop_response()
    }

    #[test]
    fn switch_reaches_exactly_the_attached_vifs() {
        let (mut fab, nbs, mut hub, mut wire) = fabric_with(&[5, 6]);
        for (flow, dst) in [(1, 6), (2, 7)] {
            fab.open_flow(flow, DomId(5), DomId(dst)).unwrap();
            fab.enqueue(DomId(5), NetPacket::meta(flow, 0, 100));
        }
        let stats = fab.switch(&nbs, &mut hub, &mut wire);
        assert_eq!((stats.to_guests, stats.dropped), (1, 1), "no vif for 7");
        assert_eq!(ring_pop(&mut hub, 6, 1).map(|p| p.flow), Some(1));
    }

    #[test]
    fn guest_to_guest_switches_by_handle() {
        let (mut fab, nbs, mut hub, mut wire) = fabric_with(&[5, 6]);
        fab.open_flow(1, DomId(5), DomId(6)).unwrap();
        let page = PageRef::new(&[7u8; 4096]);
        fab.enqueue(DomId(5), NetPacket::with_payload(1, 0, page.clone()));
        let stats = fab.switch(&nbs, &mut hub, &mut wire);
        assert_eq!(stats.to_guests, 1);
        assert_eq!(stats.to_uplink, 0);
        let got = ring_pop(&mut hub, 6, 1).unwrap();
        assert!(
            PageRef::ptr_eq(&page, got.payload.as_ref().unwrap()),
            "the destination ring holds the same page body, not a copy"
        );
        assert!(wire.outbound.is_empty(), "inter-guest frames skip the wire");
        // One notify for the one destination backend.
        assert_eq!(fab.notify_targets(), &[(DomId(2), 11)]);
    }

    #[test]
    fn reverse_direction_conn_tracks() {
        let (mut fab, nbs, mut hub, mut wire) = fabric_with(&[5, 6]);
        fab.open_flow(1, DomId(5), DomId(6)).unwrap();
        fab.enqueue(DomId(5), NetPacket::meta(1, 0, 1500));
        fab.switch(&nbs, &mut hub, &mut wire);
        // The reply resolves through the reverse entry open_flow seeded.
        fab.enqueue(DomId(6), NetPacket::meta(1, 0, 500));
        let stats = fab.switch(&nbs, &mut hub, &mut wire);
        assert_eq!(stats.to_guests, 1);
        assert!(ring_pop(&mut hub, 5, 0).is_some());
        let fwd = fab
            .lookup(&FlowKey {
                flow: 1,
                src: DomId(5),
                dst: DomId(6),
            })
            .unwrap();
        assert_eq!(fwd.packets, 1);
        let rev = fab
            .lookup(&FlowKey {
                flow: 1,
                src: DomId(6),
                dst: DomId(5),
            })
            .unwrap();
        assert_eq!(rev.packets, 1);
    }

    #[test]
    fn unknown_flow_floods_to_uplink_with_nat() {
        let (mut fab, nbs, mut hub, mut wire) = fabric_with(&[5]);
        fab.enqueue(DomId(5), NetPacket::meta(99, 0, 1500));
        let stats = fab.switch(&nbs, &mut hub, &mut wire);
        assert_eq!(stats.to_uplink, 1);
        assert_eq!(stats.flows_learned, 1);
        assert_eq!(wire.outbound.len(), 1);
        let key = FlowKey {
            flow: 99,
            src: DomId(5),
            dst: UPLINK,
        };
        let entry = fab.lookup(&key).unwrap();
        let nat = entry.nat_port.unwrap();
        assert!(nat >= NAT_PORT_BASE);
        assert_eq!(fab.nat_flow(nat), Some(&key));
        assert_eq!(fab.nat_in_use(), 1);
    }

    #[test]
    fn uplink_ingress_reaches_guest() {
        let (mut fab, nbs, mut hub, mut wire) = fabric_with(&[5]);
        let page = PageRef::new(&[9u8; 2048]);
        fab.enqueue_from_uplink(DomId(5), NetPacket::with_payload(4, 0, page.clone()));
        let stats = fab.switch(&nbs, &mut hub, &mut wire);
        assert_eq!(stats.to_guests, 1);
        let got = ring_pop(&mut hub, 5, 0).unwrap();
        assert!(PageRef::ptr_eq(&page, got.payload.as_ref().unwrap()));
        // Conn-track seeded the reply direction too.
        fab.enqueue(DomId(5), NetPacket::meta(4, 1, 100));
        let stats = fab.switch(&nbs, &mut hub, &mut wire);
        assert_eq!(stats.to_uplink, 1);
    }

    #[test]
    fn close_flow_recycles_nat_port() {
        let mut fab = Fabric::new(DomId(2));
        let k = fab.open_flow(7, DomId(5), UPLINK).unwrap();
        let p1 = fab.lookup(&k).unwrap().nat_port.unwrap();
        assert!(fab.close_flow(7, DomId(5), UPLINK));
        assert_eq!(fab.nat_in_use(), 0);
        assert_eq!(fab.nat_flow(p1), None);
        let k2 = fab.open_flow(8, DomId(5), UPLINK).unwrap();
        assert_eq!(
            fab.lookup(&k2).unwrap().nat_port,
            Some(p1),
            "the released port is recycled"
        );
        assert!(!fab.close_flow(7, DomId(5), UPLINK), "already closed");
    }

    #[test]
    fn oversize_and_unknown_destination_drop() {
        let (mut fab, mut nbs, mut hub, mut wire) = fabric_with(&[5, 6]);
        fab.open_flow(1, DomId(5), DomId(6)).unwrap();
        fab.enqueue(DomId(5), NetPacket::meta(1, 0, MAX_GSO_BYTES + 1));
        // Destination detached between open and switch.
        fab.open_flow(2, DomId(5), DomId(6)).unwrap();
        nbs[0].detach_guest(DomId(6)).unwrap();
        fab.enqueue(DomId(5), NetPacket::meta(2, 0, 1000));
        let stats = fab.switch(&nbs, &mut hub, &mut wire);
        assert_eq!(stats.dropped, 2);
        assert_eq!(stats.to_guests, 0);
    }

    #[test]
    fn backpressure_requeues_onto_persistent_scratch() {
        let (mut fab, nbs, mut hub, mut wire) = fabric_with(&[5, 6]);
        fab.open_flow(1, DomId(5), DomId(6)).unwrap();
        for i in 0..200 {
            fab.enqueue(DomId(5), NetPacket::meta(1, i, 1000));
        }
        let stats = fab.switch(&nbs, &mut hub, &mut wire);
        assert_eq!(stats.to_guests as usize, 4 * DEFAULT_RING_SLOTS);
        assert_eq!(stats.requeued as usize, 200 - 4 * DEFAULT_RING_SLOTS);
        assert_eq!(fab.ingress_len(), 200 - 4 * DEFAULT_RING_SLOTS);
        // Drain the destination and the leftovers deliver next pass.
        while ring_pop(&mut hub, 6, 1).is_some() {}
        let stats = fab.switch(&nbs, &mut hub, &mut wire);
        assert_eq!(stats.to_guests as usize, 200 - 4 * DEFAULT_RING_SLOTS);
        assert_eq!(fab.ingress_len(), 0);
    }

    #[test]
    fn one_notify_per_destination_backend() {
        // Guests 5,6 behind backend 2; guest 7 behind backend 3.
        let mut fab = Fabric::new(DomId(2));
        let mut nbs = [netback(2), netback(3)];
        let mut hub = NetRingHub::new();
        for (i, (g, b)) in [(5u32, 2u32), (6, 2), (7, 3)].iter().enumerate() {
            let c = conn(*g, *b, i as u32, 10 + i as u32);
            hub.create(c.ring);
            nbs[*b as usize - 2].attach(c);
        }
        let mut wire = WireEndpoint::new();
        fab.open_flow(1, DomId(5), DomId(6)).unwrap();
        fab.open_flow(2, DomId(5), DomId(7)).unwrap();
        for i in 0..8 {
            fab.enqueue(DomId(5), NetPacket::meta(1 + (i % 2), i, 100));
        }
        let stats = fab.switch(&nbs, &mut hub, &mut wire);
        assert_eq!(stats.to_guests, 8);
        let notifies = fab.notify_targets();
        assert_eq!(notifies.len(), 2, "one notify per destination backend");
        assert!(notifies.iter().any(|&(b, _)| b == DomId(2)));
        assert!(notifies.iter().any(|&(b, _)| b == DomId(3)));
    }

    #[test]
    fn hundred_k_concurrent_flows_in_table() {
        let mut fab = Fabric::new(DomId(2));
        for f in 0..100_000u64 {
            fab.open_flow(f, DomId(5), DomId(6)).unwrap();
        }
        assert_eq!(fab.flow_count(), 100_000);
        let probe = FlowKey {
            flow: 77_777,
            src: DomId(5),
            dst: DomId(6),
        };
        assert!(fab.lookup(&probe).is_some());
    }

    #[test]
    fn nat_exhaustion_refuses_cleanly() {
        let mut nat = NatAlloc::new();
        let mut held = Vec::new();
        for _ in 0..NAT_PORT_SPAN {
            held.push(nat.alloc().unwrap());
        }
        assert_eq!(nat.alloc(), None);
        assert_eq!(nat.exhausted_count(), 1);
        nat.release(held.pop().unwrap());
        assert!(nat.alloc().is_some(), "release reopens the range");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use xoar_sim::prop::Runner;

    /// NAT allocation never hands out a port already in flight, and
    /// released ports are recycled before fresh high-water ports.
    #[test]
    fn nat_ports_unique_and_recycled() {
        Runner::cases(128).run("NAT ports unique and recycled", |g| {
            let ops = g.vec(1..200, |g| g.u8(0..3));
            let mut nat = NatAlloc::new();
            let mut held: Vec<u16> = Vec::new();
            let mut ever_released: Vec<u16> = Vec::new();
            for op in ops {
                match op {
                    0 | 1 => {
                        if let Some(p) = nat.alloc() {
                            assert!(!held.contains(&p), "port {p} allocated while still held");
                            if !ever_released.is_empty() {
                                assert!(
                                    ever_released.contains(&p),
                                    "port {p} fresh while recycled ports wait"
                                );
                                ever_released.retain(|&q| q != p);
                            }
                            held.push(p);
                        }
                    }
                    _ => {
                        if let Some(p) = held.pop() {
                            nat.release(p);
                            ever_released.push(p);
                        }
                    }
                }
                assert_eq!(nat.in_use(), held.len());
            }
            // Closing every connection returns the allocator to empty.
            for p in held.drain(..) {
                nat.release(p);
            }
            assert_eq!(nat.in_use(), 0);
        });
    }

    /// The connection table agrees with a reference map under arbitrary
    /// open/close/switch interleavings, and NAT ports released by
    /// `close_flow` are reused by later opens.
    #[test]
    fn flow_table_consistent_under_churn() {
        Runner::cases(64).run("flow table consistent under churn", |g| {
            let ops = g.vec(1..120, |g| (g.u8(0..3), g.u64(0..12)));
            let (mut fab, nbs, mut hub, mut wire) = {
                let mut nb = NetBack::new(
                    DomId(2),
                    crate::hw::NicModel::gigabit(xoar_hypervisor::PciAddress::new(0, 2, 0)),
                );
                let mut hub = NetRingHub::new();
                for (i, gd) in [5u32, 6].iter().enumerate() {
                    let c = Connection {
                        guest: DomId(*gd),
                        backend: DomId(2),
                        kind: crate::xenbus::DeviceKind::Vif,
                        index: 0,
                        ring: crate::ring::RingId {
                            granter: DomId(*gd),
                            gref: xoar_hypervisor::grant::GrantRef(i as u32),
                        },
                        front_port: 10 + i as u32,
                        back_port: 10 + i as u32,
                    };
                    hub.create(c.ring);
                    nb.attach(c);
                }
                (Fabric::new(DomId(2)), [nb], hub, WireEndpoint::new())
            };
            let mut open: Vec<u64> = Vec::new();
            for (op, flow) in ops {
                match op {
                    0 => {
                        fab.open_flow(flow, DomId(5), UPLINK).unwrap();
                        if !open.contains(&flow) {
                            open.push(flow);
                        }
                    }
                    1 => {
                        let closed = fab.close_flow(flow, DomId(5), UPLINK);
                        assert_eq!(closed, open.contains(&flow));
                        open.retain(|&f| f != flow);
                    }
                    _ => {
                        fab.enqueue(DomId(5), NetPacket::meta(flow, 0, 100));
                        fab.switch(&nbs, &mut hub, &mut wire);
                        // Switching an unopened flow conn-tracks it as
                        // guest→external.
                        if !open.contains(&flow) {
                            open.push(flow);
                        }
                    }
                }
                assert_eq!(fab.nat_in_use(), open.len());
                for &f in &open {
                    let k = FlowKey {
                        flow: f,
                        src: DomId(5),
                        dst: UPLINK,
                    };
                    assert!(fab.lookup(&k).is_some(), "open flow {f} present");
                    assert!(fab.lookup(&k).unwrap().nat_port.is_some());
                }
            }
        });
    }
}
