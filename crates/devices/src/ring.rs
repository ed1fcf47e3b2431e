//! I/O rings: shared-memory producer/consumer channels (§4.3).
//!
//! An I/O ring is a single shared page holding two circular queues —
//! requests (frontend → backend) and responses (backend → frontend) — with
//! free-running producer/consumer indices, exactly as in Xen's
//! `ring.h`. Peers notify each other out of band via event channels; the
//! ring itself carries only data.
//!
//! Because both halves of a split driver live in one address space in this
//! model, the "shared page" is realised as an entry in a [`RingHub`]
//! keyed by `(granting domain, grant reference)` — the same rendezvous a
//! real backend performs by mapping the grant it read from XenStore.
//!
//! The paper notes the rings carry *all* protocol policy: "all policy is
//! left to the users of the I/O rings, leaving the potential for malicious
//! or malformed data to be injected via this vector." The model therefore
//! performs no validation here; backends validate.

use std::collections::VecDeque;

use xoar_hypervisor::fasthash::FastMap;
use xoar_hypervisor::grant::GrantRef;
use xoar_hypervisor::DomId;

/// Default number of request slots in a single-page ring (Xen's blkif
/// fits 32 requests in one 4 KiB page).
pub const DEFAULT_RING_SLOTS: usize = 32;

/// Errors from ring operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// The request queue is full; the producer must back off.
    Full,
    /// The ring was torn down (peer death or driver restart).
    Detached,
    /// No such ring in the hub.
    NotFound,
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::Full => write!(f, "ring full"),
            RingError::Detached => write!(f, "ring detached"),
            RingError::NotFound => write!(f, "ring not found"),
        }
    }
}

impl std::error::Error for RingError {}

/// A bidirectional ring: bounded request queue plus unbounded response
/// queue (responses reuse request slots in real Xen, so they can never
/// outnumber outstanding requests; the model enforces that dynamically).
#[derive(Debug)]
pub struct Ring<Req, Resp> {
    requests: VecDeque<Req>,
    responses: VecDeque<Resp>,
    slots: usize,
    /// Requests currently "owned" by the backend (consumed, response
    /// pending) — these still occupy ring slots.
    in_flight: usize,
    attached: bool,
    /// Lifetime counters for the evaluation harness.
    req_count: u64,
    resp_count: u64,
}

impl<Req, Resp> Ring<Req, Resp> {
    /// Creates an attached, empty ring with `slots` request slots.
    ///
    /// Both queues are preallocated to the slot count — a real ring is a
    /// fixed shared page — so steady-state push/pop never reallocates.
    pub fn new(slots: usize) -> Self {
        let slots = slots.max(1);
        Ring {
            requests: VecDeque::with_capacity(slots),
            responses: VecDeque::with_capacity(slots),
            slots,
            in_flight: 0,
            attached: true,
            req_count: 0,
            resp_count: 0,
        }
    }

    /// Number of free request slots.
    pub fn free_slots(&self) -> usize {
        self.slots
            .saturating_sub(self.requests.len() + self.in_flight)
    }

    /// Frontend: push a request.
    pub fn push_request(&mut self, req: Req) -> Result<(), RingError> {
        if !self.attached {
            return Err(RingError::Detached);
        }
        if self.free_slots() == 0 {
            return Err(RingError::Full);
        }
        self.requests.push_back(req);
        self.req_count += 1;
        Ok(())
    }

    /// Backend: pop the next request (slot stays occupied until the
    /// response is pushed).
    pub fn pop_request(&mut self) -> Option<Req> {
        if !self.attached {
            return None;
        }
        let r = self.requests.pop_front();
        if r.is_some() {
            self.in_flight += 1;
        }
        r
    }

    /// Backend: push a response, releasing one in-flight slot.
    pub fn push_response(&mut self, resp: Resp) -> Result<(), RingError> {
        if !self.attached {
            return Err(RingError::Detached);
        }
        self.in_flight = self.in_flight.saturating_sub(1);
        self.responses.push_back(resp);
        self.resp_count += 1;
        Ok(())
    }

    /// Frontend: pop the next response.
    pub fn pop_response(&mut self) -> Option<Resp> {
        self.responses.pop_front()
    }

    /// Frontend: pop every queued response into `out` in one sweep,
    /// returning how many were appended — the rx mirror of
    /// [`Self::pop_requests_into`], for frontends draining a switched
    /// burst without a pop call per frame.
    pub fn pop_responses_into(&mut self, out: &mut Vec<Resp>) -> usize {
        let n = self.responses.len();
        out.extend(self.responses.drain(..));
        n
    }

    /// Frontend: push a whole batch of requests, or none of them.
    ///
    /// Validate-then-apply: if the batch exceeds the free slots the ring
    /// is left untouched, the batch is not iterated, and
    /// [`RingError::Full`] is returned, so callers never have to unpick a
    /// half-submitted batch.
    pub fn push_requests<I>(&mut self, reqs: I) -> Result<usize, RingError>
    where
        I: IntoIterator<Item = Req>,
        I::IntoIter: ExactSizeIterator,
    {
        if !self.attached {
            return Err(RingError::Detached);
        }
        let reqs = reqs.into_iter();
        if reqs.len() > self.free_slots() {
            return Err(RingError::Full);
        }
        let n = reqs.len();
        self.requests.extend(reqs);
        self.req_count += n as u64;
        Ok(n)
    }

    /// Backend: pop every queued request into `out` in one sweep,
    /// returning how many were appended. All popped slots stay occupied
    /// until their responses are pushed, as with [`Self::pop_request`].
    pub fn pop_requests_into(&mut self, out: &mut Vec<Req>) -> usize {
        if !self.attached {
            return 0;
        }
        let n = self.requests.len();
        out.extend(self.requests.drain(..));
        self.in_flight += n;
        n
    }

    /// Backend: push a batch of responses, releasing their slots.
    pub fn push_responses(&mut self, resps: Vec<Resp>) -> Result<usize, RingError> {
        if !self.attached {
            return Err(RingError::Detached);
        }
        let n = resps.len();
        self.in_flight = self.in_flight.saturating_sub(n);
        self.responses.extend(resps);
        self.resp_count += n as u64;
        Ok(n)
    }

    /// Backend: push a batch of responses from an iterator, releasing
    /// their slots — the allocation-free mirror of
    /// [`Self::push_responses`] for callers draining a scratch buffer.
    pub fn push_responses_iter(
        &mut self,
        resps: impl ExactSizeIterator<Item = Resp>,
    ) -> Result<usize, RingError> {
        if !self.attached {
            return Err(RingError::Detached);
        }
        let n = resps.len();
        self.in_flight = self.in_flight.saturating_sub(n);
        self.responses.extend(resps);
        self.resp_count += n as u64;
        Ok(n)
    }

    /// Pending request count.
    pub fn pending_requests(&self) -> usize {
        self.requests.len()
    }

    /// Pending response count.
    pub fn pending_responses(&self) -> usize {
        self.responses.len()
    }

    /// Requests consumed but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Detaches the ring (backend restart / domain death). Outstanding
    /// requests are dropped; the frontend observes [`RingError::Detached`]
    /// and renegotiates — the behaviour Figure 6.3 measures.
    pub fn detach(&mut self) -> usize {
        self.attached = false;
        let lost = self.requests.len() + self.in_flight;
        self.requests.clear();
        self.responses.clear();
        self.in_flight = 0;
        lost
    }

    /// Whether the ring is attached.
    pub fn is_attached(&self) -> bool {
        self.attached
    }

    /// Lifetime request / response totals.
    pub fn totals(&self) -> (u64, u64) {
        (self.req_count, self.resp_count)
    }
}

/// Identifies a shared ring by its grant rendezvous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RingId {
    /// The granting (frontend) domain.
    pub granter: DomId,
    /// The grant reference of the shared page.
    pub gref: GrantRef,
}

/// A registry of shared rings, standing in for shared machine pages.
#[derive(Debug)]
pub struct RingHub<Req, Resp> {
    rings: FastMap<RingId, Ring<Req, Resp>>,
}

impl<Req, Resp> RingHub<Req, Resp> {
    /// Creates an empty hub.
    pub fn new() -> Self {
        RingHub {
            rings: FastMap::default(),
        }
    }

    /// Creates a ring for `id` with the default slot count.
    pub fn create(&mut self, id: RingId) {
        self.create_with_slots(id, DEFAULT_RING_SLOTS);
    }

    /// Creates a ring for `id` with an explicit slot count.
    pub fn create_with_slots(&mut self, id: RingId, slots: usize) {
        self.rings.insert(id, Ring::new(slots));
    }

    /// Accesses a ring.
    pub fn get_mut(&mut self, id: RingId) -> Result<&mut Ring<Req, Resp>, RingError> {
        self.rings.get_mut(&id).ok_or(RingError::NotFound)
    }

    /// Read-only access.
    pub fn get(&self, id: RingId) -> Result<&Ring<Req, Resp>, RingError> {
        self.rings.get(&id).ok_or(RingError::NotFound)
    }

    /// Destroys a ring entirely (page reclaimed after unmap, or its
    /// granting frontend died); a backend still holding the id observes
    /// `NotFound`.
    pub fn destroy(&mut self, id: RingId) -> bool {
        self.rings.remove(&id).is_some()
    }

    /// Number of rings present.
    pub fn len(&self) -> usize {
        self.rings.len()
    }

    /// Whether the hub holds no rings.
    pub fn is_empty(&self) -> bool {
        self.rings.is_empty()
    }
}

impl<Req, Resp> Default for RingHub<Req, Resp> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(g: u32, r: u32) -> RingId {
        RingId {
            granter: DomId(g),
            gref: GrantRef(r),
        }
    }

    #[test]
    fn request_response_cycle() {
        let mut ring: Ring<u32, u32> = Ring::new(4);
        ring.push_request(10).unwrap();
        ring.push_request(20).unwrap();
        assert_eq!(ring.pending_requests(), 2);
        assert_eq!(ring.pop_request(), Some(10));
        assert_eq!(ring.in_flight(), 1);
        ring.push_response(110).unwrap();
        assert_eq!(ring.in_flight(), 0);
        assert_eq!(ring.pop_response(), Some(110));
        assert_eq!(ring.totals(), (2, 1));
    }

    #[test]
    fn ring_full_backpressure() {
        let mut ring: Ring<u32, u32> = Ring::new(2);
        ring.push_request(1).unwrap();
        ring.push_request(2).unwrap();
        assert_eq!(ring.push_request(3), Err(RingError::Full));
        // Consuming is not enough — the slot is released by the response.
        let _ = ring.pop_request().unwrap();
        assert_eq!(ring.push_request(3), Err(RingError::Full));
        ring.push_response(101).unwrap();
        ring.push_request(3).unwrap();
    }

    #[test]
    fn detach_drops_outstanding_work() {
        let mut ring: Ring<u32, u32> = Ring::new(8);
        ring.push_request(1).unwrap();
        ring.push_request(2).unwrap();
        let _ = ring.pop_request();
        let lost = ring.detach();
        assert_eq!(lost, 2, "one queued + one in flight");
        assert_eq!(ring.push_request(3), Err(RingError::Detached));
        assert!(ring.pop_request().is_none());
    }

    #[test]
    fn batch_push_is_all_or_nothing() {
        let mut ring: Ring<u32, u32> = Ring::new(4);
        ring.push_request(0).unwrap();
        // 4 requests into 3 free slots: refused, ring untouched.
        assert_eq!(ring.push_requests(vec![1, 2, 3, 4]), Err(RingError::Full));
        assert_eq!(ring.pending_requests(), 1);
        assert_eq!(ring.push_requests(vec![1, 2, 3]), Ok(3));
        assert_eq!(ring.pending_requests(), 4);
        assert_eq!(ring.totals().0, 4);
    }

    #[test]
    fn batch_pop_and_respond_round_trip() {
        let mut ring: Ring<u32, u32> = Ring::new(8);
        ring.push_requests(0..6).unwrap();
        let mut got = Vec::new();
        assert_eq!(ring.pop_requests_into(&mut got), 6);
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(ring.in_flight(), 6);
        // Slots stay occupied until the responses land.
        assert_eq!(ring.free_slots(), 2);
        ring.push_responses(got.iter().map(|r| r * 10).collect())
            .unwrap();
        assert_eq!(ring.in_flight(), 0);
        let resps: Vec<u32> = std::iter::from_fn(|| ring.pop_response()).collect();
        assert_eq!(resps, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn batch_ops_refuse_detached_ring() {
        let mut ring: Ring<u32, u32> = Ring::new(4);
        ring.push_request(1).unwrap();
        ring.detach();
        assert_eq!(ring.push_requests(vec![2]), Err(RingError::Detached));
        let mut out = Vec::new();
        assert_eq!(ring.pop_requests_into(&mut out), 0);
        assert_eq!(ring.push_responses(vec![9]), Err(RingError::Detached));
    }

    #[test]
    fn hub_rendezvous() {
        let mut hub: RingHub<u32, u32> = RingHub::new();
        hub.create(rid(5, 7));
        assert!(hub.get_mut(rid(5, 7)).is_ok());
        assert_eq!(hub.get_mut(rid(5, 8)).unwrap_err(), RingError::NotFound);
        hub.get_mut(rid(5, 7)).unwrap().push_request(1).unwrap();
        assert!(hub.destroy(rid(5, 7)));
        assert!(!hub.destroy(rid(5, 7)));
    }

    #[test]
    fn page_handles_cross_the_ring_without_copy() {
        use xoar_hypervisor::memory::PageRef;
        // Grant-mapped transfers carry page bodies as shared handles: the
        // backend pops the very allocation the frontend pushed.
        let mut ring: Ring<PageRef, PageRef> = Ring::new(4);
        let page = PageRef::new(&[0x5au8; 4096]);
        ring.push_request(page.clone()).unwrap();
        let seen = ring.pop_request().unwrap();
        assert!(
            PageRef::ptr_eq(&page, &seen),
            "no byte copy on the request path"
        );
        ring.push_response(seen).unwrap();
        let back = ring.pop_response().unwrap();
        assert!(
            PageRef::ptr_eq(&page, &back),
            "no byte copy on the response path"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use xoar_sim::prop::Runner;

    /// Slot occupancy never exceeds capacity under arbitrary
    /// interleavings of push/pop/respond.
    #[test]
    fn slots_bounded() {
        Runner::cases(64).run("slot occupancy is bounded", |g| {
            let ops = g.vec(1..200, |g| g.u8(0..3));
            let slots = g.usize(1..16);
            let mut ring: Ring<u64, u64> = Ring::new(slots);
            let mut seq = 0u64;
            for op in ops {
                match op {
                    0 => {
                        let _ = ring.push_request(seq);
                        seq += 1;
                    }
                    1 => {
                        let _ = ring.pop_request();
                    }
                    _ => {
                        if ring.in_flight() > 0 {
                            ring.push_response(seq).unwrap();
                        }
                    }
                }
                assert!(ring.pending_requests() + ring.in_flight() <= slots);
            }
        });
    }

    /// FIFO order is preserved end to end.
    #[test]
    fn fifo_order() {
        Runner::cases(64).run("FIFO order end to end", |g| {
            let n = g.usize(1..20);
            let mut ring: Ring<usize, usize> = Ring::new(n);
            for i in 0..n {
                ring.push_request(i).unwrap();
            }
            for i in 0..n {
                let req = ring.pop_request().unwrap();
                assert_eq!(req, i);
                ring.push_response(req * 2).unwrap();
            }
            for i in 0..n {
                assert_eq!(ring.pop_response().unwrap(), i * 2);
            }
        });
    }
}
