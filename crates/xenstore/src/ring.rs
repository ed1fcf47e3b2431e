//! The XenStore ring transport (§4.4).
//!
//! "All VMs, including Dom0, set up an I/O ring during bootup for
//! XenStore communication. Since XenStore is required in the creation and
//! bootup process, it does not use grant tables for memory sharing, but
//! instead relies on Dom0 privileges to directly map the I/O ring for all
//! the VMs" — which is exactly the privilege Xoar's Builder replaces with
//! a boot-time grant (§5.6).
//!
//! This module carries the [`crate::proto`] frames over per-domain
//! request/response queues, modelling the store ring: guests enqueue
//! framed requests, the store's service loop drains every ring, and
//! replies (plus asynchronous watch events) flow back. In-flight frames
//! are bounded per connection, modelling the single shared page.

use std::collections::VecDeque;

use xoar_hypervisor::fasthash::FastMap;
use xoar_hypervisor::DomId;

use crate::proto::{Request, Response, XenStore};

/// Maximum in-flight requests per connection (one 4 KiB ring of ~32
/// frames in the C implementation).
pub const RING_CAPACITY: usize = 32;

/// One domain's store ring.
#[derive(Debug, Default)]
struct StoreRing {
    requests: VecDeque<(u32, Request)>,
    responses: VecDeque<(u32, Response)>,
    next_req_id: u32,
}

/// The ring-transport front of a [`XenStore`].
#[derive(Debug)]
pub struct XsRingTransport {
    rings: FastMap<DomId, StoreRing>,
    served: u64,
}

/// Errors from the transport layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XsRingError {
    /// The domain has no store ring (not connected at boot).
    NotConnected,
    /// The ring is full; back off and retry after draining responses.
    RingFull,
}

impl std::fmt::Display for XsRingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XsRingError::NotConnected => write!(f, "no store ring for domain"),
            XsRingError::RingFull => write!(f, "store ring full"),
        }
    }
}

impl std::error::Error for XsRingError {}

impl XsRingTransport {
    /// Creates an empty transport.
    pub fn new() -> Self {
        XsRingTransport {
            rings: FastMap::default(),
            served: 0,
        }
    }

    /// Connects a domain's store ring (performed at boot, over the page
    /// the Builder granted).
    pub fn connect(&mut self, dom: DomId) {
        self.rings.entry(dom).or_default();
    }

    /// Disconnects a domain (domain death).
    pub fn disconnect(&mut self, dom: DomId) {
        self.rings.remove(&dom);
    }

    /// Whether `dom` has a ring.
    pub fn is_connected(&self, dom: DomId) -> bool {
        self.rings.contains_key(&dom)
    }

    /// Guest side: enqueue a framed request. Returns its request ID.
    pub fn submit(&mut self, dom: DomId, req: Request) -> Result<u32, XsRingError> {
        let ring = self.rings.get_mut(&dom).ok_or(XsRingError::NotConnected)?;
        if ring.requests.len() >= RING_CAPACITY {
            return Err(XsRingError::RingFull);
        }
        let id = ring.next_req_id;
        ring.next_req_id += 1;
        ring.requests.push_back((id, req));
        Ok(id)
    }

    /// Guest side: dequeue the next response, if any.
    pub fn poll(&mut self, dom: DomId) -> Option<(u32, Response)> {
        self.rings.get_mut(&dom)?.responses.pop_front()
    }

    /// Store side: one service-loop pass — drain every ring through the
    /// store, in domain order (round-robin across connections per pass,
    /// bounded work per ring so one chatty guest cannot starve others).
    pub fn service(&mut self, store: &mut XenStore) -> u64 {
        let mut rings: Vec<_> = self.rings.iter_mut().collect();
        rings.sort_unstable_by_key(|&(&dom, _)| dom);
        let mut handled = 0;
        for (&dom, ring) in rings {
            // Bounded per pass: fairness under flood.
            for _ in 0..RING_CAPACITY {
                let Some((id, req)) = ring.requests.pop_front() else {
                    break;
                };
                let resp = store.handle(dom, req);
                ring.responses.push_back((id, resp));
                handled += 1;
            }
        }
        self.served += handled;
        handled
    }

    /// Total frames served over the transport's lifetime.
    pub fn served(&self) -> u64 {
        self.served
    }
}

impl Default for XsRingTransport {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (XsRingTransport, XenStore, DomId, DomId) {
        let mut t = XsRingTransport::new();
        let mut xs = XenStore::new();
        let dom0 = DomId(0);
        let guest = DomId(5);
        xs.set_privileged(dom0, true);
        xs.create_domain_home(dom0, guest).unwrap();
        t.connect(dom0);
        t.connect(guest);
        (t, xs, dom0, guest)
    }

    #[test]
    fn request_response_over_ring() {
        let (mut t, mut xs, _dom0, guest) = setup();
        let id = t
            .submit(
                guest,
                Request::Write {
                    txn: None,
                    path: "/local/domain/5/name".into(),
                    value: b"ringed".to_vec(),
                },
            )
            .unwrap();
        assert!(t.poll(guest).is_none(), "no response before service");
        assert_eq!(t.service(&mut xs), 1);
        let (rid, resp) = t.poll(guest).unwrap();
        assert_eq!(rid, id);
        assert!(matches!(resp, Response::Ok));
        // Read it back over the ring too.
        t.submit(
            guest,
            Request::Read {
                txn: None,
                path: "/local/domain/5/name".into(),
            },
        )
        .unwrap();
        t.service(&mut xs);
        match t.poll(guest).unwrap().1 {
            Response::Value(v) => assert_eq!(v, b"ringed"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unconnected_domain_refused() {
        let (mut t, _xs, _dom0, _guest) = setup();
        assert_eq!(
            t.submit(DomId(99), Request::TxnStart),
            Err(XsRingError::NotConnected)
        );
        assert!(t.poll(DomId(99)).is_none());
    }

    #[test]
    fn ring_capacity_backpressure() {
        let (mut t, mut xs, _dom0, guest) = setup();
        for _ in 0..RING_CAPACITY {
            t.submit(
                guest,
                Request::Directory {
                    txn: None,
                    path: "/".into(),
                },
            )
            .unwrap();
        }
        assert_eq!(
            t.submit(guest, Request::TxnStart),
            Err(XsRingError::RingFull)
        );
        // Draining restores capacity.
        t.service(&mut xs);
        t.submit(guest, Request::TxnStart).unwrap();
    }

    #[test]
    fn service_is_fair_across_connections() {
        let (mut t, mut xs, dom0, guest) = setup();
        // Guest floods; dom0 sends one request.
        for _ in 0..RING_CAPACITY {
            t.submit(
                guest,
                Request::Directory {
                    txn: None,
                    path: "/".into(),
                },
            )
            .unwrap();
        }
        t.submit(
            dom0,
            Request::Directory {
                txn: None,
                path: "/".into(),
            },
        )
        .unwrap();
        let handled = t.service(&mut xs);
        assert_eq!(
            handled as usize,
            RING_CAPACITY + 1,
            "everyone served in one pass"
        );
        assert!(
            t.poll(dom0).is_some(),
            "the quiet connection was not starved"
        );
    }

    #[test]
    fn request_ids_correlate_out_of_order_consumers() {
        let (mut t, mut xs, _dom0, guest) = setup();
        let a = t
            .submit(
                guest,
                Request::Write {
                    txn: None,
                    path: "/local/domain/5/a".into(),
                    value: vec![],
                },
            )
            .unwrap();
        let b = t
            .submit(
                guest,
                Request::Read {
                    txn: None,
                    path: "/local/domain/5/a".into(),
                },
            )
            .unwrap();
        t.service(&mut xs);
        let (ra, _) = t.poll(guest).unwrap();
        let (rb, _) = t.poll(guest).unwrap();
        assert_eq!((ra, rb), (a, b), "responses carry the request IDs in order");
    }

    #[test]
    fn disconnect_drops_ring() {
        let (mut t, mut xs, _dom0, guest) = setup();
        t.submit(guest, Request::TxnStart).unwrap();
        t.disconnect(guest);
        assert!(!t.is_connected(guest));
        assert_eq!(t.service(&mut xs), 0, "nothing left to serve");
    }

    #[test]
    fn logic_restart_between_passes_is_invisible() {
        let (mut t, mut xs, _dom0, guest) = setup();
        t.submit(
            guest,
            Request::Write {
                txn: None,
                path: "/local/domain/5/k".into(),
                value: b"v".to_vec(),
            },
        )
        .unwrap();
        t.service(&mut xs);
        xs.restart_logic();
        t.submit(
            guest,
            Request::Read {
                txn: None,
                path: "/local/domain/5/k".into(),
            },
        )
        .unwrap();
        t.service(&mut xs);
        let _ = t.poll(guest).unwrap();
        match t.poll(guest).unwrap().1 {
            Response::Value(v) => assert_eq!(v, b"v"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
