//! The XenStore wire protocol and the [`XenStore`] facade.
//!
//! Guests talk to XenStore over a shared I/O ring carrying framed
//! requests; [`Request`]/[`Response`] model that frame vocabulary, and
//! [`XenStore`] bundles a [`XenStoreLogic`] + [`XenStoreState`] pair into
//! the single service object the rest of the platform consumes.
//!
//! The facade is also where the Xoar restart policy hooks in: calling
//! [`XenStore::restart_logic`] microreboots the Logic half while the State
//! half (and therefore all durable data) survives — the split of §5.1.

use xoar_hypervisor::DomId;

use crate::error::{XsError, XsResult};
use crate::logic::{NodeData, Quotas, SubtreeLayout, XenStoreLogic};
use crate::path::{XsPath, XsPathArg};
use crate::perm::NodePerms;
use crate::state::XenStoreState;
use crate::watch::WatchEvent;

/// A framed XenStore request, as carried on the store ring.
#[derive(Debug, Clone)]
pub enum Request {
    /// Read a node's value.
    Read {
        /// Transaction, if any.
        txn: Option<u32>,
        /// Target path.
        path: String,
    },
    /// Write a node's value.
    Write {
        /// Transaction, if any.
        txn: Option<u32>,
        /// Target path.
        path: String,
        /// Value to store.
        value: Vec<u8>,
    },
    /// Create an empty node.
    Mkdir {
        /// Transaction, if any.
        txn: Option<u32>,
        /// Target path.
        path: String,
    },
    /// Remove a subtree.
    Rm {
        /// Transaction, if any.
        txn: Option<u32>,
        /// Target path.
        path: String,
    },
    /// List children.
    Directory {
        /// Transaction, if any.
        txn: Option<u32>,
        /// Target path.
        path: String,
    },
    /// Get node permissions.
    GetPerms {
        /// Target path.
        path: String,
    },
    /// Set node permissions.
    SetPerms {
        /// Target path.
        path: String,
        /// New permissions.
        perms: NodePerms,
    },
    /// Register a watch.
    Watch {
        /// Watched path.
        path: String,
        /// Opaque token.
        token: String,
    },
    /// Unregister a watch.
    Unwatch {
        /// Watched path.
        path: String,
        /// Opaque token.
        token: String,
    },
    /// Start a transaction.
    TxnStart,
    /// End a transaction.
    TxnEnd {
        /// Transaction ID.
        txn: u32,
        /// Commit (`true`) or abort (`false`).
        commit: bool,
    },
}

/// A framed XenStore response.
#[derive(Debug, Clone)]
pub enum Response {
    /// A value payload (Read).
    Value(Vec<u8>),
    /// A success acknowledgment.
    Ok,
    /// Directory listing.
    Dir(Vec<String>),
    /// Permissions payload.
    Perms(NodePerms),
    /// New transaction ID.
    Txn(u32),
    /// An error, carried as an errno-style string (as on the real wire).
    Err(String),
}

/// The assembled XenStore service: restartable Logic over durable State.
#[derive(Debug)]
pub struct XenStore {
    logic: XenStoreLogic,
    state: XenStoreState,
    /// Figure 5.1's most aggressive freshness policy: microreboot Logic
    /// before *every* wire request.
    per_request_restart: bool,
}

impl XenStore {
    /// Creates an empty store with default quotas.
    pub fn new() -> Self {
        XenStore {
            logic: XenStoreLogic::new(),
            state: XenStoreState::new(),
            per_request_restart: false,
        }
    }

    /// Creates a store with explicit quotas.
    pub fn with_quotas(quotas: Quotas) -> Self {
        XenStore {
            logic: XenStoreLogic::with_quotas(quotas),
            state: XenStoreState::new(),
            per_request_restart: false,
        }
    }

    /// Enables or disables the per-request restart policy (Figure 5.1:
    /// XenStore-Logic "restarted on each request"). An attacker that
    /// compromises Logic mid-request loses its foothold before the next
    /// request is even parsed. Only wire requests served through
    /// [`XenStore::handle`] restart Logic; the direct convenience API
    /// below does not.
    pub fn set_per_request_restart(&mut self, on: bool) {
        self.per_request_restart = on;
    }

    /// Marks a connection privileged (bypasses ACLs).
    pub fn set_privileged(&mut self, dom: DomId, privileged: bool) {
        self.logic.set_privileged(dom, privileged);
    }

    /// Microreboots the Logic half; State survives.
    pub fn restart_logic(&mut self) {
        self.logic.restart(&self.state);
    }

    /// Number of Logic restarts so far.
    pub fn logic_restarts(&self) -> u64 {
        self.logic.restarts
    }

    /// Handles one framed request from `dom`.
    pub fn handle(&mut self, dom: DomId, req: Request) -> Response {
        if self.per_request_restart {
            self.logic.restart(&self.state);
        }
        match self.dispatch(dom, req) {
            Ok(resp) => resp,
            Err(e) => Response::Err(e.to_string()),
        }
    }

    fn dispatch(&mut self, dom: DomId, req: Request) -> XsResult<Response> {
        match req {
            Request::Read { txn, path } => {
                let p = XsPath::parse(&path)?;
                Ok(Response::Value(self.logic.read(
                    &mut self.state,
                    dom,
                    txn,
                    &p,
                )?))
            }
            Request::Write { txn, path, value } => {
                let p = XsPath::parse(&path)?;
                self.logic.write(&mut self.state, dom, txn, &p, &value)?;
                Ok(Response::Ok)
            }
            Request::Mkdir { txn, path } => {
                let p = XsPath::parse(&path)?;
                self.logic.mkdir(&mut self.state, dom, txn, &p)?;
                Ok(Response::Ok)
            }
            Request::Rm { txn, path } => {
                let p = XsPath::parse(&path)?;
                self.logic.rm(&mut self.state, dom, txn, &p)?;
                Ok(Response::Ok)
            }
            Request::Directory { txn, path } => {
                let p = XsPath::parse(&path)?;
                Ok(Response::Dir(self.logic.directory(
                    &mut self.state,
                    dom,
                    txn,
                    &p,
                )?))
            }
            Request::GetPerms { path } => {
                let p = XsPath::parse(&path)?;
                Ok(Response::Perms(self.logic.get_perms(
                    &mut self.state,
                    dom,
                    &p,
                )?))
            }
            Request::SetPerms { path, perms } => {
                let p = XsPath::parse(&path)?;
                self.logic.set_perms(&mut self.state, dom, &p, perms)?;
                Ok(Response::Ok)
            }
            Request::Watch { path, token } => {
                let p = XsPath::parse(&path)?;
                self.logic.watch(&mut self.state, dom, &p, &token)?;
                Ok(Response::Ok)
            }
            Request::Unwatch { path, token } => {
                let p = XsPath::parse(&path)?;
                self.logic.unwatch(&mut self.state, dom, &p, &token)?;
                Ok(Response::Ok)
            }
            Request::TxnStart => Ok(Response::Txn(self.logic.txn_start(&mut self.state, dom)?)),
            Request::TxnEnd { txn, commit } => {
                self.logic.txn_end(&mut self.state, dom, txn, commit)?;
                Ok(Response::Ok)
            }
        }
    }

    // ----- direct convenience API (used by the platform crates) -----

    /// Reads a node as a UTF-8 string. The path is text or an
    /// [`XsPath`] (see [`XsPathArg`]).
    pub fn read_str<P: XsPathArg + ?Sized>(&mut self, dom: DomId, path: &P) -> XsResult<String> {
        let p = path.xs_path()?;
        let v = self.logic.read(&mut self.state, dom, None, &p)?;
        String::from_utf8(v).map_err(|_| XsError::Inval("non-utf8 value".into()))
    }

    /// Writes a string value. The path is text or an [`XsPath`].
    pub fn write_str<P: XsPathArg + ?Sized>(
        &mut self,
        dom: DomId,
        path: &P,
        value: &str,
    ) -> XsResult<()> {
        let p = path.xs_path()?;
        self.logic
            .write(&mut self.state, dom, None, &p, value.as_bytes())
    }

    /// Removes a subtree.
    pub fn rm(&mut self, dom: DomId, path: &str) -> XsResult<()> {
        let p = XsPath::parse(path)?;
        self.logic.rm(&mut self.state, dom, None, &p)
    }

    /// Lists children.
    pub fn directory(&mut self, dom: DomId, path: &str) -> XsResult<Vec<String>> {
        let p = XsPath::parse(path)?;
        self.logic.directory(&mut self.state, dom, None, &p)
    }

    /// Registers a watch.
    pub fn watch(&mut self, dom: DomId, path: &str, token: &str) -> XsResult<()> {
        let p = XsPath::parse(path)?;
        self.logic.watch(&mut self.state, dom, &p, token)
    }

    /// Unregisters a watch.
    pub fn unwatch(&mut self, dom: DomId, path: &str, token: &str) -> XsResult<()> {
        let p = XsPath::parse(path)?;
        self.logic.unwatch(&mut self.state, dom, &p, token)
    }

    /// Dequeues the next watch event for `dom`.
    pub fn poll_watch(&mut self, dom: DomId) -> Option<WatchEvent> {
        self.logic.poll_watch(dom)
    }

    /// Sets node permissions. The path is text or an [`XsPath`].
    pub fn set_perms<P: XsPathArg + ?Sized>(
        &mut self,
        dom: DomId,
        path: &P,
        perms: NodePerms,
    ) -> XsResult<()> {
        let p = path.xs_path()?;
        self.logic.set_perms(&mut self.state, dom, &p, perms)
    }

    /// Creates a whole subtree in one request: the node at `root` + each
    /// suffix of `layout`, with the value and permissions `nodes` lists
    /// in the layout's order. Not a wire request; see
    /// [`XenStoreLogic::create_subtree`] for the checks.
    pub fn create_subtree(
        &mut self,
        actor: DomId,
        root: &str,
        layout: &SubtreeLayout,
        nodes: Vec<NodeData>,
    ) -> XsResult<()> {
        let p = XsPath::parse(root)?;
        self.logic
            .create_subtree(&mut self.state, actor, &p, layout, nodes)
    }

    /// Reads `root` and its whole subtree in one range pass, in key order,
    /// as a layout and its nodes (see [`XenStoreLogic::read_subtree`]).
    pub fn read_subtree(
        &mut self,
        actor: DomId,
        root: &str,
    ) -> XsResult<(SubtreeLayout, Vec<NodeData>)> {
        let p = XsPath::parse(root)?;
        self.logic.read_subtree(&mut self.state, actor, &p)
    }

    /// Sets up the conventional home directory for a new domain, owned by
    /// that domain (performed by the toolstack during VM creation): a
    /// one-node [`XenStore::create_subtree`].
    pub fn create_domain_home(&mut self, actor: DomId, domid: DomId) -> XsResult<()> {
        let home = XsPath::domain_home(domid.0);
        let node = (Vec::new(), NodePerms::owner_only(domid));
        self.logic.create_subtree(
            &mut self.state,
            actor,
            &home,
            &SubtreeLayout::new([""])?,
            vec![node],
        )
    }

    /// Removes a domain's watches, open transactions, and home dir.
    pub fn remove_domain(&mut self, actor: DomId, domid: DomId) -> XsResult<()> {
        let home = XsPath::domain_home(domid.0);
        self.logic.remove_domain(&mut self.state, domid);
        match self.logic.rm(&mut self.state, actor, None, &home) {
            Ok(()) | Err(XsError::NoEnt(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Size of the durable store (node records).
    pub fn state_len(&self) -> usize {
        self.state.len()
    }

    /// Narrow-protocol operations served by State so far.
    pub fn state_ops(&self) -> u64 {
        self.state.ops_served()
    }

    /// Read-only access to Logic (audit/analysis tooling).
    pub fn logic(&self) -> &XenStoreLogic {
        &self.logic
    }

    /// Direct access to Logic (tests, restart policies).
    pub fn logic_mut(&mut self) -> &mut XenStoreLogic {
        &mut self.logic
    }

    /// Direct access to State (tests, audit tooling).
    pub fn state(&self) -> &XenStoreState {
        &self.state
    }
}

impl Default for XenStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_guest() -> (XenStore, DomId, DomId) {
        let mut xs = XenStore::new();
        let dom0 = DomId(0);
        let guest = DomId(5);
        xs.set_privileged(dom0, true);
        xs.create_domain_home(dom0, guest).unwrap();
        (xs, dom0, guest)
    }

    #[test]
    fn wire_round_trip() {
        let (mut xs, _dom0, guest) = store_with_guest();
        let resp = xs.handle(
            guest,
            Request::Write {
                txn: None,
                path: "/local/domain/5/name".into(),
                value: b"guest-a".to_vec(),
            },
        );
        assert!(matches!(resp, Response::Ok));
        match xs.handle(
            guest,
            Request::Read {
                txn: None,
                path: "/local/domain/5/name".into(),
            },
        ) {
            Response::Value(v) => assert_eq!(v, b"guest-a"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wire_errors_are_errno_strings() {
        let (mut xs, _dom0, guest) = store_with_guest();
        match xs.handle(
            guest,
            Request::Read {
                txn: None,
                path: "/tool/private".into(),
            },
        ) {
            Response::Err(e) => assert!(e.starts_with("ENOENT"), "got {e}"),
            other => panic!("unexpected {other:?}"),
        }
        match xs.handle(
            guest,
            Request::Write {
                txn: None,
                path: "/tool/private".into(),
                value: vec![],
            },
        ) {
            Response::Err(e) => assert!(e.starts_with("EACCES"), "got {e}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wire_transactions() {
        let (mut xs, dom0, _) = store_with_guest();
        let t = match xs.handle(dom0, Request::TxnStart) {
            Response::Txn(t) => t,
            other => panic!("unexpected {other:?}"),
        };
        xs.handle(
            dom0,
            Request::Write {
                txn: Some(t),
                path: "/tool/x".into(),
                value: b"1".to_vec(),
            },
        );
        assert!(matches!(
            xs.handle(
                dom0,
                Request::TxnEnd {
                    txn: t,
                    commit: true
                }
            ),
            Response::Ok
        ));
        assert_eq!(xs.read_str(dom0, "/tool/x").unwrap(), "1");
    }

    #[test]
    fn facade_restart_preserves_data() {
        let (mut xs, dom0, guest) = store_with_guest();
        xs.write_str(guest, "/local/domain/5/vm", "uuid-1234")
            .unwrap();
        xs.watch(dom0, "/local/domain/5", "tok").unwrap();
        let _ = xs.poll_watch(dom0);
        xs.restart_logic();
        assert_eq!(
            xs.read_str(guest, "/local/domain/5/vm").unwrap(),
            "uuid-1234"
        );
        xs.write_str(guest, "/local/domain/5/state", "running")
            .unwrap();
        assert_eq!(xs.poll_watch(dom0).unwrap().token, "tok");
        assert_eq!(xs.logic_restarts(), 1);
    }

    #[test]
    fn domain_home_lifecycle() {
        let (mut xs, dom0, guest) = store_with_guest();
        xs.write_str(guest, "/local/domain/5/device/vif/0", "cfg")
            .unwrap();
        xs.remove_domain(dom0, guest).unwrap();
        assert!(xs.read_str(dom0, "/local/domain/5").is_err());
        // Idempotent.
        xs.remove_domain(dom0, guest).unwrap();
    }

    #[test]
    fn domain_home_is_one_put_owned_by_the_domain() {
        let (mut xs, dom0, _) = store_with_guest();
        let guest = DomId(6);
        let generation = xs.state().generation();
        xs.create_domain_home(dom0, guest).unwrap();
        assert_eq!(xs.state().generation(), generation + 1, "one Put");
        let home = xs.state().peek("/local/domain/6").unwrap();
        assert_eq!(home.perms, NodePerms::owner_only(guest));
        assert_eq!(xs.state().owner_counts().get(&guest), Some(&1));
        assert!(matches!(
            xs.create_domain_home(dom0, guest),
            Err(XsError::Exists(_))
        ));
    }

    #[test]
    fn per_request_restart_policy() {
        let (mut xs, dom0, guest) = store_with_guest();
        xs.set_per_request_restart(true);
        // Every wire request lands on a freshly rebooted Logic, yet the
        // store behaves identically.
        for i in 0..5 {
            let resp = xs.handle(
                guest,
                Request::Write {
                    txn: None,
                    path: format!("/local/domain/5/data/k{i}"),
                    value: vec![b'v'],
                },
            );
            assert!(matches!(resp, Response::Ok), "write {i}");
        }
        assert_eq!(xs.logic_restarts(), 5);
        // Watches survive every one of those restarts.
        xs.set_per_request_restart(false);
        xs.watch(dom0, "/local/domain/5", "tok").unwrap();
        let _ = xs.poll_watch(dom0);
        xs.set_per_request_restart(true);
        let resp = xs.handle(
            guest,
            Request::Write {
                txn: None,
                path: "/local/domain/5/data/z".into(),
                value: vec![],
            },
        );
        assert!(matches!(resp, Response::Ok));
        assert_eq!(xs.poll_watch(dom0).unwrap().token, "tok");
    }

    #[test]
    fn a_watch_rm_unwatch_cycle_frees_no_node_quota() {
        let mut xs = XenStore::with_quotas(Quotas {
            nodes: 4,
            ..Quotas::default()
        });
        let dom0 = DomId(0);
        let guest = DomId(5);
        xs.set_privileged(dom0, true);
        xs.create_domain_home(dom0, guest).unwrap();
        let mut written = 0;
        for i in 0..8 {
            let path = "/local/domain/5".to_string();
            let token = "cyc".to_string();
            let watch = Request::Watch {
                path: path.clone(),
                token: token.clone(),
            };
            assert!(matches!(xs.handle(guest, watch), Response::Ok));
            let rm = Request::Rm {
                txn: None,
                path: "/@watch/5/cyc".into(),
            };
            assert!(
                matches!(xs.handle(guest, rm), Response::Err(_)),
                "cycle {i}"
            );
            assert!(matches!(
                xs.handle(guest, Request::Unwatch { path, token }),
                Response::Ok
            ));
            let write = Request::Write {
                txn: None,
                path: format!("/local/domain/5/k{i}"),
                value: vec![],
            };
            if matches!(xs.handle(guest, write), Response::Ok) {
                written += 1;
            }
        }
        assert_eq!(written, 3, "the home and three nodes fill a quota of 4");
        assert_eq!(xs.state().owner_counts().get(&guest), Some(&4));
    }

    /// A store with a node quota of 4 and guest dom5's home, as wire
    /// requests see it.
    fn quota_of_four() -> (XenStore, DomId) {
        let mut xs = XenStore::with_quotas(Quotas {
            nodes: 4,
            ..Quotas::default()
        });
        let (dom0, guest) = (DomId(0), DomId(5));
        xs.set_privileged(dom0, true);
        xs.create_domain_home(dom0, guest).unwrap();
        (xs, guest)
    }

    /// Opens a transaction over the wire.
    fn txn_start(xs: &mut XenStore, dom: DomId) -> u32 {
        match xs.handle(dom, Request::TxnStart) {
            Response::Txn(t) => t,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn write(txn: Option<u32>, path: String) -> Request {
        Request::Write {
            txn,
            path,
            value: b"v".to_vec(),
        }
    }

    #[test]
    fn an_aborted_wire_rm_frees_no_quota() {
        let (mut xs, guest) = quota_of_four();
        let mut written = 0;
        for i in 0..20 {
            let resp = xs.handle(guest, write(None, format!("/local/domain/5/k{i}")));
            if matches!(resp, Response::Ok) {
                written += 1;
            }
            let t = txn_start(&mut xs, guest);
            let rm = Request::Rm {
                txn: Some(t),
                path: "/local/domain/5".into(),
            };
            assert!(matches!(xs.handle(guest, rm), Response::Ok));
            let abort = Request::TxnEnd {
                txn: t,
                commit: false,
            };
            assert!(matches!(xs.handle(guest, abort), Response::Ok));
        }
        assert_eq!(written, 3, "the home and three nodes fill a quota of 4");
        assert_eq!(xs.state().owner_counts().get(&guest), Some(&4));
    }

    #[test]
    fn an_aborted_wire_write_holds_no_quota() {
        let (mut xs, guest) = quota_of_four();
        for i in 0..3 {
            let t = txn_start(&mut xs, guest);
            let resp = xs.handle(guest, write(Some(t), format!("/local/domain/5/t{i}")));
            assert!(matches!(resp, Response::Ok));
            let abort = Request::TxnEnd {
                txn: t,
                commit: false,
            };
            assert!(matches!(xs.handle(guest, abort), Response::Ok));
        }
        for i in 0..3 {
            let resp = xs.handle(guest, write(None, format!("/local/domain/5/k{i}")));
            assert!(matches!(resp, Response::Ok), "write {i}: {resp:?}");
        }
        match xs.handle(guest, write(None, "/local/domain/5/k3".into())) {
            Response::Err(e) => assert!(e.starts_with("E2BIG"), "got {e}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn state_ops_counter_moves() {
        let (mut xs, dom0, _) = store_with_guest();
        let before = xs.state_ops();
        xs.write_str(dom0, "/tool/k", "v").unwrap();
        assert!(xs.state_ops() > before);
    }
}

#[cfg(test)]
mod wire_fuzz {
    use super::*;
    use xoar_sim::prop::Gen;
    use xoar_sim::prop::Runner;

    fn any_path(g: &mut Gen) -> String {
        let fixed = [
            "/",
            "/local/domain/5/name",
            "/local/domain/5/device/vif/0",
            "/tool/secret",
            "relative/garbage",
            "/bad path/with spaces",
            "/@watch/injection",
        ];
        let pick = g.usize(0..fixed.len() + 1);
        if pick < fixed.len() {
            fixed[pick].to_string()
        } else {
            // Random lowercase-and-slash soup, like the old `[a-z/]{0,40}`.
            g.vec(0..40, |g| {
                let c = g.u8(0..27);
                if c == 26 {
                    '/'
                } else {
                    (b'a' + c) as char
                }
            })
            .into_iter()
            .collect()
        }
    }

    fn token(g: &mut Gen) -> String {
        g.vec(0..8, |g| (b'a' + g.u8(0..26)) as char)
            .into_iter()
            .collect()
    }

    fn txn(g: &mut Gen) -> Option<u32> {
        if g.bool() {
            Some(g.u32(0..5))
        } else {
            None
        }
    }

    fn any_request(g: &mut Gen) -> Request {
        match g.u8(0..9) {
            0 => Request::Read {
                txn: txn(g),
                path: any_path(g),
            },
            1 => Request::Write {
                txn: txn(g),
                path: any_path(g),
                value: g.vec(0..16, |g| g.u64(0..256) as u8),
            },
            2 => Request::Mkdir {
                txn: txn(g),
                path: any_path(g),
            },
            3 => Request::Rm {
                txn: txn(g),
                path: any_path(g),
            },
            4 => Request::Directory {
                txn: txn(g),
                path: any_path(g),
            },
            5 => Request::Watch {
                path: any_path(g),
                token: token(g),
            },
            6 => Request::Unwatch {
                path: any_path(g),
                token: token(g),
            },
            7 => Request::TxnStart,
            _ => Request::TxnEnd {
                txn: g.u32(0..5),
                commit: g.bool(),
            },
        }
    }

    /// An arbitrarily hostile wire stream from an unprivileged guest
    /// never panics the store, never touches privileged paths, and
    /// always yields a well-formed response.
    #[test]
    fn hostile_wire_stream_is_harmless() {
        Runner::cases(64).run("hostile wire stream is harmless", |g| {
            let reqs = g.vec(1..60, any_request);
            let restart_every = g.usize(1..10);
            let mut xs = XenStore::new();
            let dom0 = DomId(0);
            let guest = DomId(5);
            xs.set_privileged(dom0, true);
            xs.create_domain_home(dom0, guest).unwrap();
            xs.write_str(dom0, "/tool/secret", "crown jewels").unwrap();
            for (i, req) in reqs.into_iter().enumerate() {
                let _resp = xs.handle(guest, req);
                if i % restart_every == 0 {
                    xs.restart_logic();
                }
            }
            // The privileged subtree is intact and unreadable to the guest.
            assert_eq!(xs.read_str(dom0, "/tool/secret").unwrap(), "crown jewels");
            assert!(xs.read_str(guest, "/tool/secret").is_err());
        });
    }
}
