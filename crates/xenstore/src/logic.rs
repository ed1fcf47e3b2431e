//! XenStore-Logic: the stateless, restartable half of the split store.
//!
//! Logic implements the full XenStore semantics — hierarchy, permission
//! checks, transactions, watches, quotas — but holds no durable state of
//! its own: every mutation is pushed through the narrow key-value protocol
//! to [`crate::state::XenStoreState`] before being acknowledged. Watch
//! *registrations* are journaled into State under the reserved
//! `/@watch/...` namespace, so a fresh Logic instance can rebuild its
//! registry with [`XenStoreLogic::recover`]; in-flight transactions and
//! undelivered watch events are deliberately lost on restart (§3.3: guest
//! protocols are designed to renegotiate).
//!
//! Because Logic is a pure function of (request, State), Xoar restarts it
//! "on each request" (Figure 5.1) without any visible state loss — the
//! property the `logic_restart` integration tests and the
//! `ablation_xenstore_split` bench exercise.

use std::collections::{BTreeMap, BTreeSet};

use xoar_hypervisor::fasthash::{FastMap, FastSet};
use xoar_hypervisor::DomId;

use crate::error::{XsError, XsResult};
use crate::path::{XsPath, PATH_MAX};
use crate::perm::NodePerms;
use crate::state::{KvReply, KvRequest, NodeRecord, XenStoreState};
use crate::watch::{WatchEvent, WatchRegistry};

/// Default per-domain node quota (the C xenstored ships 1000; the paper's
/// §4.4 cites DoS when "a single VM monopolizes these resources").
pub const DEFAULT_NODE_QUOTA: usize = 1000;

/// Default per-domain watch quota (xenstored ships 128).
pub const DEFAULT_WATCH_QUOTA: usize = 128;

/// Default per-domain concurrent-transaction quota (xenstored ships 10).
pub const DEFAULT_TXN_QUOTA: usize = 10;

/// Reserved State-key prefix for journaled watch registrations.
const WATCH_JOURNAL: &str = "/@watch";

/// The namespace reserved for Logic's own journal: no request writes,
/// removes or re-owns a node beneath it, or reads a subtree there.
const RESERVED: &str = "/@";

/// A node's value and permissions, as a subtree request lists them.
pub type NodeData = (Vec<u8>, NodePerms);

/// The keys of a subtree relative to its root, checked once.
///
/// A layout is what every request stamping the same shape of subtree
/// shares: [`XenStoreLogic::create_subtree`] takes one with a root and a
/// value and permissions per node, and builds each key as root + suffix.
/// The only constructor, [`SubtreeLayout::new`], applies the per-key
/// rules, and a layout is immutable, so a layout checked when it is
/// captured gives every later request the decision the per-key checks
/// would give it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubtreeLayout {
    /// The suffix of every node but the root, each after its parent.
    below: Vec<String>,
    /// The longest suffix's length.
    longest: usize,
}

impl SubtreeLayout {
    /// Checks a list of suffixes: the root is listed first, as `""`, and
    /// every other suffix is a normalised path (`/` and the path below
    /// the root), listed once, after its parent. So every key the layout
    /// names lies beneath its root, and no node is stored without its
    /// parent.
    pub fn new<S: Into<String>>(suffixes: impl IntoIterator<Item = S>) -> XsResult<Self> {
        let mut suffixes = suffixes.into_iter().map(Into::into);
        if suffixes.next().is_none_or(|root| !root.is_empty()) {
            return Err(XsError::Inval("a subtree lists its root first".into()));
        }
        let below: Vec<String> = suffixes.collect();
        let mut listed: FastSet<&str> = FastSet::default();
        listed.reserve(below.len());
        for suffix in &below {
            if suffix.is_empty() {
                return Err(XsError::Exists("the subtree's root".into()));
            }
            if suffix == "/" || !XsPath::is_normalised(suffix) {
                return Err(XsError::Inval(format!(
                    "{suffix} is not a path below the root"
                )));
            }
            let parent = parent_key(suffix).unwrap_or_default();
            if !(parent.is_empty() || listed.contains(parent)) {
                return Err(XsError::Inval(format!("{suffix} listed before its parent")));
            }
            if !listed.insert(suffix) {
                return Err(XsError::Exists(suffix.clone()));
            }
        }
        let longest = below.iter().map(String::len).max().unwrap_or(0);
        Ok(SubtreeLayout { below, longest })
    }

    /// The number of nodes, the root included.
    fn len(&self) -> usize {
        self.below.len() + 1
    }

    /// Every node's suffix, the root's `""` first.
    pub fn suffixes(&self) -> impl Iterator<Item = &str> {
        std::iter::once("").chain(self.below.iter().map(String::as_str))
    }
}

/// An in-flight transaction.
#[derive(Debug, Clone)]
struct Txn {
    dom: DomId,
    base_generation: u64,
    /// Overlay writes: `None` means deleted within the transaction.
    writes: BTreeMap<String, Option<NodeRecord>>,
    /// Every key the transaction read or wrote, with the generation State
    /// held for it when the transaction first touched it (`None`:
    /// absent). A commit conflicts if any of them has changed since.
    seen: BTreeMap<String, Option<u64>>,
}

impl Txn {
    /// Records the generation State holds for `key` now, unless the
    /// transaction touched it before.
    fn see(&mut self, key: &str, generation: Option<u64>) {
        if !self.seen.contains_key(key) {
            self.seen.insert(key.to_string(), generation);
        }
    }
}

/// Quota configuration.
#[derive(Debug, Clone, Copy)]
pub struct Quotas {
    /// Maximum nodes owned per domain.
    pub nodes: usize,
    /// Maximum watches per domain.
    pub watches: usize,
    /// Maximum concurrent transactions per domain.
    pub transactions: usize,
}

impl Default for Quotas {
    fn default() -> Self {
        Quotas {
            nodes: DEFAULT_NODE_QUOTA,
            watches: DEFAULT_WATCH_QUOTA,
            transactions: DEFAULT_TXN_QUOTA,
        }
    }
}

/// The Logic component.
#[derive(Debug)]
pub struct XenStoreLogic {
    watches: WatchRegistry,
    txns: FastMap<u32, Txn>,
    next_txn: u32,
    privileged: BTreeSet<DomId>,
    quotas: Quotas,
    /// Count of requests processed since the last restart.
    requests_this_epoch: u64,
    /// Number of times this Logic has been restarted.
    pub restarts: u64,
}

impl XenStoreLogic {
    /// Creates a fresh Logic with default quotas.
    pub fn new() -> Self {
        XenStoreLogic {
            watches: WatchRegistry::new(),
            txns: FastMap::default(),
            next_txn: 1,
            privileged: BTreeSet::new(),
            quotas: Quotas::default(),
            requests_this_epoch: 0,
            restarts: 0,
        }
    }

    /// Creates a Logic with explicit quotas.
    pub fn with_quotas(quotas: Quotas) -> Self {
        XenStoreLogic {
            quotas,
            ..Self::new()
        }
    }

    /// Marks a domain's connection as privileged (bypasses ACLs).
    ///
    /// Stock Xen grants this to Dom0; Xoar to the Toolstack and Builder
    /// shards only.
    pub fn set_privileged(&mut self, dom: DomId, privileged: bool) {
        if privileged {
            self.privileged.insert(dom);
        } else {
            self.privileged.remove(&dom);
        }
    }

    /// Whether `dom` has a privileged connection.
    pub fn is_privileged(&self, dom: DomId) -> bool {
        self.privileged.contains(&dom)
    }

    /// All domains holding privileged connections, in ascending order
    /// (audit/analysis surface: these are the ACL-bypass principals).
    pub fn privileged_domains(&self) -> Vec<DomId> {
        self.privileged.iter().copied().collect()
    }

    /// Simulates a microreboot of Logic: all volatile state is discarded
    /// in place (keeping the map/registry allocations — this is the
    /// Figure 5.1 per-request fast path, so a restart must not pay a
    /// round of reallocation) and then recovered from State's
    /// incrementally-maintained indexes. Privileged-connection marks
    /// survive: they come from the boot configuration, not the store.
    pub fn restart(&mut self, state: &XenStoreState) {
        self.watches.clear();
        self.txns.clear();
        self.next_txn = 1;
        self.requests_this_epoch = 0;
        self.restarts += 1;
        self.recover(state);
    }

    /// Rebuilds watch registrations from State, the only thing Logic
    /// keeps between requests: node quotas are read from State's owner
    /// index when checked. Journaled watches are read by reference from
    /// the `/@watch/...` range, so recovery performs no per-key protocol
    /// round trips and clones no record values.
    pub fn recover(&mut self, state: &XenStoreState) {
        // Registered without the synthetic initial fire — the watcher
        // already received it when it registered.
        for (_key, rec) in state.entries_under(WATCH_JOURNAL) {
            if let Ok(journal) = std::str::from_utf8(&rec.value) {
                if let Some((dom, path, token)) = parse_watch_journal(journal) {
                    if let Ok(p) = XsPath::parse(path) {
                        self.watches.register_recovered(dom, p, token.to_string());
                    }
                }
            }
        }
    }

    // ----- helpers -----

    /// Resolves `key` in the view of transaction `txn` (its overlay over
    /// State, or State alone outside one), recording the generation State
    /// answered with for conflict detection. A key in the overlay was
    /// recorded when it was written. State answers through the counted
    /// narrow protocol and lends the record: nothing is cloned.
    fn txn_read<'a>(
        txns: &'a mut FastMap<u32, Txn>,
        state: &'a mut XenStoreState,
        txn: Option<u32>,
        key: &str,
    ) -> XsResult<Option<&'a NodeRecord>> {
        let Some(id) = txn else {
            return Ok(state.get(key));
        };
        let t = txns.get_mut(&id).ok_or(XsError::BadTxn(id))?;
        if t.writes.contains_key(key) {
            return Ok(t.writes.get(key).and_then(Option::as_ref));
        }
        let rec = state.get(key);
        t.see(key, rec.map(|r| r.generation));
        Ok(rec)
    }

    /// Refuses `more` nodes for `dom` past its node quota, counting the
    /// nodes it owns in the view of `txn` (see [`owned_nodes`]).
    /// Privileged connections have no node quota.
    fn check_node_quota(
        &self,
        state: &XenStoreState,
        txn: Option<&Txn>,
        dom: DomId,
        more: usize,
    ) -> XsResult<()> {
        if self.is_privileged(dom) || owned_nodes(state, txn, dom) + more <= self.quotas.nodes {
            return Ok(());
        }
        Err(XsError::Quota("nodes"))
    }

    // ----- the wire operations -----

    /// Reads a node's value.
    pub fn read(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        txn: Option<u32>,
        path: &XsPath,
    ) -> XsResult<Vec<u8>> {
        self.requests_this_epoch += 1;
        let privileged = self.is_privileged(dom);
        let rec = Self::txn_read(&mut self.txns, state, txn, path.as_str())?
            .ok_or_else(|| XsError::NoEnt(path.to_string()))?;
        if !(privileged || rec.perms.can_read(dom)) {
            return Err(acc(dom, path));
        }
        Ok(rec.value.clone())
    }

    /// Writes a node, creating it (and missing ancestors) if necessary.
    ///
    /// Creating a node requires write permission on the nearest existing
    /// ancestor; modifying one requires write permission on the node.
    pub fn write(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        txn: Option<u32>,
        path: &XsPath,
        value: &[u8],
    ) -> XsResult<()> {
        self.requests_this_epoch += 1;
        let key = path.as_str();
        refuse_reserved(key)?;
        let privileged = self.is_privileged(dom);
        if let Some(rec) = Self::txn_read(&mut self.txns, state, txn, key)? {
            if !(privileged || rec.perms.can_write(dom)) {
                return Err(acc(dom, path));
            }
            if txn.is_some() {
                let rec = NodeRecord {
                    value: value.to_vec(),
                    perms: rec.perms.clone(),
                    generation: rec.generation,
                };
                self.apply_write(state, txn, key.to_string(), Some(rec))?;
            } else {
                state.update(key, |rec| {
                    rec.value.clear();
                    rec.value.extend_from_slice(value);
                });
            }
        } else {
            // Everything below the nearest existing ancestor is missing:
            // create it root-first, then the node, each owned by the
            // writer and checked against its quota as it is created.
            let base = self.nearest_existing(state, txn, dom, path)?;
            let ends = key[base + 1..]
                .match_indices('/')
                .map(|(i, _)| base + 1 + i)
                .chain([key.len()]);
            for end in ends {
                let open = txn.and_then(|id| self.txns.get(&id));
                self.check_node_quota(state, open, dom, 1)?;
                let rec = NodeRecord {
                    value: if end == key.len() {
                        value.to_vec()
                    } else {
                        Vec::new()
                    },
                    perms: NodePerms::owner_only(dom),
                    generation: 0,
                };
                self.apply_write(state, txn, key[..end].to_string(), Some(rec))?;
            }
        }
        if txn.is_none() {
            self.watches.fire(path.as_str());
        }
        Ok(())
    }

    /// Creates a whole subtree in one request: the node at `root` +
    /// suffix for each suffix of `layout`, with the value and permissions
    /// `nodes` lists in the same order.
    ///
    /// The layout was checked when it was built (see
    /// [`SubtreeLayout::new`]), so every key lies beneath the root and
    /// follows its parent. Every check of the request runs before the
    /// first Put, and a refusal leaves the store unchanged:
    /// - the root lies outside the reserved `/@` namespace, is not `/`,
    ///   and does not exist; its nearest existing ancestor grants `dom`
    ///   write access (the create rule of [`Self::write`]);
    /// - `nodes` has one entry per node of the layout, and the root plus
    ///   the layout's longest suffix fits in [`PATH_MAX`];
    /// - an unprivileged caller lists only nodes it owns (the rule of
    ///   [`Self::set_perms`]), and its quota covers them plus any missing
    ///   ancestors of the root.
    ///
    /// No listed node can exist: the root does not, and every stored
    /// node's parent is stored. Missing ancestors of the root are created
    /// first, as `write` creates them. Each node is then one counted Put
    /// and one watch fire with its own path. A node handed to another
    /// owner counts toward that owner's quota, as after `set_perms`.
    pub fn create_subtree(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        root: &XsPath,
        layout: &SubtreeLayout,
        nodes: Vec<NodeData>,
    ) -> XsResult<()> {
        self.requests_this_epoch += 1;
        let root_key = root.as_str();
        refuse_reserved(root_key)?;
        if root_key == "/" {
            return Err(XsError::Exists(root_key.into()));
        }
        if nodes.len() != layout.len() {
            return Err(XsError::Inval(format!(
                "{} nodes for a layout of {}",
                nodes.len(),
                layout.len()
            )));
        }
        if root_key.len() + layout.longest > PATH_MAX {
            return Err(XsError::Inval(format!("a key under {root} is too long")));
        }
        let privileged = self.is_privileged(dom);
        if !privileged {
            if let Some((suffix, _)) = layout
                .suffixes()
                .zip(&nodes)
                .find(|(_, (_, perms))| perms.owner != dom)
            {
                return Err(XsError::Acc {
                    caller: dom,
                    path: format!("{root_key}{suffix}"),
                });
            }
        }
        let owned = nodes.iter().filter(|(_, perms)| perms.owner == dom).count();
        if state.get(root_key).is_some() {
            return Err(XsError::Exists(root.to_string()));
        }
        let base = self.nearest_existing(state, None, dom, root)?;
        let ancestors = root_key[base + 1..]
            .match_indices('/')
            .map(|(i, _)| base + 1 + i);
        self.check_node_quota(state, None, dom, owned + ancestors.clone().count())?;
        for end in ancestors {
            self.watches.fire(&root_key[..end]);
            let rec = NodeRecord {
                value: Vec::new(),
                perms: NodePerms::owner_only(dom),
                generation: 0,
            };
            state.serve(KvRequest::Put(root_key[..end].to_string(), rec));
        }
        for (suffix, (value, perms)) in layout.suffixes().zip(nodes) {
            let mut key = String::with_capacity(root_key.len() + suffix.len());
            key.push_str(root_key);
            key.push_str(suffix);
            self.watches.fire(&key);
            let rec = NodeRecord {
                value,
                perms,
                generation: 0,
            };
            state.serve(KvRequest::Put(key, rec));
        }
        Ok(())
    }

    /// Reads a whole subtree in one range pass over State: `root` and
    /// every node beneath it, in key order (each parent before its
    /// children), as the layout and nodes [`Self::create_subtree`] takes.
    /// The root is not `/`, and every node must be readable by `dom`.
    pub fn read_subtree(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        root: &XsPath,
    ) -> XsResult<(SubtreeLayout, Vec<NodeData>)> {
        self.requests_this_epoch += 1;
        let root_key = root.as_str();
        refuse_reserved(root_key)?;
        if root_key == "/" {
            return Err(XsError::Inval("the whole store is not a subtree".into()));
        }
        let privileged = self.is_privileged(dom);
        let mut suffixes = Vec::new();
        let mut nodes = Vec::new();
        for (key, rec) in state.subtree(root_key) {
            if !(privileged || rec.perms.can_read(dom)) {
                return Err(XsError::Acc {
                    caller: dom,
                    path: key.clone(),
                });
            }
            suffixes.push(&key[root_key.len()..]);
            nodes.push((rec.value.clone(), rec.perms.clone()));
        }
        if suffixes.first() != Some(&"") {
            return Err(XsError::NoEnt(root.to_string()));
        }
        Ok((SubtreeLayout::new(suffixes)?, nodes))
    }

    /// The one upward walk of a create: from `path`'s parent to the
    /// nearest existing node, which must grant `dom` write access (the
    /// root is writable only by privileged connections). Returns that
    /// node's length as a prefix of `path`, 0 for the root.
    ///
    /// Stopping at the first node found is exact because every stored
    /// node's parent is stored: `write` creates ancestors root-first,
    /// `rm` removes whole subtrees, and a commit that would orphan a node
    /// is refused (see [`Self::txn_end`]).
    fn nearest_existing(
        &mut self,
        state: &mut XenStoreState,
        txn: Option<u32>,
        dom: DomId,
        path: &XsPath,
    ) -> XsResult<usize> {
        let key = path.as_str();
        let privileged = self.is_privileged(dom);
        let mut end = key.len();
        while let Some(i) = key[..end].rfind('/').filter(|&i| i > 0) {
            if let Some(rec) = Self::txn_read(&mut self.txns, state, txn, &key[..i])? {
                if !(privileged || rec.perms.can_write(dom)) {
                    return Err(acc(dom, path));
                }
                // A transaction still depends on the ancestors above,
                // which it never needed to look up.
                if let Some(t) = txn.and_then(|id| self.txns.get_mut(&id)) {
                    for (j, _) in key[1..i].match_indices('/') {
                        let above = &key[..j + 1];
                        t.see(above, state.peek(above).map(|r| r.generation));
                    }
                }
                return Ok(i);
            }
            end = i;
        }
        if privileged {
            Ok(0)
        } else {
            Err(acc(dom, path))
        }
    }

    fn apply_write(
        &mut self,
        state: &mut XenStoreState,
        txn: Option<u32>,
        key: String,
        rec: Option<NodeRecord>,
    ) -> XsResult<()> {
        if let Some(id) = txn {
            let t = self.txns.get_mut(&id).ok_or(XsError::BadTxn(id))?;
            t.see(&key, state.peek(&key).map(|r| r.generation));
            t.writes.insert(key, rec);
        } else {
            match rec {
                Some(r) => {
                    state.serve(KvRequest::Put(key, r));
                }
                None => {
                    state.serve(KvRequest::Delete(key));
                }
            }
        }
        Ok(())
    }

    /// Creates an empty node (like `write` with an empty value but failing
    /// with `EEXIST` semantics avoided: mkdir of an existing dir is a
    /// no-op, as in xenstored).
    pub fn mkdir(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        txn: Option<u32>,
        path: &XsPath,
    ) -> XsResult<()> {
        if Self::txn_read(&mut self.txns, state, txn, path.as_str())?.is_some() {
            return Ok(());
        }
        self.write(state, dom, txn, path, b"")
    }

    /// Removes a node and its whole subtree.
    pub fn rm(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        txn: Option<u32>,
        path: &XsPath,
    ) -> XsResult<()> {
        self.requests_this_epoch += 1;
        refuse_reserved(path.as_str())?;
        let privileged = self.is_privileged(dom);
        let rec = Self::txn_read(&mut self.txns, state, txn, path.as_str())?
            .ok_or_else(|| XsError::NoEnt(path.to_string()))?;
        if !(privileged || rec.perms.can_write(dom)) {
            return Err(acc(dom, path));
        }
        let Some(id) = txn else {
            state.remove_subtree(path.as_str());
            self.watches.fire(path.as_str());
            return Ok(());
        };
        // Collect subtree keys from State plus transaction overlay.
        let mut keys: BTreeSet<String> =
            match state.serve(KvRequest::ListSubtree(path.as_str().to_string())) {
                KvReply::Keys(k) => k.into_iter().collect(),
                _ => BTreeSet::new(),
            };
        let t = self.txns.get(&id).ok_or(XsError::BadTxn(id))?;
        for (k, v) in &t.writes {
            let kp = XsPath::parse(k).map_err(|_| XsError::Inval(k.clone()))?;
            if kp.starts_with(path) {
                if v.is_some() {
                    keys.insert(k.clone());
                } else {
                    keys.remove(k);
                }
            }
        }
        for key in keys {
            self.apply_write(state, txn, key, None)?;
        }
        Ok(())
    }

    /// Lists the immediate children of a node.
    pub fn directory(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        txn: Option<u32>,
        path: &XsPath,
    ) -> XsResult<Vec<String>> {
        self.requests_this_epoch += 1;
        if path.as_str() != "/" {
            let privileged = self.is_privileged(dom);
            let rec = Self::txn_read(&mut self.txns, state, txn, path.as_str())?
                .ok_or_else(|| XsError::NoEnt(path.to_string()))?;
            if !(privileged || rec.perms.can_read(dom)) {
                return Err(acc(dom, path));
            }
        }
        let mut keys: BTreeSet<String> =
            match state.serve(KvRequest::ListSubtree(path.as_str().to_string())) {
                KvReply::Keys(k) => k.into_iter().collect(),
                _ => BTreeSet::new(),
            };
        if let Some(id) = txn {
            let t = self.txns.get(&id).ok_or(XsError::BadTxn(id))?;
            for (k, v) in &t.writes {
                if v.is_some() {
                    keys.insert(k.clone());
                } else {
                    keys.remove(k);
                }
            }
        }
        let prefix = if path.as_str() == "/" {
            "/".to_string()
        } else {
            format!("{}/", path.as_str())
        };
        let mut children: Vec<String> = keys
            .iter()
            .filter(|k| k.starts_with(&prefix) && **k != *path.as_str())
            .filter(|k| !k.starts_with(WATCH_JOURNAL))
            .filter_map(|k| k[prefix.len()..].split('/').next().map(str::to_string))
            .collect();
        children.dedup();
        Ok(children)
    }

    /// Reads a node's permissions.
    pub fn get_perms(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        path: &XsPath,
    ) -> XsResult<NodePerms> {
        let privileged = self.is_privileged(dom);
        let rec = state
            .get(path.as_str())
            .ok_or_else(|| XsError::NoEnt(path.to_string()))?;
        if !(privileged || rec.perms.can_read(dom)) {
            return Err(acc(dom, path));
        }
        Ok(rec.perms.clone())
    }

    /// Replaces a node's permissions; only the owner or a privileged
    /// connection may do so.
    pub fn set_perms(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        path: &XsPath,
        perms: NodePerms,
    ) -> XsResult<()> {
        refuse_reserved(path.as_str())?;
        let privileged = self.is_privileged(dom);
        let rec = state
            .get(path.as_str())
            .ok_or_else(|| XsError::NoEnt(path.to_string()))?;
        if rec.perms.owner != dom && !privileged {
            return Err(acc(dom, path));
        }
        state.update(path.as_str(), |rec| rec.perms = perms);
        self.watches.fire(path.as_str());
        Ok(())
    }

    // ----- watches -----

    /// Registers a watch and journals it into State so it survives Logic
    /// restarts. Fires the synthetic initial event.
    pub fn watch(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        path: &XsPath,
        token: &str,
    ) -> XsResult<()> {
        self.requests_this_epoch += 1;
        if !self.is_privileged(dom) && self.watches.count_for(dom) >= self.quotas.watches {
            return Err(XsError::Quota("watches"));
        }
        if !self.watches.register(dom, path.clone(), token.to_string()) {
            return Err(XsError::Exists(path.to_string()));
        }
        let key = format!("{WATCH_JOURNAL}/{}/{}", dom.0, sanitize_token(token));
        state.serve(KvRequest::Put(
            key,
            NodeRecord {
                value: format!("{}|{}|{}", dom.0, path.as_str(), token).into_bytes(),
                perms: NodePerms::owner_only(dom),
                generation: 0,
            },
        ));
        Ok(())
    }

    /// Unregisters a watch and removes its journal entry.
    pub fn unwatch(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        path: &XsPath,
        token: &str,
    ) -> XsResult<()> {
        if !self.watches.unregister(dom, path, token) {
            return Err(XsError::NoEnt(format!("watch {path}")));
        }
        let key = format!("{WATCH_JOURNAL}/{}/{}", dom.0, sanitize_token(token));
        state.serve(KvRequest::Delete(key));
        Ok(())
    }

    /// Dequeues the next watch event for `dom`.
    pub fn poll_watch(&mut self, dom: DomId) -> Option<WatchEvent> {
        self.watches.poll(dom)
    }

    // ----- transactions -----

    /// Starts a transaction.
    pub fn txn_start(&mut self, state: &mut XenStoreState, dom: DomId) -> XsResult<u32> {
        let open = self.txns.values().filter(|t| t.dom == dom).count();
        if !self.is_privileged(dom) && open >= self.quotas.transactions {
            return Err(XsError::Quota("transactions"));
        }
        let base = match state.serve(KvRequest::Generation) {
            KvReply::Generation(g) => g,
            _ => 0,
        };
        let id = self.next_txn;
        self.next_txn += 1;
        self.txns.insert(
            id,
            Txn {
                dom,
                base_generation: base,
                writes: BTreeMap::new(),
                seen: BTreeMap::new(),
            },
        );
        Ok(id)
    }

    /// Ends a transaction. With `commit == false` the overlay is simply
    /// discarded; with `commit == true` the overlay is applied atomically
    /// unless any key read or written has changed since the transaction
    /// started (written, created or removed), in which case
    /// [`XsError::Again`] is returned and the caller retries (the classic
    /// XenStore EAGAIN loop).
    pub fn txn_end(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        id: u32,
        commit: bool,
    ) -> XsResult<()> {
        let txn = self.txns.remove(&id).ok_or(XsError::BadTxn(id))?;
        if txn.dom != dom {
            self.txns.insert(id, txn);
            return Err(XsError::Acc {
                caller: dom,
                path: format!("transaction {id}"),
            });
        }
        if !commit {
            return Ok(());
        }
        // Conflict detection: a touched key mutated after the base, or
        // created or removed since the transaction first touched it.
        for (key, &seen) in &txn.seen {
            let now = state.get(key).map(|rec| rec.generation);
            if now != seen || now.is_some_and(|g| g > txn.base_generation) {
                return Err(XsError::Again);
            }
        }
        // The check above sees only the keys the transaction touched, so
        // not a child created under a node this transaction removes since
        // it started. That would leave a stored node without its parent:
        // retry instead. A parent removed since is checked here too.
        for (key, rec) in &txn.writes {
            let deleted_in_txn = |k: &str| matches!(txn.writes.get(k), Some(None));
            let orphans = match (rec, parent_key(key)) {
                (Some(_), Some(parent)) => match txn.writes.get(parent) {
                    Some(overlay) => overlay.is_none(),
                    None => state.get(parent).is_none(),
                },
                (Some(_), None) => false,
                // A subtree root: every stored node beneath it must go too.
                (None, parent) if !parent.is_some_and(deleted_in_txn) => {
                    match state.serve(KvRequest::ListSubtree(key.clone())) {
                        KvReply::Keys(keys) => keys.iter().any(|k| !txn.writes.contains_key(k)),
                        _ => false,
                    }
                }
                (None, _) => false,
            };
            if orphans {
                return Err(XsError::Again);
            }
        }
        // The quota again, against State as the commit finds it: nodes
        // written outside the transaction since it started count too.
        self.check_node_quota(state, Some(&txn), dom, 0)?;
        // Apply and fire.
        for (key, rec) in txn.writes {
            self.watches.fire(&key);
            match rec {
                Some(r) => {
                    state.serve(KvRequest::Put(key, r));
                }
                None => {
                    state.serve(KvRequest::Delete(key));
                }
            }
        }
        Ok(())
    }

    /// Number of open transactions.
    pub fn open_txns(&self) -> usize {
        self.txns.len()
    }

    /// Requests processed since the last restart.
    pub fn requests_this_epoch(&self) -> u64 {
        self.requests_this_epoch
    }

    /// Drops every watch, pending event, and open transaction of a domain.
    pub fn remove_domain(&mut self, state: &mut XenStoreState, dom: DomId) {
        self.watches.remove_domain(dom);
        self.txns.retain(|_, t| t.dom != dom);
        state.remove_subtree(&format!("{WATCH_JOURNAL}/{}", dom.0));
    }
}

impl Default for XenStoreLogic {
    fn default() -> Self {
        Self::new()
    }
}

/// The permission error for `dom` on `path`.
fn acc(dom: DomId, path: &XsPath) -> XsError {
    XsError::Acc {
        caller: dom,
        path: path.to_string(),
    }
}

/// Refuses a key in the reserved `/@` namespace. Its records are Logic's
/// journal and count toward no quota, so removing one would drop a
/// registered watch.
fn refuse_reserved(key: &str) -> XsResult<()> {
    if key.starts_with(RESERVED) {
        return Err(XsError::Inval("reserved namespace".into()));
    }
    Ok(())
}

/// The nodes `dom` owns in the view of `txn`: State's owner index, plus
/// each node the overlay gives `dom`, less each one it takes away. The
/// overlay is compared with State as it is now, so at commit this is the
/// count the commit would leave.
fn owned_nodes(state: &XenStoreState, txn: Option<&Txn>, dom: DomId) -> usize {
    let stored = state.owner_counts().get(&dom).map_or(0, |&n| n as usize);
    let owns = |rec: Option<&NodeRecord>| usize::from(rec.is_some_and(|r| r.perms.owner == dom));
    txn.map_or(stored, |t| {
        (t.writes.iter())
            .filter(|(key, _)| !key.starts_with(RESERVED))
            .fold(stored, |n, (key, overlay)| {
                n + owns(overlay.as_ref()) - owns(state.peek(key))
            })
    })
}

/// The parent of a stored key, or `None` under the root.
fn parent_key(key: &str) -> Option<&str> {
    key.rfind('/').filter(|&i| i > 0).map(|i| &key[..i])
}

fn sanitize_token(token: &str) -> String {
    token
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Splits a `dom|path|token` journal value into borrowed pieces (the
/// caller decides what it needs to own — restart-path clone burndown).
fn parse_watch_journal(s: &str) -> Option<(DomId, &str, &str)> {
    let mut it = s.splitn(3, '|');
    let dom: u32 = it.next()?.parse().ok()?;
    let path = it.next()?;
    let token = it.next()?;
    Some((DomId(dom), path, token))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> XsPath {
        XsPath::parse(s).unwrap()
    }

    /// The nodes `dom` owns, by State's owner index.
    fn owned(s: &XenStoreState, dom: DomId) -> usize {
        s.owner_counts().get(&dom).map_or(0, |&n| n as usize)
    }

    /// A Logic with dom0 privileged and a guest dom7, plus a State.
    fn setup() -> (XenStoreLogic, XenStoreState, DomId, DomId) {
        let mut logic = XenStoreLogic::new();
        let mut state = XenStoreState::new();
        let dom0 = DomId(0);
        let guest = DomId(7);
        logic.set_privileged(dom0, true);
        // Give the guest its home directory, as the toolstack does.
        logic
            .write(&mut state, dom0, None, &p("/local/domain/7"), b"")
            .unwrap();
        let mut perms = NodePerms::owner_only(guest);
        perms.owner = guest;
        logic
            .set_perms(&mut state, dom0, &p("/local/domain/7"), perms)
            .unwrap();
        (logic, state, dom0, guest)
    }

    #[test]
    fn read_write_with_permissions() {
        let (mut l, mut s, dom0, guest) = setup();
        l.write(
            &mut s,
            guest,
            None,
            &p("/local/domain/7/name"),
            b"web-frontend",
        )
        .unwrap();
        assert_eq!(
            l.read(&mut s, guest, None, &p("/local/domain/7/name"))
                .unwrap(),
            b"web-frontend"
        );
        // Privileged reads anything.
        assert_eq!(
            l.read(&mut s, dom0, None, &p("/local/domain/7/name"))
                .unwrap(),
            b"web-frontend"
        );
        // Another guest cannot.
        let other = DomId(9);
        assert!(matches!(
            l.read(&mut s, other, None, &p("/local/domain/7/name")),
            Err(XsError::Acc { .. })
        ));
    }

    #[test]
    fn guest_cannot_write_outside_its_home() {
        let (mut l, mut s, _dom0, guest) = setup();
        assert!(matches!(
            l.write(&mut s, guest, None, &p("/tool/secret"), b"x"),
            Err(XsError::Acc { .. })
        ));
        assert!(matches!(
            l.write(&mut s, guest, None, &p("/local/domain/8/evil"), b"x"),
            Err(XsError::Acc { .. })
        ));
    }

    #[test]
    fn missing_node_is_noent() {
        let (mut l, mut s, dom0, _) = setup();
        assert!(matches!(
            l.read(&mut s, dom0, None, &p("/nothing")),
            Err(XsError::NoEnt(_))
        ));
        assert!(matches!(
            l.rm(&mut s, dom0, None, &p("/nothing")),
            Err(XsError::NoEnt(_))
        ));
    }

    #[test]
    fn write_creates_ancestors_owned_by_writer() {
        let (mut l, mut s, _dom0, guest) = setup();
        l.write(
            &mut s,
            guest,
            None,
            &p("/local/domain/7/device/vif/0/mac"),
            b"00:16:3e",
        )
        .unwrap();
        let perms = l
            .get_perms(&mut s, guest, &p("/local/domain/7/device/vif"))
            .unwrap();
        assert_eq!(perms.owner, guest);
        // 4 new nodes: device, vif, 0, mac.
        assert_eq!(owned(&s, guest), 1 + 4, "home dir + four created nodes");
    }

    fn generation_of(s: &XenStoreState, key: &str) -> u64 {
        s.peek(key).expect("node present").generation
    }

    #[test]
    fn deep_write_creates_exactly_the_missing_ancestors_root_first() {
        let (mut l, mut s, _dom0, guest) = setup();
        l.write(&mut s, guest, None, &p("/local/domain/7/device"), b"d")
            .unwrap();
        let home_gen = generation_of(&s, "/local/domain/7");
        let device_gen = generation_of(&s, "/local/domain/7/device");
        let (count, gen) = (owned(&s, guest), s.generation());
        let leaf = "/local/domain/7/device/vif/0/backend/state";
        l.write(&mut s, guest, None, &p(leaf), b"4").unwrap();
        // Existing ancestors are untouched: no Put, same generation.
        assert_eq!(generation_of(&s, "/local/domain/7"), home_gen);
        assert_eq!(generation_of(&s, "/local/domain/7/device"), device_gen);
        // Exactly the four missing nodes were Put, root-first, each owned
        // by and charged to the writer.
        let created = [
            "/local/domain/7/device/vif",
            "/local/domain/7/device/vif/0",
            "/local/domain/7/device/vif/0/backend",
            leaf,
        ];
        for (i, key) in created.iter().enumerate() {
            let rec = s.peek(key).unwrap();
            assert_eq!(rec.generation, gen + 1 + i as u64, "{key} Put in order");
            assert_eq!(rec.perms, NodePerms::owner_only(guest));
            let want: &[u8] = if *key == leaf { b"4" } else { b"" };
            assert_eq!(rec.value, want);
        }
        assert_eq!(s.generation(), gen + 4, "one Put per created node");
        assert_eq!(owned(&s, guest), count + 4);
    }

    #[test]
    fn deep_write_checks_the_nearest_existing_ancestor() {
        let (mut l, mut s, dom0, guest) = setup();
        // A dom0-owned node inside the guest's home: the guest may not
        // create beneath it, although the home above it is its own.
        l.write(&mut s, dom0, None, &p("/local/domain/7/ro"), b"")
            .unwrap();
        let gen = s.generation();
        assert!(matches!(
            l.write(&mut s, guest, None, &p("/local/domain/7/ro/a/b"), b"x"),
            Err(XsError::Acc { caller, ref path })
                if caller == guest && path == "/local/domain/7/ro/a/b"
        ));
        assert_eq!(s.generation(), gen, "a denied write Puts nothing");
        assert!(s.peek("/local/domain/7/ro/a").is_none());
        // A node that grants the guest write access lets it create
        // beneath, even though everything above is closed to it.
        l.write(&mut s, dom0, None, &p("/shared/open"), b"")
            .unwrap();
        let mut perms = NodePerms::owner_only(dom0);
        perms.default = crate::perm::PermLevel::Write;
        l.set_perms(&mut s, dom0, &p("/shared/open"), perms)
            .unwrap();
        l.write(&mut s, guest, None, &p("/shared/open/a/b"), b"x")
            .unwrap();
        assert_eq!(
            s.peek("/shared/open/a").unwrap().perms,
            NodePerms::owner_only(guest)
        );
        // With no existing ancestor below the root, only privileged
        // connections may create.
        assert!(matches!(
            l.write(&mut s, guest, None, &p("/fresh/a/b"), b"x"),
            Err(XsError::Acc { .. })
        ));
        assert!(s.peek("/fresh").is_none());
    }

    #[test]
    fn deep_write_over_quota_keeps_the_ancestors_charged_so_far() {
        let mut l = XenStoreLogic::with_quotas(Quotas {
            nodes: 3,
            ..Quotas::default()
        });
        let mut s = XenStoreState::new();
        let (dom0, guest) = (DomId(0), DomId(7));
        l.set_privileged(dom0, true);
        l.write(&mut s, dom0, None, &p("/g"), b"").unwrap();
        l.set_perms(&mut s, dom0, &p("/g"), NodePerms::owner_only(guest))
            .unwrap();
        assert_eq!(owned(&s, guest), 1);
        // Home + two ancestors fill the quota; the third charge fails
        // after the first two were created, as node-by-node charging has
        // always done.
        assert!(matches!(
            l.write(&mut s, guest, None, &p("/g/a/b/c/d"), b"v"),
            Err(XsError::Quota("nodes"))
        ));
        assert!(s.peek("/g/a").is_some() && s.peek("/g/a/b").is_some());
        assert!(s.peek("/g/a/b/c").is_none());
        assert_eq!(owned(&s, guest), 3);
    }

    #[test]
    fn rm_removes_subtree_and_its_owned_nodes() {
        let (mut l, mut s, _dom0, guest) = setup();
        l.write(
            &mut s,
            guest,
            None,
            &p("/local/domain/7/device/vif/0/mac"),
            b"m",
        )
        .unwrap();
        let before = owned(&s, guest);
        l.rm(&mut s, guest, None, &p("/local/domain/7/device"))
            .unwrap();
        assert_eq!(owned(&s, guest), before - 4);
        assert!(matches!(
            l.read(&mut s, guest, None, &p("/local/domain/7/device/vif/0/mac")),
            Err(XsError::NoEnt(_))
        ));
    }

    #[test]
    fn directory_lists_immediate_children() {
        let (mut l, mut s, _dom0, guest) = setup();
        l.write(&mut s, guest, None, &p("/local/domain/7/device/vif/0"), b"")
            .unwrap();
        l.write(&mut s, guest, None, &p("/local/domain/7/device/vbd/0"), b"")
            .unwrap();
        l.write(&mut s, guest, None, &p("/local/domain/7/name"), b"n")
            .unwrap();
        let dir = l
            .directory(&mut s, guest, None, &p("/local/domain/7"))
            .unwrap();
        assert_eq!(dir, vec!["device", "name"]);
        let dir = l
            .directory(&mut s, guest, None, &p("/local/domain/7/device"))
            .unwrap();
        assert_eq!(dir, vec!["vbd", "vif"]);
    }

    #[test]
    fn node_quota_enforced() {
        let mut l = XenStoreLogic::with_quotas(Quotas {
            nodes: 5,
            ..Quotas::default()
        });
        let mut s = XenStoreState::new();
        let dom0 = DomId(0);
        let guest = DomId(7);
        l.set_privileged(dom0, true);
        l.write(&mut s, dom0, None, &p("/g"), b"").unwrap();
        let mut perms = NodePerms::owner_only(guest);
        perms.owner = guest;
        l.set_perms(&mut s, dom0, &p("/g"), perms).unwrap();
        for i in 0..4 {
            l.write(&mut s, guest, None, &p(&format!("/g/n{i}")), b"v")
                .unwrap();
        }
        assert!(matches!(
            l.write(&mut s, guest, None, &p("/g/n4"), b"v"),
            Err(XsError::Quota("nodes"))
        ));
        // Privileged connections are exempt (dom0 hosts the toolstack).
        l.write(&mut s, dom0, None, &p("/t/a/b/c/d/e/f"), b"v")
            .unwrap();
    }

    /// A Logic with a node quota of 4 and dom0 privileged, over a State
    /// holding only dom7's home `/g`.
    fn quota_of_four() -> (XenStoreLogic, XenStoreState, DomId) {
        let mut l = XenStoreLogic::with_quotas(Quotas {
            nodes: 4,
            ..Quotas::default()
        });
        let mut s = XenStoreState::new();
        let (dom0, guest) = (DomId(0), DomId(7));
        l.set_privileged(dom0, true);
        l.write(&mut s, dom0, None, &p("/g"), b"").unwrap();
        l.set_perms(&mut s, dom0, &p("/g"), NodePerms::owner_only(guest))
            .unwrap();
        (l, s, guest)
    }

    #[test]
    fn an_aborted_transactional_rm_frees_no_quota() {
        let (mut l, mut s, guest) = quota_of_four();
        let mut written = 0;
        for i in 0..20 {
            if l.write(&mut s, guest, None, &p(&format!("/g/k{i}")), b"v")
                .is_ok()
            {
                written += 1;
            }
            let t = l.txn_start(&mut s, guest).unwrap();
            l.rm(&mut s, guest, Some(t), &p("/g")).unwrap();
            l.txn_end(&mut s, guest, t, false).unwrap();
        }
        assert_eq!(written, 3, "the home and three nodes fill a quota of 4");
        assert_eq!(owned(&s, guest), 4);
    }

    #[test]
    fn an_aborted_transactional_write_holds_no_quota() {
        let (mut l, mut s, guest) = quota_of_four();
        for i in 0..3 {
            let t = l.txn_start(&mut s, guest).unwrap();
            l.write(&mut s, guest, Some(t), &p(&format!("/g/t{i}")), b"v")
                .unwrap();
            l.txn_end(&mut s, guest, t, false).unwrap();
        }
        for i in 0..3 {
            l.write(&mut s, guest, None, &p(&format!("/g/k{i}")), b"v")
                .unwrap();
        }
        assert!(matches!(
            l.write(&mut s, guest, None, &p("/g/k3"), b"v"),
            Err(XsError::Quota("nodes"))
        ));
    }

    #[test]
    fn a_commit_is_checked_against_the_quota_as_state_is_then() {
        let (mut l, mut s, guest) = quota_of_four();
        let t = l.txn_start(&mut s, guest).unwrap();
        l.write(&mut s, guest, Some(t), &p("/g/a/b"), b"v").unwrap();
        // Outside the transaction only State counts: two more fit.
        for key in ["/g/x", "/g/y"] {
            l.write(&mut s, guest, None, &p(key), b"v").unwrap();
        }
        let (gen, len) = (s.generation(), s.len());
        assert!(matches!(
            l.txn_end(&mut s, guest, t, true),
            Err(XsError::Quota("nodes"))
        ));
        assert_eq!((s.generation(), s.len()), (gen, len), "State unchanged");
        assert!(s.peek("/g/a").is_none());
        assert!(matches!(
            l.txn_end(&mut s, guest, t, false),
            Err(XsError::BadTxn(_))
        ));
        // Inside a transaction, a node it removes makes room for one it
        // creates.
        let t = l.txn_start(&mut s, guest).unwrap();
        l.rm(&mut s, guest, Some(t), &p("/g/x")).unwrap();
        for key in ["/g/a", "/g/b"] {
            l.write(&mut s, guest, Some(t), &p(key), b"v").unwrap();
        }
        assert!(matches!(
            l.write(&mut s, guest, Some(t), &p("/g/c"), b"v"),
            Err(XsError::Quota("nodes"))
        ));
        l.txn_end(&mut s, guest, t, true).unwrap();
        assert!(s.peek("/g/b").is_some() && s.peek("/g/x").is_none());
        assert_eq!(owned(&s, guest), 4);
    }

    #[test]
    fn watch_fires_on_descendant_write() {
        let (mut l, mut s, dom0, guest) = setup();
        l.watch(&mut s, dom0, &p("/local/domain/7/device"), "backend-watch")
            .unwrap();
        let initial = l.poll_watch(dom0).unwrap();
        assert_eq!(initial.path, p("/local/domain/7/device"));
        l.write(
            &mut s,
            guest,
            None,
            &p("/local/domain/7/device/vif/0/state"),
            b"1",
        )
        .unwrap();
        let ev = l.poll_watch(dom0).unwrap();
        assert_eq!(ev.path, p("/local/domain/7/device/vif/0/state"));
        assert_eq!(ev.token, "backend-watch");
    }

    #[test]
    fn watch_quota_enforced() {
        let mut l = XenStoreLogic::with_quotas(Quotas {
            watches: 2,
            ..Quotas::default()
        });
        let mut s = XenStoreState::new();
        let g = DomId(7);
        l.watch(&mut s, g, &p("/a"), "1").unwrap();
        l.watch(&mut s, g, &p("/b"), "2").unwrap();
        assert!(matches!(
            l.watch(&mut s, g, &p("/c"), "3"),
            Err(XsError::Quota("watches"))
        ));
    }

    #[test]
    fn transaction_commit_applies_atomically() {
        let (mut l, mut s, dom0, _) = setup();
        let t = l.txn_start(&mut s, dom0).unwrap();
        l.write(&mut s, dom0, Some(t), &p("/tool/a"), b"1").unwrap();
        l.write(&mut s, dom0, Some(t), &p("/tool/b"), b"2").unwrap();
        // Not visible outside the transaction yet.
        assert!(matches!(
            l.read(&mut s, dom0, None, &p("/tool/a")),
            Err(XsError::NoEnt(_))
        ));
        // Visible inside.
        assert_eq!(l.read(&mut s, dom0, Some(t), &p("/tool/a")).unwrap(), b"1");
        l.txn_end(&mut s, dom0, t, true).unwrap();
        assert_eq!(l.read(&mut s, dom0, None, &p("/tool/a")).unwrap(), b"1");
        assert_eq!(l.read(&mut s, dom0, None, &p("/tool/b")).unwrap(), b"2");
    }

    #[test]
    fn transaction_abort_discards() {
        let (mut l, mut s, dom0, _) = setup();
        let t = l.txn_start(&mut s, dom0).unwrap();
        l.write(&mut s, dom0, Some(t), &p("/tool/a"), b"1").unwrap();
        l.txn_end(&mut s, dom0, t, false).unwrap();
        assert!(matches!(
            l.read(&mut s, dom0, None, &p("/tool/a")),
            Err(XsError::NoEnt(_))
        ));
    }

    #[test]
    fn conflicting_transaction_gets_eagain() {
        let (mut l, mut s, dom0, _) = setup();
        l.write(&mut s, dom0, None, &p("/tool/counter"), b"0")
            .unwrap();
        let t = l.txn_start(&mut s, dom0).unwrap();
        let v = l.read(&mut s, dom0, Some(t), &p("/tool/counter")).unwrap();
        assert_eq!(v, b"0");
        // A concurrent non-transactional write lands first.
        l.write(&mut s, dom0, None, &p("/tool/counter"), b"9")
            .unwrap();
        l.write(&mut s, dom0, Some(t), &p("/tool/counter"), b"1")
            .unwrap();
        assert!(matches!(
            l.txn_end(&mut s, dom0, t, true),
            Err(XsError::Again)
        ));
        // The concurrent write survives.
        assert_eq!(
            l.read(&mut s, dom0, None, &p("/tool/counter")).unwrap(),
            b"9"
        );
    }

    #[test]
    fn commit_that_would_orphan_a_node_gets_eagain() {
        let (mut l, mut s, dom0, _) = setup();
        // The parent of a node the transaction creates is removed outside
        // it: a deleted key has no generation to conflict on.
        l.write(&mut s, dom0, None, &p("/tool/a"), b"").unwrap();
        let t = l.txn_start(&mut s, dom0).unwrap();
        l.write(&mut s, dom0, Some(t), &p("/tool/a/x"), b"v")
            .unwrap();
        l.rm(&mut s, dom0, None, &p("/tool/a")).unwrap();
        assert!(matches!(
            l.txn_end(&mut s, dom0, t, true),
            Err(XsError::Again)
        ));
        assert!(s.peek("/tool/a/x").is_none());
        // A child is created outside under a node the transaction removes.
        l.write(&mut s, dom0, None, &p("/tool/b/y"), b"").unwrap();
        let t = l.txn_start(&mut s, dom0).unwrap();
        l.rm(&mut s, dom0, Some(t), &p("/tool/b")).unwrap();
        l.write(&mut s, dom0, None, &p("/tool/b/z/w"), b"").unwrap();
        assert!(matches!(
            l.txn_end(&mut s, dom0, t, true),
            Err(XsError::Again)
        ));
        assert!(s.peek("/tool/b").is_some() && s.peek("/tool/b/z/w").is_some());
        // The retry sees the whole subtree and commits.
        let t = l.txn_start(&mut s, dom0).unwrap();
        l.rm(&mut s, dom0, Some(t), &p("/tool/b")).unwrap();
        l.txn_end(&mut s, dom0, t, true).unwrap();
        assert!(s.peek("/tool/b").is_none() && s.peek("/tool/b/z").is_none());
    }

    #[test]
    fn a_key_removed_outside_since_the_transaction_wrote_it_gets_eagain() {
        let (mut l, mut s, dom0, _) = setup();
        l.write(&mut s, dom0, None, &p("/t/a"), b"old").unwrap();
        let t = l.txn_start(&mut s, dom0).unwrap();
        l.write(&mut s, dom0, Some(t), &p("/t/a"), b"new").unwrap();
        l.rm(&mut s, dom0, None, &p("/t/a")).unwrap();
        assert!(matches!(
            l.txn_end(&mut s, dom0, t, true),
            Err(XsError::Again)
        ));
        assert!(s.peek("/t/a").is_none(), "the commit re-created nothing");
        // A key the transaction read while it existed conflicts the same.
        l.write(&mut s, dom0, None, &p("/t/b"), b"x").unwrap();
        let t = l.txn_start(&mut s, dom0).unwrap();
        l.read(&mut s, dom0, Some(t), &p("/t/b")).unwrap();
        l.write(&mut s, dom0, Some(t), &p("/t/c"), b"y").unwrap();
        l.rm(&mut s, dom0, None, &p("/t/b")).unwrap();
        assert!(matches!(
            l.txn_end(&mut s, dom0, t, true),
            Err(XsError::Again)
        ));
        assert!(s.peek("/t/c").is_none());
    }

    #[test]
    fn disjoint_transactions_do_not_conflict() {
        let (mut l, mut s, dom0, _) = setup();
        let t = l.txn_start(&mut s, dom0).unwrap();
        l.write(&mut s, dom0, Some(t), &p("/tool/a"), b"1").unwrap();
        // Unrelated write elsewhere.
        l.write(&mut s, dom0, None, &p("/other/key"), b"x").unwrap();
        assert!(l.txn_end(&mut s, dom0, t, true).is_ok());
    }

    #[test]
    fn txn_quota_enforced() {
        let mut l = XenStoreLogic::with_quotas(Quotas {
            transactions: 2,
            ..Quotas::default()
        });
        let mut s = XenStoreState::new();
        let g = DomId(7);
        let _t1 = l.txn_start(&mut s, g).unwrap();
        let _t2 = l.txn_start(&mut s, g).unwrap();
        assert!(matches!(l.txn_start(&mut s, g), Err(XsError::Quota(_))));
    }

    #[test]
    fn foreign_transaction_cannot_be_ended() {
        let (mut l, mut s, dom0, guest) = setup();
        let t = l.txn_start(&mut s, dom0).unwrap();
        assert!(matches!(
            l.txn_end(&mut s, guest, t, true),
            Err(XsError::Acc { .. })
        ));
        assert_eq!(l.open_txns(), 1, "transaction survives foreign end attempt");
    }

    #[test]
    fn restart_preserves_store_and_watches() {
        let (mut l, mut s, dom0, guest) = setup();
        l.write(&mut s, guest, None, &p("/local/domain/7/name"), b"v")
            .unwrap();
        l.watch(&mut s, dom0, &p("/local/domain/7"), "tok").unwrap();
        let _ = l.poll_watch(dom0);
        let t = l.txn_start(&mut s, dom0).unwrap();
        l.write(&mut s, dom0, Some(t), &p("/tool/pending"), b"x")
            .unwrap();

        // Microreboot Logic.
        l.restart(&s);

        // Durable data survives.
        assert_eq!(
            l.read(&mut s, guest, None, &p("/local/domain/7/name"))
                .unwrap(),
            b"v"
        );
        // Watches survive (journaled through State) and still fire.
        l.write(&mut s, guest, None, &p("/local/domain/7/state"), b"4")
            .unwrap();
        let ev = l.poll_watch(dom0).unwrap();
        assert_eq!(ev.token, "tok");
        // In-flight transactions are gone.
        assert!(matches!(
            l.txn_end(&mut s, dom0, t, true),
            Err(XsError::BadTxn(_))
        ));
        assert!(matches!(
            l.read(&mut s, dom0, None, &p("/tool/pending")),
            Err(XsError::NoEnt(_))
        ));
        // The owner index counts home + name (pre-restart) + state
        // (written just above).
        assert_eq!(owned(&s, guest), 3);
        assert_eq!(l.restarts, 1);
    }

    #[test]
    fn remove_domain_cleans_everything() {
        let (mut l, mut s, _dom0, guest) = setup();
        l.watch(&mut s, guest, &p("/local/domain/7"), "t").unwrap();
        l.remove_domain(&mut s, guest);
        assert!(s.entries_under("/@watch/7/").next().is_none());
        assert!(l.poll_watch(guest).is_none());
        // Journal cleaned: restart does not resurrect the watch.
        l.restart(&s);
        l.write(&mut s, DomId(0), None, &p("/local/domain/7/x"), b"v")
            .unwrap();
        assert!(l.poll_watch(guest).is_none());
    }

    #[test]
    fn reserved_namespace_not_writable() {
        let (mut l, mut s, dom0, _) = setup();
        assert!(matches!(
            l.write(&mut s, dom0, None, &p("/@watch/evil"), b"x"),
            Err(XsError::Inval(_))
        ));
    }

    #[test]
    fn reserved_namespace_cannot_be_removed_or_reowned() {
        // The watch journal counts toward no quota: removing a record of
        // it would lose the watch, and moving its owner would move a
        // node into the owner index.
        let (mut l, mut s, dom0, guest) = setup();
        l.watch(&mut s, guest, &p("/local/domain/7"), "cyc")
            .unwrap();
        let charged = owned(&s, guest);
        for (who, path) in [
            (guest, "/@watch/7/cyc"),
            (guest, "/@watch/7"),
            (dom0, "/@watch"),
        ] {
            let txn = l.txn_start(&mut s, who).unwrap();
            for txn in [None, Some(txn)] {
                assert!(
                    matches!(l.rm(&mut s, who, txn, &p(path)), Err(XsError::Inval(_))),
                    "rm {path} in {txn:?}"
                );
            }
        }
        assert!(matches!(
            l.set_perms(
                &mut s,
                guest,
                &p("/@watch/7/cyc"),
                NodePerms::owner_only(dom0)
            ),
            Err(XsError::Inval(_))
        ));
        assert_eq!(owned(&s, guest), charged);
        assert!(s.peek("/@watch/7/cyc").is_some());
        // The journal still brings the watch back after a restart.
        l.restart(&s);
        while l.poll_watch(guest).is_some() {}
        l.write(&mut s, guest, None, &p("/local/domain/7/x"), b"v")
            .unwrap();
        assert_eq!(l.poll_watch(guest).unwrap().token, "cyc");
    }

    /// `rm`'s non-transaction branch as one listing and one `Delete` per
    /// key.
    fn rm_by_key(s: &mut XenStoreState, root: &str) {
        if let KvReply::Keys(keys) = s.serve(KvRequest::ListSubtree(root.to_string())) {
            for key in keys {
                s.serve(KvRequest::Delete(key));
            }
        }
    }

    #[test]
    fn remove_subtree_matches_a_listing_and_a_delete_per_key() {
        use xoar_sim::prop::{Gen, Runner};
        // Components whose siblings sort inside a subtree (`-`, `.`) and
        // just past it (`0`).
        const PARTS: [&str; 6] = ["a", "a-b", "a.b", "a0", "b", "0"];
        const ROOTS: [&str; 13] = [
            "/",
            "/a",
            "/a/a",
            "/a-b",
            "/a.b/a0",
            "/a0",
            "/0",
            "/@watch",
            "/@watch/1",
            "/@watch/1/t",
            "/@watch/10",
            "/zz",
            "/a/zz",
        ];
        fn any_key(g: &mut Gen) -> String {
            if g.u8(0..4) == 0 {
                let dom = g.choose(&[1, 10, 2]);
                let token = g.choose(&["t", "t-x", "u"]);
                return format!("/@watch/{dom}/{token}");
            }
            g.vec(1..4, |g| *g.choose(&PARTS))
                .iter()
                .map(|part| format!("/{part}"))
                .collect()
        }
        Runner::cases(256).run("remove_subtree = ListSubtree + Delete", |g| {
            let dom0 = DomId(0);
            let mut records = g.vec(0..40, |g| (any_key(g), DomId(g.u32(0..4))));
            if g.bool() {
                records.push(("/".to_string(), dom0));
            }
            let root = if g.bool() {
                g.choose(&ROOTS).to_string()
            } else {
                any_key(g)
            };
            let build = || {
                let mut s = XenStoreState::new();
                for (key, owner) in &records {
                    s.serve(KvRequest::Put(
                        key.clone(),
                        NodeRecord {
                            value: key.as_bytes().to_vec(),
                            perms: NodePerms::owner_only(*owner),
                            generation: 0,
                        },
                    ));
                }
                s
            };
            let mut want_s = build();
            let mut s = build();
            if !root.starts_with(RESERVED) && s.peek(&root).is_some() {
                // `rm` reads the root's record first, as it always has.
                want_s.get(&root);
                let mut l = XenStoreLogic::new();
                l.set_privileged(dom0, true);
                l.rm(&mut s, dom0, None, &p(&root)).unwrap();
            } else {
                s.remove_subtree(&root);
            }
            rm_by_key(&mut want_s, &root);
            assert_eq!(
                s.persist(),
                want_s.persist(),
                "map, generation, ops ({root})"
            );
            assert_eq!(
                s.owner_counts(),
                want_s.owner_counts(),
                "owner index ({root})"
            );
        });
    }

    #[test]
    fn set_perms_requires_ownership() {
        let (mut l, mut s, _dom0, guest) = setup();
        l.write(&mut s, guest, None, &p("/local/domain/7/key"), b"v")
            .unwrap();
        let other = DomId(9);
        assert!(matches!(
            l.set_perms(
                &mut s,
                other,
                &p("/local/domain/7/key"),
                NodePerms::owner_only(other)
            ),
            Err(XsError::Acc { .. })
        ));
    }

    /// A layout the tests know to be valid.
    fn layout(suffixes: &[&str]) -> SubtreeLayout {
        SubtreeLayout::new(suffixes.iter().copied()).unwrap()
    }

    /// A node for each of `layout`'s suffixes, all valued `v` and owned
    /// by `owner`.
    fn values(layout: &SubtreeLayout, owner: DomId) -> Vec<NodeData> {
        layout
            .suffixes()
            .map(|_| (b"v".to_vec(), NodePerms::owner_only(owner)))
            .collect()
    }

    /// Runs a `create_subtree` that must be refused with `want`, and checks
    /// that the store, its generation and the owner index are as before.
    fn assert_refused(
        l: &mut XenStoreLogic,
        s: &mut XenStoreState,
        dom: DomId,
        root: &str,
        layout: &SubtreeLayout,
        nodes: Vec<NodeData>,
        want: fn(&XsError) -> bool,
    ) {
        let before = (s.len(), s.generation(), s.owner_counts().clone());
        let err = l
            .create_subtree(s, dom, &p(root), layout, nodes)
            .unwrap_err();
        assert!(want(&err), "{root}: {err}");
        let after = (s.len(), s.generation(), s.owner_counts().clone());
        assert_eq!(after, before, "{root}: a refusal changes nothing");
    }

    #[test]
    fn create_subtree_puts_each_node_once_with_its_own_acl() {
        let (mut l, mut s, dom0, guest) = setup();
        let backend = DomId(6);
        let mut shared = NodePerms::owner_only(guest);
        shared.set_entry(backend, crate::perm::PermLevel::Read);
        let tree = layout(&["", "/vif", "/vif/0"]);
        let mut nodes = values(&tree, dom0);
        nodes[2] = (b"".to_vec(), shared.clone());
        let (gen, ops) = (s.generation(), s.ops_served());
        l.create_subtree(&mut s, dom0, &p("/local/domain/7/device"), &tree, nodes)
            .unwrap();
        assert_eq!(s.generation(), gen + 3, "one Put per node");
        assert_eq!(s.ops_served(), ops + 5, "and two Gets: root, parent");
        assert_eq!(
            s.peek("/local/domain/7/device/vif/0").unwrap().perms,
            shared
        );
        assert_eq!(owned(&s, guest), 2, "home + the node handed over");
        // The backend reads the node it was granted, the guest its own.
        l.read(&mut s, backend, None, &p("/local/domain/7/device/vif/0"))
            .unwrap();
        l.read(&mut s, guest, None, &p("/local/domain/7/device/vif/0"))
            .unwrap();
        // Missing ancestors of the root are created first, as `write`
        // creates them: owned by and charged to the caller.
        let root_only = layout(&[""]);
        l.create_subtree(
            &mut s,
            guest,
            &p("/local/domain/7/a/b"),
            &root_only,
            values(&root_only, guest),
        )
        .unwrap();
        assert_eq!(
            s.peek("/local/domain/7/a").unwrap().perms,
            NodePerms::owner_only(guest)
        );
        assert_eq!(owned(&s, guest), 4);
    }

    #[test]
    fn create_subtree_refuses_an_existing_root() {
        let (mut l, mut s, dom0, guest) = setup();
        let home = "/local/domain/7";
        let tree = layout(&["", "/x"]);
        assert_refused(
            &mut l,
            &mut s,
            dom0,
            home,
            &tree,
            values(&tree, guest),
            |e| matches!(e, XsError::Exists(_)),
        );
        let root_only = layout(&[""]);
        assert_refused(
            &mut l,
            &mut s,
            dom0,
            "/",
            &root_only,
            values(&root_only, dom0),
            |e| matches!(e, XsError::Exists(_)),
        );
    }

    #[test]
    fn create_subtree_refuses_a_key_outside_the_root() {
        // `/tool/a` + `b` would be the sibling `/tool/ab`, and `/x/` is
        // not normalised; `/` would end the root in a slash.
        for suffixes in [&["", "/x", "b"][..], &["", "/x", "/x/"], &["", "/"]] {
            let err = SubtreeLayout::new(suffixes.iter().copied()).unwrap_err();
            assert!(matches!(err, XsError::Inval(_)), "{suffixes:?}: {err}");
        }
    }

    #[test]
    fn create_subtree_refuses_a_node_listed_before_its_parent() {
        let refused = |suffixes: &[&str]| SubtreeLayout::new(suffixes.iter().copied()).unwrap_err();
        assert!(matches!(refused(&["", "/x/y", "/x"]), XsError::Inval(_)));
        // The root is the first node listed, and listed once.
        assert!(matches!(refused(&["/x", ""]), XsError::Inval(_)));
        assert!(matches!(refused(&["", "/x", ""]), XsError::Exists(_)));
        assert!(matches!(refused(&["", "/x", "/x"]), XsError::Exists(_)));
        assert!(matches!(refused(&[]), XsError::Inval(_)));
    }

    #[test]
    fn create_subtree_refuses_an_unprivileged_caller_listing_a_foreign_owner() {
        let (mut l, mut s, dom0, guest) = setup();
        let root = "/local/domain/7/data";
        let tree = layout(&["", "/mine", "/theirs"]);
        let mut nodes = values(&tree, guest);
        nodes[2].1 = NodePerms::owner_only(dom0);
        assert_refused(
            &mut l,
            &mut s,
            guest,
            root,
            &tree,
            nodes,
            |e| matches!(e, XsError::Acc { path, .. } if path == "/local/domain/7/data/theirs"),
        );
        // Nor may it create where its create rule denies it.
        let root_only = layout(&[""]);
        assert_refused(
            &mut l,
            &mut s,
            guest,
            "/tool/x",
            &root_only,
            values(&root_only, guest),
            |e| matches!(e, XsError::Acc { .. }),
        );
    }

    #[test]
    fn create_subtree_refuses_the_reserved_namespace() {
        let (mut l, mut s, dom0, _) = setup();
        let tree = layout(&["", "/y"]);
        for root in ["/@watch/evil", "/@x"] {
            assert_refused(
                &mut l,
                &mut s,
                dom0,
                root,
                &tree,
                values(&tree, dom0),
                |e| matches!(e, XsError::Inval(_)),
            );
        }
    }

    #[test]
    fn create_subtree_refuses_what_the_callers_quota_cannot_cover() {
        let mut l = XenStoreLogic::with_quotas(Quotas {
            nodes: 4,
            ..Quotas::default()
        });
        let mut s = XenStoreState::new();
        let (dom0, guest) = (DomId(0), DomId(7));
        l.set_privileged(dom0, true);
        let root_only = layout(&[""]);
        l.create_subtree(
            &mut s,
            dom0,
            &p("/g"),
            &root_only,
            values(&root_only, guest),
        )
        .unwrap();
        // Home + a missing ancestor + three nodes is five, one too many:
        // nothing is created, not even the nodes that would fit.
        let root = "/g/a/b";
        let three = layout(&["", "/c", "/d"]);
        assert_refused(
            &mut l,
            &mut s,
            guest,
            root,
            &three,
            values(&three, guest),
            |e| matches!(e, XsError::Quota("nodes")),
        );
        let two = layout(&["", "/c"]);
        l.create_subtree(&mut s, guest, &p(root), &two, values(&two, guest))
            .unwrap();
        assert_eq!(owned(&s, guest), 4);
    }

    #[test]
    fn create_subtree_refuses_a_key_longer_than_path_max() {
        let (mut l, mut s, dom0, _) = setup();
        // Each component and each suffix is valid on its own; only the
        // root and the longest suffix together pass the limit.
        let comp = |c: char, n: usize| format!("/{}", c.to_string().repeat(n));
        let root = format!("/tool{}", comp('a', 250).repeat(10));
        let tree = layout(&["", &comp('b', 250), &(comp('b', 250) + &comp('c', 250))]);
        let longest = root.len() + 2 * 251;
        let last = PATH_MAX - longest - 1;
        let at_max = comp('b', 250) + &comp('c', 250) + &comp('d', last);
        let over = comp('b', 250) + &comp('c', 250) + &comp('d', last + 1);
        let refused = layout(&[
            "",
            &comp('b', 250),
            &(comp('b', 250) + &comp('c', 250)),
            &over,
        ]);
        assert_refused(
            &mut l,
            &mut s,
            dom0,
            &root,
            &refused,
            values(&refused, dom0),
            |e| matches!(e, XsError::Inval(_)),
        );
        let mut suffixes: Vec<&str> = tree.suffixes().collect();
        suffixes.push(&at_max);
        let fits = layout(&suffixes);
        l.create_subtree(&mut s, dom0, &p(&root), &fits, values(&fits, dom0))
            .unwrap();
        assert_eq!(
            s.peek(&format!("{root}{at_max}")).map(|r| r.value.clone()),
            Some(b"v".to_vec())
        );
        assert_eq!(root.len() + at_max.len(), PATH_MAX);
    }

    #[test]
    fn create_subtree_refuses_a_node_count_other_than_the_layouts() {
        let (mut l, mut s, dom0, _) = setup();
        let tree = layout(&["", "/x"]);
        for n in [0, 1, 3] {
            let nodes = vec![(b"v".to_vec(), NodePerms::owner_only(dom0)); n];
            assert_refused(&mut l, &mut s, dom0, "/tool/a", &tree, nodes, |e| {
                matches!(e, XsError::Inval(_))
            });
        }
    }

    #[test]
    fn read_subtree_then_create_subtree_reproduces_values_and_acls() {
        let (mut l, mut s, dom0, guest) = setup();
        let backend = DomId(6);
        for (key, value) in [
            ("/local/domain/7/device/vif/0/state", "4"),
            ("/local/domain/7/device/vif/0/backend", "/local/domain/6"),
            ("/local/domain/7/device/vbd", ""),
            ("/local/domain/7/device-model", "x"),
        ] {
            l.write(&mut s, guest, None, &p(key), value.as_bytes())
                .unwrap();
        }
        let mut shared = NodePerms::owner_only(guest);
        shared.set_entry(backend, crate::perm::PermLevel::Read);
        l.set_perms(&mut s, guest, &p("/local/domain/7/device/vif/0"), shared)
            .unwrap();
        let (tree, nodes) = l
            .read_subtree(&mut s, dom0, &p("/local/domain/7/device"))
            .unwrap();
        // `device-model` sorts inside the range but is a sibling.
        assert_eq!(
            tree.suffixes().collect::<Vec<_>>(),
            [
                "",
                "/vbd",
                "/vif",
                "/vif/0",
                "/vif/0/backend",
                "/vif/0/state"
            ]
        );
        l.create_subtree(&mut s, dom0, &p("/copy"), &tree, nodes)
            .unwrap();
        for suffix in tree.suffixes() {
            let (from, to) = (
                format!("/local/domain/7/device{suffix}"),
                format!("/copy{suffix}"),
            );
            let (from, to) = (s.peek(&from).unwrap(), s.peek(&to).unwrap());
            assert_eq!(
                (&to.value, &to.perms),
                (&from.value, &from.perms),
                "{suffix}"
            );
        }
        assert_eq!(s.subtree("/copy").count(), tree.len());
        assert!(matches!(
            l.read_subtree(&mut s, dom0, &p("/")),
            Err(XsError::Inval(_))
        ));
    }

    #[test]
    fn create_subtree_fires_one_watch_event_per_node() {
        let (mut l, mut s, dom0, guest) = setup();
        l.watch(&mut s, dom0, &p("/local/domain/7"), "home")
            .unwrap();
        let _ = l.poll_watch(dom0);
        let root = "/local/domain/7/device";
        let suffixes = ["", "/vif", "/vif/0", "/vif/0/state", "/vbd"];
        let tree = layout(&suffixes);
        l.create_subtree(&mut s, guest, &p(root), &tree, values(&tree, guest))
            .unwrap();
        let fired: Vec<String> = std::iter::from_fn(|| l.poll_watch(dom0))
            .map(|e| {
                assert_eq!(e.token, "home");
                e.path.to_string()
            })
            .collect();
        let want: Vec<String> = suffixes.iter().map(|s| format!("{root}{s}")).collect();
        assert_eq!(fired, want);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use xoar_sim::prop::Runner;

    fn p(s: &str) -> XsPath {
        XsPath::parse(s).unwrap()
    }

    /// Logic restart at any point between operations never loses
    /// committed writes.
    #[test]
    fn restart_never_loses_committed_data() {
        Runner::cases(64).run("restart never loses committed data", |g| {
            let ops = g.vec(1..40, |g| (g.u8(0..5), g.u32(0..8), g.u32(0..4)));
            let mut l = XenStoreLogic::new();
            let mut s = XenStoreState::new();
            let dom0 = DomId(0);
            l.set_privileged(dom0, true);
            let mut shadow: std::collections::BTreeMap<String, Vec<u8>> = Default::default();
            for (kind, key, val) in ops {
                let path = p(&format!("/k{key}"));
                match kind {
                    0 | 1 => {
                        let value = format!("v{val}").into_bytes();
                        l.write(&mut s, dom0, None, &path, &value).unwrap();
                        shadow.insert(path.as_str().to_string(), value);
                    }
                    2 => {
                        if shadow.remove(path.as_str()).is_some() {
                            l.rm(&mut s, dom0, None, &path).unwrap();
                        }
                    }
                    3 => {
                        l.restart(&s);
                    }
                    _ => {
                        // A subtree under its own prefix, which `rm` above
                        // never reaches; a second one at the same root is
                        // refused and changes nothing.
                        let root = format!("/t{key}");
                        let layout = SubtreeLayout::new(["", "/c", "/c/d"]).unwrap();
                        let tree: Vec<_> = layout
                            .suffixes()
                            .map(|suffix| {
                                let value = format!("v{val}{suffix}").into_bytes();
                                (value, NodePerms::owner_only(dom0))
                            })
                            .collect();
                        if l.create_subtree(&mut s, dom0, &p(&root), &layout, tree.clone())
                            .is_ok()
                        {
                            shadow.extend(
                                layout
                                    .suffixes()
                                    .zip(tree)
                                    .map(|(suffix, (v, _))| (format!("{root}{suffix}"), v)),
                            );
                        }
                    }
                }
            }
            l.restart(&s);
            for (key, value) in shadow {
                assert_eq!(l.read(&mut s, dom0, None, &p(&key)).unwrap(), value);
            }
        });
    }

    /// Every node in State has its parent in State: the invariant the
    /// write path's upward walk relies on to stop at the first node it
    /// finds. Checked after each step of random mixes of plain and
    /// transactional writes, mkdirs, removals and permission changes by a
    /// privileged and an unprivileged domain, with commits, aborts and
    /// `Again` conflicts, whole-subtree creates, Logic restarts, and
    /// persist → recover rounds.
    #[test]
    fn every_stored_node_has_its_parent() {
        fn orphans(s: &XenStoreState) -> Vec<String> {
            s.entries_under("/")
                .map(|(k, _)| k)
                .filter(|k| *k != "/" && !k.starts_with("/@"))
                .filter(|k| {
                    let parent = &k[..k.rfind('/').expect("absolute key")];
                    !parent.is_empty() && s.peek(parent).is_none()
                })
                .cloned()
                .collect()
        }
        Runner::cases(256).run("every stored node has its parent", |g| {
            let mut l = XenStoreLogic::new();
            let mut s = XenStoreState::new();
            let (dom0, guest) = (DomId(0), DomId(7));
            l.set_privileged(dom0, true);
            l.write(&mut s, dom0, None, &p("/g"), b"").unwrap();
            l.set_perms(&mut s, dom0, &p("/g"), NodePerms::owner_only(guest))
                .unwrap();
            let mut txn: Option<(DomId, u32)> = None;
            for _ in 0..g.usize(1..80) {
                let top = *g.choose(&["a", "g"]);
                let depth = g.usize(0..3);
                let rest: Vec<&str> = (0..depth).map(|_| *g.choose(&["x", "y"])).collect();
                let path = p(&format!(
                    "/{top}{}",
                    rest.iter().map(|c| format!("/{c}")).collect::<String>()
                ));
                // While a transaction is open, half the ops go into it;
                // the rest race it from outside.
                let (dom, in_txn) = match txn {
                    Some((owner, id)) if g.bool() => (owner, Some(id)),
                    _ => (if g.bool() { dom0 } else { guest }, None),
                };
                match g.u8(0..21) {
                    0..=5 | 19 => {
                        let _ = l.write(&mut s, dom, in_txn, &path, b"v");
                    }
                    6 | 7 => {
                        let _ = l.mkdir(&mut s, dom, in_txn, &path);
                    }
                    8..=11 => {
                        let _ = l.rm(&mut s, dom, in_txn, &path);
                    }
                    12 | 13 => {
                        let owner = if g.bool() { dom0 } else { guest };
                        let _ = l.set_perms(&mut s, dom, &path, NodePerms::owner_only(owner));
                    }
                    14..=16 => match txn.take() {
                        Some((owner, id)) => {
                            let _ = l.txn_end(&mut s, owner, id, g.bool());
                        }
                        None => {
                            txn = l.txn_start(&mut s, dom).ok().map(|id| (dom, id));
                        }
                    },
                    17 => {
                        l.restart(&s);
                        txn = None;
                    }
                    20 => {
                        let owner = if g.bool() { dom0 } else { guest };
                        let layout = SubtreeLayout::new(["", "/x", "/x/y", "/y"]).unwrap();
                        let tree = layout
                            .suffixes()
                            .map(|_| (b"v".to_vec(), NodePerms::owner_only(owner)))
                            .collect();
                        let _ = l.create_subtree(&mut s, dom, &path, &layout, tree);
                    }
                    _ => {
                        s = XenStoreState::recover(&s.persist()).unwrap();
                        l.restart(&s);
                        txn = None;
                    }
                }
                let bad = orphans(&s);
                assert!(bad.is_empty(), "nodes without a parent: {bad:?}");
            }
        });
    }

    /// The errno a refusal carries on the wire.
    fn errno(e: &XsError) -> String {
        e.to_string()
            .split(':')
            .next()
            .unwrap_or_default()
            .to_string()
    }

    /// Who owns each node: in State, and in the open transaction's
    /// overlay (`None`: removed there). The reference the quota property
    /// checks the owner index against. `seen` holds, for each key the
    /// transaction read or wrote, whether State held it then.
    #[derive(Default)]
    struct Owners {
        store: BTreeMap<String, DomId>,
        overlay: Option<BTreeMap<String, Option<DomId>>>,
        seen: BTreeMap<String, bool>,
    }

    impl Owners {
        /// Records whether State holds `key`, if the transaction touches
        /// it for the first time.
        fn touch(&mut self, key: &str, txn: bool) {
            if txn && self.overlay.is_some() && !self.seen.contains_key(key) {
                let held = self.store.contains_key(key);
                self.seen.insert(key.to_string(), held);
            }
        }

        /// The owner of `key` in the transaction's view, or in State's.
        fn owner(&self, key: &str, txn: bool) -> Option<DomId> {
            match self
                .overlay
                .as_ref()
                .filter(|_| txn)
                .and_then(|o| o.get(key))
            {
                Some(&entry) => entry,
                None => self.store.get(key).copied(),
            }
        }

        fn set(&mut self, key: &str, owner: Option<DomId>, txn: bool) {
            match (self.overlay.as_mut().filter(|_| txn), owner) {
                (Some(o), _) => {
                    o.insert(key.to_string(), owner);
                }
                (None, Some(dom)) => {
                    self.store.insert(key.to_string(), dom);
                }
                (None, None) => {
                    self.store.remove(key);
                }
            }
        }

        /// Every key in the view: State's and the overlay's.
        fn keys(&self, txn: bool) -> BTreeSet<String> {
            let mut keys: BTreeSet<String> = self.store.keys().cloned().collect();
            if let Some(o) = self.overlay.as_ref().filter(|_| txn) {
                keys.extend(o.keys().cloned());
            }
            keys.retain(|k| self.owner(k, txn).is_some());
            keys
        }

        fn owned(&self, dom: DomId, txn: bool) -> usize {
            let keys = self.keys(txn);
            keys.iter()
                .filter(|k| self.owner(k, txn) == Some(dom))
                .count()
        }

        /// The node count per owner, as State's owner index holds it.
        fn index(&self) -> BTreeMap<DomId, u64> {
            let mut index = BTreeMap::new();
            for &owner in self.store.values() {
                *index.entry(owner).or_insert(0) += 1;
            }
            index
        }

        /// What `write` answers and leaves: a node written in place keeps
        /// its owner; otherwise the create rule, then each missing node
        /// root-first, each checked against the quota.
        fn write(
            &mut self,
            dom: DomId,
            privileged: bool,
            path: &str,
            txn: bool,
        ) -> Result<(), String> {
            let may = |owner: Option<DomId>| privileged || owner == Some(dom);
            self.touch(path, txn);
            if let Some(owner) = self.owner(path, txn) {
                if !may(Some(owner)) {
                    return Err("EACCES".into());
                }
                self.set(path, Some(owner), txn);
                return Ok(());
            }
            let slashes: Vec<usize> = path
                .match_indices('/')
                .map(|(i, _)| i)
                .filter(|&i| i > 0)
                .collect();
            // The walk up from the parent to the nearest existing node.
            let mut base = None;
            for &i in slashes.iter().rev() {
                self.touch(&path[..i], txn);
                if self.owner(&path[..i], txn).is_some() {
                    base = Some(i);
                    break;
                }
            }
            if !base.map_or(privileged, |i| may(self.owner(&path[..i], txn))) {
                return Err("EACCES".into());
            }
            let from = base.unwrap_or(0);
            for &i in slashes.iter().filter(|&&i| i < from) {
                self.touch(&path[..i], txn);
            }
            for end in slashes
                .into_iter()
                .filter(|&i| i > from)
                .chain([path.len()])
            {
                if !privileged && self.owned(dom, txn) >= QUOTA {
                    return Err("E2BIG".into());
                }
                self.set(&path[..end], Some(dom), txn);
            }
            Ok(())
        }

        /// What `rm` answers and leaves: the node and everything beneath.
        fn rm(
            &mut self,
            dom: DomId,
            privileged: bool,
            path: &str,
            txn: bool,
        ) -> Result<(), String> {
            self.touch(path, txn);
            match self.owner(path, txn) {
                None => Err("ENOENT".into()),
                Some(owner) if !privileged && owner != dom => Err("EACCES".into()),
                Some(_) => {
                    let beneath = format!("{path}/");
                    for key in self.keys(txn) {
                        if key == path || key.starts_with(&beneath) {
                            self.touch(&key, txn);
                            self.set(&key, None, txn);
                        }
                    }
                    Ok(())
                }
            }
        }
    }

    const QUOTA: usize = 4;

    /// State's owner index matches a model of who owns each node after
    /// every step of random plain and transactional writes and removals
    /// by a quota-bound guest and a privileged domain, whole-subtree
    /// creates handing nodes to a third domain, ownership changes,
    /// commits, aborts, `Again` forced by a conflicting write (also one
    /// removed again before the commit), and Logic
    /// restarts; and no unprivileged domain ever owns more nodes than its
    /// quota.
    #[test]
    fn quota_accounting_no_drift() {
        Runner::cases(1024).run("quota accounting has no drift", |g| {
            let mut l = XenStoreLogic::with_quotas(Quotas {
                nodes: QUOTA,
                ..Quotas::default()
            });
            let mut s = XenStoreState::new();
            let (dom0, guest, other) = (DomId(0), DomId(7), DomId(8));
            l.set_privileged(dom0, true);
            let home = SubtreeLayout::new([""]).unwrap();
            let tree = vec![(Vec::new(), NodePerms::owner_only(guest))];
            l.create_subtree(&mut s, dom0, &p("/g"), &home, tree)
                .unwrap();
            let mut model = Owners::default();
            model.store.insert("/g".into(), guest);
            // The open transaction, and a key it wrote that a write
            // outside it then touched.
            let mut txn: Option<(u32, Option<String>)> = None;
            for _ in 0..g.usize(1..80) {
                // The home itself one time in five.
                let depth = g.usize(0..5).div_ceil(2);
                let guest_path: String = [
                    "/g",
                    *g.choose(&["/a", "/b", "/c"]),
                    *g.choose(&["/x", "/y"]),
                ][..depth + 1]
                    .concat();
                let in_txn = txn.is_some() && g.bool();
                let id = txn.as_ref().filter(|_| in_txn).map(|&(id, _)| id);
                match g.u8(0..16) {
                    0..=6 => {
                        let got = l.write(&mut s, guest, id, &p(&guest_path), b"v");
                        let want = model.write(guest, false, &guest_path, in_txn);
                        assert_eq!(got.map_err(|e| errno(&e)), want, "write {guest_path}");
                    }
                    7..=9 => {
                        let got = l.rm(&mut s, guest, id, &p(&guest_path));
                        let want = model.rm(guest, false, &guest_path, in_txn);
                        assert_eq!(got.map_err(|e| errno(&e)), want, "rm {guest_path}");
                    }
                    10 => {
                        // A plain write to a key the transaction wrote.
                        let written: Vec<String> = model
                            .overlay
                            .iter()
                            .flatten()
                            .map(|(k, _)| k.clone())
                            .collect();
                        if let Some((_, conflict)) = txn.as_mut().filter(|_| !written.is_empty()) {
                            let key = g.choose(&written).clone();
                            l.write(&mut s, dom0, None, &p(&key), b"w").unwrap();
                            model.write(dom0, true, &key, false).unwrap();
                            *conflict = Some(key);
                        }
                    }
                    11 => {
                        let path = if g.bool() {
                            guest_path
                        } else {
                            format!("/n{}", g.u8(0..3))
                        };
                        let got = l.rm(&mut s, dom0, None, &p(&path));
                        let want = model.rm(dom0, true, &path, false);
                        assert_eq!(got.map_err(|e| errno(&e)), want, "rm {path}");
                    }
                    12 => {
                        let root = format!("/n{}", g.u8(0..3));
                        let layout = SubtreeLayout::new(["", "/c"]).unwrap();
                        let tree = vec![
                            (b"v".to_vec(), NodePerms::owner_only(dom0)),
                            (b"v".to_vec(), NodePerms::owner_only(other)),
                        ];
                        let got = l.create_subtree(&mut s, dom0, &p(&root), &layout, tree);
                        assert_eq!(got.is_ok(), !model.store.contains_key(&root), "{root}");
                        if got.is_ok() {
                            model.store.insert(root.clone(), dom0);
                            model.store.insert(format!("{root}/c"), other);
                        }
                    }
                    13 => {
                        // The toolstack hands the home back to the guest.
                        let perms = NodePerms::owner_only(guest);
                        if model.store.contains_key("/g") {
                            l.set_perms(&mut s, dom0, &p("/g"), perms).unwrap();
                        } else {
                            l.create_subtree(
                                &mut s,
                                dom0,
                                &p("/g"),
                                &home,
                                vec![(Vec::new(), perms)],
                            )
                            .unwrap();
                        }
                        model.store.insert("/g".into(), guest);
                    }
                    14 => match txn.take() {
                        None => {
                            txn = Some((l.txn_start(&mut s, guest).unwrap(), None));
                            model.overlay = Some(BTreeMap::new());
                            model.seen.clear();
                        }
                        Some((id, conflict)) => {
                            // Written outside since, the key conflicts if
                            // State holds it now or held it when the
                            // transaction first touched it.
                            let conflicted = conflict.is_some_and(|k| {
                                model.store.contains_key(&k) || model.seen.get(&k) == Some(&true)
                            });
                            let commit = g.bool();
                            let overlay = model.overlay.take().unwrap_or_default();
                            let mut after = Owners {
                                store: model.store.clone(),
                                ..Owners::default()
                            };
                            for (key, owner) in &overlay {
                                after.set(key, *owner, false);
                            }
                            match l.txn_end(&mut s, guest, id, commit) {
                                Ok(()) if commit => {
                                    assert!(!conflicted, "a conflicting write forces Again");
                                    model = after;
                                }
                                Ok(()) => {}
                                Err(XsError::Again) => assert!(commit),
                                Err(XsError::Quota("nodes")) => {
                                    assert!(commit && !conflicted);
                                    assert!(after.owned(guest, false) > QUOTA);
                                }
                                Err(e) => panic!("end of transaction {id}: {e}"),
                            }
                        }
                    },
                    _ => {
                        l.restart(&s);
                        txn = None;
                        model.overlay = None;
                    }
                }
                assert_eq!(s.owner_counts(), &model.index(), "owner index");
                for dom in [guest, other] {
                    assert!(model.owned(dom, false) <= QUOTA, "{dom} past its quota");
                }
            }
        });
    }
}
