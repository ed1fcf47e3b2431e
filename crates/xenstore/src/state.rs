//! XenStore-State: the long-lived half of the split XenStore (§5.1).
//!
//! State is a deliberately dumb, flat key-value store: it knows nothing of
//! hierarchy, permissions semantics, transactions, or watches — all of
//! that lives in the restartable [`crate::logic::XenStoreLogic`]. The two
//! halves communicate over the "single, narrow, key-value based
//! communication protocol" the paper describes, modelled here as the
//! [`KvRequest`]/[`KvReply`] pair.
//!
//! Keeping State this small is what makes Logic restartable for free:
//! Logic's only durable obligation is to journal every mutation through
//! the protocol before acknowledging, so a fresh Logic instance starts
//! from an empty cache and lazily reads through.

use std::collections::BTreeMap;

use xoar_hypervisor::DomId;

use crate::perm::NodePerms;

/// Reserved key prefix for Logic-journaled metadata (watch registrations
/// and the like). Entries under it are store-visible but excluded from
/// the per-owner node index: they are bookkeeping, not guest data.
const RESERVED_PREFIX: &str = "/@";

/// A stored node record: value bytes, permissions, and a generation
/// counter bumped on every mutation (used for transaction conflict
/// detection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRecord {
    /// Node contents.
    pub value: Vec<u8>,
    /// Node permissions.
    pub perms: NodePerms,
    /// Mutation generation.
    pub generation: u64,
}

xoar_codec::impl_json_struct!(NodeRecord {
    value,
    perms,
    generation
});

/// A request on the narrow Logic→State protocol.
#[derive(Debug, Clone)]
pub enum KvRequest {
    /// Fetch one record.
    Get(String),
    /// Insert or replace one record.
    Put(String, NodeRecord),
    /// Remove one record; the reply carries the removed record.
    Delete(String),
    /// List keys strictly under `prefix + "/"` plus the prefix itself.
    ListSubtree(String),
    /// Fetch the global generation counter.
    Generation,
}

/// A reply on the narrow protocol.
#[derive(Debug, Clone)]
pub enum KvReply {
    /// Reply to `Get` and `Delete`: the record, if present (for a
    /// `Delete`, the record just removed).
    Record(Option<NodeRecord>),
    /// Reply to `Put`.
    Done,
    /// Reply to `ListSubtree`: matching keys in order.
    Keys(Vec<String>),
    /// Reply to `Generation`.
    Generation(u64),
}

/// The State component.
///
/// The paper's State shard is "long-lived and contains all the XenStore
/// data"; it survives every Logic restart.
#[derive(Debug, Default, Clone)]
pub struct XenStoreState {
    map: BTreeMap<String, NodeRecord>,
    generation: u64,
    /// Protocol-operation counter (evaluation: narrowness of the interface
    /// is an argument, volume is a metric). Tolerated as missing on
    /// recovery so pre-counter persisted blobs still load.
    ops_served: u64,
    /// Incrementally-maintained per-owner live node counts, excluding the
    /// reserved `/@...` namespace. This is the one record of node quota
    /// use: Logic keeps no count of its own and reads this index when it
    /// checks a create or a commit. Derived state: never serialised,
    /// rebuilt on [`XenStoreState::recover`].
    owner_counts: BTreeMap<DomId, u64>,
}

// Hand-written codec impls (instead of `impl_json_struct!`) so the
// derived `owner_counts` index stays out of the persisted form — the
// blob layout is byte-identical to the pre-index format, and decoding
// rebuilds the index from the map.
impl xoar_codec::ToJson for XenStoreState {
    fn to_json(&self) -> xoar_codec::Json {
        xoar_codec::Json::Obj(vec![
            ("map".to_string(), xoar_codec::ToJson::to_json(&self.map)),
            (
                "generation".to_string(),
                xoar_codec::ToJson::to_json(&self.generation),
            ),
            (
                "ops_served".to_string(),
                xoar_codec::ToJson::to_json(&self.ops_served),
            ),
        ])
    }
}

impl xoar_codec::FromJson for XenStoreState {
    fn from_json(value: &xoar_codec::Json) -> Result<Self, xoar_codec::JsonError> {
        let members = value
            .as_obj()
            .ok_or_else(|| xoar_codec::JsonError::expected("object", "XenStoreState"))?;
        let mut state = XenStoreState {
            map: xoar_codec::field(members, "map")?,
            generation: xoar_codec::field(members, "generation")?,
            ops_served: xoar_codec::field_or_default(members, "ops_served")?,
            owner_counts: BTreeMap::new(),
        };
        state.rebuild_owner_index();
        Ok(state)
    }
}

impl XenStoreState {
    /// Creates an empty State.
    pub fn new() -> Self {
        Self::default()
    }

    fn owner_count_inc(&mut self, owner: DomId) {
        *self.owner_counts.entry(owner).or_insert(0) += 1;
    }

    /// Recomputes the owner index from the map (blob recovery only; the
    /// serving path maintains it incrementally).
    fn rebuild_owner_index(&mut self) {
        self.owner_counts.clear();
        for (key, rec) in &self.map {
            if !key.starts_with(RESERVED_PREFIX) {
                *self.owner_counts.entry(rec.perms.owner).or_insert(0) += 1;
            }
        }
    }

    /// Serves one request of the narrow protocol.
    pub fn serve(&mut self, req: KvRequest) -> KvReply {
        self.ops_served += 1;
        match req {
            KvRequest::Get(key) => KvReply::Record(self.map.get(&key).cloned()),
            KvRequest::Put(key, mut rec) => {
                self.generation += 1;
                rec.generation = self.generation;
                let indexed = !key.starts_with(RESERVED_PREFIX);
                let owner = rec.perms.owner;
                if let Some(old) = self.map.insert(key, rec) {
                    if indexed {
                        owner_count_dec(&mut self.owner_counts, old.perms.owner);
                    }
                }
                if indexed {
                    self.owner_count_inc(owner);
                }
                KvReply::Done
            }
            KvRequest::Delete(key) => {
                let old = self.map.remove(&key);
                if let Some(old) = &old {
                    self.generation += 1;
                    if !key.starts_with(RESERVED_PREFIX) {
                        owner_count_dec(&mut self.owner_counts, old.perms.owner);
                    }
                }
                KvReply::Record(old)
            }
            KvRequest::ListSubtree(prefix) => KvReply::Keys(
                subtree_range(&self.map, &prefix)
                    .map(|(k, _)| k.clone())
                    .collect(),
            ),
            KvRequest::Generation => KvReply::Generation(self.generation),
        }
    }

    /// The borrowed form of [`KvRequest::Get`]: one counted protocol
    /// operation that lends the record instead of cloning it.
    pub fn get(&mut self, key: &str) -> Option<&NodeRecord> {
        self.ops_served += 1;
        self.map.get(key)
    }

    /// The borrowed form of a [`KvRequest::Put`] that replaces an existing
    /// record: `f` edits the record in place, so nothing is cloned, not
    /// the key, the value or the ACL. Counted as the one Put it replaces,
    /// it bumps the generation as a Put does and, if `f` changes the
    /// owner, moves the node in the owner index. Returns `false` if `key`
    /// holds no record; the operation is still counted, as a Get of a
    /// missing key is.
    pub fn update(&mut self, key: &str, f: impl FnOnce(&mut NodeRecord)) -> bool {
        self.ops_served += 1;
        let Some(rec) = self.map.get_mut(key) else {
            return false;
        };
        let owner = rec.perms.owner;
        f(rec);
        self.generation += 1;
        rec.generation = self.generation;
        if rec.perms.owner != owner && !key.starts_with(RESERVED_PREFIX) {
            owner_count_dec(&mut self.owner_counts, owner);
            *self.owner_counts.entry(rec.perms.owner).or_insert(0) += 1;
        }
        true
    }

    /// The borrowed form of [`KvRequest::ListSubtree`]: one counted
    /// protocol operation that lends the records at `root` and beneath it,
    /// in key order, instead of cloning their keys.
    pub fn subtree<'a>(
        &'a mut self,
        root: &'a str,
    ) -> impl Iterator<Item = (&'a String, &'a NodeRecord)> + 'a {
        self.ops_served += 1;
        subtree_range(&self.map, root)
    }

    /// The borrowed form of [`KvRequest::ListSubtree`] followed by one
    /// [`KvRequest::Delete`] per listed key: removes the records at `root`
    /// and beneath it (`/` is the whole store) in one range pass, taking
    /// each off the owner index. Counted as what it replaces: `1 +
    /// removed` protocol operations and `removed` generation bumps.
    pub fn remove_subtree(&mut self, root: &str) {
        use std::ops::Bound;
        // Keys beneath `root` sort before `root` + "0" ('0' is the byte
        // after '/'); for "/" that bound is "0" itself. The map's range
        // takes `String` bounds.
        let hi = format!("{}0", if root == "/" { "" } else { root });
        let range = (Bound::Included(root.to_string()), Bound::Excluded(hi));
        // The byte after the root: `/` under it, none at it.
        let cut = if root == "/" { 0 } else { root.len() };
        let beneath =
            |k: &String, _: &mut NodeRecord| k.as_bytes().get(cut).is_none_or(|&b| b == b'/');
        let mut removed = 0;
        for (key, rec) in self.map.extract_if(range, beneath) {
            if !key.starts_with(RESERVED_PREFIX) {
                owner_count_dec(&mut self.owner_counts, rec.perms.owner);
            }
            removed += 1;
        }
        self.ops_served += 1 + removed;
        self.generation += removed;
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total protocol operations served.
    pub fn ops_served(&self) -> u64 {
        self.ops_served
    }

    /// Current global generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Direct record access, uncounted: assertions in tests, audit
    /// tooling, and Logic's quota check, which compares a transaction's
    /// overlay with the records it replaces.
    pub fn peek(&self, key: &str) -> Option<&NodeRecord> {
        self.map.get(key)
    }

    /// The incrementally-maintained per-owner node-count index (reserved
    /// `/@...` entries excluded), read by reference and uncounted. Logic
    /// checks node quotas against it, so a restarted Logic has no count
    /// to rebuild.
    pub fn owner_counts(&self) -> &BTreeMap<DomId, u64> {
        &self.owner_counts
    }

    /// Iterates the records whose keys start with `prefix`, by reference
    /// (a range scan over the sorted map: no key list is materialised and
    /// no values are cloned). Restart support: Logic rebuilds its watch
    /// registry from the `/@watch/...` entries this yields.
    pub fn entries_under<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a String, &'a NodeRecord)> + 'a {
        use std::ops::Bound;
        self.map
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(prefix))
    }

    /// Serialises the whole State for disk persistence — §7.1: "XenStore
    /// could potentially be restarted by persisting its state to disk,
    /// and checking and recovering that state on restart."
    pub fn persist(&self) -> String {
        xoar_codec::to_string(self)
    }

    /// Recovers a State from its persisted form, validating the record
    /// generations against the global counter (the §7.1 "checking" step).
    pub fn recover(persisted: &str) -> Result<Self, String> {
        let state: XenStoreState =
            xoar_codec::from_str(persisted).map_err(|e| format!("corrupt state: {e}"))?;
        for (key, rec) in &state.map {
            if rec.generation > state.generation {
                return Err(format!(
                    "record {key} from the future (gen {} > global {})",
                    rec.generation, state.generation
                ));
            }
        }
        Ok(state)
    }
}

/// Takes one node off `owner`'s count; an owner at zero leaves the index.
fn owner_count_dec(owner_counts: &mut BTreeMap<DomId, u64>, owner: DomId) {
    if let Some(c) = owner_counts.get_mut(&owner) {
        *c = c.saturating_sub(1);
        if *c == 0 {
            owner_counts.remove(&owner);
        }
    }
}

/// The records at `root` and strictly beneath it, in key order, by one
/// range scan that builds no key. Keys beneath `root` sort after it and
/// before any sibling that extends its last component with a byte above
/// `/`; siblings extended with `-` or `.` sort in between and are skipped.
fn subtree_range<'a>(
    map: &'a BTreeMap<String, NodeRecord>,
    root: &'a str,
) -> impl Iterator<Item = (&'a String, &'a NodeRecord)> + 'a {
    use std::ops::Bound;
    // The byte after the root: `/` under it, none at it. For "/" itself
    // that is every key's first byte.
    let cut = if root == "/" { 0 } else { root.len() };
    let after = move |k: &String| k.as_bytes().get(cut).copied();
    map.range::<str, _>((Bound::Included(root), Bound::Unbounded))
        .take_while(move |(k, _)| k.starts_with(root) && after(k).is_none_or(|b| b <= b'/'))
        .filter(move |(k, _)| after(k).is_none_or(|b| b == b'/'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xoar_hypervisor::DomId;

    fn rec(v: &str) -> NodeRecord {
        NodeRecord {
            value: v.as_bytes().to_vec(),
            perms: NodePerms::owner_only(DomId(0)),
            generation: 0,
        }
    }

    #[test]
    fn put_get_round_trip() {
        let mut s = XenStoreState::new();
        s.serve(KvRequest::Put("/a".into(), rec("hello")));
        match s.serve(KvRequest::Get("/a".into())) {
            KvReply::Record(Some(r)) => assert_eq!(r.value, b"hello"),
            other => panic!("unexpected {other:?}"),
        }
        match s.serve(KvRequest::Get("/missing".into())) {
            KvReply::Record(None) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn generations_increase_monotonically() {
        let mut s = XenStoreState::new();
        s.serve(KvRequest::Put("/a".into(), rec("1")));
        let g1 = match s.serve(KvRequest::Get("/a".into())) {
            KvReply::Record(Some(r)) => r.generation,
            _ => unreachable!(),
        };
        s.serve(KvRequest::Put("/a".into(), rec("2")));
        let g2 = match s.serve(KvRequest::Get("/a".into())) {
            KvReply::Record(Some(r)) => r.generation,
            _ => unreachable!(),
        };
        assert!(g2 > g1);
    }

    #[test]
    fn delete_removes_and_bumps_generation() {
        let mut s = XenStoreState::new();
        s.serve(KvRequest::Put("/a".into(), rec("x")));
        let g = s.generation();
        s.serve(KvRequest::Delete("/a".into()));
        assert!(s.generation() > g);
        assert!(matches!(
            s.serve(KvRequest::Get("/a".into())),
            KvReply::Record(None)
        ));
        // Deleting a missing key does not bump.
        let g = s.generation();
        s.serve(KvRequest::Delete("/a".into()));
        assert_eq!(s.generation(), g);
    }

    #[test]
    fn list_subtree_respects_component_boundaries() {
        let mut s = XenStoreState::new();
        for k in ["/a", "/a/b", "/a/b/c", "/ab", "/z"] {
            s.serve(KvRequest::Put(k.into(), rec("v")));
        }
        match s.serve(KvRequest::ListSubtree("/a".into())) {
            KvReply::Keys(keys) => {
                assert_eq!(keys, vec!["/a", "/a/b", "/a/b/c"], "must exclude /ab");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn subtree_scan_skips_siblings_that_sort_inside_it() {
        let mut s = XenStoreState::new();
        // `-` and `.` sort below `/`, so these siblings sit between "/a"
        // and "/a/b" in key order; "/a0" sorts after the subtree.
        for k in [
            "/a", "/a-b", "/a.c", "/a/b", "/a/b-c", "/a/b/d", "/a0", "/b",
        ] {
            s.serve(KvRequest::Put(k.into(), rec("v")));
        }
        let want = vec!["/a", "/a/b", "/a/b-c", "/a/b/d"];
        let ops = s.ops_served();
        let lent: Vec<&str> = s.subtree("/a").map(|(k, _)| k.as_str()).collect();
        assert_eq!(lent, want);
        assert_eq!(s.ops_served(), ops + 1, "one counted operation");
        match s.serve(KvRequest::ListSubtree("/a".into())) {
            KvReply::Keys(keys) => assert_eq!(keys, want),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.subtree("/a/b/d").count(), 1, "a leaf is its own subtree");
        assert_eq!(s.subtree("/c").count(), 0);
    }

    #[test]
    fn delete_replies_with_the_removed_record() {
        let mut s = XenStoreState::new();
        s.serve(KvRequest::Put("/a".into(), rec("x")));
        match s.serve(KvRequest::Delete("/a".into())) {
            KvReply::Record(Some(r)) => assert_eq!(r.value, b"x"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            s.serve(KvRequest::Delete("/a".into())),
            KvReply::Record(None)
        ));
    }

    #[test]
    fn list_subtree_of_root() {
        let mut s = XenStoreState::new();
        s.serve(KvRequest::Put("/a".into(), rec("v")));
        s.serve(KvRequest::Put("/b".into(), rec("v")));
        match s.serve(KvRequest::ListSubtree("/".into())) {
            KvReply::Keys(keys) => assert_eq!(keys, vec!["/a", "/b"]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn owner_index_tracks_puts_deletes_and_owner_changes() {
        let mut s = XenStoreState::new();
        let a = DomId(1);
        let b = DomId(2);
        let mut ra = rec("x");
        ra.perms = NodePerms::owner_only(a);
        let mut rb = rec("y");
        rb.perms = NodePerms::owner_only(b);
        s.serve(KvRequest::Put("/n1".into(), ra.clone()));
        s.serve(KvRequest::Put("/n2".into(), ra.clone()));
        assert_eq!(s.owner_counts().get(&a), Some(&2));
        // Replacing a record with a different owner moves the charge.
        s.serve(KvRequest::Put("/n2".into(), rb.clone()));
        assert_eq!(s.owner_counts().get(&a), Some(&1));
        assert_eq!(s.owner_counts().get(&b), Some(&1));
        // Deletes drain the index; zero-count owners drop out entirely.
        s.serve(KvRequest::Delete("/n1".into()));
        s.serve(KvRequest::Delete("/n2".into()));
        assert!(s.owner_counts().is_empty());
    }

    /// `update` leaves what a Put of the edited record would, counted
    /// the same, and changes no record for a missing key.
    #[test]
    fn update_matches_a_put_of_the_edited_record() {
        let (a, b) = (DomId(1), DomId(2));
        let mut put = XenStoreState::new();
        for k in ["/n", "/@watch/1/t"] {
            let mut r = rec("x");
            r.perms = NodePerms::owner_only(a);
            put.serve(KvRequest::Put(k.into(), r));
        }
        let mut upd = put.clone();
        for k in ["/n", "/@watch/1/t"] {
            let mut r = put.peek(k).unwrap().clone();
            r.value = b"yy".to_vec();
            r.perms = NodePerms::owner_only(b);
            put.serve(KvRequest::Put(k.into(), r));
            assert!(upd.update(k, |r| {
                r.value.clear();
                r.value.extend_from_slice(b"yy");
                r.perms.owner = b;
            }));
        }
        assert_eq!(upd.peek("/n"), put.peek("/n"));
        assert_eq!(upd.peek("/@watch/1/t"), put.peek("/@watch/1/t"));
        assert_eq!(upd.owner_counts(), put.owner_counts());
        assert_eq!(upd.owner_counts().get(&b), Some(&1));
        assert_eq!(
            (upd.generation(), upd.ops_served()),
            (put.generation(), put.ops_served())
        );
        let gen = upd.generation();
        assert!(!upd.update("/missing", |r| r.value.clear()));
        assert_eq!(upd.generation(), gen, "nothing changed");
        assert!(upd.peek("/missing").is_none());
    }

    #[test]
    fn reserved_namespace_excluded_from_owner_index() {
        let mut s = XenStoreState::new();
        s.serve(KvRequest::Put("/@watch/7/tok".into(), rec("7|/a|tok")));
        assert!(s.owner_counts().is_empty(), "journal keys are not charged");
        assert_eq!(
            s.entries_under("/@watch").count(),
            1,
            "but they are reachable through the range scan"
        );
    }

    #[test]
    fn entries_under_respects_prefix_bounds() {
        let mut s = XenStoreState::new();
        for k in ["/a", "/a/b", "/ab", "/b"] {
            s.serve(KvRequest::Put(k.into(), rec("v")));
        }
        let keys: Vec<&str> = s.entries_under("/a").map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["/a", "/a/b", "/ab"], "raw prefix match");
    }

    #[test]
    fn ops_counter_tracks_protocol_traffic() {
        let mut s = XenStoreState::new();
        s.serve(KvRequest::Generation);
        s.serve(KvRequest::Put("/a".into(), rec("v")));
        s.serve(KvRequest::Get("/a".into()));
        assert_eq!(s.ops_served(), 3);
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use xoar_hypervisor::DomId;

    fn rec2(v: &str) -> NodeRecord {
        NodeRecord {
            value: v.as_bytes().to_vec(),
            perms: crate::perm::NodePerms::owner_only(DomId(0)),
            generation: 0,
        }
    }

    #[test]
    fn persist_recover_round_trip() {
        let mut s = XenStoreState::new();
        s.serve(KvRequest::Put("/a".into(), rec2("alpha")));
        s.serve(KvRequest::Put("/a/b".into(), rec2("beta")));
        let blob = s.persist();
        let r = XenStoreState::recover(&blob).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.peek("/a").unwrap().value, b"alpha");
        assert_eq!(r.generation(), s.generation());
    }

    #[test]
    fn recover_rebuilds_owner_index() {
        let mut s = XenStoreState::new();
        s.serve(KvRequest::Put("/a".into(), rec2("alpha")));
        s.serve(KvRequest::Put("/a/b".into(), rec2("beta")));
        s.serve(KvRequest::Put("/@watch/0/t".into(), rec2("0|/a|t")));
        let r = XenStoreState::recover(&s.persist()).unwrap();
        assert_eq!(r.owner_counts(), s.owner_counts());
        assert_eq!(r.owner_counts().get(&DomId(0)), Some(&2));
    }

    #[test]
    fn corrupt_blob_rejected() {
        assert!(XenStoreState::recover("not json").is_err());
    }

    #[test]
    fn future_generation_rejected() {
        let mut s = XenStoreState::new();
        s.serve(KvRequest::Put("/a".into(), rec2("x")));
        let blob = s.persist();
        // Tamper: bump the *record's* generation (serialized first, inside
        // the map) beyond the global counter.
        let blob = blob.replacen("\"generation\":1", "\"generation\":999", 1);
        assert!(XenStoreState::recover(&blob).is_err());
    }

    #[test]
    fn recovered_state_serves_a_fresh_logic() {
        use crate::logic::XenStoreLogic;
        use crate::path::XsPath;
        let dom0 = DomId(0);
        let mut logic = XenStoreLogic::new();
        logic.set_privileged(dom0, true);
        let mut state = XenStoreState::new();
        logic
            .write(
                &mut state,
                dom0,
                None,
                &XsPath::parse("/tool/cfg").unwrap(),
                b"v1",
            )
            .unwrap();
        // "Restart XenStore by persisting its state to disk": both halves
        // die; State comes back from the blob, Logic recovers from it.
        let blob = state.persist();
        drop((logic, state));
        let mut state = XenStoreState::recover(&blob).unwrap();
        let mut logic = XenStoreLogic::new();
        logic.set_privileged(dom0, true);
        logic.recover(&state);
        assert_eq!(
            logic
                .read(&mut state, dom0, None, &XsPath::parse("/tool/cfg").unwrap())
                .unwrap(),
            b"v1"
        );
    }
}
