//! A template's XenStore subtrees, compiled once for stamping clones.
//!
//! `capture_template` reads each subtree a guest owns in the store — its
//! home and the per-guest directory each of its backends keeps — in one
//! range pass, as a [`SubtreeLayout`] (the keys under the root, checked
//! once) and the nodes' values and permissions, and compiles it here. A
//! node's value becomes literal text with slots where the clone's domain
//! id goes, and its permissions the template's with the template id
//! turned into slots. A clone is then one `create_subtree` request per
//! root with the captured layout: no value is searched and no key is
//! parsed or re-checked per clone, and every node keeps the ACL the
//! template's node has.
//!
//! This plan is kept apart from the hypervisor's `StampPlan` (the grant
//! entries a clone replays) and the restart engine's `RestartPlan` (ring
//! and port scratch for a microreboot): the three share no logic.

use xoar_hypervisor::DomId;
use xoar_xenstore::{NodeData, NodePerms, PermEntry, PermLevel, SubtreeLayout};

/// The xenbus conventions that embed a domain id in a value, in the order
/// the rewrite applies them.
const ID_PATTERNS: [&str; 3] = ["domain", "vif", "vbd"];

/// A value with the template's domain id cut out: literal bytes, and the
/// offsets into them where a clone's id goes.
#[derive(Debug)]
struct Text {
    lit: Vec<u8>,
    slots: Vec<usize>,
}

impl Text {
    /// Compiles a captured value. A value that is the template id is one
    /// slot. Otherwise each `/domain/<id>/`, `/vif/<id>/` and `/vbd/<id>/`
    /// becomes a slot between its literal ends, pattern by pattern, just
    /// where sequential left-to-right `str::replace`s of the three would
    /// rewrite it. A match never spans an earlier slot: a slot's digits
    /// follow another pattern's kind, so each pass searches the literal
    /// pieces alone.
    fn compile(value: &[u8], template: &str) -> Self {
        if value == template.as_bytes() {
            return Text {
                lit: Vec::new(),
                slots: vec![0],
            };
        }
        // Literal pieces; a slot sits between each two.
        let mut pieces = vec![value.to_vec()];
        for kind in ID_PATTERNS {
            let pattern = format!("/{kind}/{template}/");
            let pattern = pattern.as_bytes();
            if !pieces.iter().any(|p| find(p, pattern).is_some()) {
                continue;
            }
            let mut split = Vec::with_capacity(pieces.len() + 1);
            for piece in pieces {
                let mut rest = piece.as_slice();
                let mut cur = Vec::new();
                while let Some(at) = find(rest, pattern) {
                    cur.extend_from_slice(&rest[..at]);
                    // `/<kind>/`, then the slot, then the closing `/`.
                    cur.extend_from_slice(&pattern[..kind.len() + 2]);
                    split.push(std::mem::replace(&mut cur, vec![b'/']));
                    rest = &rest[at + pattern.len()..];
                }
                cur.extend_from_slice(rest);
                split.push(cur);
            }
            pieces = split;
        }
        let mut lit = Vec::new();
        let mut slots = Vec::with_capacity(pieces.len() - 1);
        for (i, piece) in pieces.iter().enumerate() {
            if i > 0 {
                slots.push(lit.len());
            }
            lit.extend_from_slice(piece);
        }
        Text { lit, slots }
    }

    /// The value with `id` in every slot.
    fn render(&self, id: &str) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.lit.len() + self.slots.len() * id.len());
        let mut at = 0;
        for &slot in &self.slots {
            out.extend_from_slice(&self.lit[at..slot]);
            out.extend_from_slice(id.as_bytes());
            at = slot;
        }
        out.extend_from_slice(&self.lit[at..]);
        out
    }
}

/// The first offset of `needle` in `hay`.
fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// A domain named in a node's permissions: the template (a slot for the
/// clone) or any other domain, kept as it is.
#[derive(Debug, Clone, Copy)]
enum Dom {
    Clone,
    Fixed(DomId),
}

impl Dom {
    fn of(dom: DomId, template: DomId) -> Self {
        if dom == template {
            Dom::Clone
        } else {
            Dom::Fixed(dom)
        }
    }

    fn resolve(self, clone: DomId) -> DomId {
        match self {
            Dom::Clone => clone,
            Dom::Fixed(dom) => dom,
        }
    }
}

/// A node's permissions with the template id as a slot.
#[derive(Debug)]
struct Perms {
    owner: Dom,
    default: PermLevel,
    entries: Vec<(Dom, PermLevel)>,
}

impl Perms {
    fn compile(perms: &NodePerms, template: DomId) -> Self {
        Perms {
            owner: Dom::of(perms.owner, template),
            default: perms.default,
            entries: perms
                .entries
                .iter()
                .map(|e| (Dom::of(e.dom, template), e.level))
                .collect(),
        }
    }

    fn render(&self, clone: DomId) -> NodePerms {
        NodePerms {
            owner: self.owner.resolve(clone),
            default: self.default,
            entries: self
                .entries
                .iter()
                .map(|&(dom, level)| PermEntry {
                    dom: dom.resolve(clone),
                    level,
                })
                .collect(),
        }
    }
}

/// A node's value: compiled text, or the clone's own name.
#[derive(Debug)]
enum Value {
    Text(Text),
    Name,
}

/// One subtree: its root key, less the template id it ends in, its
/// layout, and each node's value and permissions in the layout's order.
#[derive(Debug)]
struct Subtree {
    root_prefix: String,
    layout: SubtreeLayout,
    nodes: Vec<(Value, Perms)>,
}

/// Every XenStore subtree of a template, compiled for stamping clones.
#[derive(Debug)]
pub(crate) struct XsPlan {
    subtrees: Vec<Subtree>,
}

impl XsPlan {
    /// Compiles the subtrees read from `template`'s store: for each, its
    /// root key (ending in the template id) and the layout and nodes
    /// `read_subtree` returned. The home's `name` node keeps its
    /// permissions and takes each clone's name as its value.
    pub(crate) fn compile(
        template: DomId,
        subtrees: Vec<(String, SubtreeLayout, Vec<NodeData>)>,
    ) -> Self {
        let id = template.0.to_string();
        let home = format!("/local/domain/{id}");
        let subtrees = subtrees
            .into_iter()
            .map(|(root, layout, nodes)| Subtree {
                root_prefix: root
                    .strip_suffix(id.as_str())
                    .expect("a captured subtree root ends in the template id")
                    .to_string(),
                nodes: layout
                    .suffixes()
                    .zip(nodes)
                    .map(|(suffix, (value, perms))| {
                        let value = if root == home && suffix == "/name" {
                            Value::Name
                        } else {
                            Value::Text(Text::compile(&value, &id))
                        };
                        (value, Perms::compile(&perms, template))
                    })
                    .collect(),
                layout,
            })
            .collect();
        XsPlan { subtrees }
    }

    /// The `create_subtree` requests that stamp the plan for `clone`,
    /// named `name`: one `(root, layout, nodes)` per subtree.
    pub(crate) fn stamp<'a>(
        &'a self,
        clone: DomId,
        name: &'a str,
    ) -> impl Iterator<Item = (String, &'a SubtreeLayout, Vec<NodeData>)> + 'a {
        let id = clone.0.to_string();
        self.subtrees.iter().map(move |subtree| {
            let root = format!("{}{id}", subtree.root_prefix);
            let nodes = subtree
                .nodes
                .iter()
                .map(|(value, perms)| {
                    let value = match value {
                        Value::Text(text) => text.render(&id),
                        Value::Name => name.as_bytes().to_vec(),
                    };
                    (value, perms.render(clone))
                })
                .collect();
            (root, &subtree.layout, nodes)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compiled rewrite must stay byte-identical to: three sequential
    /// `str::replace`s, each non-overlapping left to right.
    fn sequential_retarget(value: &str, from: DomId, to: DomId) -> String {
        if value == from.0.to_string() {
            return to.0.to_string();
        }
        let (f, t) = (from.0, to.0);
        value
            .replace(&format!("/domain/{f}/"), &format!("/domain/{t}/"))
            .replace(&format!("/vif/{f}/"), &format!("/vif/{t}/"))
            .replace(&format!("/vbd/{f}/"), &format!("/vbd/{t}/"))
    }

    fn retarget(value: &str, from: u32, to: u32) -> String {
        let text = Text::compile(value.as_bytes(), &from.to_string());
        String::from_utf8(text.render(&to.to_string())).expect("ASCII in, ASCII out")
    }

    #[test]
    fn retarget_rewrites_the_template_id_only_where_xenbus_embeds_it() {
        for (value, want) in [
            // A value that is the template id itself.
            ("9", "42"),
            // Both conventions in one path, and adjacent patterns that
            // share a slash.
            (
                "/local/domain/9/backend/vif/9/0",
                "/local/domain/42/backend/vif/42/0",
            ),
            (
                "/local/domain/9/vbd/9/vif/9/",
                "/local/domain/42/vbd/42/vif/42/",
            ),
            // One pattern twice over a shared slash: replaced once, as a
            // non-overlapping left-to-right `replace` does.
            ("/domain/9/domain/9/", "/domain/42/domain/9/"),
            // Values that never mention the id come back unchanged.
            ("", ""),
            ("4", "4"),
            ("xenbus-state", "xenbus-state"),
            (
                "/local/domain/0/backend/vif/2/0",
                "/local/domain/0/backend/vif/2/0",
            ),
            ("/local/domain/9", "/local/domain/9"),
            ("99", "99"),
        ] {
            assert_eq!(retarget(value, 9, 42), want, "{value}");
        }
        // Id-prefix collisions: template 1 must not touch domain 12 or
        // device 19.
        for (value, want) in [
            ("1", "5"),
            ("12", "12"),
            ("/local/domain/12/device", "/local/domain/12/device"),
            (
                "/local/domain/1/backend/vbd/19/0",
                "/local/domain/5/backend/vbd/19/0",
            ),
            ("/backend/vbd/19/0", "/backend/vbd/19/0"),
            ("/backend/vif/1/0", "/backend/vif/5/0"),
        ] {
            assert_eq!(retarget(value, 1, 5), want, "{value}");
        }
        // And byte-identical to the sequential replaces on arbitrary
        // mixes of the three patterns, ids and separators.
        let pieces = ["/domain/", "/vif/", "/vbd/", "/", "1", "12", "9", "x", "0"];
        xoar_sim::prop::Runner::cases(512).run("retarget matches sequential replaces", |g| {
            let value: String = g.vec(0..12, |g| *g.choose(&pieces)).concat();
            let (from, to) = (DomId(*g.choose(&[1, 9, 12])), DomId(g.u32(0..200)));
            assert_eq!(
                retarget(&value, from.0, to.0),
                sequential_retarget(&value, from, to),
                "{value:?} {from:?}->{to:?}"
            );
        });
    }

    #[test]
    fn stamp_moves_keys_owners_and_acl_entries_to_the_clone() {
        let (tpl, clone, backend) = (DomId(9), DomId(42), DomId(6));
        let mut shared = NodePerms::owner_only(tpl);
        shared.set_entry(backend, PermLevel::Read);
        let layout = SubtreeLayout::new([
            "",
            "/device",
            "/device/vif",
            "/device/vif/0",
            "/device/vif/0/backend",
            "/name",
        ])
        .unwrap();
        let own = NodePerms::owner_only(tpl);
        let home = vec![
            (vec![], own.clone()),
            (vec![], own.clone()),
            (vec![], own.clone()),
            (vec![], shared),
            (b"/local/domain/6/backend/vif/9/0".to_vec(), own),
            (b"golden".to_vec(), NodePerms::owner_only(DomId(3))),
        ];
        let plan = XsPlan::compile(tpl, vec![("/local/domain/9".into(), layout.clone(), home)]);
        let stamped: Vec<_> = plan.stamp(clone, "fn-b").collect();
        let mut shared = NodePerms::owner_only(clone);
        shared.set_entry(backend, PermLevel::Read);
        let own = NodePerms::owner_only(clone);
        assert_eq!(
            stamped,
            vec![(
                "/local/domain/42".to_string(),
                &layout,
                vec![
                    (vec![], own.clone()),
                    (vec![], own.clone()),
                    (vec![], own.clone()),
                    (vec![], shared),
                    (b"/local/domain/6/backend/vif/42/0".to_vec(), own),
                    (b"fn-b".to_vec(), NodePerms::owner_only(DomId(3))),
                ]
            )]
        );
    }
}
