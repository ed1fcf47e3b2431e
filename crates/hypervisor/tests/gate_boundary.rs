//! Keeps the gate boundary a closed classification. Core and devices
//! reach hypervisor memory and grant state only through the hypercall
//! gate; `crates/core/clippy.toml` and `crates/devices/clippy.toml` deny
//! the rest by path. A denylist does not cover an item added later, so
//! every public `MemoryManager` method and every public item of `memory`
//! and `grant` must be either allowed below, with a reason, or denied in
//! both configs. A new one fails this test until it is placed.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Items core and devices may name, each with why it needs no gate.
const ALLOWED: &[(&str, &str)] = &[
    ("memory::Pfn", "a frame number; names no state"),
    ("memory::Mfn", "a frame number; names no state"),
    ("memory::PageRef", "an immutable page body handle"),
    ("memory::RecoveryBox", "plain data passed to VmSnapshot"),
    ("memory::PAGE_SIZE", "a constant"),
    ("memory::content_hash", "a pure function of its argument"),
    ("memory::ZERO_PAGE_HASH", "a constant"),
    ("memory::MemoryManager::read", "read side; ROADMAP item 4"),
    (
        "memory::MemoryManager::p2m_entries",
        "read side; ROADMAP item 4",
    ),
    ("grant::GrantRef", "a capability index; names no state"),
    ("grant::GrantAccess", "an access mode"),
    ("grant::GrantCopyOp", "a hypercall argument"),
    ("grant::GrantCopyDir", "a hypercall argument"),
    ("grant::GrantOpStatus", "a hypercall result"),
    ("grant::DEFAULT_GRANT_CAPACITY", "a constant"),
];

/// A file's lines up to its first `#[cfg(test)]` attribute.
fn non_test(path: &Path) -> Vec<String> {
    let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    src.lines()
        .take_while(|l| l.trim_start() != "#[cfg(test)]")
        .map(str::to_string)
        .collect()
}

/// The name an item declaration (the text after its `pub `) introduces:
/// the last word before its generics, signature, type, body or `;`.
fn item_name(decl: &str) -> String {
    let head = decl.split(|c| "<(:{=;".contains(c)).next().unwrap_or("");
    head.split_whitespace()
        .last()
        .expect("item name")
        .to_string()
}

/// Every public memory and grant item and `MemoryManager` method, as a
/// path below `xoar_hypervisor::`.
fn public_surface() -> Vec<String> {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut out = Vec::new();
    for (module, file) in [("memory", "memory/mod.rs"), ("grant", "grant.rs")] {
        let text = non_test(&src.join(file)).join("\n");
        // A `pub use` (possibly over several lines) re-exports every name
        // after its last `::`.
        for stmt in text.split(';').map(str::trim_start) {
            if let Some(names) = stmt.strip_prefix("pub use ") {
                let names = names.rsplit("::").next().unwrap_or(names);
                let names = names.split(|c: char| "{}, \n".contains(c));
                out.extend(
                    names
                        .filter(|n| !n.is_empty())
                        .map(|n| format!("{module}::{n}")),
                );
            }
        }
        for line in text.lines().filter(|l| !l.starts_with("pub use ")) {
            if let Some(decl) = line.strip_prefix("pub ") {
                out.push(format!("{module}::{}", item_name(decl)));
            }
        }
    }
    for entry in fs::read_dir(src.join("memory")).expect("memory/") {
        let mut in_impl = false;
        for line in non_test(&entry.expect("dir entry").path()) {
            if line.starts_with("impl MemoryManager ") {
                in_impl = true;
            } else if line == "}" {
                in_impl = false;
            } else if let Some(decl) = line.strip_prefix("    pub ").filter(|_| in_impl) {
                out.push(format!("memory::MemoryManager::{}", item_name(decl)));
            }
        }
    }
    out
}

#[test]
fn every_public_memory_and_grant_item_is_allowed_or_denied() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let [core, devices] = ["crates/core/clippy.toml", "crates/devices/clippy.toml"]
        .map(|c| fs::read_to_string(root.join(c)).expect(c));
    assert_eq!(
        core, devices,
        "the core and devices clippy.toml must be identical"
    );
    let denied: BTreeSet<&str> = core
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .flat_map(|l| l.split('"').skip(1).step_by(2))
        .filter_map(|s| s.strip_prefix("xoar_hypervisor::"))
        .collect();

    let surface = public_surface();
    for probe in [
        "memory::MemoryManager::populate",
        "memory::Pfn",
        "grant::GrantTable",
    ] {
        assert!(surface.iter().any(|p| p == probe), "{probe}: {surface:?}");
    }
    let allowed = |p: &str| ALLOWED.iter().any(|(a, _)| *a == p);
    let unplaced: Vec<&String> = surface
        .iter()
        .filter(|p| !allowed(p) && !denied.contains(p.as_str()))
        .collect();
    assert!(
        unplaced.is_empty(),
        "neither allowed here nor denied in clippy.toml: {unplaced:?}"
    );
    for (path, _) in ALLOWED {
        assert!(!denied.contains(path), "{path} is both allowed and denied");
        assert!(surface.iter().any(|p| p == path), "{path} no longer exists");
    }
}
