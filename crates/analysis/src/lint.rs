//! Token-level source linter for the workspace's layering rules.
//!
//! Zero dependencies and no rustc: a comment/string-aware stripper turns
//! each source file into a token-safe skeleton, and four rules scan it:
//!
//! * **`no-panic`** — non-test code in `crates/hypervisor/src` must not
//!   call `.unwrap()` / `.expect(…)` or expand `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!`. The hypervisor is the
//!   trusted computing base; it returns typed [`xoar_hypervisor::HvError`]s.
//! * **`boundary`** — `crates/devices/src` and `crates/core/src` may
//!   name `memory::` / `grant::` items only for the plain data types
//!   (frame numbers, page handles, grant refs), and may touch the
//!   hypervisor's `mem` field only through the read-side helpers;
//!   everything that *mutates* memory or grant state must go through
//!   the hypercall layer where access control lives.
//! * **`region-isolation`** — the split-borrow primitives that hold two
//!   domains' state regions at once (`region_pair_mut`,
//!   `object_region_mut`) may be invoked only from the cross-region
//!   module (`xregion.rs`), and the per-domain `regions` map may be
//!   poked only there and in `hypervisor.rs` (which owns the field);
//!   everyone else reaches another domain's region through a hypercall
//!   or a `Hypervisor` facade method.
//! * **`dispatch-exhaustive`** — every `Hypercall` variant must appear
//!   in `Hypercall::id()` and in the dispatcher in `hypervisor.rs`;
//!   adding a call without classing and dispatching it fails the lint
//!   rather than silently weakening the model. (The `HypercallId`
//!   tables need no check: one macro table generates them all.)

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LintFinding {
    /// Repo-relative path (`/`-separated).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule ID.
    pub rule: &'static str,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// What is wrong.
    pub msg: String,
}

impl LintFinding {
    /// One-line rendering.
    pub fn render(&self) -> String {
        format!(
            "LINT {}:{} [{}] {} | {}",
            self.file, self.line, self.rule, self.msg, self.excerpt
        )
    }
}

/// A source file handed to the linter (in-memory; tests build these
/// directly, the binary loads them from disk).
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path.
    pub path: String,
    /// Full file content.
    pub content: String,
}

// ---------------------------------------------------------------------
// Stripper: blank out comments and literal contents, preserving layout.
// ---------------------------------------------------------------------

/// Replaces comments and string/char-literal contents with spaces,
/// keeping every other byte (including newlines and quote delimiters) at
/// its original offset, so token scans cannot match inside prose and
/// line numbers stay true.
pub fn strip_code(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(b.len());
    let n = b.len();
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < n {
        let c = b[i];
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1;
            out.push(' ');
            out.push(' ');
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw string r"…" / r#"…"# (also br…).
        if (c == 'r' || c == 'b') && {
            let mut j = i;
            if b[j] == 'b' && j + 1 < n && b[j + 1] == 'r' {
                j += 1;
            }
            let mut k = j + 1;
            while k < n && b[k] == '#' {
                k += 1;
            }
            k < n && b[k] == '"' && (b[j] == 'r')
        } {
            // Re-derive the bounds (the guard above only peeked).
            let mut j = i;
            out.push(b[j]);
            if b[j] == 'b' {
                j += 1;
                out.push(b[j]);
            }
            let mut hashes = 0;
            let mut k = j + 1;
            while k < n && b[k] == '#' {
                hashes += 1;
                out.push('#');
                k += 1;
            }
            out.push('"');
            k += 1;
            // Scan to closing quote followed by `hashes` hashes.
            while k < n {
                if b[k] == '"' {
                    let mut h = 0;
                    while k + 1 + h < n && h < hashes && b[k + 1 + h] == '#' {
                        h += 1;
                    }
                    if h == hashes {
                        out.push('"');
                        for _ in 0..hashes {
                            out.push('#');
                        }
                        k += 1 + hashes;
                        break;
                    }
                }
                out.push(blank(b[k]));
                k += 1;
            }
            i = k;
            continue;
        }
        // Ordinary string (also b"…").
        if c == '"' {
            out.push('"');
            i += 1;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    out.push('"');
                    i += 1;
                    break;
                }
                out.push(blank(b[i]));
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime: only treat as a literal when it
        // closes ('x' or '\…').
        if c == '\'' && i + 1 < n {
            let is_char = b[i + 1] == '\\' || (i + 2 < n && b[i + 2] == '\'' && b[i + 1] != '\'');
            if is_char {
                out.push('\'');
                i += 1;
                while i < n {
                    if b[i] == '\\' && i + 1 < n {
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                        continue;
                    }
                    if b[i] == '\'' {
                        out.push('\'');
                        i += 1;
                        break;
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out.into_iter().collect()
}

/// Byte spans (over the stripped text) of `#[cfg(test)]`-gated items,
/// found by brace-matching from the attribute to the item's close.
fn test_spans(stripped: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let needle = "#[cfg(test)]";
    let bytes = stripped.as_bytes();
    let mut from = 0;
    while let Some(pos) = stripped[from..].find(needle) {
        let start = from + pos;
        // Find the opening brace of the gated item.
        let mut i = start + needle.len();
        while i < bytes.len() && bytes[i] != b'{' {
            i += 1;
        }
        let mut depth = 0usize;
        let mut end = stripped.len();
        while i < bytes.len() {
            match bytes[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i + 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        spans.push((start, end));
        from = end.max(start + needle.len());
    }
    spans
}

fn in_spans(spans: &[(usize, usize)], offset: usize) -> bool {
    spans.iter().any(|&(s, e)| offset >= s && offset < e)
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Iterates `(byte_offset, ident)` over the stripped text.
fn idents(stripped: &str) -> Vec<(usize, &str)> {
    let bytes = stripped.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident_char(bytes[i]) {
            let start = i;
            while i < bytes.len() && is_ident_char(bytes[i]) {
                i += 1;
            }
            out.push((start, &stripped[start..i]));
        } else {
            i += 1;
        }
    }
    out
}

/// Whether `ident` occurs as a whole token in `text`.
fn contains_token(text: &str, ident: &str) -> bool {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find(ident) {
        let s = from + pos;
        let e = s + ident.len();
        let before_ok = s == 0 || !is_ident_char(bytes[s - 1]);
        let after_ok = e >= bytes.len() || !is_ident_char(bytes[e]);
        if before_ok && after_ok {
            return true;
        }
        from = s + 1;
    }
    false
}

fn line_of(src: &str, offset: usize) -> usize {
    src.as_bytes()[..offset.min(src.len())]
        .iter()
        .filter(|&&c| c == b'\n')
        .count()
        + 1
}

fn excerpt_at(src: &str, offset: usize) -> String {
    let line = line_of(src, offset);
    src.lines().nth(line - 1).unwrap_or("").trim().to_string()
}

fn next_nonspace(bytes: &[u8], mut i: usize) -> Option<u8> {
    while i < bytes.len() {
        if !bytes[i].is_ascii_whitespace() {
            return Some(bytes[i]);
        }
        i += 1;
    }
    None
}

// ---------------------------------------------------------------------
// Rule: no-panic (hypervisor crate only).
// ---------------------------------------------------------------------

const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn rule_no_panic(file: &SourceFile, stripped: &str, out: &mut Vec<LintFinding>) {
    if !file.path.starts_with("crates/hypervisor/src/") {
        return;
    }
    let spans = test_spans(stripped);
    let bytes = stripped.as_bytes();
    for (off, ident) in idents(stripped) {
        if in_spans(&spans, off) {
            continue;
        }
        let after = next_nonspace(bytes, off + ident.len());
        let preceded_by_dot = off > 0 && bytes[off - 1] == b'.';
        let hit = (PANIC_METHODS.contains(&ident) && preceded_by_dot && after == Some(b'('))
            || (PANIC_MACROS.contains(&ident) && after == Some(b'!'));
        if hit {
            out.push(LintFinding {
                file: file.path.clone(),
                line: line_of(stripped, off),
                rule: "no-panic",
                excerpt: excerpt_at(&file.content, off),
                msg: format!("`{ident}` in non-test hypervisor code; return an HvError"),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule: boundary (devices and core crates).
// ---------------------------------------------------------------------

/// Plain data types devices/core may name from the memory/grant modules.
const BOUNDARY_TYPE_ALLOW: [&str; 9] = [
    "Pfn",
    "Mfn",
    "PageRef",
    "PAGE_SIZE",
    "MemError",
    "MemoryError",
    "GrantRef",
    "GrantAccess",
    "GrantError",
];

/// The read-only `hv.mem` helpers: they change no state, so they need
/// no gate. Every mutation — page contents, ownership, mappings, dirty
/// logs, dedup — must travel through `Hypervisor::hypercall`.
const MEM_METHOD_ALLOW: [&str; 2] = ["read", "p2m_entries"];

fn rule_boundary(file: &SourceFile, stripped: &str, out: &mut Vec<LintFinding>) {
    if !(file.path.starts_with("crates/devices/src/") || file.path.starts_with("crates/core/src/"))
    {
        return;
    }
    let spans = test_spans(stripped);
    let bytes = stripped.as_bytes();
    let toks = idents(stripped);
    for (k, &(off, ident)) in toks.iter().enumerate() {
        if in_spans(&spans, off) {
            continue;
        }
        // `memory::X` / `grant::X` module paths: X must be a data type,
        // and so must every name of a `memory::{X, Y}` brace group.
        if (ident == "memory" || ident == "grant")
            && bytes.get(off + ident.len()) == Some(&b':')
            && bytes.get(off + ident.len() + 1) == Some(&b':')
        {
            let path_end = off + ident.len() + 2;
            let named = match next_nonspace(bytes, path_end) {
                Some(b'{') => brace_group_names(&toks[k + 1..], bytes, path_end),
                _ => toks.get(k + 1).map(|&(_, next)| next).into_iter().collect(),
            };
            for next in named {
                if !BOUNDARY_TYPE_ALLOW.contains(&next) {
                    out.push(LintFinding {
                        file: file.path.clone(),
                        line: line_of(stripped, off),
                        rule: "boundary",
                        excerpt: excerpt_at(&file.content, off),
                        msg: format!(
                            "`{ident}::{next}` reaches hypervisor internals; use the \
                             hypercall layer (allowed types: data handles only)"
                        ),
                    });
                }
            }
        }
        // `.mem.<method>` field pokes: read-side helpers only.
        if ident == "mem" && off > 0 && bytes[off - 1] == b'.' {
            if let Some(&(moff, method)) = toks.get(k + 1) {
                // rustfmt splits long chains as `mem\n    .method`.
                let direct_follow = next_nonspace(bytes, off + ident.len()) == Some(b'.');
                if direct_follow && !MEM_METHOD_ALLOW.contains(&method) {
                    out.push(LintFinding {
                        file: file.path.clone(),
                        line: line_of(stripped, moff),
                        rule: "boundary",
                        excerpt: excerpt_at(&file.content, off),
                        msg: format!(
                            "`.mem.{method}` mutates memory state outside the hypercall \
                             layer"
                        ),
                    });
                }
            }
        }
        // `.grants` is a hypervisor-private table; no direct access.
        if ident == "grants" && off > 0 && bytes[off - 1] == b'.' {
            out.push(LintFinding {
                file: file.path.clone(),
                line: line_of(stripped, off),
                rule: "boundary",
                excerpt: excerpt_at(&file.content, off),
                msg: "direct grant-table access; use Hypervisor::grant_table or a hypercall"
                    .to_string(),
            });
        }
    }
}

/// The names a `use` brace group imports, the group opening at `from`
/// after any whitespace: every identifier up to its matching `}`,
/// nested groups included, except an `as` and the alias after it.
/// `toks` starts at the group's first identifier.
fn brace_group_names<'a>(toks: &[(usize, &'a str)], bytes: &[u8], from: usize) -> Vec<&'a str> {
    let mut depth = 0usize;
    let mut end = from;
    while end < bytes.len() {
        match bytes[end] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        end += 1;
    }
    let mut names = Vec::new();
    let mut alias = false;
    for &(_, name) in toks.iter().take_while(|&&(off, _)| off < end) {
        match name {
            "as" => alias = true,
            _ if alias => alias = false,
            _ => names.push(name),
        }
    }
    names
}

// ---------------------------------------------------------------------
// Rule: region-isolation (per-domain state regions stay behind the
// cross-region module).
// ---------------------------------------------------------------------

/// The split-borrow primitives that hold two domains' state regions at
/// once. Only the cross-region module may invoke them — every other
/// caller must go through one of its operations instead.
const REGION_PAIR_PRIMITIVES: [&str; 2] = ["region_pair_mut", "object_region_mut"];

fn rule_region(file: &SourceFile, stripped: &str, out: &mut Vec<LintFinding>) {
    let is_xregion = file.path == "crates/hypervisor/src/xregion.rs";
    // `hypervisor.rs` owns the `regions` field and hands it to xregion;
    // everyone else goes through hypercalls or the facade methods.
    let owns_map = is_xregion || file.path == "crates/hypervisor/src/hypervisor.rs";
    if is_xregion {
        return;
    }
    let spans = test_spans(stripped);
    let bytes = stripped.as_bytes();
    for &(off, ident) in &idents(stripped) {
        if in_spans(&spans, off) {
            continue;
        }
        if REGION_PAIR_PRIMITIVES.contains(&ident) {
            out.push(LintFinding {
                file: file.path.clone(),
                line: line_of(stripped, off),
                rule: "region-isolation",
                excerpt: excerpt_at(&file.content, off),
                msg: format!(
                    "`{ident}` borrows two domains' state regions at once; only the \
                     cross-region module (xregion.rs) may do that"
                ),
            });
        }
        if ident == "regions" && off > 0 && bytes[off - 1] == b'.' && !owns_map {
            out.push(LintFinding {
                file: file.path.clone(),
                line: line_of(stripped, off),
                rule: "region-isolation",
                excerpt: excerpt_at(&file.content, off),
                msg: "direct access to the per-domain region map; use a hypercall or a \
                      Hypervisor facade method"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule: dispatch-exhaustive (cross-file, hypercall.rs + hypervisor.rs).
// ---------------------------------------------------------------------

/// The delimited region opened by the first `open` after `marker`.
fn region_after(text: &str, marker: &str, open: u8, close: u8) -> Option<(usize, usize)> {
    let start = text.find(marker)?;
    let bytes = text.as_bytes();
    let mut i = start + marker.len();
    while i < bytes.len() && bytes[i] != open {
        i += 1;
    }
    let body_start = i;
    let mut depth = 0usize;
    while i < bytes.len() {
        if bytes[i] == open {
            depth += 1;
        } else if bytes[i] == close {
            depth -= 1;
            if depth == 0 {
                return Some((body_start, i + 1));
            }
        }
        i += 1;
    }
    None
}

/// Variant names of an enum: idents at brace depth 1 of its body.
fn enum_variants<'a>(stripped: &'a str, enum_marker: &str) -> Vec<(usize, &'a str)> {
    let Some((s, e)) = region_after(stripped, enum_marker, b'{', b'}') else {
        return Vec::new();
    };
    let body = &stripped[s..e];
    let bytes = body.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'(' | b'<' => {
                depth += 1;
                i += 1;
            }
            b'}' | b')' | b'>' => {
                depth = depth.saturating_sub(1);
                i += 1;
            }
            c if is_ident_char(c) => {
                let start = i;
                while i < bytes.len() && is_ident_char(bytes[i]) {
                    i += 1;
                }
                if depth == 1 {
                    out.push((s + start, &body[start..i]));
                }
            }
            _ => i += 1,
        }
    }
    out
}

fn dispatch_finding(file: &str, line: usize, excerpt: &str, msg: String) -> LintFinding {
    LintFinding {
        file: file.to_string(),
        line,
        rule: "dispatch-exhaustive",
        excerpt: excerpt.to_string(),
        msg,
    }
}

fn rule_dispatch(files: &[SourceFile], out: &mut Vec<LintFinding>) {
    let find = |suffix: &str| files.iter().find(|f| f.path.ends_with(suffix));
    let Some(hc) = find("crates/hypervisor/src/hypercall.rs") else {
        return;
    };
    let stripped = strip_code(&hc.content);

    // Hypercall payload variants vs the id() map and the dispatcher.
    let call_variants = enum_variants(&stripped, "enum Hypercall ");
    if let Some((s, e)) = region_after(&stripped, "fn id(", b'{', b'}') {
        let text = &stripped[s..e];
        for &(off, v) in &call_variants {
            if !contains_token(text, v) {
                out.push(dispatch_finding(
                    &hc.path,
                    line_of(&stripped, off),
                    &excerpt_at(&hc.content, off),
                    format!("Hypercall::{v} missing from Hypercall::id()"),
                ));
            }
        }
    }
    if let Some(hv) = find("crates/hypervisor/src/hypervisor.rs") {
        let hv_stripped = strip_code(&hv.content);
        for &(off, v) in &call_variants {
            if !contains_token(&hv_stripped, v) {
                out.push(dispatch_finding(
                    &hc.path,
                    line_of(&stripped, off),
                    &excerpt_at(&hc.content, off),
                    format!("Hypercall::{v} has no dispatch arm in hypervisor.rs"),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

/// Lints a set of in-memory sources; findings are sorted and deduped.
pub fn lint_sources(files: &[SourceFile]) -> Vec<LintFinding> {
    let mut out = Vec::new();
    for f in files {
        let stripped = strip_code(&f.content);
        rule_no_panic(f, &stripped, &mut out);
        rule_boundary(f, &stripped, &mut out);
        rule_region(f, &stripped, &mut out);
    }
    rule_dispatch(files, &mut out);
    out.sort();
    out.dedup();
    out
}

/// Loads every `crates/*/src/**/*.rs` file under `root`, sorted by path.
pub fn load_tree(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, root, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, root, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile {
                path: rel,
                content: fs::read_to_string(&p)?,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, content: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            content: content.to_string(),
        }
    }

    #[test]
    fn stripper_blanks_comments_and_strings() {
        let src = "let a = \"unwrap()\"; // .unwrap()\n/* panic! */ let b = 'x';\n";
        let s = strip_code(src);
        assert!(!s.contains("unwrap"));
        assert!(!s.contains("panic"));
        assert_eq!(s.len(), src.len(), "layout preserved");
        assert_eq!(s.matches('\n').count(), 2);
    }

    #[test]
    fn stripper_handles_raw_strings_and_lifetimes() {
        let src = "let r = r#\"x.unwrap()\"#; fn f<'a>(x: &'a str) {}";
        let s = strip_code(src);
        assert!(!s.contains("unwrap"));
        assert!(s.contains("fn f<'a>"), "lifetime untouched: {s}");
    }

    #[test]
    fn no_panic_flags_hypervisor_code_only() {
        let bad = file(
            "crates/hypervisor/src/x.rs",
            "fn f() { y.unwrap(); z.expect(\"m\"); panic!(\"no\"); }",
        );
        let ok_crate = file("crates/core/src/x.rs", "fn f() { y.unwrap(); }");
        let v = lint_sources(&[bad, ok_crate]);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|f| f.rule == "no-panic"));
        assert!(v.iter().all(|f| f.file.starts_with("crates/hypervisor")));
    }

    #[test]
    fn no_panic_skips_tests_and_unwrap_or() {
        let src = "fn f() { a.unwrap_or(0); }\n#[cfg(test)]\nmod tests {\n    fn t() { b.unwrap(); panic!(); }\n}\n";
        let v = lint_sources(&[file("crates/hypervisor/src/x.rs", src)]);
        assert_eq!(v, vec![], "{v:?}");
    }

    #[test]
    fn boundary_allows_data_types_rejects_internals() {
        let ok = file(
            "crates/devices/src/x.rs",
            "use xoar_hypervisor::memory::Pfn; use xoar_hypervisor::grant::GrantRef;",
        );
        assert_eq!(lint_sources(&[ok]), vec![]);
        let bad = file(
            "crates/devices/src/x.rs",
            "use xoar_hypervisor::memory::MemoryManager;\nfn f(hv: &mut H) { hv.mem.populate(d, 4); hv.grants.clear(); }",
        );
        let v = lint_sources(&[bad]);
        let msgs: Vec<&str> = v.iter().map(|f| f.msg.as_str()).collect();
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(msgs.iter().any(|m| m.contains("MemoryManager")));
        assert!(msgs.iter().any(|m| m.contains(".mem.populate")));
        assert!(msgs.iter().any(|m| m.contains("grant-table")));
    }

    #[test]
    fn boundary_checks_every_name_of_a_brace_group() {
        let ok = file(
            "crates/core/src/x.rs",
            "use xoar_hypervisor::memory::{Pfn, PAGE_SIZE as PS};\nuse xoar_hypervisor::grant::{GrantAccess, GrantRef};",
        );
        assert_eq!(lint_sources(&[ok]), vec![]);
        let bad = file(
            "crates/core/src/x.rs",
            "use xoar_hypervisor::memory::{Pfn, MemoryManager};",
        );
        let v = lint_sources(&[bad]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("memory::MemoryManager"), "{v:?}");
    }

    #[test]
    fn boundary_allows_read_side_mem_helpers() {
        let ok = file(
            "crates/core/src/x.rs",
            "fn f(p: &mut P) { p.hv.mem.read(g, Pfn(1)); p.hv.mem.p2m_entries(g); }",
        );
        assert_eq!(lint_sources(&[ok]), vec![]);
    }

    #[test]
    fn boundary_flags_mem_mutators_in_core() {
        let bad = file(
            "crates/core/src/x.rs",
            "fn f(p: &mut P) { p.hv.mem.take_dirty(g); p.hv.mem.share_identical(); }",
        );
        let v = lint_sources(&[bad]);
        let msgs: Vec<&str> = v.iter().map(|f| f.msg.as_str()).collect();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(msgs.iter().any(|m| m.contains(".mem.take_dirty")));
        assert!(msgs.iter().any(|m| m.contains(".mem.share_identical")));
    }

    #[test]
    fn boundary_flags_mem_mutators_split_across_lines() {
        let bad = file(
            "crates/core/src/x.rs",
            "fn f(p: &mut P) {\n    p\n        .hv\n        .mem\n        .write(g, Pfn(1), b\"x\");\n}\n",
        );
        let v = lint_sources(&[bad]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains(".mem.write"), "{v:?}");
        assert_eq!(v[0].line, 5, "reported at the method's line");
    }

    #[test]
    fn region_isolation_flags_split_borrows_outside_xregion() {
        let body = "fn f(hv: &mut Hypervisor) { let (a, b) = region_pair_mut(hv, x, y); }";
        let bad = file("crates/hypervisor/src/event.rs", body);
        let v = lint_sources(&[bad]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "region-isolation");
        assert!(v[0].msg.contains("region_pair_mut"), "{v:?}");
        // The identical content under the cross-region module is fine.
        let ok = file("crates/hypervisor/src/xregion.rs", body);
        assert_eq!(lint_sources(&[ok]), vec![]);
    }

    #[test]
    fn region_isolation_flags_region_map_pokes() {
        let bad = file(
            "crates/core/src/x.rs",
            "fn f(hv: &mut Hypervisor) { hv.regions.get_mut(&dom).unwrap().ports.clear(); }",
        );
        let v = lint_sources(&[bad]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "region-isolation");
        assert!(v[0].msg.contains("region map"), "{v:?}");
        // hypervisor.rs owns the field; bare `regions` idents (locals,
        // parameters) and test code are not field pokes.
        let owner = file(
            "crates/hypervisor/src/hypervisor.rs",
            "fn f(&mut self) { self.regions.clear(); }",
        );
        let local = file(
            "crates/core/src/y.rs",
            "fn f(regions: usize) -> usize { regions + 1 }\n\
             #[cfg(test)]\nmod tests {\n    fn t(hv: &mut H) { hv.regions.len(); }\n}\n",
        );
        assert_eq!(lint_sources(&[owner, local]), vec![]);
    }

    #[test]
    fn dispatch_checks_dispatcher_arms_cross_file() {
        let hc = file(
            "crates/hypervisor/src/hypercall.rs",
            "pub enum HypercallId { Alpha, }\n\
             pub enum Hypercall { DoAlpha { x: u32 }, DoGamma, }\n\
             impl Hypercall { pub fn id(&self) -> HypercallId { match self { DoAlpha{..} => Alpha, DoGamma => Alpha } } }\n",
        );
        let hv = file(
            "crates/hypervisor/src/hypervisor.rs",
            "fn dispatch(c: Hypercall) { match c { Hypercall::DoAlpha { x } => drop(x), } }",
        );
        let v = lint_sources(&[hc, hv]);
        assert!(
            v.iter()
                .any(|f| f.msg.contains("DoGamma") && f.msg.contains("dispatch arm")),
            "{v:?}"
        );
        assert!(v.iter().all(|f| !f.msg.contains("DoAlpha")), "{v:?}");
    }

    #[test]
    fn findings_are_deterministic() {
        let files = [
            file("crates/hypervisor/src/b.rs", "fn f() { x.unwrap(); }"),
            file("crates/hypervisor/src/a.rs", "fn f() { panic!(); }"),
        ];
        let a = lint_sources(&files);
        let b = lint_sources(&files);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted output");
    }
}
