//! XenStore path handling.
//!
//! Paths are `/`-separated, rooted strings such as
//! `/local/domain/5/device/vif/0/backend`. This module validates and
//! normalises them and provides the conventional locations used by the
//! toolstack and split drivers.

use std::borrow::Cow;

use crate::error::XsError;

/// Maximum length of a XenStore path in bytes (matches the C
/// implementation's `XENSTORE_ABS_PATH_MAX`).
pub const PATH_MAX: usize = 3072;

/// Maximum length of one path component.
pub const COMPONENT_MAX: usize = 256;

/// A validated, normalised, absolute XenStore path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct XsPath(String);

impl XsPath {
    /// Parses and validates an absolute path.
    ///
    /// Rules (as in the C xenstored): must start with `/`, no empty
    /// components, no `.` or `..`, components drawn from a conservative
    /// character set, bounded total and per-component length.
    pub fn parse(raw: &str) -> Result<Self, XsError> {
        Ok(XsPath(Self::check(raw)?.to_string()))
    }

    /// Validates `raw` without allocating and returns its normalised
    /// form (a borrowed prefix: only a trailing `/` is ever dropped).
    fn check(raw: &str) -> Result<&str, XsError> {
        if raw.is_empty() || !raw.starts_with('/') {
            return Err(XsError::BadPath(raw.into()));
        }
        if raw.len() > PATH_MAX {
            return Err(too_long(raw));
        }
        if raw == "/" {
            return Ok(raw);
        }
        let trimmed = raw.strip_suffix('/').unwrap_or(raw);
        match trimmed.strip_prefix('/') {
            Some(rest) if components_ok(rest) => Ok(trimmed),
            _ => Err(XsError::BadPath(raw.into())),
        }
    }

    /// Whether `key` is a valid path already in normalised form, so that
    /// [`XsPath::parse`] would return it unchanged.
    pub(crate) fn is_normalised(key: &str) -> bool {
        Self::check(key).is_ok_and(|k| k.len() == key.len())
    }

    /// Wraps a key the caller knows to be valid and normalised (a stored
    /// key, or the text of another `XsPath`).
    pub(crate) fn from_normalised(key: &str) -> XsPath {
        XsPath(key.to_string())
    }

    /// The path as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The parent path, or `None` for the root.
    pub fn parent(&self) -> Option<XsPath> {
        if self.0 == "/" {
            return None;
        }
        match self.0.rfind('/') {
            Some(0) => Some(XsPath("/".into())),
            Some(i) => Some(XsPath(self.0[..i].to_string())),
            None => None,
        }
    }

    /// The final component, or `""` for the root.
    pub fn leaf(&self) -> &str {
        if self.0 == "/" {
            ""
        } else {
            self.0.rsplit('/').next().unwrap_or("")
        }
    }

    /// Appends a single component, checking only what it appends: the
    /// answer is [`XsPath::parse`]'s for `self` + `/` + `comp`, without
    /// re-reading `self`.
    pub fn child(&self, comp: &str) -> Result<XsPath, XsError> {
        let base = if self.0 == "/" { "" } else { self.0.as_str() };
        let joined = || format!("{base}/{comp}");
        if base.len() + 1 + comp.len() > PATH_MAX {
            return Err(too_long(&joined()));
        }
        // A trailing `/` is dropped, so an empty component names `self`.
        if comp.is_empty() {
            return Ok(self.clone());
        }
        let comp = comp.strip_suffix('/').unwrap_or(comp);
        if !components_ok(comp) {
            return Err(XsError::BadPath(joined()));
        }
        let mut path = String::with_capacity(base.len() + 1 + comp.len());
        path.push_str(base);
        path.push('/');
        path.push_str(comp);
        Ok(XsPath(path))
    }

    /// Whether `self` equals `other` or lies beneath it.
    pub fn starts_with(&self, other: &XsPath) -> bool {
        is_under(&self.0, &other.0)
    }

    /// The conventional per-domain home directory.
    pub fn domain_home(domid: u32) -> XsPath {
        XsPath(format!("/local/domain/{domid}"))
    }
}

/// A path argument to the [`crate::XenStore`] facade's calls: text,
/// parsed on each call, or an already-parsed [`XsPath`], used as it is.
/// A caller that makes several requests under one directory parses the
/// directory once and passes each key as an [`XsPath::child`] of it.
pub trait XsPathArg {
    /// The parsed path, borrowed when it is one already.
    fn xs_path(&self) -> Result<Cow<'_, XsPath>, XsError>;
}

impl XsPathArg for str {
    fn xs_path(&self) -> Result<Cow<'_, XsPath>, XsError> {
        XsPath::parse(self).map(Cow::Owned)
    }
}

impl XsPathArg for String {
    fn xs_path(&self) -> Result<Cow<'_, XsPath>, XsError> {
        self.as_str().xs_path()
    }
}

impl XsPathArg for XsPath {
    fn xs_path(&self) -> Result<Cow<'_, XsPath>, XsError> {
        Ok(Cow::Borrowed(self))
    }
}

/// Whether every `/`-separated component of `rest` is valid: not empty,
/// `.` or `..`, at most [`COMPONENT_MAX`] bytes, and drawn from a
/// conservative character set.
fn components_ok(rest: &str) -> bool {
    rest.split('/').all(|comp| {
        !(comp.is_empty() || comp == "." || comp == "..")
            && comp.len() <= COMPONENT_MAX
            && comp
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'@' | b':' | b'.'))
    })
}

/// The error for a path longer than [`PATH_MAX`], naming its first 32
/// bytes (fewer if a character straddles that cut).
fn too_long(raw: &str) -> XsError {
    let mut cut = 32.min(raw.len());
    while !raw.is_char_boundary(cut) {
        cut -= 1;
    }
    XsError::BadPath(format!(
        "{}… (too long)",
        raw.get(..cut).unwrap_or_default()
    ))
}

/// Whether the normalised path `key` equals `root` or lies beneath it,
/// component-wise.
pub(crate) fn is_under(key: &str, root: &str) -> bool {
    root == "/"
        || key
            .strip_prefix(root)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

impl std::fmt::Display for XsPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_valid_paths() {
        for p in [
            "/",
            "/local",
            "/local/domain/5/device/vif/0/backend",
            "/tool/xenstored",
            "/a-b_c.d@e:f",
        ] {
            assert!(XsPath::parse(p).is_ok(), "{p} should parse");
        }
    }

    #[test]
    fn rejects_invalid_paths() {
        for p in [
            "",
            "relative/path",
            "/double//slash",
            "/dot/./path",
            "/dotdot/../path",
            "/spaces not allowed",
            "/na\u{ef}ve",
        ] {
            assert!(XsPath::parse(p).is_err(), "{p} should be rejected");
        }
    }

    #[test]
    fn rejects_overlong() {
        let long = format!("/{}", "a".repeat(PATH_MAX));
        assert!(XsPath::parse(&long).is_err());
        let long_comp = format!("/{}", "a".repeat(COMPONENT_MAX + 1));
        assert!(XsPath::parse(&long_comp).is_err());
    }

    #[test]
    fn trailing_slash_normalised() {
        assert_eq!(
            XsPath::parse("/local/domain/").unwrap(),
            XsPath::parse("/local/domain").unwrap()
        );
    }

    #[test]
    fn parent_and_leaf() {
        let p = XsPath::parse("/local/domain/5").unwrap();
        assert_eq!(p.leaf(), "5");
        assert_eq!(p.parent().unwrap().as_str(), "/local/domain");
        assert_eq!(
            XsPath::parse("/local").unwrap().parent().unwrap().as_str(),
            "/"
        );
        assert!(XsPath::parse("/").unwrap().parent().is_none());
    }

    #[test]
    fn child_joins() {
        let p = XsPath::parse("/local").unwrap();
        assert_eq!(p.child("domain").unwrap().as_str(), "/local/domain");
        assert!(p.child("bad comp").is_err());
        let root = XsPath::parse("/").unwrap();
        assert_eq!(root.child("tool").unwrap().as_str(), "/tool");
    }

    /// `child` answers as a parse of the joined path does: the same
    /// refusals, and the same path when both accept. Components mix
    /// valid and invalid bytes, `/`, `.` and `..`, empty and overlong
    /// ones, under bases from the root to one just below `PATH_MAX`.
    #[test]
    fn child_matches_a_parse_of_the_joined_path() {
        use xoar_sim::prop::Runner;
        Runner::cases(2048).run("child is a parse of the joined path", |g| {
            let base = match g.u8(0..4) {
                0 => "/".to_string(),
                1 => "/local/domain/5".to_string(),
                2 => format!("/{}", "a".repeat(g.usize(1..COMPONENT_MAX + 2))),
                _ => {
                    let long = "/x".repeat(PATH_MAX / 2 - g.usize(0..4));
                    long[..long.len().min(PATH_MAX - g.usize(0..3))].to_string()
                }
            };
            let Ok(base) = XsPath::parse(&base) else {
                return;
            };
            let pieces = [
                "a", "vif", "0", "-", ".", "..", "/", "@:_", " ", "\u{e9}", "Z9",
            ];
            let mut comp: String = g.vec(0..5, |g| g.choose(&pieces).to_string()).concat();
            if g.u8(0..8) == 0 {
                comp.push_str(&"b".repeat(COMPONENT_MAX - 1 + g.usize(0..3)));
            }
            let joined = if base.as_str() == "/" {
                format!("/{comp}")
            } else {
                format!("{base}/{comp}")
            };
            match (base.child(&comp), XsPath::parse(&joined)) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "{base} + {comp:?}"),
                (Err(_), Err(_)) => {}
                (got, want) => panic!("{base} + {comp:?}: child {got:?}, parse {want:?}"),
            }
        });
    }

    #[test]
    fn an_overlong_path_with_a_wide_character_is_refused() {
        let raw = format!("/{}\u{e9}{}", "a".repeat(30), "b".repeat(PATH_MAX));
        assert!(matches!(XsPath::parse(&raw), Err(XsError::BadPath(_))));
    }

    #[test]
    fn starts_with_is_component_wise() {
        let a = XsPath::parse("/local/domain").unwrap();
        let b = XsPath::parse("/local/domain/5").unwrap();
        let c = XsPath::parse("/local/domainX").unwrap();
        assert!(b.starts_with(&a));
        assert!(a.starts_with(&a));
        assert!(
            !c.starts_with(&a),
            "prefix match must respect component boundaries"
        );
        assert!(a.starts_with(&XsPath::parse("/").unwrap()));
    }

    #[test]
    fn domain_home_convention() {
        assert_eq!(XsPath::domain_home(7).as_str(), "/local/domain/7");
    }
}
