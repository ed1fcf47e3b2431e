//! XenStore path handling.
//!
//! Paths are `/`-separated, rooted strings such as
//! `/local/domain/5/device/vif/0/backend`. This module validates and
//! normalises them and provides the conventional locations used by the
//! toolstack and split drivers.

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
            return Err(XsError::BadPath(format!("{}… (too long)", &raw[..32])));
        }
        if raw == "/" {
            return Ok(raw);
        }
        let trimmed = raw.strip_suffix('/').unwrap_or(raw);
        for comp in trimmed[1..].split('/') {
            if comp.is_empty() || comp == "." || comp == ".." {
                return Err(XsError::BadPath(raw.into()));
            }
            if comp.len() > COMPONENT_MAX {
                return Err(XsError::BadPath(raw.into()));
            }
            if !comp
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'@' | b':' | b'.'))
            {
                return Err(XsError::BadPath(raw.into()));
            }
        }
        Ok(trimmed)
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

    /// Appends a single component.
    pub fn child(&self, comp: &str) -> Result<XsPath, XsError> {
        let joined = if self.0 == "/" {
            format!("/{comp}")
        } else {
            format!("{}/{comp}", self.0)
        };
        XsPath::parse(&joined)
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
