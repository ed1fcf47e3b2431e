//! # xoar-codec
//!
//! A self-contained JSON codec for the workspace's serialized record
//! streams: the hash-chained audit log, the XenStore-State persistence
//! blob (§7.1), and the benchmark harness reports.
//!
//! The workspace builds from a cold registry with zero external crates —
//! a deliberate echo of the paper's thesis that unnecessary surface
//! should be cut out of the control plane. This crate replaces
//! `serde`/`serde_json` for the record types that actually cross a
//! serialization boundary, and it is **byte-compatible** with the
//! `serde_json` output the seed produced:
//!
//! * objects and arrays are written without whitespace
//!   (`{"k":1,"v":[2,3]}`);
//! * struct fields are written in declaration order (the order listed in
//!   the [`impl_json_struct!`] invocation), never sorted;
//! * enum values use the externally-tagged form: unit variants encode as
//!   the bare variant-name string, struct variants as
//!   `{"Variant":{..fields..}}`;
//! * newtype wrappers ([`DomId`-style ids](crate::ToJson)) encode as
//!   their inner value;
//! * strings escape `"`, `\`, and control characters exactly as
//!   `serde_json` does (`\b \t \n \f \r`, otherwise `\u00xx` with
//!   lowercase hex); nothing else is escaped.
//!
//! Because the audit log's chain hash is computed over the serialized
//! event payload, this compatibility is load-bearing: existing hash
//! chains verify unchanged (pinned by the golden tests in
//! `crates/core/tests/audit_golden.rs`).
//!
//! # Examples
//!
//! ```
//! use xoar_codec::{from_str, to_string, FromJson, Json, ToJson};
//!
//! #[derive(Debug, Clone, PartialEq)]
//! struct Point {
//!     x: u64,
//!     y: u64,
//! }
//! xoar_codec::impl_json_struct!(Point { x, y });
//!
//! let p = Point { x: 3, y: 4 };
//! let text = to_string(&p);
//! assert_eq!(text, r#"{"x":3,"y":4}"#);
//! assert_eq!(from_str::<Point>(&text).unwrap(), p);
//! ```

#![warn(missing_docs)]

mod macros;
mod traits;
mod value;

pub use traits::{field, field_or_default, FromJson, ToJson};
pub use value::{parse, Json, JsonError};

/// Serializes any [`ToJson`] value to its canonical JSON text.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Parses JSON text and decodes it into `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}
