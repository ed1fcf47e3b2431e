//! The `ToJson`/`FromJson` trait pair and impls for the std types the
//! workspace's record types are built from.

use std::collections::{BTreeMap, BTreeSet};

use crate::value::{write_escaped, write_f64, write_i64, write_u64, Json, JsonError};

/// Types that encode to a [`Json`] value.
///
/// Implementations must be deterministic: the same value always produces
/// the same bytes (struct encoders write fields in declaration order,
/// and ordered containers iterate in their intrinsic order).
pub trait ToJson {
    /// Encodes `self`.
    fn to_json(&self) -> Json;

    /// Appends `self`'s canonical JSON text to `out`. The default builds
    /// the [`Json`] tree and writes it; the std impls and the
    /// `impl_json_*` macros write the same text directly, with no tree.
    fn write_json(&self, out: &mut String) {
        self.to_json().write(out);
    }
}

/// Types that decode from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decodes a value, rejecting shape mismatches.
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

/// Decodes the member `key` of an already-matched object.
///
/// This is the helper the [`impl_json_struct!`](crate::impl_json_struct)
/// expansion uses; a missing member is an error.
pub fn field<T: FromJson>(members: &[(String, Json)], key: &str) -> Result<T, JsonError> {
    match members.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_json(v),
        None => Err(JsonError::new(format!("missing field \"{key}\""))),
    }
}

/// Like [`field`], but a missing member decodes to `T::default()`
/// (the `#[serde(default)]` replacement for forward-compatible blobs).
pub fn field_or_default<T: FromJson + Default>(
    members: &[(String, Json)],
    key: &str,
) -> Result<T, JsonError> {
    match members.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_json(v),
        None => Ok(T::default()),
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }

    fn write_json(&self, out: &mut String) {
        self.write(out);
    }
}

impl FromJson for Json {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(value.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Bool(b) => Ok(*b),
            _ => Err(JsonError::expected("bool", "bool")),
        }
    }
}

macro_rules! unsigned_json {
    ($($ty:ty),+) => {
        $(
            impl ToJson for $ty {
                fn to_json(&self) -> Json {
                    Json::U64(*self as u64)
                }

                fn write_json(&self, out: &mut String) {
                    write_u64(*self as u64, out);
                }
            }

            impl FromJson for $ty {
                fn from_json(value: &Json) -> Result<Self, JsonError> {
                    match value {
                        Json::U64(n) => <$ty>::try_from(*n).map_err(|_| {
                            JsonError::new(format!(
                                "integer {n} out of range for {}",
                                stringify!($ty)
                            ))
                        }),
                        _ => Err(JsonError::expected("unsigned integer", stringify!($ty))),
                    }
                }
            }
        )+
    };
}

unsigned_json!(u8, u16, u32, u64, usize);

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        if *self >= 0 {
            Json::U64(*self as u64)
        } else {
            Json::I64(*self)
        }
    }

    fn write_json(&self, out: &mut String) {
        write_i64(*self, out);
    }
}

impl FromJson for i64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::I64(n) => Ok(*n),
            Json::U64(n) => i64::try_from(*n)
                .map_err(|_| JsonError::new(format!("integer {n} out of range for i64"))),
            _ => Err(JsonError::expected("integer", "i64")),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }

    fn write_json(&self, out: &mut String) {
        write_f64(*self, out);
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::F64(x) => Ok(*x),
            Json::U64(n) => Ok(*n as f64),
            Json::I64(n) => Ok(*n as f64),
            _ => Err(JsonError::expected("number", "f64")),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }

    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }

    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(JsonError::expected("string", "String")),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// Writes `items` as a JSON array.
fn write_array<'a, T: ToJson + 'a>(items: impl IntoIterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }

    fn write_json(&self, out: &mut String) {
        write_array(self, out);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }

    fn write_json(&self, out: &mut String) {
        write_array(self, out);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            _ => Err(JsonError::expected("array", "Vec")),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for BTreeSet<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }

    fn write_json(&self, out: &mut String) {
        write_array(self, out);
    }
}

impl<T: FromJson + Ord> FromJson for BTreeSet<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            _ => Err(JsonError::expected("array", "BTreeSet")),
        }
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (key, value)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(key, out);
            out.push(':');
            value.write_json(out);
        }
        out.push('}');
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Obj(members) => members
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
                .collect(),
            _ => Err(JsonError::expected("object", "BTreeMap")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_str, to_string};

    #[test]
    fn std_containers_round_trip() {
        let v: Vec<u8> = vec![0, 127, 255];
        assert_eq!(to_string(&v), "[0,127,255]");
        assert_eq!(from_str::<Vec<u8>>("[0,127,255]").unwrap(), v);

        let mut m = BTreeMap::new();
        m.insert("b".to_string(), 2u64);
        m.insert("a".to_string(), 1u64);
        assert_eq!(to_string(&m), r#"{"a":1,"b":2}"#);
        assert_eq!(
            from_str::<BTreeMap<String, u64>>(&to_string(&m)).unwrap(),
            m
        );

        let s: BTreeSet<u32> = [3, 1, 2].into_iter().collect();
        assert_eq!(to_string(&s), "[1,2,3]");
    }

    #[test]
    fn options_are_null_or_value() {
        assert_eq!(to_string(&None::<u64>), "null");
        assert_eq!(to_string(&Some(5u64)), "5");
        assert_eq!(from_str::<Option<u64>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u64>>("5").unwrap(), Some(5));
    }

    #[test]
    fn out_of_range_integers_rejected() {
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<u32>("4294967296").is_err());
        assert!(from_str::<u64>("-1").is_err());
    }

    #[test]
    fn missing_field_vs_default() {
        let obj = crate::parse(r#"{"present":7}"#).unwrap();
        let members = obj.as_obj().unwrap();
        assert_eq!(field::<u64>(members, "present").unwrap(), 7);
        assert!(field::<u64>(members, "absent").is_err());
        assert_eq!(field_or_default::<u64>(members, "absent").unwrap(), 0);
    }
}
