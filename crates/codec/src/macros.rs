//! Derive-style macros implementing [`ToJson`](crate::ToJson) /
//! [`FromJson`](crate::FromJson) for the workspace's record types.
//!
//! These replace `#[derive(Serialize, Deserialize)]` at the call sites
//! and reproduce `serde_json`'s representation choices: struct fields in
//! declaration order, externally-tagged enums, transparent newtypes.

/// Implements both codec traits for a plain struct with named fields.
///
/// Fields are encoded in the order listed, which must match the struct's
/// declaration order to preserve the historical byte format. Every field
/// is required on decode unless prefixed with `[default]`, in which case
/// a missing member decodes to `Default::default()` (the
/// `#[serde(default)]` replacement).
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Sample { a: u64, b: String }
/// xoar_codec::impl_json_struct!(Sample { a, b });
/// assert_eq!(xoar_codec::to_string(&Sample { a: 1, b: "x".into() }),
///            r#"{"a":1,"b":"x"}"#);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($spec:tt)* }) => {
        $crate::impl_json_struct!(@parse $ty, [] ; $($spec)*);
    };
    (@parse $ty:ident, [$($acc:tt)*] ; [default] $field:ident $(, $($rest:tt)*)?) => {
        $crate::impl_json_struct!(@parse $ty, [$($acc)* (def $field)] ; $($($rest)*)?);
    };
    (@parse $ty:ident, [$($acc:tt)*] ; $field:ident $(, $($rest:tt)*)?) => {
        $crate::impl_json_struct!(@parse $ty, [$($acc)* (req $field)] ; $($($rest)*)?);
    };
    (@parse $ty:ident, [$(($kind:ident $field:ident))+] ;) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    $(
                        (
                            stringify!($field).to_string(),
                            $crate::ToJson::to_json(&self.$field),
                        ),
                    )+
                ])
            }

            fn write_json(&self, out: &mut String) {
                $crate::__write_json_object!(out; $($field = &self.$field),+);
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Json) -> Result<Self, $crate::JsonError> {
                let members = value
                    .as_obj()
                    .ok_or_else(|| $crate::JsonError::expected("object", stringify!($ty)))?;
                Ok($ty {
                    $( $field: $crate::impl_json_struct!(@get $kind members, $field)?, )+
                })
            }
        }
    };
    (@get req $members:ident, $field:ident) => {
        $crate::field($members, stringify!($field))
    };
    (@get def $members:ident, $field:ident) => {
        $crate::field_or_default($members, stringify!($field))
    };
}

/// Implements [`ToJson`](crate::ToJson) only, for structs that are
/// written but never read back (e.g. report rows holding `&'static`
/// data).
#[macro_export]
macro_rules! impl_to_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    $(
                        (
                            stringify!($field).to_string(),
                            $crate::ToJson::to_json(&self.$field),
                        ),
                    )+
                ])
            }

            fn write_json(&self, out: &mut String) {
                $crate::__write_json_object!(out; $($field = &self.$field),+);
            }
        }
    };
}

/// Implements both codec traits for a single-field tuple struct,
/// encoding it transparently as the inner value (`DomId(6)` ⇒ `6`).
#[macro_export]
macro_rules! impl_json_newtype {
    ($ty:ident($inner:ty)) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::ToJson::to_json(&self.0)
            }

            fn write_json(&self, out: &mut String) {
                $crate::ToJson::write_json(&self.0, out);
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Json) -> Result<Self, $crate::JsonError> {
                Ok($ty(<$inner as $crate::FromJson>::from_json(value)?))
            }
        }
    };
}

/// Implements both codec traits for an enum in `serde_json`'s
/// externally-tagged representation: unit variants encode as the bare
/// variant-name string, struct variants as `{"Variant":{..fields..}}`.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// enum Event { Ping, Fire { target: u64 } }
/// xoar_codec::impl_json_enum!(Event { Ping, Fire { target } });
/// assert_eq!(xoar_codec::to_string(&Event::Ping), r#""Ping""#);
/// assert_eq!(xoar_codec::to_string(&Event::Fire { target: 9 }),
///            r#"{"Fire":{"target":9}}"#);
/// ```
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ident { $($variant:ident $({ $($field:ident),+ $(,)? })?),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $( $crate::impl_json_enum!(@to self, $ty, $variant $({ $($field),+ })?); )+
                unreachable!("impl_json_enum! lists every variant")
            }

            fn write_json(&self, out: &mut String) {
                $( $crate::impl_json_enum!(@write self, out, $ty, $variant $({ $($field),+ })?); )+
                unreachable!("impl_json_enum! lists every variant")
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Json) -> Result<Self, $crate::JsonError> {
                $( $crate::impl_json_enum!(@from value, $ty, $variant $({ $($field),+ })?); )+
                Err($crate::JsonError::expected(
                    concat!("a variant of ", stringify!($ty)),
                    stringify!($ty),
                ))
            }
        }
    };
    (@to $self:ident, $ty:ident, $variant:ident) => {
        if let $ty::$variant = $self {
            return $crate::Json::Str(stringify!($variant).to_string());
        }
    };
    (@to $self:ident, $ty:ident, $variant:ident { $($field:ident),+ }) => {
        if let $ty::$variant { $($field),+ } = $self {
            return $crate::Json::Obj(vec![(
                stringify!($variant).to_string(),
                $crate::Json::Obj(vec![
                    $(
                        (
                            stringify!($field).to_string(),
                            $crate::ToJson::to_json($field),
                        ),
                    )+
                ]),
            )]);
        }
    };
    (@write $self:ident, $out:ident, $ty:ident, $variant:ident) => {
        if let $ty::$variant = $self {
            $out.push_str(concat!("\"", stringify!($variant), "\""));
            return;
        }
    };
    (@write $self:ident, $out:ident, $ty:ident, $variant:ident { $($field:ident),+ }) => {
        if let $ty::$variant { $($field),+ } = $self {
            $out.push_str(concat!("{\"", stringify!($variant), "\":"));
            $crate::__write_json_object!($out; $($field = $field),+);
            $out.push('}');
            return;
        }
    };
    (@from $value:ident, $ty:ident, $variant:ident) => {
        if $value.as_str() == Some(stringify!($variant)) {
            return Ok($ty::$variant);
        }
    };
    (@from $value:ident, $ty:ident, $variant:ident { $($field:ident),+ }) => {
        if let Some(inner) = $value.get(stringify!($variant)) {
            let members = inner
                .as_obj()
                .ok_or_else(|| $crate::JsonError::expected("object", stringify!($variant)))?;
            return Ok($ty::$variant {
                $( $field: $crate::field(members, stringify!($field))?, )+
            });
        }
    };
}

/// Writes a JSON object whose members are named by identifiers (which
/// never need escaping), in the order listed: the body the
/// `write_json` of the struct and enum macros share.
#[doc(hidden)]
#[macro_export]
macro_rules! __write_json_object {
    ($out:ident; $first:ident = $first_value:expr $(, $name:ident = $value:expr)*) => {{
        $out.push_str(concat!("{\"", stringify!($first), "\":"));
        $crate::ToJson::write_json($first_value, $out);
        $(
            $out.push_str(concat!(",\"", stringify!($name), "\":"));
            $crate::ToJson::write_json($value, $out);
        )*
        $out.push('}');
    }};
}

#[cfg(test)]
mod tests {
    use crate::{from_str, to_string};

    #[derive(Debug, Clone, PartialEq)]
    struct Inner {
        id: u32,
        tags: Vec<String>,
    }
    crate::impl_json_struct!(Inner { id, tags });

    #[derive(Debug, Clone, PartialEq, Default)]
    struct WithDefault {
        always: u64,
        later_addition: u64,
    }
    crate::impl_json_struct!(WithDefault {
        always,
        [default] later_addition,
    });

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Id(u32);
    crate::impl_json_newtype!(Id(u32));

    #[derive(Debug, Clone, PartialEq)]
    enum Mixed {
        Off,
        Move { from: Id, to: Id },
        Note { text: String },
    }
    crate::impl_json_enum!(Mixed {
        Off,
        Move { from, to },
        Note { text },
    });

    #[test]
    fn struct_fields_in_declaration_order() {
        let v = Inner {
            id: 7,
            tags: vec!["a".into(), "b".into()],
        };
        let text = to_string(&v);
        assert_eq!(text, r#"{"id":7,"tags":["a","b"]}"#);
        assert_eq!(from_str::<Inner>(&text).unwrap(), v);
    }

    #[test]
    fn default_field_tolerates_old_blobs() {
        let v = from_str::<WithDefault>(r#"{"always":3}"#).unwrap();
        assert_eq!(
            v,
            WithDefault {
                always: 3,
                later_addition: 0
            }
        );
        // But a listed non-default field stays mandatory.
        assert!(from_str::<WithDefault>(r#"{"later_addition":1}"#).is_err());
    }

    #[test]
    fn newtype_is_transparent() {
        assert_eq!(to_string(&Id(42)), "42");
        assert_eq!(from_str::<Id>("42").unwrap(), Id(42));
    }

    #[test]
    fn enum_representation_matches_serde_json() {
        assert_eq!(to_string(&Mixed::Off), r#""Off""#);
        let mv = Mixed::Move {
            from: Id(1),
            to: Id(2),
        };
        assert_eq!(to_string(&mv), r#"{"Move":{"from":1,"to":2}}"#);
        assert_eq!(from_str::<Mixed>(&to_string(&mv)).unwrap(), mv);
        assert_eq!(from_str::<Mixed>(r#""Off""#).unwrap(), Mixed::Off);
        assert!(from_str::<Mixed>(r#""Unknown""#).is_err());
        assert!(from_str::<Mixed>(r#"{"Move":{"from":1}}"#).is_err());
    }

    #[test]
    fn string_payloads_round_trip_through_escaping() {
        let v = Mixed::Note {
            text: "line1\nline2 \"quoted\" \\slash 𝛅".into(),
        };
        assert_eq!(from_str::<Mixed>(&to_string(&v)).unwrap(), v);
    }
}
