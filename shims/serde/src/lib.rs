//! Offline stand-in for `serde`.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships a minimal value-based serialization framework under the same
//! crate name. [`Serialize`] converts a type into a JSON [`Value`];
//! [`Deserialize`] converts back. The `serde_derive` proc-macro crate
//! generates both impls for plain structs and enums following serde's
//! external tagging conventions, so data serialized here has the same
//! JSON shape real serde would produce for the types in this repository.
//!
//! Supported surface (deliberately only what the workspace uses):
//! - `#[derive(Serialize, Deserialize)]` on non-generic structs (named,
//!   tuple, unit) and enums (unit / newtype / tuple / struct variants)
//! - `#[serde(default)]` on named struct fields
//! - std impls: integers, floats, `bool`, `char`, `String`, `&str`,
//!   `Option`, `Box`, `Arc`, `Vec`, slices, tuples (≤6),
//!   `BTreeMap`/`HashMap` (integer or string keys), `BTreeSet`/`HashSet`,
//!   `()`

pub mod value;

pub use value::{Map, Number, Value};

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

// Lets this crate's own tests use the derive, whose generated code names
// `serde::`.
#[cfg(test)]
extern crate self as serde;

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// Build an error from anything displayable.
    pub fn msg(m: impl fmt::Display) -> Self {
        Error(m.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// A type that can be converted into a [`Value`].
pub trait Serialize {
    /// Convert `self` into a JSON value.
    fn serialize_value(&self) -> Value;
}

/// A type that can be reconstructed from a [`Value`].
pub trait Deserialize: Sized {
    /// Reconstruct from a JSON value.
    fn deserialize_value(v: &Value) -> Result<Self, Error>;
}

/// Compatibility alias module mirroring `serde::de`.
pub mod de {
    /// Owned deserialization marker — identical to [`crate::Deserialize`]
    /// here since the value model has no borrowed variants.
    pub trait DeserializeOwned: crate::Deserialize {}
    impl<T: crate::Deserialize> DeserializeOwned for T {}
}

/// Compatibility alias module mirroring `serde::ser`.
pub mod ser {
    pub use crate::Serialize;
}

pub use serde_derive::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Derive-support helpers (referenced by generated code; not public API).
// ---------------------------------------------------------------------------

#[doc(hidden)]
pub fn __expect_object<'v>(v: &'v Value, ty: &str) -> Result<&'v Map, Error> {
    match v {
        Value::Object(m) => Ok(m),
        other => Err(Error(format!("{ty}: expected object, got {other}"))),
    }
}

#[doc(hidden)]
pub fn __get_field<T: Deserialize>(m: &Map, ty: &str, name: &str) -> Result<T, Error> {
    match m.get(name) {
        Some(v) => T::deserialize_value(v).map_err(|e| Error(format!("{ty}.{name}: {e}"))),
        None => Err(Error(format!("{ty}: missing field `{name}`"))),
    }
}

#[doc(hidden)]
pub fn __get_field_or_default<T: Deserialize + Default>(
    m: &Map,
    ty: &str,
    name: &str,
) -> Result<T, Error> {
    match m.get(name) {
        Some(v) => T::deserialize_value(v).map_err(|e| Error(format!("{ty}.{name}: {e}"))),
        None => Ok(T::default()),
    }
}

#[doc(hidden)]
pub fn __expect_array<'v>(v: &'v Value, ty: &str, len: usize) -> Result<&'v [Value], Error> {
    match v {
        Value::Array(a) if a.len() == len => Ok(a),
        Value::Array(a) => Err(Error(format!(
            "{ty}: expected array of {len}, got {}",
            a.len()
        ))),
        other => Err(Error(format!("{ty}: expected array, got {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Primitive impls.
// ---------------------------------------------------------------------------

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::Number(Number::from_u64(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| Error(format!("expected unsigned integer, got {v}")))?;
                <$t>::try_from(n).map_err(|_| Error(format!("integer out of range: {n}")))
            }
        }
    )*};
}

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                let i = *self as i64;
                if i >= 0 {
                    Value::Number(Number::from_u64(i as u64))
                } else {
                    Value::Number(Number::from_i64(i))
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_i64()
                    .ok_or_else(|| Error(format!("expected integer, got {v}")))?;
                <$t>::try_from(n).map_err(|_| Error(format!("integer out of range: {n}")))
            }
        }
    )*};
}

ser_uint!(u8, u16, u32, u64, usize);
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize_value(&self) -> Value {
        Value::Number(Number::from_f64(*self))
    }
}

impl Deserialize for f64 {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .ok_or_else(|| Error(format!("expected number, got {v}")))
    }
}

impl Serialize for f32 {
    fn serialize_value(&self) -> Value {
        Value::Number(Number::from_f64(*self as f64))
    }
}

impl Deserialize for f32 {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        Ok(f64::deserialize_value(v)? as f32)
    }
}

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error(format!("expected bool, got {other}"))),
        }
    }
}

impl Serialize for char {
    fn serialize_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => match (s.chars().next(), s.chars().count()) {
                (Some(c), 1) => Ok(c),
                _ => Err(Error::msg("expected a single-character string")),
            },
            other => Err(Error(format!("expected single-char string, got {other}"))),
        }
    }
}

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(Error(format!("expected string, got {other}"))),
        }
    }
}

impl Serialize for str {
    fn serialize_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for () {
    fn serialize_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(()),
            other => Err(Error(format!("expected null, got {other}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        Ok(Box::new(T::deserialize_value(v)?))
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        Ok(Arc::new(T::deserialize_value(v)?))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        match self {
            Some(t) => t.serialize_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::deserialize_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(a) => a.iter().map(T::deserialize_value).collect(),
            other => Err(Error(format!("expected array, got {other}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(a) => a.iter().map(T::deserialize_value).collect(),
            other => Err(Error(format!("expected array, got {other}"))),
        }
    }
}

impl<T: Serialize + Eq + std::hash::Hash> Serialize for HashSet<T> {
    fn serialize_value(&self) -> Value {
        // stable output: sort by serialized text
        let mut items: Vec<Value> = self.iter().map(Serialize::serialize_value).collect();
        items.sort_by_key(|a| a.to_string());
        Value::Array(items)
    }
}

impl<T: Deserialize + Eq + std::hash::Hash> Deserialize for HashSet<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(a) => a.iter().map(T::deserialize_value).collect(),
            other => Err(Error(format!("expected array, got {other}"))),
        }
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize_value(&self) -> Value {
                Value::Array(vec![$(self.$n.serialize_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                const LEN: usize = [$($n),+].len();
                let a = __expect_array(v, "tuple", LEN)?;
                Ok(($($t::deserialize_value(&a[$n])?,)+))
            }
        }
    )*};
}

ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

/// Render a map key: anything serializing to a string or integer works,
/// matching serde_json's stringify-integer-keys behaviour (and covering
/// integer newtype keys like `ItemId(u64)`).
// An unsupported key shape is a programming error in the caller, not a
// runtime condition — the shim's API has no Result channel to carry it.
#[allow(clippy::panic)]
fn key_to_string<K: Serialize>(key: &K) -> String {
    match key.serialize_value() {
        Value::String(s) => s,
        Value::Number(n) => n.to_string(),
        other => panic!("unsupported JSON map key shape: {other}"),
    }
}

/// Reconstruct a map key from an object key string by offering it to the
/// key type first as a string value, then as a number.
fn key_from_string<K: Deserialize>(s: &str) -> Result<K, Error> {
    if let Ok(k) = K::deserialize_value(&Value::String(s.to_string())) {
        return Ok(k);
    }
    if let Ok(u) = s.parse::<u64>() {
        if let Ok(k) = K::deserialize_value(&Value::Number(Number::from_u64(u))) {
            return Ok(k);
        }
    }
    if let Ok(i) = s.parse::<i64>() {
        if let Ok(k) = K::deserialize_value(&Value::Number(Number::from_i64(i))) {
            return Ok(k);
        }
    }
    Err(Error(format!(
        "cannot interpret object key {s:?} as map key"
    )))
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (key_to_string(k), v.serialize_value()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(m) => m
                .iter()
                .map(|(k, v)| Ok((key_from_string(k)?, V::deserialize_value(v)?)))
                .collect(),
            other => Err(Error(format!("expected object, got {other}"))),
        }
    }
}

impl<K: Serialize + Eq + std::hash::Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn serialize_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (key_to_string(k), v.serialize_value()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Eq + std::hash::Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(m) => m
                .iter()
                .map(|(k, v)| Ok((key_from_string(k)?, V::deserialize_value(v)?)))
                .collect(),
            other => Err(Error(format!("expected object, got {other}"))),
        }
    }
}

impl Serialize for Value {
    fn serialize_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Point {
        x: i64,
        tags: Vec<String>,
    }

    #[test]
    fn arc_serializes_like_its_contents_and_round_trips() {
        let value = value::parse(r#"{"a":[1,2.5,"s"],"b":{"c":null}}"#).unwrap();
        let shared = Arc::new(value.clone());
        assert_eq!(shared.serialize_value(), value.serialize_value());
        assert_eq!(shared.serialize_value().to_string(), value.to_string());
        let back: Arc<Value> = Deserialize::deserialize_value(&shared.serialize_value()).unwrap();
        assert_eq!(back, shared);

        let point = || Point {
            x: -3,
            tags: vec!["p".into()],
        };
        let plain = point().serialize_value();
        let shared = Arc::new(point());
        assert_eq!(shared.serialize_value(), plain);
        assert_eq!(shared.serialize_value().to_string(), plain.to_string());
        let back: Arc<Point> = Deserialize::deserialize_value(&plain).unwrap();
        assert_eq!(back, shared);
    }
}
