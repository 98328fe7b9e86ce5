//! Cheap-to-clone, encode-once message/capsule payloads.
//!
//! Every message and every migration capsule used to carry a bare
//! `serde_json::Value`: reading it cloned the whole tree, cloning the
//! message deep-copied it, and every `wire_size` call re-serialized it to a
//! fresh `String`. [`Payload`] shares one immutable value tree behind an
//! `Arc` and caches its serialized form, so:
//!
//! * `clone` is a reference-count bump (fan-out and routing hops are free);
//! * [`Payload::typed`] deserializes *by reference* — no tree copy;
//! * [`Payload::encoded_len`] (which drives `wire_size` and therefore the
//!   network delay model) is computed once per payload and shared by all
//!   clones; the full encoding ([`Payload::encoded`]) is materialized as
//!   [`bytes::Bytes`] only when actual bytes are needed.
//!
//! # Determinism invariant
//!
//! `encoded_len` must equal `serde_json::to_string(&value).len()` exactly:
//! transfer delays derive from wire sizes, and the Fig 4.1/4.2/4.3 workflow
//! traces are byte-identical only if every payload reports the same size as
//! the pre-cache implementation. The fast length pass below mirrors the
//! `Value` `Display` impl case by case and is property-tested against it.

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

struct Inner {
    value: Value,
    encoded_len: OnceLock<usize>,
    encoded: OnceLock<Bytes>,
}

/// An immutable, cheaply cloneable message/capsule payload.
///
/// Dereferences to the underlying [`Value`] for reads (`payload.get(..)`,
/// `payload["key"]`, `payload.as_str()`); build one from any serializable
/// value with [`Payload::encode`] or from an existing tree via `From`.
#[derive(Clone)]
pub struct Payload {
    inner: Arc<Inner>,
}

impl Payload {
    /// The shared null payload (what `Message::new` starts with).
    pub fn null() -> Payload {
        static NULL: OnceLock<Payload> = OnceLock::new();
        NULL.get_or_init(|| Payload::from(Value::Null)).clone()
    }

    /// Serialize `value` into a payload.
    ///
    /// # Errors
    ///
    /// Returns the underlying serialization error, if any.
    pub fn encode<T: Serialize>(value: &T) -> serde_json::Result<Payload> {
        Ok(Payload::from(serde_json::to_value(value)?))
    }

    /// The underlying value tree.
    pub fn value(&self) -> &Value {
        &self.inner.value
    }

    /// Clone out the underlying value tree (one deep copy; prefer
    /// [`Payload::value`] or [`Payload::typed`] on hot paths).
    pub fn to_value(&self) -> Value {
        self.inner.value.clone()
    }

    /// Take the underlying value tree out: moved when this is the only
    /// handle to it, cloned otherwise.
    pub fn into_value(self) -> Value {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner.value,
            Err(shared) => shared.value.clone(),
        }
    }

    /// Deserialize into a concrete type, by reference — the tree is not
    /// cloned.
    ///
    /// # Errors
    ///
    /// Returns the underlying deserialization error if the payload does not
    /// match `T`.
    pub fn typed<T: DeserializeOwned>(&self) -> serde_json::Result<T> {
        T::deserialize_value(&self.inner.value)
    }

    /// Project the object member `key` into its own payload (one subtree
    /// clone — the routing-hop replacement for re-parsing a whole
    /// envelope). Returns the null payload if absent.
    pub fn project(&self, key: &str) -> Payload {
        match self.inner.value.get(key) {
            Some(v) => Payload::from(v.clone()),
            None => Payload::null(),
        }
    }

    /// Length in bytes of the compact JSON encoding. Computed once per
    /// payload (shared by all clones) without materializing the string.
    pub fn encoded_len(&self) -> usize {
        if let Some(b) = self.inner.encoded.get() {
            return b.len();
        }
        *self
            .inner
            .encoded_len
            .get_or_init(|| encoded_len_of(&self.inner.value))
    }

    /// The compact JSON encoding, materialized once and shared by all
    /// clones.
    pub fn encoded(&self) -> Bytes {
        self.inner
            .encoded
            .get_or_init(|| Bytes::from(self.inner.value.to_string()))
            .clone()
    }

    /// Whether two payloads share the same underlying tree (used by tests
    /// to assert zero-copy behaviour).
    pub fn ptr_eq(a: &Payload, b: &Payload) -> bool {
        Arc::ptr_eq(&a.inner, &b.inner)
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::null()
    }
}

impl Deref for Payload {
    type Target = Value;
    fn deref(&self) -> &Value {
        &self.inner.value
    }
}

impl From<Value> for Payload {
    fn from(value: Value) -> Self {
        Payload {
            inner: Arc::new(Inner {
                value,
                encoded_len: OnceLock::new(),
                encoded: OnceLock::new(),
            }),
        }
    }
}

impl From<&Value> for Payload {
    fn from(value: &Value) -> Self {
        Payload::from(value.clone())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        Payload::ptr_eq(self, other) || self.inner.value == other.inner.value
    }
}

impl PartialEq<Value> for Payload {
    fn eq(&self, other: &Value) -> bool {
        self.inner.value == *other
    }
}

impl PartialEq<Payload> for Value {
    fn eq(&self, other: &Payload) -> bool {
        *self == other.inner.value
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner.value, f)
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.inner.value, f)
    }
}

impl Serialize for Payload {
    fn serialize_value(&self) -> Value {
        self.inner.value.clone()
    }
}

impl Deserialize for Payload {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        Ok(Payload::from(v.clone()))
    }
}

// ---------------------------------------------------------------------------
// Fast exact length of the compact JSON encoding.
// ---------------------------------------------------------------------------

/// Byte length of `value.to_string()` without building the string. Each arm
/// mirrors the corresponding `Display` arm of the serde shim's `Value`.
pub(crate) fn encoded_len_of(value: &Value) -> usize {
    match value {
        Value::Null => 4,
        Value::Bool(b) => {
            if *b {
                4
            } else {
                5
            }
        }
        Value::Number(n) => number_len(n),
        Value::String(s) => escaped_len(s),
        Value::Array(a) => {
            // "[" + "]" + commas + elements
            2 + a.len().saturating_sub(1) + a.iter().map(encoded_len_of).sum::<usize>()
        }
        Value::Object(m) => {
            // "{" + "}" + commas + per entry: key + ":" + value
            2 + m.len().saturating_sub(1)
                + m.iter()
                    .map(|(k, v)| escaped_len(k) + 1 + encoded_len_of(v))
                    .sum::<usize>()
        }
    }
}

fn number_len(n: &serde_json::Number) -> usize {
    if !n.is_f64() {
        // Integer storage: either unsigned-representable or negative.
        if let Some(u) = n.as_u64() {
            return digits(u);
        }
        if let Some(i) = n.as_i64() {
            return 1 + digits(i.unsigned_abs());
        }
    }
    let x = n.as_f64();
    if !x.is_finite() {
        return 4; // "null"
    }
    if x == x.trunc() && x.abs() < 1e15 {
        // printed as "{x:.1}": sign + integer digits + ".0"
        let sign = usize::from(x.is_sign_negative());
        return sign + digits(x.abs().trunc() as u64) + 2;
    }
    // General floats go through the formatter; count without allocating.
    use fmt::Write;
    let mut counter = LenCounter(0);
    let _ = write!(counter, "{x}");
    counter.0
}

/// `fmt::Write` sink that counts bytes instead of storing them.
struct LenCounter(usize);

impl fmt::Write for LenCounter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

fn digits(mut n: u64) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// `2` for the quotes plus the escaped length of every char, mirroring the
/// shim's `write_escaped`.
fn escaped_len(s: &str) -> usize {
    let mut len = 2;
    for c in s.chars() {
        len += match c {
            '"' | '\\' | '\n' | '\r' | '\t' | '\u{08}' | '\u{0C}' => 2,
            c if (c as u32) < 0x20 => 6, // \uXXXX
            c => c.len_utf8(),
        };
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn assert_len_matches(v: Value) {
        let p = Payload::from(v.clone());
        let text = serde_json::to_string(&v).unwrap();
        assert_eq!(p.encoded_len(), text.len(), "length mismatch for {text:?}");
        assert_eq!(&p.encoded()[..], text.as_bytes());
    }

    #[test]
    fn encoded_len_matches_to_string_exactly() {
        assert_len_matches(json!(null));
        assert_len_matches(json!(true));
        assert_len_matches(json!(false));
        assert_len_matches(json!(0));
        assert_len_matches(json!(10));
        assert_len_matches(json!(-1));
        assert_len_matches(json!(u64::MAX));
        assert_len_matches(json!(i64::MIN));
        assert_len_matches(json!(1.5));
        assert_len_matches(json!(-2.0));
        assert_len_matches(json!(0.0));
        assert_len_matches(json!(3.25e-9));
        assert_len_matches(json!(1e18));
        assert_len_matches(json!(f64::NAN));
        assert_len_matches(json!(""));
        assert_len_matches(json!("plain"));
        assert_len_matches(json!("quote\"back\\slash\nnewline\ttab"));
        assert_len_matches(json!("\u{01}control\u{1f}"));
        assert_len_matches(json!("unicode: ünïcødé ✓"));
        assert_len_matches(json!([1, 2, 3]));
        assert_len_matches(json!([]));
        assert_len_matches(json!({}));
        assert_len_matches(json!({"a": [1, {"b": "c"}], "d": null}));
    }

    #[test]
    fn clone_shares_tree_and_encoding() {
        let p = Payload::from(json!({"items": [1, 2, 3]}));
        let q = p.clone();
        assert!(Payload::ptr_eq(&p, &q));
        let a = p.encoded();
        let b = q.encoded();
        assert!(Bytes::ptr_eq(&a, &b), "encoding computed once, shared");
        assert_eq!(p.encoded_len(), a.len());
    }

    #[test]
    fn typed_deserializes_without_cloning_the_tree() {
        /// Captures the address of the `Value` handed to `deserialize_value`.
        struct AddrProbe(usize);
        impl Deserialize for AddrProbe {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                Ok(AddrProbe(v as *const Value as usize))
            }
        }
        let p = Payload::from(json!({"big": "payload"}));
        let probe: AddrProbe = p.typed().unwrap();
        assert_eq!(
            probe.0,
            p.value() as *const Value as usize,
            "typed() must pass the payload's own tree, not a copy"
        );
    }

    #[test]
    fn project_extracts_the_inner_payload() {
        let envelope = Payload::from(json!({"kind": "ping", "payload": {"n": 7}}));
        let inner = envelope.project("payload");
        assert_eq!(inner["n"].as_u64(), Some(7));
        assert_eq!(envelope.project("missing"), Payload::null());
    }

    #[test]
    fn equality_and_serde_round_trip() {
        let p = Payload::from(json!({"a": 1}));
        assert_eq!(p, json!({"a": 1}));
        assert_eq!(json!({"a": 1}), p);
        let v = p.serialize_value();
        let back = Payload::deserialize_value(&v).unwrap();
        assert_eq!(back, p);
        assert!(Payload::null().is_null());
    }
}
