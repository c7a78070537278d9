//! Offline stand-in for the `serde` crate.
//!
//! This workspace builds in an environment with no crates.io mirror, so the real `serde`
//! cannot be used. The shim keeps the *call sites* of the workspace source-compatible —
//! `use serde::{Serialize, Deserialize}` plus `#[derive(Serialize, Deserialize)]` — while
//! implementing a much simpler data model: every serializable type converts to and from a
//! JSON-like [`Value`]. The sibling `serde_json` shim renders that `Value` as JSON text.
//!
//! Supported field types are exactly what the workspace needs: primitives, `String`,
//! `Vec`, `Option`, `Box`, `Arc<T>`, `Arc<[T]>`, 2- and 3-tuples, `BTreeMap` and `HashMap`
//! (any hasher). Smart pointers are transparent, as with real serde's `rc` feature: an
//! `Arc<T>` encodes like its `T` and an `Arc<[T]>` like a `Vec<T>`.
//! Maps serialize as arrays of `[key, value]` pairs so non-string keys round-trip.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

/// A JSON-like value: the intermediate representation of every (de)serialization.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer too large for `i64`.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, kept as ordered key/value pairs (insertion order is preserved).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The error type shared by serialization and deserialization.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Build an error from a message.
    pub fn custom(message: impl Into<String>) -> Self {
        Error(message.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Conversion into a [`Value`]. The shimmed counterpart of `serde::Serialize`.
pub trait Serialize {
    /// Convert `self` into the intermediate [`Value`] representation.
    fn to_value(&self) -> Value;
}

/// Conversion from a [`Value`]. The shimmed counterpart of `serde::Deserialize`.
pub trait Deserialize: Sized {
    /// Reconstruct `Self` from the intermediate [`Value`] representation.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------------------
// Helpers used by the derive macro
// ---------------------------------------------------------------------------------------

/// Expect an object, with a type name for error messages.
pub fn expect_object<'v>(v: &'v Value, ty: &str) -> Result<&'v [(String, Value)], Error> {
    v.as_object()
        .ok_or_else(|| Error::custom(format!("expected object for {ty}")))
}

/// Expect an array of exactly `len` elements.
pub fn expect_array<'v>(v: &'v Value, ty: &str, len: usize) -> Result<&'v [Value], Error> {
    let arr = v
        .as_array()
        .ok_or_else(|| Error::custom(format!("expected array for {ty}")))?;
    if arr.len() != len {
        return Err(Error::custom(format!(
            "expected {len} elements for {ty}, got {}",
            arr.len()
        )));
    }
    Ok(arr)
}

/// Expect a single-entry object `{tag: payload}` (the encoding of payload-carrying enum
/// variants).
pub fn expect_tagged<'v>(v: &'v Value, ty: &str) -> Result<(&'v str, &'v Value), Error> {
    let obj = expect_object(v, ty)?;
    match obj {
        [(tag, payload)] => Ok((tag.as_str(), payload)),
        _ => Err(Error::custom(format!(
            "expected single-variant object for {ty}"
        ))),
    }
}

/// Look up and deserialize one field of an object.
pub fn field<T: Deserialize>(obj: &[(String, Value)], key: &str) -> Result<T, Error> {
    let value = obj
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| Error::custom(format!("missing field `{key}`")))?;
    T::from_value(value)
}

// ---------------------------------------------------------------------------------------
// Implementations for primitives and std containers
// ---------------------------------------------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::custom("expected string"))
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let raw: i64 = match v {
                    Value::Int(n) => *n,
                    Value::UInt(n) => i64::try_from(*n)
                        .map_err(|_| Error::custom("unsigned value out of range"))?,
                    _ => return Err(Error::custom("expected integer")),
                };
                <$t>::try_from(raw).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let raw: u64 = match v {
                    Value::UInt(n) => *n,
                    Value::Int(n) => u64::try_from(*n)
                        .map_err(|_| Error::custom("negative value for unsigned field"))?,
                    _ => return Err(Error::custom("expected integer")),
                };
                <$t>::try_from(raw).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::Int(n) => Ok(*n as f64),
            Value::UInt(n) => Ok(*n as f64),
            // Non-finite floats are emitted as null (JSON has no representation for them).
            Value::Null => Ok(f64::NAN),
            _ => Err(Error::custom("expected number")),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(inner) => inner.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Arc::new)
    }
}

impl<T: Serialize> Serialize for Arc<[T]> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Arc<[T]> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::<T>::from_value(v).map(Arc::from)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let arr = expect_array(v, "tuple", 2)?;
        Ok((A::from_value(&arr[0])?, B::from_value(&arr[1])?))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let arr = expect_array(v, "tuple", 3)?;
        Ok((
            A::from_value(&arr[0])?,
            B::from_value(&arr[1])?,
            C::from_value(&arr[2])?,
        ))
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let arr = v
            .as_array()
            .ok_or_else(|| Error::custom("expected array of pairs"))?;
        let mut out = BTreeMap::new();
        for pair in arr {
            let pair = expect_array(pair, "map entry", 2)?;
            out.insert(K::from_value(&pair[0])?, V::from_value(&pair[1])?);
        }
        Ok(out)
    }
}

impl<K: Serialize, V: Serialize, S: BuildHasher> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + Eq + Hash,
    V: Deserialize,
    S: BuildHasher + Default,
{
    fn from_value(v: &Value) -> Result<Self, Error> {
        let arr = v
            .as_array()
            .ok_or_else(|| Error::custom("expected array of pairs"))?;
        let mut out = HashMap::with_capacity_and_hasher(arr.len(), S::default());
        for pair in arr {
            let pair = expect_array(pair, "map entry", 2)?;
            out.insert(K::from_value(&pair[0])?, V::from_value(&pair[1])?);
        }
        Ok(out)
    }
}
