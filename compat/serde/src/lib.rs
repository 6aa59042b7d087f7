//! Hermetic stand-in for the `serde` crate.
//!
//! Upstream serde is a zero-copy serialization *framework*; this compat
//! crate keeps one streaming data model of its own. A [`Serialize`] type
//! emits its value as a stream of events into a [`Sink`] (null, bool,
//! i64, u64, f64, str, a sequence or map header carrying its length,
//! map keys), and a [`Deserialize`] type pulls the same events back out
//! of a [`Source`]. A format implements the two traits over its bytes
//! directly; the JSON-like [`Value`] tree is one more sink and source,
//! reached through the provided [`Serialize::to_value`] and
//! [`Deserialize::from_value`], which `serde_json` renders as text. The
//! traits keep their upstream names (and, like upstream, the same names
//! also resolve to derive macros), so `use serde::{Deserialize,
//! Serialize};` plus `#[derive(Serialize, Deserialize)]` work unchanged.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::time::Duration;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-like tree: the data model every serialized type maps onto.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer.
    U64(u64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Value>),
    /// An ordered map (insertion order preserved).
    Map(Vec<(String, Value)>),
}

/// Deserialization error: a human-readable description of the mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// A struct's field `field` did not appear in its map.
    pub fn missing(field: &str) -> Self {
        DeError(format!("missing field `{field}`"))
    }

    /// The next value was `got` where `expected` was wanted.
    pub fn expected(expected: &str, got: &Event<'_>) -> Self {
        DeError(format!("expected {expected}, got {}", got.kind()))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

// ---- the streaming data model ------------------------------------------

/// Receives one value as a stream of events.
///
/// A container announces its length before its elements: `seq(n)` is
/// followed by exactly `n` values, `map(n)` by exactly `n` entries, each
/// a [`key`](Sink::key) then one value. A scalar is one event.
pub trait Sink {
    /// A null.
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, b: bool);
    /// A signed integer.
    fn i64(&mut self, n: i64);
    /// An unsigned integer.
    fn u64(&mut self, n: u64);
    /// A floating-point number.
    fn f64(&mut self, f: f64);
    /// A string.
    fn str(&mut self, s: &str);
    /// Opens a sequence of `len` values.
    fn seq(&mut self, len: usize);
    /// Opens a map of `len` entries.
    fn map(&mut self, len: usize);
    /// The key of the map entry whose value comes next.
    fn key(&mut self, k: &str);
}

/// The first event of one value pulled from a [`Source`]: a scalar whole,
/// or a container's header, whose elements the caller then pulls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event<'a> {
    /// A null.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer.
    U64(u64),
    /// A floating-point number.
    F64(f64),
    /// A string, borrowed from the source.
    Str(&'a str),
    /// A sequence of this many values follows.
    Seq(usize),
    /// A map of this many entries (key, then value) follows.
    Map(usize),
}

impl Event<'_> {
    /// A short name of the event's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Null => "null",
            Event::Bool(_) => "bool",
            Event::I64(_) | Event::U64(_) => "integer",
            Event::F64(_) => "number",
            Event::Str(_) => "string",
            Event::Seq(_) => "sequence",
            Event::Map(_) => "map",
        }
    }
}

/// Hands out one value as a stream of events, in [`Sink`] order.
///
/// The caller pulls exactly the elements a header announced; a source may
/// rely on that to know where each container ends. Every method fails
/// with a [`DeError`] when the input is malformed, runs out, or is not
/// the shape asked for.
pub trait Source {
    /// The next value's first event.
    fn next(&mut self) -> Result<Event<'_>, DeError>;

    /// The key of the next entry of the innermost open map.
    fn key(&mut self) -> Result<&str, DeError>;

    /// Consumes the next value if it is a null, and says whether it was.
    fn null(&mut self) -> Result<bool, DeError>;

    /// Reads the next value as a `T`. When the value is well-formed but
    /// `T` rejects it, the value is skipped and `T`'s error comes back as
    /// `Ok(Err(_))`, so the rest of the input stays readable.
    fn value_or_skip<T: Deserialize>(&mut self) -> Result<Result<T, DeError>, DeError>;

    /// Skips the next value, containers and all.
    fn skip(&mut self) -> Result<(), DeError> {
        match self.next()? {
            Event::Seq(n) => {
                for _ in 0..n {
                    self.skip()?;
                }
            }
            Event::Map(n) => {
                for _ in 0..n {
                    self.key()?;
                    self.skip()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Reads a sequence header and returns its length.
    fn seq(&mut self) -> Result<usize, DeError> {
        match self.next()? {
            Event::Seq(n) => Ok(n),
            other => Err(DeError::expected("sequence", &other)),
        }
    }

    /// Reads a map header and returns its entry count.
    fn map(&mut self) -> Result<usize, DeError> {
        match self.next()? {
            Event::Map(n) => Ok(n),
            other => Err(DeError::expected("map", &other)),
        }
    }
}

/// Emits a value as [`Sink`] events.
pub trait Serialize {
    /// Writes `self` into `sink` as one value.
    fn serialize<S: Sink>(&self, sink: &mut S);

    /// Serializes `self` into a value tree.
    fn to_value(&self) -> Value {
        let mut sink = ValueSink::default();
        self.serialize(&mut sink);
        sink.finish()
    }
}

/// Reads a value back from [`Source`] events.
pub trait Deserialize: Sized {
    /// Reads one value of `Self` from `source`.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] when the events do not match `Self`'s shape.
    fn deserialize<S: Source>(source: &mut S) -> Result<Self, DeError>;

    /// Reconstructs `Self` from a value tree.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] when the tree does not match `Self`'s shape.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Self::deserialize(&mut ValueSource::new(v))
    }
}

/// Upper bound on what a length header may pre-allocate: a claimed length
/// is only a hint until the elements arrive.
const PREALLOC_BYTES: usize = 1 << 20;

/// The capacity to reserve for `len` announced elements of `T`.
fn cautious<T>(len: usize) -> usize {
    len.min(PREALLOC_BYTES / std::mem::size_of::<T>().max(1))
}

/// A [`Sink`] that builds a [`Value`] tree.
#[derive(Default)]
struct ValueSink {
    /// Containers being filled, innermost last, each with the number of
    /// values it still waits for.
    open: Vec<(Value, usize)>,
    done: Option<Value>,
}

impl ValueSink {
    /// Places one finished value into the innermost open container,
    /// closing every container that it completes.
    #[inline]
    fn put(&mut self, mut v: Value) {
        while let Some((container, waiting)) = self.open.last_mut() {
            match container {
                Value::Seq(items) => items.push(v),
                Value::Map(entries) => {
                    if let Some(entry) = entries.last_mut() {
                        entry.1 = v;
                    }
                }
                _ => unreachable!("only containers are opened"),
            }
            *waiting -= 1;
            if *waiting > 0 {
                return;
            }
            v = self.open.pop().expect("the loop saw an open container").0;
        }
        self.done = Some(v);
    }

    #[inline]
    fn open(&mut self, container: Value, len: usize) {
        if len == 0 {
            self.put(container);
        } else {
            self.open.push((container, len));
        }
    }

    fn finish(self) -> Value {
        assert!(self.open.is_empty(), "a container was left unfinished");
        self.done.expect("the serializer emitted a value")
    }
}

impl Sink for ValueSink {
    #[inline]
    fn null(&mut self) {
        self.put(Value::Null);
    }
    #[inline]
    fn bool(&mut self, b: bool) {
        self.put(Value::Bool(b));
    }
    #[inline]
    fn i64(&mut self, n: i64) {
        self.put(Value::I64(n));
    }
    #[inline]
    fn u64(&mut self, n: u64) {
        self.put(Value::U64(n));
    }
    #[inline]
    fn f64(&mut self, f: f64) {
        self.put(Value::F64(f));
    }
    #[inline]
    fn str(&mut self, s: &str) {
        self.put(Value::Str(s.to_string()));
    }
    #[inline]
    fn seq(&mut self, len: usize) {
        self.open(Value::Seq(Vec::with_capacity(len)), len);
    }
    #[inline]
    fn map(&mut self, len: usize) {
        self.open(Value::Map(Vec::with_capacity(len)), len);
    }
    #[inline]
    fn key(&mut self, k: &str) {
        if let Some((Value::Map(entries), _)) = self.open.last_mut() {
            entries.push((k.to_string(), Value::Null));
        }
    }
}

/// A [`Source`] that walks a [`Value`] tree.
struct ValueSource<'a> {
    /// A value to hand out before any container's next element: the
    /// root, a map entry's value once its key is read, or a value that
    /// [`Source::null`] looked at and put back.
    next: Option<&'a Value>,
    /// The rest of each open container, innermost last.
    open: Vec<Rest<'a>>,
}

enum Rest<'a> {
    Seq(std::slice::Iter<'a, Value>),
    Map(std::slice::Iter<'a, (String, Value)>),
}

impl<'a> ValueSource<'a> {
    fn new(root: &'a Value) -> Self {
        ValueSource {
            next: Some(root),
            open: Vec::new(),
        }
    }

    /// Takes the next whole value off the tree, leaving the containers
    /// whose elements have all been read.
    #[inline]
    fn take(&mut self) -> Result<&'a Value, DeError> {
        if let Some(v) = self.next.take() {
            return Ok(v);
        }
        loop {
            match self.open.last_mut() {
                Some(Rest::Seq(it)) => {
                    if let Some(v) = it.next() {
                        return Ok(v);
                    }
                }
                Some(Rest::Map(it)) if it.len() > 0 => {
                    return Err(DeError("expected a map key, not a value".to_string()))
                }
                Some(Rest::Map(_)) => {}
                None => return Err(DeError("no value left to read".to_string())),
            }
            self.open.pop();
        }
    }
}

impl<'a> Source for ValueSource<'a> {
    #[inline]
    fn next(&mut self) -> Result<Event<'_>, DeError> {
        Ok(match self.take()? {
            Value::Null => Event::Null,
            Value::Bool(b) => Event::Bool(*b),
            Value::I64(n) => Event::I64(*n),
            Value::U64(n) => Event::U64(*n),
            Value::F64(f) => Event::F64(*f),
            Value::Str(s) => Event::Str(s),
            Value::Seq(items) => {
                self.open.push(Rest::Seq(items.iter()));
                Event::Seq(items.len())
            }
            Value::Map(entries) => {
                self.open.push(Rest::Map(entries.iter()));
                Event::Map(entries.len())
            }
        })
    }

    #[inline]
    fn key(&mut self) -> Result<&str, DeError> {
        loop {
            match self.open.last_mut() {
                Some(Rest::Map(it)) => {
                    if let Some((k, v)) = it.next() {
                        self.next = Some(v);
                        return Ok(k);
                    }
                }
                Some(Rest::Seq(it)) if it.len() > 0 => break,
                Some(Rest::Seq(_)) => {}
                None => break,
            }
            self.open.pop();
        }
        Err(DeError("no map key left to read".to_string()))
    }

    #[inline]
    fn null(&mut self) -> Result<bool, DeError> {
        let v = self.take()?;
        if matches!(v, Value::Null) {
            return Ok(true);
        }
        self.next = Some(v);
        Ok(false)
    }

    fn value_or_skip<T: Deserialize>(&mut self) -> Result<Result<T, DeError>, DeError> {
        Ok(T::from_value(self.take()?))
    }

    fn skip(&mut self) -> Result<(), DeError> {
        self.take().map(|_| ())
    }
}

// ---- primitive impls -------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Sink>(&self, sink: &mut S) { sink.u64(*self as u64) }
        }
        impl Deserialize for $t {
            fn deserialize<S: Source>(source: &mut S) -> Result<Self, DeError> {
                let n = match source.next()? {
                    Event::U64(n) => n,
                    Event::I64(n) if n >= 0 => n as u64,
                    Event::F64(f) if f >= 0.0 && f.fract() == 0.0 => f as u64,
                    other => return Err(DeError::expected("unsigned integer", &other)),
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Sink>(&self, sink: &mut S) { sink.i64(*self as i64) }
        }
        impl Deserialize for $t {
            fn deserialize<S: Source>(source: &mut S) -> Result<Self, DeError> {
                let n = match source.next()? {
                    Event::I64(n) => n,
                    Event::U64(n) => i64::try_from(n)
                        .map_err(|_| DeError(format!("{n} out of range for i64")))?,
                    Event::F64(f) if f.fract() == 0.0 => f as i64,
                    other => return Err(DeError::expected("integer", &other)),
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.f64(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize<S: Source>(source: &mut S) -> Result<Self, DeError> {
        match source.next()? {
            Event::F64(f) => Ok(f),
            Event::I64(n) => Ok(n as f64),
            Event::U64(n) => Ok(n as f64),
            other => Err(DeError::expected("number", &other)),
        }
    }
}

impl Serialize for f32 {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.f64(f64::from(*self));
    }
}

impl Deserialize for f32 {
    fn deserialize<S: Source>(source: &mut S) -> Result<Self, DeError> {
        f64::deserialize(source).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize<S: Source>(source: &mut S) -> Result<Self, DeError> {
        match source.next()? {
            Event::Bool(b) => Ok(b),
            other => Err(DeError::expected("bool", &other)),
        }
    }
}

impl Serialize for String {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.str(self);
    }
}

impl Deserialize for String {
    fn deserialize<S: Source>(source: &mut S) -> Result<Self, DeError> {
        match source.next()? {
            Event::Str(s) => Ok(s.to_string()),
            other => Err(DeError::expected("string", &other)),
        }
    }
}

impl Serialize for str {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.str(self);
    }
}

impl Serialize for char {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn deserialize<S: Source>(source: &mut S) -> Result<Self, DeError> {
        match source.next()? {
            Event::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(DeError::expected("char", &other)),
        }
    }
}

// ---- composite impls -------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        (**self).serialize(sink);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        match self {
            Some(t) => t.serialize(sink),
            None => sink.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize<S: Source>(source: &mut S) -> Result<Self, DeError> {
        if source.null()? {
            Ok(None)
        } else {
            T::deserialize(source).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.seq(self.len());
        for item in self {
            item.serialize(sink);
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        self.as_slice().serialize(sink);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize<S: Source>(source: &mut S) -> Result<Self, DeError> {
        let len = source.seq()?;
        let mut items = Vec::with_capacity(cautious::<T>(len));
        for _ in 0..len {
            items.push(T::deserialize(source)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.seq(self.len());
        for item in self {
            item.serialize(sink);
        }
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn deserialize<S: Source>(source: &mut S) -> Result<Self, DeError> {
        Vec::<T>::deserialize(source).map(VecDeque::from)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        self.as_slice().serialize(sink);
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn deserialize<S: Source>(source: &mut S) -> Result<Self, DeError> {
        let items = Vec::<T>::deserialize(source)?;
        let n = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| DeError(format!("expected array of length {N}, got {n}")))
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident . $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<S: Sink>(&self, sink: &mut S) {
                sink.seq([$(stringify!($i)),+].len());
                $(self.$i.serialize(sink);)+
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize<S: Source>(source: &mut S) -> Result<Self, DeError> {
                let arity = [$(stringify!($i)),+].len();
                match source.next()? {
                    Event::Seq(n) if n == arity => Ok(($($t::deserialize(source)?,)+)),
                    other => Err(DeError::expected(&format!("{arity}-tuple"), &other)),
                }
            }
        }
    )*};
}

impl_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        // Deterministic output: sort by key.
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        sink.map(entries.len());
        for (k, v) in entries {
            sink.key(k);
            v.serialize(sink);
        }
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn deserialize<S: Source>(source: &mut S) -> Result<Self, DeError> {
        let len = source.map()?;
        let mut map = HashMap::with_capacity(cautious::<(String, V)>(len));
        for _ in 0..len {
            let k = source.key()?.to_string();
            map.insert(k, V::deserialize(source)?);
        }
        Ok(map)
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.map(self.len());
        for (k, v) in self {
            sink.key(k);
            v.serialize(sink);
        }
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize<S: Source>(source: &mut S) -> Result<Self, DeError> {
        let len = source.map()?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = source.key()?.to_string();
            map.insert(k, V::deserialize(source)?);
        }
        Ok(map)
    }
}

impl Serialize for Duration {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        // Upstream serde's representation: {"secs": u64, "nanos": u32}.
        sink.map(2);
        sink.key("secs");
        sink.u64(self.as_secs());
        sink.key("nanos");
        sink.u64(u64::from(self.subsec_nanos()));
    }
}

impl Deserialize for Duration {
    fn deserialize<S: Source>(source: &mut S) -> Result<Self, DeError> {
        let (mut secs, mut nanos) = (None, None);
        for _ in 0..source.map()? {
            match source.key()? {
                "secs" if secs.is_none() => secs = Some(u64::deserialize(source)?),
                "nanos" if nanos.is_none() => nanos = Some(u32::deserialize(source)?),
                _ => source.skip()?,
            }
        }
        Ok(Duration::new(
            secs.ok_or_else(|| DeError::missing("secs"))?,
            nanos.ok_or_else(|| DeError::missing("nanos"))?,
        ))
    }
}

impl Serialize for Value {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        match self {
            Value::Null => sink.null(),
            Value::Bool(b) => sink.bool(*b),
            Value::I64(n) => sink.i64(*n),
            Value::U64(n) => sink.u64(*n),
            Value::F64(f) => sink.f64(*f),
            Value::Str(s) => sink.str(s),
            Value::Seq(items) => items.serialize(sink),
            Value::Map(entries) => {
                sink.map(entries.len());
                for (k, v) in entries {
                    sink.key(k);
                    v.serialize(sink);
                }
            }
        }
    }

    fn to_value(&self) -> Value {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Serialize + Deserialize + PartialEq + fmt::Debug>(t: T) {
        assert_eq!(T::from_value(&t.to_value()).unwrap(), t);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(42u32);
        roundtrip(-7i64);
        roundtrip(1.5f64);
        roundtrip(true);
        roundtrip("hello".to_string());
        roundtrip(Some(3u8));
        roundtrip(Option::<u8>::None);
    }

    #[test]
    fn composites_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip((1u32, "x".to_string()));
        roundtrip((1u32, 2u64, 3.0f64));
        roundtrip(Duration::new(3, 500));
        roundtrip([1u8, 2, 3]);
        let mut m = HashMap::new();
        m.insert("a".to_string(), 1u32);
        m.insert("b".to_string(), 2u32);
        roundtrip(m);
    }

    #[test]
    fn hashmap_serializes_sorted() {
        let mut m = HashMap::new();
        m.insert("z".to_string(), 1u32);
        m.insert("a".to_string(), 2u32);
        match m.to_value() {
            Value::Map(entries) => {
                assert_eq!(entries[0].0, "a");
                assert_eq!(entries[1].0, "z");
            }
            other => panic!("expected map, got {other:?}"),
        }
    }

    #[test]
    fn value_sink_closes_nested_and_empty_containers() {
        let mut m = BTreeMap::new();
        m.insert("e".to_string(), vec![Vec::<u8>::new(), vec![1]]);
        m.insert("f".to_string(), vec![]);
        let e = Value::Seq(vec![Value::Seq(vec![]), Value::Seq(vec![Value::U64(1)])]);
        let tree = Value::Map(vec![
            ("e".to_string(), e),
            ("f".to_string(), Value::Seq(vec![])),
        ]);
        assert_eq!(m.to_value(), tree);
        assert_eq!(tree.to_value(), tree);
    }

    #[test]
    fn struct_keys_in_any_order_first_duplicate_wins_unknown_skipped() {
        let tree = Value::Map(vec![
            ("x".to_string(), Value::Seq(vec![Value::Map(vec![])])),
            ("nanos".to_string(), Value::U64(5)),
            ("secs".to_string(), Value::U64(3)),
            ("secs".to_string(), Value::U64(9)),
        ]);
        assert_eq!(Duration::from_value(&tree).unwrap(), Duration::new(3, 5));
        let missing = Value::Map(vec![("secs".to_string(), Value::U64(3))]);
        assert_eq!(
            Duration::from_value(&missing).unwrap_err(),
            DeError::missing("nanos")
        );
    }

    #[test]
    fn a_rejected_value_is_skipped_and_the_rest_stays_readable() {
        let tree = Value::Seq(vec![Value::Str("x".into()), Value::U64(7)]);
        let mut source = ValueSource::new(&tree);
        assert_eq!(source.seq().unwrap(), 2);
        assert!(source.value_or_skip::<u64>().unwrap().is_err());
        assert_eq!(u64::deserialize(&mut source).unwrap(), 7);
    }

    #[test]
    fn type_mismatch_is_reported() {
        assert!(u32::from_value(&Value::Str("x".into())).is_err());
        assert!(u8::from_value(&Value::U64(300)).is_err());
        assert!(bool::from_value(&Value::Null).is_err());
    }
}
