//! Compact binary encoding of the serde data model, written and read
//! straight from and into the DTOs.
//!
//! The JSON wire format spends most of its bytes on field names, quoting
//! and decimal rendering; this codec keeps the same self-describing shape
//! but writes it as tagged binary: one tag byte per value, LEB128 varints
//! for integers and lengths, raw little-endian `f64` bits, and UTF-8
//! string bytes with a length prefix. [`Writer`] is a serde [`Sink`] that
//! appends each event to the frame as it comes, and [`Reader`] is a serde
//! [`Source`] that hands the events back from the frame bytes, so any
//! `#[derive(Serialize, Deserialize)]` type goes onto and off the wire
//! without an intermediate `Value` tree, through the same derived code
//! that JSON uses.
//!
//! Decoding is hardened against hostile input: every length or count
//! claim is checked against the bytes actually present *before* any
//! allocation, nesting depth is capped (skipped values included) so a
//! deeply recursive frame cannot overflow the stack, and every error is a
//! typed [`DeError`] that the wire layer reports as a protocol error.

use serde::{DeError, Deserialize, Event, Sink, Source};

/// Maximum nesting depth of sequences/maps accepted by the decoder. The
/// control-plane DTOs are a handful of levels deep; 64 leaves headroom
/// while keeping hostile recursion bounded.
const MAX_DEPTH: usize = 64;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_U64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

/// Appends the LEB128 varint encoding of `n` to `out`.
#[inline]
fn put_varint(out: &mut Vec<u8>, mut n: u64) {
    loop {
        let byte = (n & 0x7f) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// ZigZag-maps a signed integer onto an unsigned one (small magnitudes
/// stay small regardless of sign).
fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

fn unzigzag(n: u64) -> i64 {
    ((n >> 1) as i64) ^ -((n & 1) as i64)
}

/// A [`Sink`] appending the binary encoding of each event to a buffer.
pub(crate) struct Writer<'a>(pub(crate) &'a mut Vec<u8>);

impl Sink for Writer<'_> {
    #[inline]
    fn null(&mut self) {
        self.0.push(TAG_NULL);
    }
    #[inline]
    fn bool(&mut self, b: bool) {
        self.0.push(if b { TAG_TRUE } else { TAG_FALSE });
    }
    #[inline]
    fn i64(&mut self, n: i64) {
        self.0.push(TAG_I64);
        put_varint(self.0, zigzag(n));
    }
    #[inline]
    fn u64(&mut self, n: u64) {
        self.0.push(TAG_U64);
        put_varint(self.0, n);
    }
    #[inline]
    fn f64(&mut self, f: f64) {
        self.0.push(TAG_F64);
        self.0.extend_from_slice(&f.to_le_bytes());
    }
    #[inline]
    fn str(&mut self, s: &str) {
        // A string is its tag, then the length and bytes a key is.
        self.0.push(TAG_STR);
        self.key(s);
    }
    #[inline]
    fn seq(&mut self, len: usize) {
        self.0.push(TAG_SEQ);
        put_varint(self.0, len as u64);
    }
    #[inline]
    fn map(&mut self, len: usize) {
        self.0.push(TAG_MAP);
        put_varint(self.0, len as u64);
    }
    #[inline]
    fn key(&mut self, k: &str) {
        put_varint(self.0, k.len() as u64);
        self.0.extend_from_slice(k.as_bytes());
    }
}

/// A bounds-checked [`Source`] over the bytes of one frame payload.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Per open container, outermost first: how many of its elements have
    /// not started yet. A container whose count is 0 is finished once the
    /// next value starts, so `depth` is the nesting of that value.
    open: [usize; MAX_DEPTH + 1],
    depth: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader {
            bytes,
            pos: 0,
            open: [0; MAX_DEPTH + 1],
            depth: 0,
        }
    }

    /// Requires every byte to have been read (a frame carries exactly one
    /// value).
    pub(crate) fn finish(&self) -> Result<(), DeError> {
        match self.bytes.len() - self.pos {
            0 => Ok(()),
            n => Err(DeError(format!(
                "{n} trailing byte(s) after the encoded value"
            ))),
        }
    }

    #[inline]
    fn u8(&mut self) -> Result<u8, DeError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| truncated("tag byte"))?;
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    fn varint(&mut self) -> Result<u64, DeError> {
        let mut n: u64 = 0;
        for shift in 0..10 {
            let byte = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| truncated("varint"))?;
            self.pos += 1;
            let low = u64::from(byte & 0x7f);
            if shift == 9 && byte > 1 {
                return Err(DeError("varint overflows 64 bits".to_string()));
            }
            n |= low << (7 * shift);
            if byte & 0x80 == 0 {
                return Ok(n);
            }
        }
        Err(DeError("varint never terminated".to_string()))
    }

    /// A length claim is only honoured when that many bytes are actually
    /// present — an attacker-controlled length can never reach past the
    /// frame it arrived in.
    #[inline]
    fn take(&mut self, claimed: u64, what: &str) -> Result<&'a [u8], DeError> {
        let remaining = self.bytes.len() - self.pos;
        let len = usize::try_from(claimed).unwrap_or(usize::MAX);
        if len > remaining {
            return Err(DeError(format!(
                "{what} claims {claimed} bytes but only {remaining} remain in the frame"
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// An element-count claim is bounded by the remaining bytes (every
    /// element costs at least one byte on the wire), so a capacity taken
    /// from it never trusts the peer.
    #[inline]
    fn count(&mut self, what: &str) -> Result<usize, DeError> {
        let claimed = self.varint()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if claimed > remaining {
            return Err(DeError(format!(
                "{what} claims {claimed} elements but only {remaining} bytes remain"
            )));
        }
        Ok(claimed as usize)
    }

    #[inline]
    fn str(&mut self, what: &str) -> Result<&'a str, DeError> {
        let len = self.varint()?;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes).map_err(|e| DeError(format!("{what} is not UTF-8: {e}")))
    }

    /// Opens a container of `n` elements one level below the current value.
    #[inline]
    fn open(&mut self, n: usize) {
        if n > 0 {
            self.open[self.depth] = n;
            self.depth += 1;
        }
    }
}

impl Source for Reader<'_> {
    #[inline]
    fn next(&mut self) -> Result<Event<'_>, DeError> {
        while self.depth > 0 && self.open[self.depth - 1] == 0 {
            self.depth -= 1;
        }
        if self.depth > MAX_DEPTH {
            return Err(DeError(format!(
                "frame nests deeper than {MAX_DEPTH} levels"
            )));
        }
        if self.depth > 0 {
            self.open[self.depth - 1] -= 1;
        }
        Ok(match self.u8()? {
            TAG_NULL => Event::Null,
            TAG_FALSE => Event::Bool(false),
            TAG_TRUE => Event::Bool(true),
            TAG_I64 => Event::I64(unzigzag(self.varint()?)),
            TAG_U64 => Event::U64(self.varint()?),
            TAG_F64 => {
                let bytes = self.take(8, "f64")?;
                Event::F64(f64::from_le_bytes(
                    bytes.try_into().expect("take(8) returned 8 bytes"),
                ))
            }
            TAG_STR => Event::Str(self.str("string")?),
            TAG_SEQ => {
                let n = self.count("sequence")?;
                self.open(n);
                Event::Seq(n)
            }
            TAG_MAP => {
                let n = self.count("map")?;
                self.open(n);
                Event::Map(n)
            }
            tag => return Err(DeError(format!("unknown value tag {tag}"))),
        })
    }

    #[inline]
    fn key(&mut self) -> Result<&str, DeError> {
        self.str("map key")
    }

    #[inline]
    fn null(&mut self) -> Result<bool, DeError> {
        if self.bytes.get(self.pos) != Some(&TAG_NULL) {
            return Ok(false);
        }
        self.next()?;
        Ok(true)
    }

    fn value_or_skip<T: Deserialize>(&mut self) -> Result<Result<T, DeError>, DeError> {
        let start = (self.pos, self.open, self.depth);
        match T::deserialize(self) {
            Ok(t) => Ok(Ok(t)),
            Err(e) => {
                // Read the value again from its start, as a shape only: a
                // well-formed value is passed over, a malformed one fails.
                (self.pos, self.open, self.depth) = start;
                self.skip()?;
                Ok(Err(e))
            }
        }
    }
}

fn truncated(what: &str) -> DeError {
    DeError(format!("frame truncated while reading {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    fn encode<T: Serialize + ?Sized>(v: &T) -> Vec<u8> {
        let mut buf = Vec::new();
        v.serialize(&mut Writer(&mut buf));
        buf
    }

    /// Reads one `T` from the whole of `bytes`, as a frame is read.
    fn decode<T: Deserialize>(bytes: &[u8]) -> Result<T, DeError> {
        let mut reader = Reader::new(bytes);
        let v = T::deserialize(&mut reader)?;
        reader.finish()?;
        Ok(v)
    }

    /// Reads the shape of one value from the whole of `bytes`.
    fn skip_all(bytes: &[u8]) -> Result<(), DeError> {
        let mut reader = Reader::new(bytes);
        reader.skip()?;
        reader.finish()
    }

    fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(decode::<T>(&encode(&v)).unwrap(), v);
    }

    #[test]
    fn scalars_round_trip() {
        roundtrip(Option::<u8>::None);
        roundtrip(true);
        roundtrip(false);
        roundtrip(-1i64);
        roundtrip(i64::MIN);
        roundtrip(u64::MAX);
        roundtrip(1.5e300f64);
        roundtrip(-0.0f64);
        roundtrip("héllo".to_string());
    }

    #[test]
    fn composites_round_trip() {
        roundtrip((1u64, "two".to_string(), vec![Option::<u8>::None]));
        let mut m = std::collections::BTreeMap::new();
        m.insert("a".to_string(), vec![7u64]);
        m.insert("b".to_string(), vec![]);
        roundtrip(m);
    }

    /// The direct writer emits exactly what the `Value` tree encodes to,
    /// and a tree written as a `Value` reads back as the typed value.
    #[test]
    fn writer_matches_the_value_tree() {
        let req = vital_runtime::ControlRequest::deploy("lenet-S");
        assert_eq!(encode(&req), encode(&req.to_value()));
        let back: vital_runtime::ControlRequest = decode(&encode(&req.to_value())).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn binary_beats_json_on_size() {
        let req = vital_runtime::ControlRequest::deploy("lenet-S");
        let bin = encode(&req);
        let json = serde_json::to_string(&req).unwrap();
        assert!(
            bin.len() < json.len(),
            "binary {} bytes vs json {} bytes",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let buf = encode("hello");
        for cut in 0..buf.len() {
            assert!(decode::<String>(&buf[..cut]).is_err(), "cut at {cut}");
            assert!(skip_all(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_length_claims_are_rejected_before_allocation() {
        // A string claiming u64::MAX bytes with none present.
        let mut buf = vec![TAG_STR];
        put_varint(&mut buf, u64::MAX);
        assert!(decode::<String>(&buf).is_err());
        assert!(skip_all(&buf).is_err());
        // A sequence claiming more elements than bytes remain.
        let mut buf = vec![TAG_SEQ];
        put_varint(&mut buf, 1 << 40);
        assert!(decode::<Vec<u64>>(&buf).is_err());
        assert!(skip_all(&buf).is_err());
        // A map key claiming more bytes than remain.
        let mut buf = vec![TAG_MAP, 1];
        put_varint(&mut buf, 1 << 40);
        assert!(skip_all(&buf).is_err());
    }

    /// A type as deep as its input: only the depth cap stops it.
    #[derive(serde::Deserialize)]
    struct Nest(Vec<Nest>);

    impl Nest {
        fn depth(&self) -> usize {
            1 + self.0.iter().map(Nest::depth).max().unwrap_or(0)
        }
    }

    /// `levels` nested single-element sequences around an empty one.
    fn nested(levels: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        for _ in 0..levels {
            buf.extend([TAG_SEQ, 1]);
        }
        buf.extend([TAG_SEQ, 0]);
        buf
    }

    /// `{"x": nested(levels), "secs": 1, "nanos": 0}`, which a `Duration`
    /// reads by skipping the unknown `x`.
    fn duration_with_unknown_key(levels: usize) -> Vec<u8> {
        let mut buf = vec![TAG_MAP, 3, 1, b'x'];
        buf.extend(nested(levels));
        buf.extend([4, b's', b'e', b'c', b's', TAG_U64, 1]);
        buf.extend([5, b'n', b'a', b'n', b'o', b's', TAG_U64, 0]);
        buf
    }

    #[test]
    fn hostile_nesting_depth_is_rejected() {
        assert_eq!(decode::<Nest>(&nested(10)).unwrap().depth(), 11);
        decode::<std::time::Duration>(&duration_with_unknown_key(10)).unwrap();
        // 200 levels, read typed, skipped, and skipped as an unknown key.
        assert!(decode::<Nest>(&nested(200)).is_err());
        assert!(skip_all(&nested(200)).is_err());
        assert!(decode::<std::time::Duration>(&duration_with_unknown_key(200)).is_err());
    }

    #[test]
    fn nesting_up_to_the_cap_is_accepted() {
        // The innermost sequence of `nested(64)` sits at depth 64.
        skip_all(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(decode::<Nest>(&nested(MAX_DEPTH)).unwrap().depth(), 65);
        assert!(skip_all(&nested(MAX_DEPTH + 1)).is_err());
        assert!(decode::<Nest>(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut buf = encode(&5u64);
        buf.push(0xff);
        assert!(decode::<u64>(&buf).is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(decode::<u64>(&[0x2a]).is_err());
        assert!(skip_all(&[0x2a]).is_err());
    }

    #[test]
    fn varint_overflow_and_bad_utf8_are_rejected() {
        let mut buf = vec![TAG_U64];
        buf.extend([0xff; 9]);
        buf.push(0x02);
        assert!(decode::<u64>(&buf).is_err());
        assert!(decode::<String>(&[TAG_STR, 2, 0xc3, 0x28]).is_err());
    }

    #[test]
    fn zigzag_is_an_involution() {
        for n in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(n)), n);
        }
    }

    #[test]
    fn a_rejected_value_is_skipped_and_the_rest_stays_readable() {
        // `[["x"], 7]` read as (Result<Vec<u64>>, u64).
        let buf = encode(&(vec!["x".to_string()], 7u64));
        let mut reader = Reader::new(&buf);
        assert_eq!(reader.seq().unwrap(), 2);
        assert!(reader.value_or_skip::<Vec<u64>>().unwrap().is_err());
        assert_eq!(u64::deserialize(&mut reader).unwrap(), 7);
        reader.finish().unwrap();
        // A malformed value is an error of the frame, not of the value.
        let mut reader = Reader::new(&buf[..buf.len() - 3]);
        reader.seq().unwrap();
        assert!(reader.value_or_skip::<Vec<u64>>().is_err());
    }
}
