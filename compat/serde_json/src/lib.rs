//! Hermetic stand-in for `serde_json`.
//!
//! Renders the compat `serde` crate's [`Value`] tree as JSON text and
//! parses it back. f64 formatting uses Rust's shortest-roundtrip `Display`,
//! so finite floats survive `to_string` → `from_str` exactly (the upstream
//! `float_roundtrip` behaviour).

#![forbid(unsafe_code)]

use std::fmt;

use serde::{Deserialize, Serialize, Value};

/// Serialization or parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e.0)
    }
}

/// Serializes `value` to compact JSON.
///
/// # Errors
///
/// Returns [`Error`] for non-finite floats, which JSON cannot represent.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0)?;
    Ok(out)
}

/// Serializes `value` to two-space-indented JSON.
///
/// # Errors
///
/// Returns [`Error`] for non-finite floats, which JSON cannot represent.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0)?;
    Ok(out)
}

/// Parses a value of type `T` from JSON text.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at offset {}", p.pos)));
    }
    Ok(T::from_value(&value)?)
}

// ---- writer ----------------------------------------------------------

fn write_value(
    v: &Value,
    out: &mut String,
    indent: Option<usize>,
    level: usize,
) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => {
            if !f.is_finite() {
                return Err(Error(format!("cannot serialize non-finite float {f}")));
            }
            // Shortest roundtrip representation; force a `.0` so the value
            // re-parses as a float, matching upstream serde_json.
            let s = f.to_string();
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(item, out, indent, level + 1)?;
            }
            if !items.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, level + 1)?;
            }
            if !entries.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * level));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\x08' => out.push_str("\\b"),
            '\x0c' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parser ----------------------------------------------------------

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_seq(),
            Some(b'{') => self.parse_map(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(Error(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(Error(format!("invalid literal at offset {}", self.pos)))
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid utf-8 in number".to_string()))?;
        if float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|e| Error(format!("bad number `{text}`: {e}")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|e| Error(format!("bad number `{text}`: {e}")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|e| Error(format!("bad number `{text}`: {e}")))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".to_string())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\x08'),
                        Some(b'f') => out.push('\x0c'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".to_string()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error("bad \\u escape".to_string()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".to_string()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u code point".to_string()))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\` in one slice:
                    // both are ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn parse_seq(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                other => {
                    return Err(Error(format!(
                        "expected `,` or `]`, got {:?} at offset {}",
                        other.map(|b| b as char),
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                other => {
                    return Err(Error(format!(
                        "expected `,` or `}}`, got {:?} at offset {}",
                        other.map(|b| b as char),
                        self.pos
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("1.0").unwrap(), 1.0);
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for f in [0.1, 1.0 / 3.0, f64::MAX, 1e-300, -2.5e17] {
            let text = to_string(&f).unwrap();
            assert_eq!(from_str::<f64>(&text).unwrap(), f, "text {text}");
        }
        assert!(to_string(&f64::NAN).is_err());
        assert!(to_string(&f64::INFINITY).is_err());
    }

    #[test]
    fn strings_escape() {
        let s = "a\"b\\c\nd\te\u{1f600}".to_string();
        let text = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&text).unwrap(), s);
        assert_eq!(from_str::<String>(r#""Aé""#).unwrap(), "Aé");
    }

    #[test]
    fn multibyte_text_mixed_with_escapes_roundtrips() {
        let mut m = HashMap::new();
        m.insert(
            "κλειδί\t\"ü\"".to_string(),
            "日本\\語\né😀\u{1}x".to_string(),
        );
        let text = to_string(&m).unwrap();
        assert_eq!(from_str::<HashMap<String, String>>(&text).unwrap(), m);
        let s = from_str::<String>(r#""\u00e9日\"本\\😀\/""#).unwrap();
        assert_eq!(s, "é日\"本\\😀/");
    }

    #[test]
    fn string_parsing_is_linear_in_document_size() {
        let best_of_3 = |kb: usize| {
            let text = to_string(&vec!["abécd\\\"efgh"; kb * 60]).unwrap();
            let time = |_| {
                let t = std::time::Instant::now();
                from_str::<Vec<String>>(&text).unwrap();
                t.elapsed()
            };
            (0..3).map(time).min().unwrap().as_secs_f64()
        };
        let ratio = best_of_3(2_000) / best_of_3(200);
        assert!(ratio < 30.0, "10x the document took {ratio:.0}x as long");
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![vec![1u32], vec![2, 3]];
        let text = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<Vec<u32>>>(&text).unwrap(), v);

        let mut m = HashMap::new();
        m.insert("a".to_string(), vec![1.5f64, 2.0]);
        let text = to_string(&m).unwrap();
        assert_eq!(from_str::<HashMap<String, Vec<f64>>>(&text).unwrap(), m);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = vec![(1u32, "x".to_string()), (2, "y".to_string())];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(from_str::<Vec<(u32, String)>>(&pretty).unwrap(), v);
    }

    #[test]
    fn malformed_input_errors() {
        assert!(from_str::<u32>("").is_err());
        assert!(from_str::<u32>("12 34").is_err());
        assert!(from_str::<Vec<u32>>("[1,").is_err());
        assert!(from_str::<HashMap<String, u32>>("{\"a\":}").is_err());
        assert!(from_str::<String>("\"abc").is_err());
    }
}
