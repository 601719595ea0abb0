//! A minimal JSON reader/writer.
//!
//! The runtime persists jobs, checkpoints, and event logs as JSON, and
//! the build environment has no network access to a serde stack — so
//! this module provides the small, dependency-free codec the workspace
//! needs. Design points:
//!
//! * Integers parse into [`Value::Int`] (exact for `i64`), everything
//!   else numeric into [`Value::Num`]. Quantities that must round-trip
//!   **bit-exactly** (costs, RNG words, `u64` seeds) are *not* written
//!   as JSON numbers at all — checkpoint serializers hex-encode them as
//!   strings (see `jobs::bits`), sidestepping every float-printing
//!   pitfall.
//! * The writer emits deterministic output (object keys keep insertion
//!   order), so identical checkpoints are byte-identical files — which
//!   lets tests compare snapshots textually.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that parsed exactly as an integer.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object, by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload ([`Value::Int`], or a [`Value::Num`] that is
    /// exactly integral).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Num(f) if f.fract() == 0.0 && f.abs() < 2f64.powi(53) => Some(*f as i64),
            _ => None,
        }
    }

    /// The numeric payload as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Num(f) => {
                // JSON has no non-finite literals; map them to null.
                // (Bit-critical floats are hex-encoded strings instead.)
                if f.is_finite() {
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Value {
        Value::Int(i64::try_from(i).expect("count fits i64"))
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Num(f)
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Value {
        Value::Arr(iter.into_iter().map(Into::into).collect())
    }
}

/// Builder for an object with insertion-ordered keys.
#[derive(Debug, Default)]
pub struct ObjBuilder {
    members: Vec<(String, Value)>,
}

impl ObjBuilder {
    /// An empty object builder.
    pub fn new() -> Self {
        ObjBuilder::default()
    }

    /// Adds a member.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.members.push((key.to_string(), value.into()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Value {
        Value::Obj(self.members)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON parse error, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset at which it went wrong.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. Every document this
/// crate writes nests a few levels; the cap keeps the recursive parser
/// (and the drop of what it built) well inside a thread's stack.
pub const MAX_DEPTH: usize = 256;

/// Parses one JSON document (trailing whitespace allowed, nothing
/// else).
///
/// # Errors
///
/// [`ParseError`] on malformed input, including arrays and objects
/// nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

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

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested too deeply"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[', "expected [")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{', "expected {")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected :")?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by any of
                            // our writers; reject them for simplicity.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("non-scalar \\u escape"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().expect("non-empty by construction");
                    self.pos = start + c.len_utf8();
                    out.push(c);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice by construction");
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }
}

/// Parses a JSONL stream: one JSON value per non-empty line. Lines that
/// fail to parse are skipped (a torn final line after a crash must not
/// poison the log).
pub fn parse_lines(input: &str) -> Vec<Value> {
    input
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| parse(l).ok())
        .collect()
}

/// Sorts object keys recursively (useful when comparing documents from
/// writers with different insertion orders).
pub fn canonicalize(v: &Value) -> Value {
    match v {
        Value::Arr(items) => Value::Arr(items.iter().map(canonicalize).collect()),
        Value::Obj(members) => {
            let sorted: BTreeMap<&String, &Value> = members.iter().map(|(k, v)| (k, v)).collect();
            Value::Obj(
                sorted
                    .into_iter()
                    .map(|(k, v)| (k.clone(), canonicalize(v)))
                    .collect(),
            )
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic_document() {
        let v = ObjBuilder::new()
            .field("name", "two-stage \"amp\"\n")
            .field("count", 42usize)
            .field("neg", -7i64)
            .field("ratio", 0.1f64)
            .field("ok", true)
            .field("none", Value::Null)
            .field("list", [1i64, 2, 3].into_iter().collect::<Value>())
            .build();
        let text = v.to_json();
        let back = parse(&text).unwrap();
        assert_eq!(v, back);
        assert_eq!(back.get("count").unwrap().as_int(), Some(42));
        assert_eq!(back.get("ratio").unwrap().as_f64(), Some(0.1));
        assert_eq!(
            back.get("name").unwrap().as_str(),
            Some("two-stage \"amp\"\n")
        );
    }

    #[test]
    fn shortest_float_repr_roundtrips_exactly() {
        for f in [
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            -2.2250738585072014e-308,
            123_456_789.123_456_79,
            1e300,
        ] {
            let text = Value::Num(f).to_json();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(f.to_bits(), back.to_bits(), "{f} via {text}");
        }
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(Value::Num(f64::INFINITY).to_json(), "null");
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "1 2", "nul", "{\"a\":}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// Nesting past the cap is a structured error, not a stack
    /// overflow — on a default-size spawned thread, like a server
    /// connection's.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = std::thread::spawn(|| parse(&"[".repeat(100_000)).unwrap_err())
            .join()
            .expect("parser thread survives");
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nested too deeply"), "{err}");
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let obj = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&obj)
            .unwrap_err()
            .message
            .contains("nested too deeply"));
    }

    #[test]
    fn jsonl_skips_torn_lines() {
        let lines = "{\"a\":1}\n{\"b\":2}\n{\"c\":"; // torn final line
        let parsed = parse_lines(lines);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].get("b").unwrap().as_int(), Some(2));
    }

    #[test]
    fn unicode_and_escapes() {
        let v = Value::Str("µ-amp \t ∆".into());
        let back = parse(&v.to_json()).unwrap();
        assert_eq!(v, back);
        assert_eq!(parse("\"\\u00b5\"").unwrap().as_str(), Some("µ"));
    }

    #[test]
    fn canonicalize_orders_keys() {
        let a = parse("{\"b\":1,\"a\":{\"z\":1,\"y\":2}}").unwrap();
        let b = parse("{\"a\":{\"y\":2,\"z\":1},\"b\":1}").unwrap();
        assert_eq!(canonicalize(&a), canonicalize(&b));
    }
}
