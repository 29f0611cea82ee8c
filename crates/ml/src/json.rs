//! Minimal JSON reader/writer for the portable model format and the bench
//! drivers' reports.
//!
//! The real project serializes models with `serde_json`; that crate is not
//! available offline, so this module provides the small subset the portable
//! format needs: objects, arrays, strings, f64 numbers, and booleans.
//! Numbers are written with Rust's shortest-roundtrip float formatting, so
//! `f64` values survive a write→parse cycle bit-exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{MlError, Result};

/// Deepest nesting of arrays and objects `Value::parse` accepts. The
/// parser recurses once per level, so without a limit a document of
/// nested brackets could overflow the stack. The portable-model format
/// nests 7 levels and the bench reports at most 5.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order is preserved via `BTreeMap` (sorted).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value under `key`, or an error naming the missing field.
    pub fn field<'a>(&'a self, key: &str) -> Result<&'a Value> {
        match self {
            Value::Object(map) => map
                .get(key)
                .ok_or_else(|| MlError::Serialization(format!("missing field '{key}'"))),
            _ => Err(MlError::Serialization(format!(
                "expected object while reading field '{key}'"
            ))),
        }
    }

    /// This value as a float.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Number(n) => Ok(*n),
            _ => Err(MlError::Serialization("expected number".into())),
        }
    }

    /// This value as a non-negative integer.
    pub fn as_usize(&self) -> Result<usize> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
            return Err(MlError::Serialization(format!("expected integer, got {n}")));
        }
        Ok(n as usize)
    }

    /// This value as a `u64`.
    pub fn as_u64(&self) -> Result<u64> {
        Ok(self.as_usize()? as u64)
    }

    /// This value as a bool.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(MlError::Serialization("expected bool".into())),
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::String(s) => Ok(s),
            _ => Err(MlError::Serialization("expected string".into())),
        }
    }

    /// This value as an array slice.
    pub fn as_array(&self) -> Result<&[Value]> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(MlError::Serialization("expected array".into())),
        }
    }

    /// Convenience: decodes an array of strings.
    pub fn as_string_vec(&self) -> Result<Vec<String>> {
        self.as_array()?
            .iter()
            .map(|v| v.as_str().map(str::to_string))
            .collect()
    }

    /// Convenience: decodes an array of floats.
    pub fn as_f64_vec(&self) -> Result<Vec<f64>> {
        self.as_array()?.iter().map(Value::as_f64).collect()
    }

    /// Builds an object value from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array of strings.
    pub fn strings(items: &[String]) -> Value {
        Value::Array(items.iter().map(|s| Value::String(s.clone())).collect())
    }

    /// Builds an array of numbers.
    pub fn numbers(items: &[f64]) -> Value {
        Value::Array(items.iter().map(|&n| Value::Number(n)).collect())
    }

    /// Serialises the value to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => {
                if n.is_finite() {
                    // Shortest-roundtrip formatting; force a trailing `.0`
                    // marker-free integer form to stay valid JSON.
                    let _ = write!(out, "{n}");
                } else {
                    // JSON has no infinities; encode as null (the portable
                    // format never produces non-finite values).
                    out.push_str("null");
                }
            }
            Value::String(s) => write_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Fails on malformed input and on arrays and
    /// objects nested more than 64 deep.
    pub fn parse(input: &str) -> Result<Value> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(MlError::Serialization(format!(
                "trailing characters at byte {}",
                parser.pos
            )));
        }
        Ok(value)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

/// Exact up to 2^53; larger values round to the nearest `f64`.
impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(n as f64)
    }
}

/// Exact up to 2^53; larger values round to the nearest `f64`.
impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Number(n as f64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Number(n.into())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

/// `None` becomes `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(value: Option<T>) -> Self {
        value.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        items.into_iter().collect()
    }
}

/// Collects into an array.
impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &str) -> MlError {
        MlError::Serialization(format!("{msg} at byte {}", self.pos))
    }

    fn skip_whitespace(&mut self) {
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

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek().ok_or_else(|| self.error("unexpected end"))? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                value
            }
            b'"' => Ok(Value::String(self.parse_string()?)),
            b't' => self.parse_literal("true", Value::Bool(true)),
            b'f' => self.parse_literal("false", Value::Bool(false)),
            b'n' => self.parse_literal("null", Value::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{literal}'")))
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| self.error("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let code = self.parse_hex4()?;
                            let scalar = if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: a low surrogate must
                                // follow (`\uXXXX\uXXXX` pair) — produced
                                // by ASCII-escaping encoders for non-BMP
                                // characters.
                                if self.bytes.get(self.pos) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err(self.error("unpaired high surrogate"));
                                }
                                self.pos += 2;
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at `b`.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    if end > self.bytes.len() {
                        return Err(self.error("truncated UTF-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(self.error("expected number"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.error("invalid number"))
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_structure_and_floats() {
        let value = Value::object([
            ("name", Value::String("q\"94\"\n".into())),
            ("pi", Value::Number(std::f64::consts::PI)),
            ("tiny", Value::Number(5e-324)),
            ("flag", Value::Bool(true)),
            (
                "curve",
                Value::Array(vec![Value::Number(1.0), Value::Number(0.1 + 0.2)]),
            ),
        ]);
        let text = value.to_json();
        let parsed = Value::parse(&text).unwrap();
        assert_eq!(parsed, value);
    }

    #[test]
    fn conversions_build_values() {
        assert_eq!(Value::from(None::<f64>), Value::Null);
        assert_eq!(Value::from(Some(2u64)), Value::Number(2.0));
        assert_eq!(
            Value::from(vec!["a", "b"]),
            Value::Array(vec![Value::String("a".into()), Value::String("b".into())])
        );
        let collected: Value = [1usize, 2].into_iter().collect();
        assert_eq!(collected.as_f64_vec().unwrap(), vec![1.0, 2.0]);
        assert_eq!(Value::from(false).to_json(), "false");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("not json at all").is_err());
        assert!(Value::parse("{\"a\": }").is_err());
        assert!(Value::parse("[1, 2").is_err());
        assert!(Value::parse("{} trailing").is_err());
    }

    #[test]
    fn field_accessors_report_missing_keys() {
        let v = Value::parse("{\"a\": 3}").unwrap();
        assert_eq!(v.field("a").unwrap().as_usize().unwrap(), 3);
        assert!(v.field("b").is_err());
        assert!(v.field("a").unwrap().as_str().is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_non_bmp_chars() {
        // ASCII-escaping encoders (serde_json with escape_ascii, Python
        // json.dumps) write non-BMP characters as surrogate pairs.
        let v = Value::parse("\"q-\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "q-\u{1F600}");
        assert!(Value::parse("\"\\ud83d\"").is_err()); // unpaired high
        assert!(Value::parse("\"\\ude00\"").is_err()); // lone low
        assert!(Value::parse("\"\\ud83d\\u0041\"").is_err()); // bad pair
    }

    #[test]
    fn nesting_past_the_limit_is_rejected() {
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Value::parse(&nested(MAX_DEPTH + 1)).is_err());
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Value::parse(&objects).is_err());
        // Deep enough to overflow a test thread's stack without the limit.
        assert!(Value::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn parses_nested_documents() {
        let text = "{\"trees\": [{\"nodes\": [1.5, -2e3]}, {\"nodes\": []}], \"n\": 2}";
        let v = Value::parse(text).unwrap();
        assert_eq!(v.field("n").unwrap().as_usize().unwrap(), 2);
        let trees = v.field("trees").unwrap().as_array().unwrap();
        assert_eq!(trees.len(), 2);
        assert_eq!(
            trees[0].field("nodes").unwrap().as_f64_vec().unwrap(),
            vec![1.5, -2000.0]
        );
    }
}
