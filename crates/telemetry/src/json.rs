//! A minimal recursive-descent JSON parser and its streaming dual,
//! [`JsonWriter`].
//!
//! The workspace depends on no JSON crate; the parser exists so tests and
//! the benchmark gates can *round-trip validate* what the workspace writes —
//! the snapshots produced by
//! [`crate::expo::json_snapshot`] and the `BENCH_*.json` reports built on
//! the writer. It accepts strict RFC 8259 JSON (no comments, no trailing
//! commas) and keeps object keys in a `BTreeMap` for deterministic
//! iteration.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with sorted keys.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member `key` of an object, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object map, if it is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }
}

/// Append `value` as a JSON string literal, escaping as required by RFC 8259.
pub(crate) fn write_json_string(out: &mut String, value: &str) {
    out.push('"');
    for ch in value.chars() {
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

/// A streaming JSON writer: values are appended in call order, so object
/// keys appear exactly as the caller wrote them and the same calls always
/// produce the same bytes. Containers opened fewer than `inline_depth`
/// levels deep put every item on its own two-space-indented line; deeper
/// ones stay on one line — a report whose rows sit at that depth reads, and
/// diffs, one row per line.
///
/// ```
/// let mut w = mca_telemetry::json::JsonWriter::pretty(1);
/// w.object(|w| {
///     w.key("n").u64(2);
///     w.key("row").array(|w| {
///         w.f64(0.5, 2).bool(true);
///     });
/// });
/// assert_eq!(w.finish(), "{\n  \"n\": 2,\n  \"row\": [0.50, true]\n}\n");
/// ```
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: whether it already holds an item.
    open: Vec<bool>,
    inline_depth: usize,
    /// A key was just written; the next value completes that member.
    keyed: bool,
}

impl JsonWriter {
    /// A writer that breaks containers nested fewer than `inline_depth`
    /// levels deep across lines (`0` keeps the whole document on one line).
    pub fn pretty(inline_depth: usize) -> Self {
        Self {
            out: String::new(),
            open: Vec::new(),
            inline_depth,
            keyed: false,
        }
    }

    fn indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.open.len() {
            self.out.push_str("  ");
        }
    }

    /// Separates the next item from what precedes it in the innermost open
    /// container; a value that follows its key needs nothing.
    fn item(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        let Some(holds_items) = self.open.last_mut() else {
            return;
        };
        let first = !std::mem::replace(holds_items, true);
        if !first {
            self.out.push(',');
        }
        if self.open.len() <= self.inline_depth {
            self.indent();
        } else if !first {
            self.out.push(' ');
        }
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.item();
        self.out.push(open);
        self.open.push(false);
        body(self);
        let held_items = self.open.pop().expect("pushed above");
        if held_items && self.open.len() < self.inline_depth {
            self.indent();
        }
        self.out.push(close);
        self
    }

    /// Writes an object; `body` writes its members as [`JsonWriter::key`]
    /// followed by one value each.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('{', '}', body)
    }

    /// Writes an array; `body` writes its elements.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('[', ']', body)
    }

    /// Writes a member key; the next value written belongs to it.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        write_json_string(&mut self.out, key);
        self.out.push_str(": ");
        self.keyed = true;
        self
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.item();
        let _ = write!(self.out, "{value}");
        self
    }

    /// Writes a float with exactly `decimals` fractional digits; non-finite
    /// values become `null` (JSON has no NaN).
    pub fn f64(&mut self, value: f64, decimals: usize) -> &mut Self {
        self.item();
        if value.is_finite() {
            let _ = write!(self.out, "{value:.decimals$}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, value: bool) -> &mut Self {
        self.item();
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// Writes an escaped string literal.
    pub fn string(&mut self, value: &str) -> &mut Self {
        self.item();
        write_json_string(&mut self.out, value);
        self
    }

    /// The finished document, newline-terminated.
    pub fn finish(mut self) -> String {
        debug_assert!(self.open.is_empty() && !self.keyed, "unbalanced document");
        self.out.push('\n');
        self.out
    }
}

/// A parse failure: what went wrong and the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Parse `input` as a single JSON document.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing data after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs are not needed for metric names;
                            // accept lone BMP escapes only.
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid \\u escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.error("invalid UTF-8"))?;
                    let ch = s.chars().next().ok_or_else(|| self.error("empty char"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.error("expected hex digit")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" 42 ").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5e2").unwrap().as_f64(), Some(-150.0));
        assert_eq!(parse("\"hi\\n\"").unwrap().as_str(), Some("hi\n"));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse("{\"a\":[1,2,{\"b\":null}],\"c\":{}}").unwrap();
        let items = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[2].get("b"), Some(&JsonValue::Null));
        assert!(doc.get("c").unwrap().as_object().unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn writer_output_parses_back_to_what_was_written() {
        let mut w = JsonWriter::pretty(1);
        w.object(|w| {
            w.key("na\"me\n").string("tab\there");
            w.key("count").u64(u64::MAX);
            w.key("ratio").f64(-0.126, 2);
            w.key("missing").f64(f64::NAN, 2).key("ok").bool(false);
            w.key("empty").array(|_| {}).key("none").object(|_| {});
            w.key("rows").array(|w| {
                w.array(|w| {
                    w.u64(1).u64(2);
                });
                w.object(|w| {
                    w.key("deep").array(|w| {
                        w.f64(f64::INFINITY, 0);
                    });
                });
            });
        });
        let text = w.finish();
        assert_eq!(
            text,
            "{\n  \"na\\\"me\\n\": \"tab\\there\",\n  \"count\": 18446744073709551615,\n  \
             \"ratio\": -0.13,\n  \"missing\": null,\n  \"ok\": false,\n  \"empty\": [],\n  \
             \"none\": {},\n  \"rows\": [[1, 2], {\"deep\": [null]}]\n}\n"
        );
        let doc = parse(&text).unwrap();
        assert_eq!(doc.get("na\"me\n").unwrap().as_str(), Some("tab\there"));
        assert_eq!(doc.get("ratio").unwrap().as_f64(), Some(-0.13));
        assert_eq!(doc.get("missing"), Some(&JsonValue::Null));
        let rows = doc.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].as_array().unwrap()[1].as_u64(), Some(2));

        // depth 0 keeps everything on one line
        let mut w = JsonWriter::pretty(0);
        w.array(|w| {
            w.object(|w| {
                w.key("a").u64(1);
            })
            .bool(true);
        });
        assert_eq!(w.finish(), "[{\"a\": 1}, true]\n");
    }

    #[test]
    fn round_trips_the_snapshot_exposition() {
        use crate::expo::json_snapshot;
        use crate::hist::LatencyHistogram;
        use crate::registry::Registry;

        let mut registry = Registry::new();
        registry.add_counter("events_total", 3);
        registry.set_gauge("load", 0.25);
        let mut hist = LatencyHistogram::new();
        for v in [5u64, 50, 500] {
            hist.record(v);
        }
        registry.merge_histogram("latency_ns", &hist);

        let doc = parse(&json_snapshot(&registry)).unwrap();
        assert_eq!(doc.get("version").unwrap().as_u64(), Some(1));
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("events_total")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        let parsed = doc.get("histograms").unwrap().get("latency_ns").unwrap();
        assert_eq!(parsed.get("count").unwrap().as_u64(), Some(3));
        let buckets = parsed.get("buckets").unwrap().as_array().unwrap();
        let total: u64 = buckets
            .iter()
            .map(|pair| pair.as_array().unwrap()[1].as_u64().unwrap())
            .sum();
        assert_eq!(total, 3);
    }
}
