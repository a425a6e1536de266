//! Hand-rolled JSON support so the crate stays zero-dependency.
//!
//! The writer emits compact single-line objects; the parser accepts any
//! standard JSON value. Both exist to serve the JSONL record stream, not as
//! a general serialization framework.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Append a JSON string literal (with escaping) to `out`.
pub fn write_str(out: &mut String, s: &str) {
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

/// Append an `f64` in a JSON-legal form (NaN/inf become `null`).
pub(crate) fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            // Keep integral values free of exponent noise: 3 not 3.0e0.
            let _ = write!(out, "{:.1}", v);
        } else {
            let _ = write!(out, "{}", v);
        }
    } else {
        out.push_str("null");
    }
}

/// Incremental builder for one flat JSON object on a single line.
pub struct ObjectWriter {
    buf: String,
    first: bool,
}

impl ObjectWriter {
    pub fn new() -> ObjectWriter {
        ObjectWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_str(&mut self.buf, key);
        self.buf.push(':');
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        write_str(&mut self.buf, value);
        self
    }

    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        write_f64(&mut self.buf, value);
        self
    }

    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for ObjectWriter {
    fn default() -> Self {
        ObjectWriter::new()
    }
}

/// Parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Number(f64),
    /// A non-negative integer literal, kept exact (an `f64` would round
    /// words above 2^53, such as packed `f64` bits).
    UInt(u64),
    String(String),
    Array(Vec<JsonValue>),
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            JsonValue::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse a single JSON document. Trailing whitespace is allowed; trailing
/// garbage is an error.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
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
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8")?;
                    let Some(c) = s.chars().next() else {
                        return Err("unterminated string".into());
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "invalid utf-8")?;
        if let Ok(n) = text.parse::<u64>() {
            return Ok(JsonValue::UInt(n));
        }
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_formats() {
        let mut w = ObjectWriter::new();
        w.str("kind", "side\"crc\n")
            .u64("symbol", 42)
            .f64("t", 1.25)
            .bool("ok", true);
        let line = w.finish();
        assert_eq!(
            line,
            r#"{"kind":"side\"crc\n","symbol":42,"t":1.25,"ok":true}"#
        );
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut w = ObjectWriter::new();
        w.str("kind", "mac_delivery")
            .u64("bytes", 1500)
            .f64("delay", 0.02);
        let parsed = parse(&w.finish()).unwrap();
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("mac_delivery"));
        assert_eq!(parsed.get("bytes").unwrap().as_u64(), Some(1500));
        assert_eq!(parsed.get("delay").unwrap().as_f64(), Some(0.02));
    }

    #[test]
    fn parse_handles_nesting_and_escapes() {
        let v = parse(r#"{"a": [1, -2.5e1, "xA", null, {"b": false}]}"#).unwrap();
        let arr = match v.get("a").unwrap() {
            JsonValue::Array(items) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert_eq!(arr[2].as_str(), Some("xA"));
        assert_eq!(arr[3], JsonValue::Null);
        assert_eq!(arr[4].get("b"), Some(&JsonValue::Bool(false)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let mut w = ObjectWriter::new();
        w.f64("x", f64::NAN).f64("y", f64::INFINITY);
        assert_eq!(w.finish(), r#"{"x":null,"y":null}"#);
    }
}
