//! A hand-rolled JSON value, encoder and parser.
//!
//! The workspace builds offline (no serde), yet the run reports must be
//! machine-readable and *byte-deterministic*: two runs with the same seed
//! have to serialize to identical bytes so telemetry can be diffed and
//! golden-pinned. That rules out hash-map-ordered objects and
//! locale/precision-dependent float formatting, so this module keeps
//! objects as insertion-ordered pairs and formats floats with Rust's
//! shortest-round-trip `{}` formatter.
//!
//! Encoding rules:
//!
//! - object keys keep insertion order (deterministic output);
//! - non-finite floats (`NaN`, `±Inf`) encode as `null` — JSON has no
//!   representation for them and silently clamping would corrupt metrics;
//! - strings are escaped per RFC 8259 (`"`, `\`, control characters).
//!
//! The parser accepts exactly the subset the encoder emits plus ordinary
//! whitespace, enough for the schema checker to validate reports written
//! by another process.

/// A JSON value with deterministic serialization.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also the encoding of non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (covers u64 counters via `Json::uint`).
    Int(i64),
    /// An unsigned integer, kept wide so cycle counters never truncate.
    UInt(u64),
    /// A float; non-finite values encode as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Inserts (or replaces) `key` in an object. No-op on non-objects.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        if let Json::Object(pairs) = self {
            match pairs.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => pairs.push((key.to_string(), value)),
            }
        }
        self
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            Json::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object pairs, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// A short name of the value's JSON type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::UInt(_) | Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// Serializes into `out`. Deterministic: same value, same bytes.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                out.push_str(itoa(*i).as_str());
            }
            Json::UInt(u) => {
                out.push_str(utoa(*u).as_str());
            }
            Json::Float(f) => write_f64(*f, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serializes to a compact string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

fn itoa(v: i64) -> String {
    let mut s = String::new();
    use std::fmt::Write as _;
    let _ = write!(s, "{v}");
    s
}

fn utoa(v: u64) -> String {
    let mut s = String::new();
    use std::fmt::Write as _;
    let _ = write!(s, "{v}");
    s
}

/// Non-finite floats have no JSON representation: encode them as `null`
/// rather than inventing one or aborting mid-report.
fn write_f64(v: f64, out: &mut String) {
    use std::fmt::Write as _;
    if v.is_finite() {
        // Rust's shortest-round-trip formatting is deterministic and
        // locale-independent; integral floats print without a dot ("1"),
        // which is still a valid JSON number.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset and description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document (the subset the encoder emits, plus whitespace).
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            let start = self.pos + 1;
                            let end = start + 4;
                            let hex = self
                                .bytes
                                .get(start..end)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are not emitted by the encoder;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(self.err("expected digits"));
        }
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                // The encoder writes `-0.0` as "-0"; an integer would
                // drop its sign.
                if i == 0 {
                    return Ok(Json::Float(-0.0));
                }
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_keep_insertion_order() {
        let mut obj = Json::object();
        obj.set("zebra", Json::from(1u64))
            .set("apple", Json::from(2u64));
        assert_eq!(obj.encode(), r#"{"zebra":1,"apple":2}"#);
    }

    #[test]
    fn set_replaces_in_place() {
        let mut obj = Json::object();
        obj.set("a", Json::from(1u64)).set("b", Json::from(2u64));
        obj.set("a", Json::from(9u64));
        assert_eq!(obj.encode(), r#"{"a":9,"b":2}"#);
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(s.encode(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(Json::Float(f64::NAN).encode(), "null");
        assert_eq!(Json::Float(f64::INFINITY).encode(), "null");
        assert_eq!(Json::Float(f64::NEG_INFINITY).encode(), "null");
        assert_eq!(Json::Float(0.25).encode(), "0.25");
    }

    #[test]
    fn floats_round_trip_deterministically() {
        for v in [0.1, 1.0 / 3.0, 1e-12, 123456.789, -0.0] {
            let encoded = Json::Float(v).encode();
            let reparsed = parse(&encoded).expect("valid");
            let back = reparsed.as_f64().expect("number");
            // Bit-exact, so `-0.0` must keep its sign.
            assert_eq!(back.to_bits(), v.to_bits(), "{encoded}");
            assert_eq!(reparsed.encode(), encoded);
        }
    }

    #[test]
    fn parser_round_trips_the_encoder() {
        let mut report = Json::object();
        report.set("name", Json::from("fig6 \"quoted\""));
        report.set("count", Json::from(42u64));
        report.set("neg", Json::from(-7i64));
        report.set("frac", Json::from(0.632));
        report.set("bad", Json::Float(f64::NAN));
        report.set(
            "series",
            Json::Array(vec![
                Json::Array(vec![Json::from(0u64), Json::from(0.5)]),
                Json::Array(vec![Json::from(1024u64), Json::from(0.75)]),
            ]),
        );
        let encoded = report.encode();
        let parsed = parse(&encoded).expect("round trip");
        // NaN became null, everything else survives.
        assert_eq!(parsed.get("bad"), Some(&Json::Null));
        assert_eq!(parsed.get("count").and_then(Json::as_u64), Some(42));
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("fig6 \"quoted\"")
        );
        // Re-encoding the parsed value reproduces the original bytes.
        assert_eq!(parsed.encode(), encoded);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parse_accepts_whitespace() {
        let parsed = parse(" { \"a\" : [ 1 , 2.5 ] } ").expect("valid");
        assert_eq!(
            parsed.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn type_names_cover_all_variants() {
        assert_eq!(Json::Null.type_name(), "null");
        assert_eq!(Json::Bool(true).type_name(), "bool");
        assert_eq!(Json::UInt(1).type_name(), "number");
        assert_eq!(Json::from("x").type_name(), "string");
        assert_eq!(Json::Array(vec![]).type_name(), "array");
        assert_eq!(Json::object().type_name(), "object");
    }
}
