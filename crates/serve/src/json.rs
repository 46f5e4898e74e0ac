//! Minimal JSON parser and writer (zero dependencies).
//!
//! The serving layer needs exactly two things from JSON: parse small
//! request bodies into a tree it can walk, and render response trees
//! deterministically. This module provides both over one [`Json`] value
//! type. The parser is a strict recursive-descent implementation with a
//! nesting-depth cap (hostile bodies cannot exhaust the stack) and
//! exact byte-offset error reporting; the writer renders numbers
//! through Rust's shortest-round-trip `f64` formatting, so every `f64`
//! a response carries parses back to the identical bit pattern — the
//! property the bit-identity acceptance test leans on.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: u32 = 32;

/// A parsed JSON value.
///
/// Object keys are kept in a `BTreeMap`, so re-serialized objects have
/// deterministic (sorted) key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as an object map, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Member `key` of an object value (`None` for absent members and
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.get(key)
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Description of the failure.
    pub message: String,
    /// Byte offset into the input where the failure was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: decode when a low
                            // surrogate follows a high one.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // bytes are valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let n: f64 = s.parse().map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }
}

/// Incremental JSON writer used by response builders.
///
/// The caller drives structure (`begin_obj`, `key`, values, `end_obj`)
/// and the writer handles commas. Strings are escaped per RFC 8259;
/// numbers use Rust's shortest-round-trip formatting, so the exact bit
/// pattern survives a parse round trip. Non-finite floats render as
/// `null` (JSON has no NaN/Inf).
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    need_comma: Vec<bool>,
}

impl JsonWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn pre_value(&mut self) {
        if let Some(need) = self.need_comma.last_mut() {
            if *need {
                self.out.push(',');
            }
            *need = true;
        }
    }

    /// Opens an object (`{`).
    pub(crate) fn begin_obj(&mut self) -> &mut Self {
        self.pre_value();
        self.out.push('{');
        self.need_comma.push(false);
        self
    }

    /// Closes the innermost object (`}`).
    pub(crate) fn end_obj(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.out.push('}');
        self
    }

    /// Opens an array (`[`).
    pub(crate) fn begin_arr(&mut self) -> &mut Self {
        self.pre_value();
        self.out.push('[');
        self.need_comma.push(false);
        self
    }

    /// Closes the innermost array (`]`).
    pub(crate) fn end_arr(&mut self) -> &mut Self {
        self.need_comma.pop();
        self.out.push(']');
        self
    }

    /// Writes an object key; the next call writes its value.
    pub(crate) fn key(&mut self, k: &str) -> &mut Self {
        self.pre_value();
        write_escaped(&mut self.out, k);
        self.out.push(':');
        // The key's value must not emit a comma before itself.
        if let Some(need) = self.need_comma.last_mut() {
            *need = false;
        }
        self
    }

    /// Writes a string value.
    pub fn str_val(&mut self, s: &str) -> &mut Self {
        self.pre_value();
        write_escaped(&mut self.out, s);
        self
    }

    /// Writes a number value (shortest round-trip form; non-finite
    /// values render as `null`).
    pub fn num(&mut self, n: f64) -> &mut Self {
        self.pre_value();
        if n.is_finite() {
            let mut buf = format!("{n}");
            // Bare integers like `3` are valid JSON numbers, keep them.
            if buf == "-0" {
                buf = "-0.0".to_string();
            }
            self.out.push_str(&buf);
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Writes an unsigned integer value.
    pub fn uint(&mut self, n: u64) -> &mut Self {
        self.pre_value();
        self.out.push_str(&n.to_string());
        self
    }

    /// Writes a boolean value.
    pub(crate) fn bool_val(&mut self, b: bool) -> &mut Self {
        self.pre_value();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    /// Writes pre-rendered JSON verbatim (for embedding snapshots).
    pub(crate) fn raw(&mut self, json: &str) -> &mut Self {
        self.pre_value();
        self.out.push_str(json);
        self
    }

    /// Finishes and returns the rendered JSON text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Escapes `s` into `out` as a JSON string literal (with quotes).
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").expect("ok"), Json::Null);
        assert_eq!(parse(" true ").expect("ok"), Json::Bool(true));
        assert_eq!(parse("-2.5e2").expect("ok"), Json::Num(-250.0));
        assert_eq!(
            parse("\"a\\nb\"").expect("ok"),
            Json::Str("a\nb".to_string())
        );
        let v = parse(r#"{"a":[1,2,{"b":"c"}],"d":false}"#).expect("ok");
        assert_eq!(v.get("d"), Some(&Json::Bool(false)));
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).map(|a| a.len()),
            Some(3)
        );
    }

    #[test]
    fn rejects_malformed_input_with_offsets() {
        for (input, what) in [
            ("{", "truncated object"),
            ("[1,]", "dangling comma"),
            ("{\"a\" 1}", "missing colon"),
            ("\"abc", "unterminated string"),
            ("01x", "trailing garbage"),
            ("nul", "bad literal"),
            ("{\"a\":1,}", "dangling comma in object"),
            ("\u{0007}", "control char"),
        ] {
            let e = parse(input).expect_err(what);
            assert!(e.offset <= input.len(), "{what}: offset {}", e.offset);
        }
    }

    #[test]
    fn rejects_hostile_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let e = parse(&deep).expect_err("too deep");
        assert!(e.message.contains("deep"));
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(
            parse("\"\\u00e9\\ud83d\\ude00\"").expect("ok"),
            Json::Str("é😀".to_string())
        );
        assert!(parse("\"\\ud83d\"").is_err(), "lone high surrogate");
    }

    #[test]
    fn writer_round_trips_f64_bits() {
        let values = [
            1.0,
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            123_456_789.123_456_79,
            -9.86960440108936,
        ];
        for &v in &values {
            let mut w = JsonWriter::new();
            w.begin_obj().key("x").num(v).end_obj();
            let text = w.finish();
            let back = parse(&text).expect("ok");
            let got = back.get("x").and_then(|x| x.as_f64()).expect("num");
            assert_eq!(got.to_bits(), v.to_bits(), "{text}");
        }
    }

    #[test]
    fn writer_builds_nested_structures() {
        let mut w = JsonWriter::new();
        w.begin_obj()
            .key("a")
            .begin_arr()
            .uint(1)
            .uint(2)
            .end_arr()
            .key("s")
            .str_val("x\"y")
            .key("b")
            .bool_val(true)
            .end_obj();
        let text = w.finish();
        assert_eq!(text, r#"{"a":[1,2],"s":"x\"y","b":true}"#);
        assert!(parse(&text).is_ok());
    }
}
