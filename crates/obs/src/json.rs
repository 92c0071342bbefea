//! The workspace's one serde-free JSON grammar: a well-formedness
//! checker, a value parser, typed record readers and the string
//! escaper every hand-built writer shares.
//!
//! [`parse_json`] is a strict recursive-descent parser for RFC 8259
//! documents: it accepts exactly one top-level value (plus whitespace)
//! and rejects trailing garbage, unterminated strings, bad escapes,
//! unpaired surrogates and malformed numbers. It builds a [`JsonValue`]
//! tree so protocol layers (the `tve-serve` daemon wire format, shard
//! reports, journals and cache snapshots) can consume hand-formatted
//! JSON without serde.
//!
//! [`check_json`] runs the same parser in a mode where arrays and
//! objects drop their children as soon as they are read and strings
//! are not copied. The exporters
//! in this workspace hand-format JSON, and tests and bins use it to
//! prove an artifact is well formed without holding its tree: a 23 MB
//! Chrome trace validates in the memory of the text alone. One grammar
//! serves both, so they accept exactly the same documents.
//!
//! The typed accessors ([`JsonValue::str_field`],
//! [`JsonValue::u64_field`], ...) are the read side of durable records:
//! each returns `Err` naming the key when a required member is missing
//! or has the wrong type. [`append_json_string`] and [`json_string`]
//! are the write side.

use std::fmt;

/// Why a document failed [`check_json`] or [`parse_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub(crate) offset: usize,
    /// What was wrong there.
    pub(crate) message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Checks that `text` is exactly one well-formed JSON document.
///
/// Accepts the same language as [`parse_json`] but keeps no tree.
///
/// ```
/// use tve_obs::check_json;
///
/// assert!(check_json(r#"{"traceEvents": [1, -2.5e3, "a\"b", null]}"#).is_ok());
/// assert!(check_json("{\"unclosed\": [").is_err());
/// assert!(check_json("{} trailing").is_err());
/// ```
pub fn check_json(text: &str) -> Result<(), JsonError> {
    Parser::new(text, true).document().map(drop)
}

/// One parsed JSON value.
///
/// Numbers are kept as `f64` (every number the workspace emits fits);
/// callers that transport 64-bit digests use hex strings instead.
/// Object members keep their document order — duplicates are allowed
/// and [`JsonValue::get`] returns the first.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object; `None` on other kinds or a missing key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (no fraction, no overflow).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n <= 2f64.powi(53) && n.fract() == 0.0).then_some(n as u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The required member `key`.
    ///
    /// # Errors
    ///
    /// `missing field '<key>'` when this is not an object holding `key`.
    ///
    /// ```
    /// use tve_obs::parse_json;
    ///
    /// let v = parse_json(r#"{"n": 3, "name": "s1", "sig": "ff", "hit": null}"#).unwrap();
    /// assert_eq!(v.u64_field::<u32>("n"), Ok(3));
    /// assert_eq!(v.str_field("name"), Ok("s1"));
    /// assert_eq!(v.hex_field("sig"), Ok(255));
    /// assert_eq!(v.opt_field("hit"), None);
    /// assert_eq!(v.str_field("n").unwrap_err(), "field 'n' is not a string");
    /// assert_eq!(v.bool_field("gone").unwrap_err(), "missing field 'gone'");
    /// ```
    pub fn field(&self, key: &str) -> Result<&JsonValue, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    /// The optional member `key`: `None` when it is missing or `null`.
    pub fn opt_field(&self, key: &str) -> Option<&JsonValue> {
        self.get(key).filter(|v| **v != JsonValue::Null)
    }

    /// The optional member `key` read with one of the typed accessors
    /// below (`JsonValue::u64_field::<u32>`, `JsonValue::str_field`, ...):
    /// `Ok(None)` when it is missing or `null`.
    ///
    /// # Errors
    ///
    /// The accessor's message when the member is present but mistyped.
    pub fn opt_typed<'v, T>(
        &'v self,
        key: &str,
        read: impl FnOnce(&'v JsonValue, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.opt_field(key).map(|_| read(self, key)).transpose()
    }

    fn typed_field<'v, T>(
        &'v self,
        key: &str,
        kind: &str,
        read: impl FnOnce(&'v JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        read(self.field(key)?).ok_or_else(|| format!("field '{key}' is not {kind}"))
    }

    /// The required string member `key`.
    ///
    /// # Errors
    ///
    /// A message naming `key` when it is missing or not a string.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.typed_field(key, "a string", JsonValue::as_str)
    }

    /// The required boolean member `key`.
    ///
    /// # Errors
    ///
    /// A message naming `key` when it is missing or not a boolean.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.typed_field(key, "a boolean", JsonValue::as_bool)
    }

    /// The required array member `key`.
    ///
    /// # Errors
    ///
    /// A message naming `key` when it is missing or not an array.
    pub fn arr_field(&self, key: &str) -> Result<&[JsonValue], String> {
        self.typed_field(key, "an array", JsonValue::as_arr)
    }

    /// The required array-of-strings member `key`.
    ///
    /// # Errors
    ///
    /// A message naming `key` when it is missing, not an array, or
    /// holds a non-string.
    pub fn strings_field(&self, key: &str) -> Result<Vec<String>, String> {
        self.arr_field(key)?
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("field '{key}' holds a non-string"))
            })
            .collect()
    }

    /// The required non-negative integer member `key` (exact, see
    /// [`JsonValue::as_u64`]), narrowed to `T` — `u64`, `u32`, `usize`,
    /// `u8`, ...
    ///
    /// # Errors
    ///
    /// A message naming `key` when it is missing, not an exact
    /// non-negative integer, or does not fit `T`.
    pub fn u64_field<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        self.field(key)?
            .as_u64()
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| format!("field '{key}' is not a {}", std::any::type_name::<T>()))
    }

    /// The required member `key` holding a `u64` as a hex string — how
    /// durable records carry digests and counts beyond 2^53.
    ///
    /// # Errors
    ///
    /// A message naming `key` when it is missing, not a string, or not
    /// hex.
    pub fn hex_field(&self, key: &str) -> Result<u64, String> {
        u64::from_str_radix(self.str_field(key)?, 16)
            .map_err(|_| format!("field '{key}' is not hex"))
    }
}

/// The recursive-descent parser behind both [`parse_json`] and
/// [`check_json`].
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// [`check_json`]'s mode: arrays and objects drop each child once it
    /// is read and strings are scanned without being copied, so
    /// validating a document builds no tree.
    discard: bool,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, discard: bool) -> Self {
        Parser {
            text,
            pos: 0,
            discard,
        }
    }

    /// Exactly one value, then only whitespace.
    fn document(mut self) -> Result<JsonValue, JsonError> {
        let value = self.value()?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing data after document"));
        }
        Ok(value)
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            let value = self.value()?;
            if !self.discard {
                members.push((key, value));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            let item = self.value()?;
            if !self.discard {
                items.push(item);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote,
            // backslash or control byte as one slice. Those delimiters
            // are ASCII, so the run ends on a char boundary of the
            // (already valid UTF-8) input.
            let rest = &self.text.as_bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            if !self.discard {
                out.push_str(&self.text[self.pos..self.pos + run]);
            }
            self.pos += run;
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let ch = self.escape()?;
                    if !self.discard {
                        out.push(ch);
                    }
                }
                _ => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// The character of the escape sequence after a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let Some(esc) = self.peek() else {
            return Err(self.err("bad escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.hex4()?;
                let ch = if (0xD800..0xDC00).contains(&unit) {
                    // High surrogate: require the paired low surrogate
                    // escape.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("unpaired surrogate"));
                    }
                    char::from_u32(
                        0x10000 + ((u32::from(unit) - 0xD800) << 10) + (u32::from(low) - 0xDC00),
                    )
                } else {
                    char::from_u32(u32::from(unit))
                };
                return ch.ok_or_else(|| self.err("invalid \\u escape"));
            }
            _ => return Err(self.err("bad escape")),
        })
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("bad \\u escape"));
            };
            let digit = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.err("bad \\u escape")),
            };
            self.pos += 1;
            v = (v << 4) | u16::from(digit);
        }
        Ok(v)
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after '.'"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected exponent digit"));
            }
            self.digits();
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("unrepresentable number"))
    }
}

/// Parses exactly one well-formed JSON document into a [`JsonValue`].
///
/// Accepts the same language as [`check_json`].
///
/// ```
/// use tve_obs::{parse_json, JsonValue};
///
/// let v = parse_json(r#"{"cmd": "stats", "n": 3}"#).unwrap();
/// assert_eq!(v.get("cmd").and_then(JsonValue::as_str), Some("stats"));
/// assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(3));
/// assert!(parse_json("{} trailing").is_err());
/// ```
pub fn parse_json(text: &str) -> Result<JsonValue, JsonError> {
    Parser::new(text, false).document()
}

/// Appends `text` to `out` as a JSON string literal (quoted, escaped).
///
/// This is the emit-side companion of [`parse_json`]: the workspace's
/// hand-built JSON writers share one escaping rule instead of each
/// carrying their own.
pub fn append_json_string(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
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

/// `text` as a JSON string literal: [`append_json_string`] into a new
/// `String`, for writers that format whole lines.
///
/// ```
/// assert_eq!(tve_obs::json_string("a \"b\"\n"), r#""a \"b\"\n""#);
/// ```
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    append_json_string(&mut out, text);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "null",
            "true",
            " 0 ",
            "-12.5e-3",
            "\"\"",
            r#""\u00e9\n""#,
            "[]",
            "[1, [2, {\"a\": null}]]",
            "{}",
            r#"{"a": {"b": [false, "x,y"]}}"#,
        ] {
            check_json(doc).unwrap_or_else(|e| panic!("rejected {doc:?}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"bad \\u00g0\"",
            "01",
            "1.",
            "1e",
            "nul",
            "{} {}",
            "[1] x",
        ] {
            assert!(check_json(doc).is_err(), "accepted {doc:?}");
        }
    }

    #[test]
    fn error_reports_offset() {
        let err = check_json("[1, 2, oops]").unwrap_err();
        assert_eq!(err.offset, 7);
        assert!(err.to_string().contains("byte 7"));
    }

    #[test]
    fn parser_builds_values() {
        let v = parse_json(r#"{"a": [1, -2.5, true, null], "b": {"c": "x\n\"y\""}}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(JsonValue::as_arr).map(<[_]>::len),
            Some(4)
        );
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_bool(), Some(true));
        assert_eq!(a[3], JsonValue::Null);
        assert_eq!(
            v.get("b")
                .and_then(|b| b.get("c"))
                .and_then(JsonValue::as_str),
            Some("x\n\"y\"")
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_decodes_escapes_and_utf8() {
        let v = parse_json(r#""café 😀 déjà""#).unwrap();
        assert_eq!(v.as_str(), Some("café 😀 déjà"));
        assert!(parse_json(r#""\ud83d""#).is_err(), "unpaired surrogate");
        assert!(parse_json(r#""\ud83d ""#).is_err());
    }

    #[test]
    fn parser_and_checker_agree() {
        for doc in [
            "null",
            "[1,]",
            "{\"a\": 1,}",
            r#"{"a": {"b": [false, "x,y"]}}"#,
            "01",
            "{} {}",
            "-12.5e-3",
            r#""\ud83d""#,
            r#""\udc00""#,
            r#""\ud83d\u0041""#,
        ] {
            assert_eq!(
                check_json(doc).is_ok(),
                parse_json(doc).is_ok(),
                "checker and parser disagree on {doc:?}"
            );
        }
    }

    #[test]
    fn string_round_trips_through_emitter() {
        for text in [
            "plain",
            "with \"quotes\" and \\",
            "ctrl \u{1} tab\t",
            "café",
        ] {
            let mut doc = String::new();
            append_json_string(&mut doc, text);
            check_json(&doc).unwrap();
            assert_eq!(parse_json(&doc).unwrap().as_str(), Some(text));
        }
    }
}
