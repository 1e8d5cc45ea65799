//! A dependency-free JSON value tree, emitter and parser.
//!
//! The workspace builds offline, so serde is not available; this module
//! provides the small subset the report pipeline needs: a [`Json`] value
//! tree with order-preserving objects, RFC 8259 string escaping, lossless
//! integers (cycle counters exceed 2^53, so they are not routed through
//! `f64`) and compact emission. Everything CI and downstream plotting
//! consume — `--json` report files and the `BENCH_*.json` baselines — is
//! produced here, and [`parse`] reads the documents back so tooling (the
//! result store, the round-trip tests) can verify its own output without
//! an external JSON implementation.
//!
//! ```
//! use ava_sim::json::{object, Json};
//!
//! let report = object()
//!     .field("workload", "axpy")
//!     .field("cycles", 123_456_u64)
//!     .field("validated", true)
//!     .field("speedups", Json::from_iter([1.0, 2.5]))
//!     .finish();
//! assert_eq!(
//!     report.to_string(),
//!     r#"{"workload":"axpy","cycles":123456,"validated":true,"speedups":[1,2.5]}"#
//! );
//! ```

use std::fmt;

/// A JSON value. Objects preserve insertion order so emitted reports are
/// deterministic and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, emitted losslessly (cycle counts exceed 2^53).
    U64(u64),
    /// A signed integer, emitted losslessly.
    I64(i64),
    /// A floating-point number. Non-finite values emit as `null` (JSON has
    /// no NaN/Infinity).
    F64(f64),
    /// A string (escaped on emission).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object. Returns `None` for missing keys and
    /// non-object values alike, so lookups chain with `and_then`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean value, if this is a [`Json::Bool`].
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`: a [`Json::U64`], or a non-negative
    /// [`Json::I64`].
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`: a [`Json::I64`], or a [`Json::U64`] that
    /// fits.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(n) => Some(*n),
            Json::U64(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`: any numeric variant (integers convert, with
    /// the usual precision loss past 2^53).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(x) => Some(*x),
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The string contents, if this is a [`Json::Str`].
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is a [`Json::Arr`].
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True if this is [`Json::Null`].
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Emits the value as a compact JSON document (no whitespace).
    ///
    /// `Json` also implements [`fmt::Display`], so `format!("{value}")` and
    /// `value.to_string()` produce the same document.
    fn write(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::U64(n) => write!(out, "{n}"),
            Json::I64(n) => write!(out, "{n}"),
            Json::F64(x) if !x.is_finite() => out.write_str("null"),
            Json::F64(x) => write!(out, "{x}"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(fields) => {
                out.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_escaped(out, key)?;
                    out.write_char(':')?;
                    value.write(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

/// Writes `s` as a JSON string literal: quotes, backslashes and all control
/// characters below U+0020 are escaped (`\n`, `\r`, `\t`, `\b`, `\f` get
/// their short forms, the rest `\u00XX`).
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            '\u{0008}' => out.write_str("\\b")?,
            '\u{000C}' => out.write_str("\\f")?,
            c if c < '\u{0020}' => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::U64(u64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

/// Builds a JSON object field by field, preserving insertion order.
#[derive(Debug, Default)]
pub struct ObjectBuilder {
    fields: Vec<(String, Json)>,
}

impl ObjectBuilder {
    /// Appends one `key: value` field.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Finishes the object.
    #[must_use]
    pub fn finish(self) -> Json {
        Json::Obj(self.fields)
    }
}

/// Starts an [`ObjectBuilder`].
#[must_use]
pub fn object() -> ObjectBuilder {
    ObjectBuilder::default()
}

/// Parses an RFC 8259 JSON document into a [`Json`] tree.
///
/// Numbers without a fraction or exponent stay integral ([`Json::U64`],
/// falling back to [`Json::I64`] when negative), so `u64` counters beyond
/// 2^53 round-trip exactly through emit-then-parse. Object key order is
/// preserved, which means a document built from strings, booleans and
/// integers satisfies `parse(&doc.to_string()) == Ok(doc)`.
///
/// Errors report the byte offset of the first problem.
///
/// ```
/// use ava_sim::json::{parse, Json};
///
/// let doc = parse(r#"{"cycles": 9007199254740993, "ok": true}"#).unwrap();
/// assert_eq!(doc.get("cycles").and_then(Json::as_u64), Some((1 << 53) + 1));
/// assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
/// assert!(parse("{\"unterminated\": ").is_err());
/// ```
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Recursive-descent parser state: bytes plus a cursor.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Result<u8, String> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| format!("unexpected end of document at byte {}", self.pos))
    }

    fn bump(&mut self) -> Result<u8, String> {
        let b = self.peek()?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        self.skip_ws();
        let got = self.bump()?;
        if got != want {
            return Err(format!(
                "expected '{}' at byte {}, found '{}'",
                want as char,
                self.pos - 1,
                got as char
            ));
        }
        Ok(())
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        let end = self.pos + text.len();
        if self.bytes.get(self.pos..end) != Some(text.as_bytes()) {
            return Err(format!("expected '{text}' at byte {}", self.pos));
        }
        self.pos = end;
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek()? {
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => self.array(),
            b'{' => self.object(),
            _ => self.number(),
        }
    }

    /// One `\uXXXX` unit (the cursor sits just past the `u`).
    fn hex_unit(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("bad \\u escape '{hex}' at byte {}", self.pos))?;
        self.pos = end;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'u' => {
                        let code = self.hex_unit()?;
                        let c = match code {
                            // A high surrogate must pair with a `\uXXXX`
                            // low surrogate (how non-BMP chars are escaped).
                            0xD800..=0xDBFF => {
                                if self.bump()? != b'\\' || self.bump()? != b'u' {
                                    return Err(format!(
                                        "unpaired surrogate before byte {}",
                                        self.pos
                                    ));
                                }
                                let low = self.hex_unit()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(format!(
                                        "invalid low surrogate before byte {}",
                                        self.pos
                                    ));
                                }
                                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(scalar)
                            }
                            _ => char::from_u32(code),
                        };
                        out.push(c.ok_or_else(|| {
                            format!("invalid \\u escape before byte {}", self.pos)
                        })?);
                    }
                    other => {
                        return Err(format!(
                            "bad escape '\\{}' at byte {}",
                            other as char,
                            self.pos - 1
                        ))
                    }
                },
                b if b < 0x80 => out.push(b as char),
                // Multi-byte UTF-8: copy the whole sequence through.
                b => {
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    let seq = self
                        .bytes
                        .get(start..end)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or_else(|| format!("invalid UTF-8 at byte {start}"))?;
                    out.push_str(seq);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if text.contains(['.', 'e', 'E']) {
            text.parse()
                .map(Json::F64)
                .map_err(|_| format!("bad number '{text}' at byte {start}"))
        } else if let Ok(n) = text.parse::<u64>() {
            Ok(Json::U64(n))
        } else {
            text.parse()
                .map(Json::I64)
                .map_err(|_| format!("bad number '{text}' at byte {start}"))
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => {}
                b']' => return Ok(Json::Arr(items)),
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found '{}'",
                        self.pos - 1,
                        other as char
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bump()? {
                b',' => {}
                b'}' => return Ok(Json::Obj(fields)),
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found '{}'",
                        self.pos - 1,
                        other as char
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_emit_their_json_form() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Bool(false).to_string(), "false");
        assert_eq!(Json::from(42_u64).to_string(), "42");
        assert_eq!(Json::from(-7_i64).to_string(), "-7");
        assert_eq!(Json::from(2.5).to_string(), "2.5");
        assert_eq!(Json::from("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn large_counters_survive_without_f64_rounding() {
        // 2^53 + 1 is the first integer an f64 cannot represent.
        let n = (1_u64 << 53) + 1;
        assert_eq!(Json::from(n).to_string(), "9007199254740993");
    }

    #[test]
    fn non_finite_floats_emit_null() {
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
        assert_eq!(Json::from(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::from(f64::NEG_INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_chars() {
        let s = "a\"b\\c\nd\te\r\u{0008}\u{000C}\u{0001}µ";
        assert_eq!(
            Json::from(s).to_string(),
            "\"a\\\"b\\\\c\\nd\\te\\r\\b\\f\\u0001µ\""
        );
    }

    #[test]
    fn arrays_and_objects_nest_and_preserve_order() {
        let v = object()
            .field("z", 1_u64)
            .field("a", Json::from_iter([Json::Null, Json::from(true)]))
            .field("nested", object().field("k", "v").finish())
            .finish();
        assert_eq!(
            v.to_string(),
            r#"{"z":1,"a":[null,true],"nested":{"k":"v"}}"#
        );
    }

    #[test]
    fn option_maps_to_null_or_value() {
        assert_eq!(Json::from(None::<&str>).to_string(), "null");
        assert_eq!(Json::from(Some("x")).to_string(), "\"x\"");
    }

    #[test]
    fn parse_reads_scalars() {
        assert_eq!(parse("null"), Ok(Json::Null));
        assert_eq!(parse("true"), Ok(Json::Bool(true)));
        assert_eq!(parse("false"), Ok(Json::Bool(false)));
        assert_eq!(parse("42"), Ok(Json::U64(42)));
        assert_eq!(parse("-5"), Ok(Json::I64(-5)));
        assert_eq!(parse("0.25"), Ok(Json::F64(0.25)));
        assert_eq!(parse("\"hi\""), Ok(Json::Str("hi".to_string())));
    }

    #[test]
    fn parse_tolerates_interior_whitespace() {
        let v = parse("  { \"a\" : [ 1 , 2 ] , \"b\" : { } }  ").unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_arr),
            Some(&[Json::U64(1), Json::U64(2)][..])
        );
        assert_eq!(v.get("b"), Some(&Json::Obj(Vec::new())));
    }

    #[test]
    fn parse_keeps_large_counters_integral() {
        let n = (1_u64 << 53) + 1;
        assert_eq!(parse("9007199254740993"), Ok(Json::U64(n)));
    }

    #[test]
    fn builder_documents_round_trip_exactly() {
        let doc = object()
            .field("name", "lint")
            .field("count", 3_u64)
            .field("neg", -1_i64)
            .field("flag", false)
            .field("none", Json::Null)
            .field("list", Json::from_iter([1_u64, 2]))
            .field("inner", object().field("k", "v").finish())
            .finish();
        assert_eq!(parse(&doc.to_string()), Ok(doc));
    }

    #[test]
    fn parse_decodes_every_escape_form() {
        assert_eq!(
            parse(r#""q\" b\\ s\/ n\n r\r t\t b\b f\f u\u00e9""#).unwrap(),
            Json::Str("q\" b\\ s/ n\n r\r t\t b\u{0008} f\u{000C} u\u{00e9}".to_string())
        );
        // Non-BMP characters arrive as surrogate pairs from external
        // emitters; our own emitter writes them literally.
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
        assert_eq!(parse("\"µ→☃\"").unwrap(), Json::Str("µ→☃".to_string()));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\" 1}",
            "[1,]",
            "[1 2]",
            "nul",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"\\ud800 unpaired\"",
            "1.2.3",
            "{} trailing",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
        // Errors carry the byte offset of the first problem.
        assert!(parse("{} trailing").unwrap_err().contains("byte 3"));
    }

    #[test]
    fn accessors_read_the_matching_variant_only() {
        let v = parse(r#"{"s":"x","u":7,"i":-7,"f":1.5,"b":true,"a":[null]}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("u").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("u").and_then(Json::as_i64), Some(7));
        assert_eq!(v.get("i").and_then(Json::as_i64), Some(-7));
        assert_eq!(v.get("i").and_then(Json::as_u64), None);
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("u").and_then(Json::as_f64), Some(7.0));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert!(v.get("a").unwrap().as_arr().unwrap()[0].is_null());
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("s"), None);
        assert_eq!(v.get("s").and_then(Json::as_u64), None);
    }
}
