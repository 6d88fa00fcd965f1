//! A small hand-rolled JSON value, parser and writer.
//!
//! The build environment has no crates.io access, so the wire schema
//! cannot lean on `serde`; this module implements exactly the JSON
//! subset the protocol needs — which is all of RFC 8259's value grammar,
//! minus any streaming or zero-copy cleverness. Two properties matter
//! for the serving layer and are pinned by tests:
//!
//! * **Numbers round-trip bit for bit.** [`Json::Num`] holds an `f64`;
//!   the writer emits Rust's shortest round-trip `Display` form and the
//!   parser reads it back with `str::parse::<f64>`, so a similarity
//!   score served over the wire decodes to the identical bits the index
//!   produced (the HTTP integration tests assert exact equality against
//!   direct calls).
//! * **Parsing is total.** Malformed input yields a [`JsonError`] with a
//!   byte offset — never a panic — and nesting depth is capped so
//!   adversarial bodies cannot overflow the stack.
//!
//! # Round-trip example
//!
//! ```
//! use les3_net::json::Json;
//!
//! let value = Json::parse(r#"{"query":[1,2,3],"k":10,"delta":0.3333333333333333}"#).unwrap();
//! assert_eq!(value.get("k").and_then(Json::as_u64), Some(10));
//! assert_eq!(value.get("delta").and_then(Json::as_f64), Some(1.0 / 3.0));
//! // Encoding the parsed value and re-parsing it is the identity:
//! assert_eq!(Json::parse(&value.to_string()).unwrap(), value);
//! ```

use std::fmt;

/// A parsed JSON value.
///
/// Object members keep their source order in a `Vec` (the handful of
/// keys on this wire never warrants a hash map); duplicate keys are
/// tolerated and [`Json::get`] returns the first.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Integers are exact up to 2^53.
    Num(f64),
    /// A string (escapes already decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in source order.
    Obj(Vec<(String, Json)>),
}

/// Why a JSON document failed to parse, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Deepest permitted nesting of arrays/objects; beyond this the parser
/// reports an error instead of risking stack exhaustion.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses one JSON document (surrounding whitespace allowed;
    /// trailing non-whitespace is an error).
    ///
    /// ```
    /// use les3_net::json::Json;
    ///
    /// assert_eq!(Json::parse("[1, 2]").unwrap(), Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]));
    /// assert!(Json::parse("[1, 2] trailing").is_err());
    /// assert!(Json::parse("{\"unterminated\": ").is_err());
    /// ```
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Looks a key up in an object (`None` for missing keys and for
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number that is
    /// one (integral, in `0..=2^53` so the `f64` representation is
    /// exact).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl fmt::Display for Json {
    /// Writes the value as compact JSON (no whitespace). Strings are
    /// escaped per RFC 8259; numbers use Rust's shortest round-trip
    /// form; a non-finite number (which the protocol never produces)
    /// degrades to `null`, as `JSON.stringify` does.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    value.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a JSON string: one `write_str` per run of bytes that
/// need no escape. Every byte that does is ASCII, so each run ends on a
/// character boundary.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0c => Some("\\f"),
            0..0x20 => None,
            _ => continue,
        };
        f.write_str(&s[run..i])?;
        match named {
            Some(escape) => f.write_str(escape)?,
            None => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue; // unicode_escape consumed its own bytes
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Advance one whole UTF-8 scalar (input is &str, so
                    // slicing on char boundaries is safe).
                    let rest = &self.bytes[self.pos..];
                    let len = match std::str::from_utf8(rest) {
                        Ok(s) => s.chars().next().map(char::len_utf8).unwrap_or(1),
                        Err(_) => 1,
                    };
                    out.push_str(std::str::from_utf8(&rest[..len]).unwrap_or("\u{fffd}"));
                    self.pos += len;
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (and a low-surrogate pair if
    /// one follows); on entry `pos` is at the first hex digit.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require `\uXXXX` low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number token is ASCII by construction"); // lint: allow(no-unwrap) infallible
                                                              // The token alphabet excludes the letters of "inf"/"NaN", so the
                                                              // f64 parser only accepts genuine numeric spellings here.
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => {
                self.pos = start;
                Err(self.err("invalid number"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-1", "3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &x in &[
            1.0 / 3.0,
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            1e-12,
            0.9999999999999999,
        ] {
            let encoded = Json::Num(x).to_string();
            assert_eq!(Json::parse(&encoded).unwrap(), Json::Num(x), "{encoded}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nquote\"back\\slash\ttab\u{1F600}é";
        let encoded = Json::Str(s.to_string()).to_string();
        assert_eq!(Json::parse(&encoded).unwrap(), Json::Str(s.to_string()));
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\ud83d\ude00""#).unwrap(),
            Json::Str("Aé\u{1F600}".to_string())
        );
    }

    /// The run writer against the character-at-a-time writer it
    /// replaced: quotes, backslash, every control character, `\u{7f}`
    /// (not a control character to JSON) and multi-byte UTF-8, alone, at
    /// either end and between runs.
    #[test]
    fn escaping_writes_what_the_per_character_writer_wrote() {
        fn per_char(s: &str) -> String {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    '\u{08}' => out.push_str("\\b"),
                    '\u{0c}' => out.push_str("\\f"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out + "\""
        }
        let controls: String = (0u8..0x20).map(char::from).collect();
        let mut cases = vec![
            String::new(),
            "plain".to_string(),
            "\"".to_string(),
            "\\".to_string(),
            "\u{7f}".to_string(),
            "é😀\u{7f}".to_string(),
            controls.clone(),
            format!("a{controls}b\"c\\dé\u{7f}😀x"),
            format!("😀{controls}é"),
        ];
        cases.extend(controls.chars().map(|c| format!("é{c}😀")));
        for s in cases {
            let written = Json::Str(s.clone()).to_string();
            assert_eq!(written, per_char(&s), "{s:?}");
            assert_eq!(Json::parse(&written).unwrap(), Json::Str(s));
        }
        assert_eq!(
            Json::Str("\u{1}\u{1f}\u{7f}".into()).to_string(),
            "\"\\u0001\\u001f\u{7f}\""
        );
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a":[1,2,{"b":null}],"c":{"d":[true,false]},"e":""}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for text in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"}",
            "[1,]",
            "{\"a\":1,}",
            "tru",
            "nul",
            "+1",
            "1e",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "[1 2]",
            "{\"a\" 1}",
            "01x",
            "--1",
            "\u{1}",
            "[1]]",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(32) + &"]".repeat(32);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn as_u64_rejects_non_integers() {
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1e300).as_u64(), None);
        assert_eq!(Json::Str("3".into()).as_u64(), None);
    }
}
