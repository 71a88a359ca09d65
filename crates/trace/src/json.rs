//! Minimal JSON emission and parsing.
//!
//! Machine-readable export without pulling a serialization dependency into
//! the workspace: a small value tree with spec-compliant string escaping
//! and float formatting, sufficient for the flat records experiments and
//! trace sinks produce, plus a strict recursive-descent parser so trace
//! consumers (bench binaries, golden tests) can read the streams back.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Finite number (non-finite values serialize as `null`, as
    /// `JSON.stringify` does).
    Number(f64),
    /// String.
    String(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object with deterministic (sorted) key order.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Convenience constructor for an object from key/value pairs.
    ///
    /// ```
    /// use hypart_trace::json::JsonValue;
    ///
    /// let v = JsonValue::object([
    ///     ("cut", JsonValue::Number(42.0)),
    ///     ("balanced", JsonValue::Bool(true)),
    /// ]);
    /// assert_eq!(v.to_string(), r#"{"balanced":true,"cut":42}"#);
    /// ```
    pub fn object<K, I>(pairs: I) -> JsonValue
    where
        K: Into<String>,
        I: IntoIterator<Item = (K, JsonValue)>,
    {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Convenience constructor for an array.
    pub fn array<I: IntoIterator<Item = JsonValue>>(items: I) -> JsonValue {
        JsonValue::Array(items.into_iter().collect())
    }

    /// Convenience constructor for a string value.
    pub fn string(s: impl Into<String>) -> JsonValue {
        JsonValue::String(s.into())
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message with the byte offset of the
    /// problem.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Field access for object values; `None` for anything else.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integral
    /// number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// The numeric payload as `i64`, if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Number(x) if x.fract() == 0.0 => Some(*x as i64),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Number(x)
    }
}

impl From<u64> for JsonValue {
    fn from(x: u64) -> Self {
        JsonValue::Number(x as f64)
    }
}

impl From<i64> for JsonValue {
    fn from(x: i64) -> Self {
        JsonValue::Number(x as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(x: usize) -> Self {
        JsonValue::Number(x as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(x: bool) -> Self {
        JsonValue::Bool(x)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(x) => {
                if !x.is_finite() {
                    write!(f, "null")
                } else if x.fract() == 0.0 && x.abs() < 9e15 {
                    write!(f, "{}", *x as i64)
                } else {
                    write!(f, "{x}")
                }
            }
            JsonValue::String(s) => write_escaped(f, s),
            JsonValue::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            JsonValue::Object(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    // Every escaped character is ASCII, and no byte of a multi-byte
    // UTF-8 sequence is, so scanning bytes splits `s` only at char
    // boundaries: plain runs go out in one `write_str` each.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        f.write_str(&s[run..i])?;
        match escape {
            Some(escape) => f.write_str(escape)?,
            None => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

/// Strict recursive-descent JSON parser over a byte slice.
struct Parser<'a> {
    /// The document; `bytes` is its byte view, kept for cheap peeking.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn expect_literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.expect_literal("null").map(|()| JsonValue::Null),
            Some(b't') => self.expect_literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self
                .expect_literal("false")
                .map(|()| JsonValue::Bool(false)),
            Some(b'"') => self.parse_string().map(JsonValue::String),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the plain run up to the next quote or backslash in one
            // step. Both are ASCII, so the run ends on a char boundary and
            // the whole string decodes in linear time.
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                self.text
                    .get(start..self.pos)
                    .ok_or_else(|| format!("invalid utf-8 in string at byte {start}"))?,
            );
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped at a backslash: decode one escape.
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
                            self.pos += 1;
                            let first = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: the low half must follow.
                                self.expect_literal("\\u")?;
                                let second = self.parse_hex4()?;
                                let low = second
                                    .checked_sub(0xDC00)
                                    .filter(|&x| x < 0x400)
                                    .ok_or_else(|| "bad low surrogate".to_string())?;
                                let combined = 0x10000 + ((first - 0xD800) << 10) + low;
                                char::from_u32(combined)
                                    .ok_or_else(|| "bad surrogate pair".to_string())?
                            } else {
                                char::from_u32(first).ok_or_else(|| "lone surrogate".to_string())?
                            };
                            out.push(c);
                            self.pos -= 1; // compensate the +1 below
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or(format!("bad \\u escape at byte {}", self.pos))?;
        let value = u32::from_str_radix(digits, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(value)
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(JsonValue::Null.to_string(), "null");
        assert_eq!(JsonValue::Bool(true).to_string(), "true");
        assert_eq!(JsonValue::Number(3.0).to_string(), "3");
        assert_eq!(JsonValue::Number(3.25).to_string(), "3.25");
        assert_eq!(JsonValue::Number(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::string("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn escaping() {
        assert_eq!(
            JsonValue::string("a\"b\\c\nd").to_string(),
            r#""a\"b\\c\nd""#
        );
        assert_eq!(JsonValue::string("\u{1}").to_string(), "\"\\u0001\"");
        assert_eq!(JsonValue::string("tab\there").to_string(), "\"tab\\there\"");
        assert_eq!(JsonValue::string("cr\rlf\n").to_string(), "\"cr\\rlf\\n\"");
        // Non-ASCII passes through unescaped (valid JSON, UTF-8 medium).
        assert_eq!(JsonValue::string("λ—é").to_string(), "\"λ—é\"");
    }

    #[test]
    fn large_integer_formatting() {
        // Integers below the 9e15 guard print without a fractional part …
        assert_eq!(JsonValue::Number(8.999e15).to_string(), "8999000000000000");
        assert_eq!(
            JsonValue::Number(-8.999e15).to_string(),
            "-8999000000000000"
        );
        // … and at/above it fall back to float display, still integral and
        // exponent-free (Rust float Display never uses scientific
        // notation), so consumers parse the same value back.
        for huge in [9e15, 2f64.powi(53), 1e20, u64::MAX as f64] {
            let text = JsonValue::Number(huge).to_string();
            assert!(!text.contains(['e', 'E']), "{text}");
            assert_eq!(JsonValue::parse(&text).unwrap().as_f64(), Some(huge));
        }
        // u64::MAX is not exactly representable; the shortest round-trip
        // decimal of the nearest f64 is emitted.
        assert_eq!(
            JsonValue::from(u64::MAX).to_string(),
            "18446744073709552000"
        );
    }

    #[test]
    fn containers() {
        let v = JsonValue::array([JsonValue::from(1u64), JsonValue::Null]);
        assert_eq!(v.to_string(), "[1,null]");
        let o = JsonValue::object([("b", JsonValue::from(2u64)), ("a", JsonValue::from(1u64))]);
        assert_eq!(o.to_string(), r#"{"a":1,"b":2}"#); // sorted keys
    }

    #[test]
    fn parse_round_trips() {
        for text in [
            "null",
            "true",
            "false",
            "42",
            "-1.5",
            "\"hi\"",
            "[]",
            "[1,2,[3]]",
            "{}",
            r#"{"a":1,"b":[true,null],"c":{"d":"e"}}"#,
            r#""a\"b\\c\nd""#,
            "\"\\u0001\"",
        ] {
            let v = JsonValue::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "round trip of {text}");
        }
    }

    #[test]
    fn parse_handles_whitespace_and_escapes() {
        let v = JsonValue::parse(" { \"k\" : [ 1 , \"\\u00e9\\uD83D\\uDE00\" ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap(),
            &JsonValue::array([JsonValue::from(1u64), JsonValue::string("é😀")])
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for text in ["", "nul", "{", "[1,]", "{\"a\":}", "1 2", "\"unterminated"] {
            assert!(JsonValue::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn accessors() {
        let v = JsonValue::parse(r#"{"n":3,"s":"x","b":true,"neg":-4}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("neg").unwrap().as_i64(), Some(-4));
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Null.get("x"), None);
    }
}
