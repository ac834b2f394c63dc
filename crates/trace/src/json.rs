//! A dependency-free JSON value builder.
//!
//! The repo builds offline (no crates.io), so `serde_json` is not
//! available; this covers the small amount of JSON the metrics exporters
//! and the `report --json` binary need. Objects preserve insertion order,
//! which keeps every exporter deterministic.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer (rendered without a decimal point).
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating point (non-finite values render as `null`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Creates an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds a field to an object (panics on non-objects — builder misuse).
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(fields) => fields.push((key.to_owned(), value)),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Builder-style [`Json::set`].
    #[must_use]
    pub fn with(mut self, key: &str, value: Json) -> Json {
        self.set(key, value);
        self
    }

    /// Compact rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Pretty rendering with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

/// Where and why a [`Json::parse`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Deepest array/object nesting [`Json::parse`] accepts. The deepest
/// document the repo writes, the stats snapshot, nests 5 levels; the cap
/// keeps a hostile document from overflowing the recursive parser's stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonParseError> {
        Err(JsonParseError {
            at: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected {:?}", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => self.err(format!("unexpected byte {:?}", *c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    /// Parses one array or object, refusing it past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonParseError>,
    ) -> Result<Json, JsonParseError> {
        if self.depth == MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected {word}"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        let mut integral = true;
        while let Some(&c) = self.bytes.get(self.pos) {
            match c {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) => Ok(Json::Num(f)),
            Err(_) => self.err(format!("bad number {text:?}")),
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one go: both
            // are ASCII, so the run ends on a char boundary of the source.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.bytes.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped at a backslash: one escape.
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }
}

impl Json {
    /// Parses a JSON document (the inverse of [`Json::render`]). Integral
    /// numbers come back as [`Json::UInt`]/[`Json::Int`], everything else
    /// as [`Json::Num`].
    ///
    /// # Errors
    ///
    /// Returns the byte offset and cause of the first syntax error,
    /// including trailing garbage after the document and arrays or
    /// objects nested more than 64 deep.
    pub fn parse(s: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing garbage after document");
        }
        Ok(v)
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(f) => Some(*f),
            Json::UInt(u) => Some(*u as f64),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::UInt(u)
    }
}

impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::UInt(u as u64)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Num(f)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures_compactly() {
        let j = Json::obj()
            .with("name", "bank0".into())
            .with("stalls", Json::UInt(3))
            .with("util", Json::Num(0.5))
            .with("tags", Json::Arr(vec!["a".into(), "b".into()]));
        assert_eq!(
            j.render(),
            "{\"name\":\"bank0\",\"stalls\":3,\"util\":0.5,\"tags\":[\"a\",\"b\"]}"
        );
    }

    #[test]
    fn escapes_control_characters() {
        let j = Json::Str("a\"b\\c\nd\u{1}".to_owned());
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn pretty_output_is_indented_and_reparseable_shape() {
        let j = Json::obj()
            .with("x", Json::Int(-4))
            .with("y", Json::Arr(vec![Json::Null]));
        let p = j.pretty();
        assert!(p.contains("\n  \"x\": -4"));
        assert!(p.ends_with('}'));
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parse_inverts_render() {
        let j = Json::obj()
            .with("name", "bank\"0\"".into())
            .with("stalls", Json::UInt(3))
            .with("delta", Json::Int(-7))
            .with("util", Json::Num(0.5))
            .with("tiny", Json::Num(1e-9))
            .with("on", Json::Bool(true))
            .with("none", Json::Null)
            .with("tags", Json::Arr(vec!["a".into(), Json::UInt(2)]))
            .with("nested", Json::obj().with("x", Json::UInt(1)));
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
        assert_eq!(Json::parse(&j.pretty()).unwrap(), j);
    }

    #[test]
    fn parse_accessors_navigate_documents() {
        let doc = r#"{"a": 3, "b": -2, "f": 1.25, "s": "x", "on": false,
                      "arr": [{"k": 9}]}"#;
        let j = Json::parse(doc).unwrap();
        assert_eq!(j.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("b").and_then(Json::as_f64), Some(-2.0));
        assert_eq!(j.get("f").and_then(Json::as_f64), Some(1.25));
        assert_eq!(j.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(j.get("on").and_then(Json::as_bool), Some(false));
        let arr = j.get("arr").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].get("k").and_then(Json::as_u64), Some(9));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} x", "\"abc", "tru"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        let e = Json::parse("{\"a\": @}").unwrap_err();
        assert_eq!(e.at, 6, "{e}");
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let j = Json::parse(r#""a\"b\\c\ndAü""#).unwrap();
        assert_eq!(j.as_str(), Some("a\"b\\c\ndAü"));
    }

    #[test]
    fn parse_refuses_nesting_past_the_cap() {
        let arrays = "[".repeat(1_000_000);
        let e = Json::parse(&arrays).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH, "{e}");
        assert!(Json::parse(&"{\"a\":".repeat(1_000_000)).is_err());
        let at_cap = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&at_cap).is_ok());
        let objects = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&objects).is_ok());
    }

    #[test]
    fn a_one_mebibyte_multibyte_string_round_trips() {
        let text: String = "aü€😀\"\\\n".chars().cycle().take(1 << 20).collect();
        assert!(text.len() > 1 << 20);
        let j = Json::Str(text);
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
    }
}
