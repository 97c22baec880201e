//! A dependency-free JSON reader and the one compact JSON writer.
//!
//! [`Writer`] is the encoder behind every JSON surface in the
//! workspace: the estimate contract `dve estimate` and `dve serve`
//! share, the other serve bodies, telemetry snapshots, the statistics
//! catalog and its sidecar, and the audit baseline's cell lines.
//! [`parse`] is the matching reader: a small recursive-descent parser
//! for the full JSON grammar, shared by the CI gates and the `dve
//! serve` request parser.
//!
//! The reader favors clarity over speed — baselines are a few
//! kilobytes — and reports errors with a byte offset for
//! debuggability.

use std::fmt::Write;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, which covers the audit schema).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order (the schema has no duplicate keys).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Escapes `s` as the interior of a JSON string: `"`, `\`, the common
/// whitespace controls by name, and every other control character as
/// `\uXXXX`. Runs without one of those bytes are copied whole.
pub fn escape_into(out: &mut String, mut s: &str) {
    while let Some(i) = s.bytes().position(|b| b < 0x20 || b == b'"' || b == b'\\') {
        // Every byte matched is ASCII, so `i` is a char boundary.
        out.push_str(&s[..i]);
        match s.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            control => {
                let _ = write!(out, "\\u{control:04x}");
            }
        }
        s = &s[i + 1..];
    }
    out.push_str(s);
}

/// [`escape_into`] returning a fresh `String`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Writes an `f64` as a JSON number using Rust's shortest round-trip
/// formatting, so [`parse`] recovers the bit-identical value — the
/// byte-identity contract between the CLI and `dve serve` rests on
/// this. Non-finite values (which JSON cannot represent) become `null`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A compact JSON writer appending to a caller's `String`. Strings go
/// through [`escape_into`], floats through [`push_f64`], and commas come
/// from one flag, so no caller tracks which element is first.
///
/// ```
/// use dve_obs::minijson::Writer;
/// let mut out = String::new();
/// let mut w = Writer::new(&mut out);
/// w.begin_object().field("name", "a\"b").key("xs").begin_array();
/// for x in [1.5, f64::NAN] {
///     w.value(x);
/// }
/// w.end_array().field("n", None::<u64>).end_object();
/// assert_eq!(out, r#"{"name":"a\"b","xs":[1.5,null],"n":null}"#);
/// ```
pub struct Writer<'a> {
    out: &'a mut String,
    /// The next key or value takes no comma: it opens its container,
    /// follows a key, or starts the document.
    bare: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending one value (usually an object) to `out`.
    pub fn new(out: &'a mut String) -> Self {
        Writer { out, bare: true }
    }

    fn comma(&mut self) -> &mut String {
        if !self.bare {
            self.out.push(',');
        }
        self.bare = false;
        self.out
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.comma().push(bracket);
        self.bare = true;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.bare = false;
        self
    }

    /// `{`
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// `}`
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// `[`
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// `]`
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// An object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        key.write_to(self.comma());
        self.out.push(':');
        self.bare = true;
        self
    }

    /// One scalar value.
    pub fn value(&mut self, v: impl Scalar) -> &mut Self {
        v.write_to(self.comma());
        self
    }

    /// [`Writer::key`] followed by [`Writer::value`].
    pub fn field(&mut self, key: &str, v: impl Scalar) -> &mut Self {
        self.key(key).value(v)
    }

    /// `json` verbatim as the next value: a number in a fixed format, or
    /// a document another writer already produced.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.comma().push_str(json);
        self
    }
}

/// A value [`Writer::value`] writes: strings escaped and quoted, floats
/// per [`push_f64`], integers in decimal, `None` as `null`.
pub trait Scalar {
    /// Appends the JSON text of `self` to `out`.
    fn write_to(self, out: &mut String);
}

impl Scalar for &str {
    fn write_to(self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl Scalar for &String {
    fn write_to(self, out: &mut String) {
        self.as_str().write_to(out);
    }
}

impl Scalar for f64 {
    fn write_to(self, out: &mut String) {
        push_f64(out, self);
    }
}

impl<T: Scalar> Scalar for Option<T> {
    fn write_to(self, out: &mut String) {
        match self {
            Some(v) => v.write_to(out),
            None => out.push_str("null"),
        }
    }
}

macro_rules! integer_scalars {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
                    fn write_to(self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

integer_scalars!(u32, u64, usize, i64);

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            c as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

/// Deepest container nesting [`parse`] accepts. The parser recurses once
/// per level, so an unbounded depth would let a request body of `[`s
/// overflow the stack.
const MAX_DEPTH: usize = 128;

/// Parses one value inside `depth` enclosing containers.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        // Surrogates are not produced by our writer; map
                        // unpaired ones to U+FFFD rather than failing.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so char
                // boundaries are valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            other => {
                return Err(format!(
                    "expected ',' or ']' at byte {pos}, found {other:?}"
                ))
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            other => {
                return Err(format!(
                    "expected ',' or '}}' at byte {pos}, found {other:?}"
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Num(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), JsonValue::Num(-1500.0));
        assert_eq!(
            parse("\"a\\\"b\\nc\"").unwrap(),
            JsonValue::Str("a\"b\nc".to_string())
        );
        assert_eq!(
            parse("\"\\u00e9\"").unwrap(),
            JsonValue::Str("é".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"cells":[{"estimator":"GEE","zipf":0,"err":1.25}],"n":3}"#).unwrap();
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(3));
        let cells = v.get("cells").and_then(JsonValue::as_array).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(
            cells[0].get("estimator").and_then(JsonValue::as_str),
            Some("GEE")
        );
        assert_eq!(cells[0].get("err").and_then(JsonValue::as_f64), Some(1.25));
        assert_eq!(cells[0].get("zipf").and_then(JsonValue::as_f64), Some(0.0));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
        // Nesting is capped instead of recursing until the stack
        // overflows; the cap itself still parses.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
        assert!(parse(&"{\"a\":".repeat(1 << 16)).is_err());
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        assert!(parse(&format!("[{deepest}]")).is_err());
    }

    #[test]
    fn accessors_reject_wrong_types() {
        let v = parse(r#"{"s":"x","f":1.5,"neg":-2}"#).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_f64), None);
        assert_eq!(v.get("f").and_then(JsonValue::as_u64), None);
        assert_eq!(v.get("neg").and_then(JsonValue::as_u64), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.as_array(), None);
        assert_eq!(JsonValue::Null.get("x"), None);
    }

    #[test]
    fn writers_emit_pinned_bytes() {
        assert_eq!(escape("a\u{1}\u{1f}\"\\\n"), "a\\u0001\\u001f\\\"\\\\\\n");
        let mut out = String::new();
        for v in [0.0, -1.5, 770.0, 0.1 + 0.2, 1e300, f64::NAN, f64::INFINITY] {
            push_f64(&mut out, v);
            out.push(' ');
        }
        let big = format!("1{}", "0".repeat(300));
        assert_eq!(
            out,
            format!("0 -1.5 770 0.30000000000000004 {big} null null ")
        );
        let parsed = parse("\"a\\u0001\\u001f\"").unwrap();
        assert_eq!(parsed.as_str(), Some("a\u{1}\u{1f}"));
    }
}
