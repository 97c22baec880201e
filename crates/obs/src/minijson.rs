//! A dependency-free JSON reader.
//!
//! The workspace hand-rolls all of its JSON *writers* (telemetry
//! snapshots, audit baselines, the serve API responses); this module is
//! the matching reader: a small recursive-descent parser for the full
//! JSON grammar, shared by the CI gates and the `dve serve` request
//! parser. It started life next to the audit regression gate in
//! `dve-experiments` and moved here once the serve daemon needed the
//! same reader for request bodies.
//!
//! It favors clarity over speed — baselines are a few kilobytes — and
//! reports errors with a byte offset for debuggability.

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

/// Escapes `s` as the interior of a JSON string — the one escape
/// implementation every hand-rolled writer in the workspace shares
/// (telemetry snapshots, the serve error envelope, ANALYZE statistics,
/// the statistics catalog). Escapes `"`, `\`, the common whitespace
/// controls by name, and every other control character as `\uXXXX`.
pub fn escape_into(out: &mut String, s: &str) {
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

    #[test]
    fn round_trips_snapshot_json() {
        // The obs registry's hand-rolled writer must be readable by this
        // parser — they are two halves of the same contract.
        let r = crate::Registry::new();
        r.counter_labeled("a.count", "x\"y").add(3);
        r.histogram("lat_ns").record(1000);
        let parsed = parse(&r.snapshot().to_json()).unwrap();
        let counters = parsed
            .get("counters")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(
            counters[0].get("label").and_then(JsonValue::as_str),
            Some("x\"y")
        );
        assert_eq!(
            counters[0].get("value").and_then(JsonValue::as_u64),
            Some(3)
        );
    }
}
