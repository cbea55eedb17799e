//! Hand-rolled JSON support for the trace layer: an object writer for the
//! event stream and a minimal parser for round-tripping emitted lines.
//!
//! The workspace builds fully offline, so no serde. The writer covers
//! exactly what the event schema and the chase checkpoint need (string,
//! integer and float fields, a nested object, an array of objects); the
//! parser covers full JSON values so tests can assert "every emitted line
//! parses" without external crates.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Incremental writer for one JSON object (one event line, one checkpoint).
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        let _ = write!(self.buf, "\"{}\":", escape(key));
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "\"{}\"", escape(value));
        self
    }

    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    pub fn usize(&mut self, key: &str, value: usize) -> &mut Self {
        self.u64(key, value as u64)
    }

    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        // Finite decimal rendering; NaN/inf have no JSON form.
        if value.is_finite() {
            let _ = write!(self.buf, "{value:.3}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// A nested object.
    pub fn object(&mut self, key: &str, value: JsonObject) -> &mut Self {
        self.key(key);
        self.buf.push_str(&value.finish());
        self
    }

    /// An array of objects.
    pub fn array(&mut self, key: &str, items: impl IntoIterator<Item = JsonObject>) -> &mut Self {
        self.key(key);
        self.buf.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&item.finish());
        }
        self.buf.push(']');
        self
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Field lookup on an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest. Checkpoint envelopes and trace
/// events are a few levels deep; the bound keeps the recursive descent off
/// the end of the stack on hostile input.
pub const MAX_DEPTH: usize = 64;

/// Parse one complete JSON value; trailing non-whitespace is an error, and
/// so is nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => parse_string(b, pos).map(JsonValue::Str),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|e| format!("bad number `{text}`: {e}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs are not emitted by the writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape in one slice.
                // Both are ASCII, so the run ends on a UTF-8 boundary.
                let run = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |n| *pos + n);
                out.push_str(std::str::from_utf8(&b[*pos..run]).map_err(|e| e.to_string())?);
                *pos = run;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            other => return Err(format!("expected , or ] in array, got {other:?}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected : at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos, depth)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(map));
            }
            other => return Err(format!("expected , or }} in object, got {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_parses_back() {
        let mut obj = JsonObject::new();
        obj.str("event", "activation")
            .str("dep", "e\"quote\\slash\n")
            .u64("sweep", 3)
            .u64("wall_us", 12345)
            .f64("rate", 0.5);
        let line = obj.finish();
        let v = parse(&line).unwrap();
        assert_eq!(
            v.get("event").and_then(JsonValue::as_str),
            Some("activation")
        );
        assert_eq!(
            v.get("dep").and_then(JsonValue::as_str),
            Some("e\"quote\\slash\n")
        );
        assert_eq!(v.get("sweep").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("rate").and_then(JsonValue::as_f64), Some(0.5));
    }

    #[test]
    fn nested_objects_and_arrays_parse_back() {
        let item = |n: u64| {
            let mut o = JsonObject::new();
            o.u64("n", n);
            o
        };
        let mut obj = JsonObject::new();
        obj.object("one", item(1))
            .array("many", [item(2), item(3)])
            .array("none", [])
            .str("after", "x");
        let line = obj.finish();
        assert_eq!(
            line,
            r#"{"one":{"n":1},"many":[{"n":2},{"n":3}],"none":[],"after":"x"}"#
        );
        let v = parse(&line).unwrap();
        assert_eq!(v.get("one").unwrap().get("n").unwrap().as_u64(), Some(1));
        let Some(JsonValue::Arr(many)) = v.get("many") else {
            panic!("no array: {v:?}")
        };
        assert_eq!(many.len(), 2);
    }

    #[test]
    fn parser_covers_nested_values() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x"}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(2.5),
                JsonValue::Num(-3.0)
            ]))
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Null));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1)).is_err());
        assert!(parse(&format!("{{\"a\":{}}}", deep(MAX_DEPTH))).is_err());
        // An unclosed 200 000-deep array fails without recursing through it.
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn a_one_mebibyte_string_parses_in_linear_time() {
        // 11 input bytes per repetition: ASCII, two- and four-byte scalars,
        // and two escapes.
        let text = "aé\u{1F600}\\\"".repeat((1 << 20) / 11 + 1);
        let input = format!("\"{}\"", escape(&text));
        assert!(input.len() >= 1 << 20, "{}", input.len());
        let t0 = std::time::Instant::now();
        assert_eq!(parse(&input).unwrap(), JsonValue::Str(text));
        // Quadratic re-validation of the rest of the input took tens of
        // seconds here; linear parsing takes milliseconds, even unoptimized.
        assert!(t0.elapsed().as_secs_f64() < 1.0, "{:?}", t0.elapsed());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), JsonValue::Obj(BTreeMap::new()));
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(Vec::new()));
    }
}
