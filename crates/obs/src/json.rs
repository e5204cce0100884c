//! A minimal JSON value type with an emitter and a parser.
//!
//! The build environment is offline (no `serde`), and the only JSON this
//! workspace needs is the `BENCH_*.json` benchmark trajectory and the
//! conformance failure artifacts — flat-ish documents written and read by
//! our own code. This module supports exactly RFC 8259 JSON: objects
//! (insertion-ordered), arrays, strings with escapes, finite numbers,
//! booleans and null.
//!
//! ```
//! use obs::Json;
//!
//! let doc = Json::obj_from([
//!     ("schema_version".to_string(), Json::Num(1.0)),
//!     ("name".to_string(), Json::Str("emit_bench".to_string())),
//!     ("phases".to_string(), Json::Arr(vec![Json::Str("clustering".into())])),
//! ]);
//! let text = doc.render_pretty();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("schema_version").and_then(Json::as_f64), Some(1.0));
//! assert_eq!(back.get("name").and_then(Json::as_str), Some("emit_bench"));
//! ```

/// A JSON value. Objects preserve insertion order (`Vec` of pairs, not a
/// map) so emitted documents are deterministic and diffs stay readable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Emitted without a fractional part when integral; a
    /// non-finite value (NaN, ±∞) has no JSON spelling and is emitted as
    /// `null`, as `JSON.stringify` does.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order and are assumed unique.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Object from key/value pairs (insertion order preserved).
    pub fn obj_from(pairs: impl IntoIterator<Item = (String, Json)>) -> Json {
        Json::Obj(pairs.into_iter().collect())
    }

    /// Insert/overwrite `key` in an object; panics on non-objects (the
    /// emit paths build documents statically, so this is a logic error).
    pub fn set(&mut self, key: &str, value: Json) {
        let Json::Obj(pairs) = self else { panic!("Json::set on non-object") };
        if let Some(p) = pairs.iter_mut().find(|(k, _)| k == key) {
            p.1 = value;
        } else {
            pairs.push((key.to_string(), value));
        }
    }

    /// Member lookup on objects; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a [`Json::Num`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string slice, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element slice, if this is a [`Json::Arr`].
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is a [`Json::Obj`].
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space-indented rendering with a trailing newline — the format
    /// the committed `BENCH_*.json` files use.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `Display` writes integral values without a fraction ("42")
            // and keeps the sign of -0.0 ("-0").
            Json::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Returns a message with the byte offset of
    /// the first error; trailing non-whitespace input is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(v)
    }
}

/// Integral values print as integers (counter snapshots stay readable and
/// round-trip exactly); everything else uses shortest-f64 formatting.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                pairs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    let n: f64 = text.parse().map_err(|_| format!("invalid number '{text}' at byte {start}"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number at byte {start}"));
    }
    Ok(Json::Num(n))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        // Surrogate pairs are not needed by our emitters;
                        // map unpaired surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte aware).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let ch = rest.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_and_pretty() {
        let doc = Json::obj_from([
            ("a".to_string(), Json::Num(1.0)),
            ("b".to_string(), Json::Str("x \"y\" \n z".to_string())),
            ("c".to_string(), Json::Arr(vec![Json::Bool(true), Json::Null, Json::Num(-2.5e-3)])),
            ("empty_obj".to_string(), Json::obj()),
            ("empty_arr".to_string(), Json::Arr(vec![])),
        ]);
        for text in [doc.render(), doc.render_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(-7.0).render(), "-7");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        // Huge magnitudes render as a full decimal expansion
        // but still round-trip exactly.
        let huge = Json::Num(1e300);
        assert_eq!(Json::parse(&huge.render()).unwrap(), huge);
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let text = Json::Num(-0.0).render();
        assert_eq!(text, "-0");
        let n = Json::parse(&text).unwrap().as_f64().unwrap();
        assert_eq!(n.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let num = Json::Num(x);
            let arr = Json::Arr(vec![Json::Num(1.0), num.clone()]);
            let obj = Json::Obj(vec![("k".to_string(), num.clone())]);
            let nulled = |doc: &Json| Json::parse(&doc.render()).unwrap();
            assert_eq!(nulled(&num), Json::Null, "{x}");
            assert_eq!(nulled(&arr), Json::Arr(vec![Json::Num(1.0), Json::Null]), "{x}");
            assert_eq!(nulled(&obj), Json::Obj(vec![("k".to_string(), Json::Null)]), "{x}");
            assert_eq!(Json::parse(&obj.render_pretty()).unwrap(), nulled(&obj), "{x}");
        }
    }

    #[test]
    fn set_and_get() {
        let mut o = Json::obj();
        o.set("k", Json::Num(1.0));
        o.set("k", Json::Num(2.0)); // overwrite, no duplicate key
        o.set("l", Json::Bool(false));
        assert_eq!(o.get("k").and_then(Json::as_f64), Some(2.0));
        assert_eq!(o.as_object().unwrap().len(), 2);
        assert_eq!(o.get("missing"), None);
    }

    #[test]
    fn parse_errors() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1..2").is_err());
    }

    #[test]
    fn parses_nested_documents() {
        let v = Json::parse(r#"{"runs": [{"name": "seq", "phases": {"t": 0.25}}]}"#).unwrap();
        let run = &v.get("runs").unwrap().as_array().unwrap()[0];
        assert_eq!(run.get("name").and_then(Json::as_str), Some("seq"));
        assert_eq!(run.get("phases").and_then(|p| p.get("t")).and_then(Json::as_f64), Some(0.25));
    }

    #[test]
    fn unicode_and_escapes() {
        let v = Json::parse(r#""café μDBSCAN \t ok""#).unwrap();
        assert_eq!(v.as_str(), Some("café μDBSCAN \t ok"));
        let s = Json::Str("μ/ε \u{1}".to_string());
        assert_eq!(Json::parse(&s.render()).unwrap(), s);
    }
}
