//! A dependency-free JSON value type with a deterministic emitter and a
//! small recursive-descent parser.
//!
//! Its documents are diffed and committed (`tle-bench emit` reports, the
//! lint SARIF and baseline), so the emitter must be byte-deterministic —
//! objects keep their insertion order (the schema fixes that order), floats
//! are carried as raw token strings ([`Json::Num`]) so that
//! emit → parse → emit is byte-identical, and indentation is fixed at two
//! spaces. The string escaper follows tle-lint's `render_json` idiom
//! (RFC 8259).

use std::fmt::Write as _;

/// A JSON value. Objects are ordered vectors, not maps: key order is part
/// of the schema and must survive a round-trip.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number kept as its raw token (`"12"`, `"0.375"`, `"1.2e6"`), so
    /// re-emission reproduces the input bytes exactly.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An integer literal.
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A float literal with three decimals — enough resolution for
    /// throughput/ratio fields while keeping the artifact diff-friendly.
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.3}"))
        } else {
            Json::Null
        }
    }

    /// A string literal.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parse the numeric token as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// Parse the numeric token as u64.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Render with two-space indentation and a trailing newline — the
    /// canonical on-disk form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => out.push_str(&escape(s)),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Flat arrays of scalars stay on one line (histogram
                // buckets); arrays of composites get one element per line.
                let scalar = items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
                if scalar {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write(out, depth);
                    }
                    out.push(']');
                } else {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(if i > 0 { ",\n" } else { "\n" });
                        indent(out, depth + 1);
                        item.write(out, depth + 1);
                    }
                    out.push('\n');
                    indent(out, depth);
                    out.push(']');
                }
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    let _ = write!(out, "{}: ", escape(k));
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document. Rejects trailing garbage.
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Escape a string per RFC 8259.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_str(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, val: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(val)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    if *pos == start {
        return Err(format!("expected a value at offset {start}"));
    }
    let tok = std::str::from_utf8(&b[start..*pos]).unwrap().to_string();
    tok.parse::<f64>()
        .map_err(|_| format!("bad number '{tok}' at offset {start}"))?;
    Ok(Json::Num(tok))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
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
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through verbatim.
                let len = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let chunk = b.get(*pos..*pos + len).ok_or("truncated utf-8")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
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
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        fields.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::str("tle-bench-trajectory")),
            ("version".into(), Json::u64(1)),
            ("tput".into(), Json::f64(12345.678)),
            ("ok".into(), Json::Bool(true)),
            ("missing".into(), Json::Null),
            (
                "hist".into(),
                Json::Arr(vec![Json::u64(0), Json::u64(3), Json::u64(7)]),
            ),
            (
                "runs".into(),
                Json::Arr(vec![Json::Obj(vec![(
                    "name".into(),
                    Json::str("fig5/hash \"quoted\"\n"),
                )])]),
            ),
        ])
    }

    #[test]
    fn render_parse_render_is_byte_identical() {
        let first = sample().render();
        let reparsed = Json::parse(&first).unwrap();
        assert_eq!(reparsed.render(), first);
    }

    #[test]
    fn raw_number_tokens_survive_round_trip() {
        for tok in ["0.375", "1.2e6", "-0.001", "12", "12.300"] {
            let doc = Json::Arr(vec![Json::Num(tok.into())]).render();
            assert_eq!(Json::parse(&doc).unwrap().render(), doc);
        }
    }

    #[test]
    fn accessors_navigate_the_tree() {
        let v = sample();
        assert_eq!(v.get("version").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("tput").and_then(Json::as_f64), Some(12345.678));
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("tle-bench-trajectory")
        );
        assert_eq!(
            v.get("hist").and_then(Json::as_arr).map(|a| a.len()),
            Some(3)
        );
        let runs = v.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(
            runs[0].get("name").and_then(Json::as_str),
            Some("fig5/hash \"quoted\"\n")
        );
        assert!(v.get("nope").is_none());
    }

    #[test]
    fn scalar_arrays_render_on_one_line() {
        let doc = Json::Arr(vec![Json::u64(1), Json::u64(2)]).render();
        assert_eq!(doc, "[1, 2]\n");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]extra",
            "{\"a\" 1}",
            "{\"a\": }",
            "\"unterminated",
            "nul",
            "1.2.3",
            "[1 2]",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
    }

    #[test]
    fn escapes_follow_rfc8259() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
        let doc = Json::str("tab\there").render();
        assert_eq!(Json::parse(&doc).unwrap(), Json::str("tab\there"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::f64(f64::NAN), Json::Null);
        assert_eq!(Json::f64(f64::INFINITY), Json::Null);
        assert_eq!(Json::f64(0.5), Json::Num("0.500".into()));
    }
}
