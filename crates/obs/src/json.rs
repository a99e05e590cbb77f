//! The workspace's one JSON model: a dependency-free value type with a
//! recursive-descent parser, a deterministic renderer and the string escaper.
//!
//! Integer-looking numbers parse as [`Json::Int`] (an `i128`, wide enough to
//! hold any `u64` seed exactly); everything else as [`Json::Num`]. The
//! parser follows JSON's grammar strictly (no `+1`, `.5`, `01`, `1.` or
//! `1e`, no number that overflows to infinity, no unescaped control
//! character in a string), with one extension: the literals `NaN`, `inf`
//! and `-inf`. The server's `protocol::point_line` renders `f64`s with
//! `Display`, which spells non-finite values that way, and a job journal
//! holds those lines verbatim, so they must parse back on resume. Objects
//! are `BTreeMap`s, so rendering is key-ordered and deterministic — the
//! property the resume path relies on when comparing a submitted grid
//! against a journal header byte-for-byte.
//!
//! Every JSON document the workspace writes is a [`Json`] value rendered
//! with [`Json::render`] (the Chrome trace export renders each event as its
//! own value, inside a hand-written shell, so a large span store is never
//! one tree), except three line formats that are assembled by hand: [`crate::TraceEvent::to_json_line`], the trace section header of
//! `svard_system`'s `EvaluationHarness::evaluate_all_traced`, and the
//! server's `protocol::point_line`. Their member order is not key order,
//! and their bytes are pinned by job journals and golden digests; they sit
//! on hot output paths, so they skip building a value tree. They escape
//! strings only through [`Quoted`], so they cannot disagree with the
//! parser about what a string literal is.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Json::parse`] accepts, so no input can
/// overflow the parser's stack. The deepest legitimate frame is a point or
/// summary line, whose histogram bucket pairs sit 6 levels deep.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent (exact; holds any `u64`).
    Int(i128),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, key-ordered.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse one JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Render deterministically (object keys in `BTreeMap` order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Append the [`render`](Self::render) bytes to `out`.
    pub(crate) fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => out.push_str(&render_f64(*n)),
            Json::Str(s) => {
                let _ = quote_into(s, out);
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = quote_into(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
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

    /// The value as a `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// The object map, mutably, if this is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Build a string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Build an integer value from a `u64`.
    pub fn uint(v: u64) -> Json {
        Json::Int(v as i128)
    }

    /// Build an object from `(key, value)` members.
    pub fn obj<'k>(members: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        let members = members.into_iter().map(|(k, v)| (k.to_string(), v));
        Json::Obj(members.collect())
    }
}

/// A string displayed as a quoted, escaped JSON string literal: the
/// escaper behind [`Json::render`], and the only one the hand-rendered line
/// formats use.
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        quote_into(self.0, f)
    }
}

/// Write `s` as a quoted, escaped JSON string literal.
fn quote_into(s: &str, out: &mut impl fmt::Write) -> fmt::Result {
    out.write_char('"')?;
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.write_str(s)?;
    } else {
        for c in s.chars() {
            match c {
                '"' => out.write_str("\\\"")?,
                '\\' => out.write_str("\\\\")?,
                '\n' => out.write_str("\\n")?,
                '\r' => out.write_str("\\r")?,
                '\t' => out.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
                c => out.write_char(c)?,
            }
        }
    }
    out.write_char('"')
}

/// Render an `f64` the way Rust's `Display` does (shortest round-trip form);
/// non-finite values keep their `Display` spelling, which the parser accepts
/// back.
fn render_f64(n: f64) -> String {
    let s = n.to_string();
    // `Display` prints integral floats without a fractional part; keep a
    // marker so the value re-parses as a float, not an integer.
    if n.is_finite() && !s.contains('.') && !s.contains('e') && !s.contains("inf") {
        format!("{s}.0")
    } else {
        s
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes.get(*pos..).unwrap_or(&[]).starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

/// Parse the value at `pos`, inside `depth` enclosing arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth >= MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect_literal(bytes, pos, "null", Json::Null),
        Some(b't') => expect_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => expect_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'N') => expect_literal(bytes, pos, "NaN", Json::Num(f64::NAN)),
        Some(b'i') => expect_literal(bytes, pos, "inf", Json::Num(f64::INFINITY)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    // Caller guarantees bytes[*pos] == b'"'.
    *pos += 1;
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
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = hex4(bytes, *pos + 1).ok_or("bad \\u escape")?;
                        *pos += 4;
                        // A high surrogate joins the `\u` low surrogate right
                        // after it; any other surrogate decodes to U+FFFD.
                        let low = match bytes.get(*pos + 1..*pos + 3) {
                            Some(b"\\u") => hex4(bytes, *pos + 3),
                            _ => None,
                        };
                        let c = match (code, low) {
                            (0xD800..=0xDBFF, Some(low @ 0xDC00..=0xDFFF)) => {
                                *pos += 6;
                                char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                            }
                            _ => char::from_u32(code),
                        };
                        out.push(c.unwrap_or('\u{fffd}'));
                    }
                    _ => return Err("bad escape".to_string()),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(format!(
                    "unescaped control character at byte {pos}",
                    pos = *pos
                ))
            }
            Some(_) => {
                // Consume one UTF-8 code point (multi-byte sequences pass
                // through unchanged; the input is a &str, so it is valid).
                let start = *pos;
                *pos += 1;
                while bytes.get(*pos).is_some_and(|b| b & 0xC0 == 0x80) {
                    *pos += 1;
                }
                if let Ok(s) = std::str::from_utf8(bytes.get(start..*pos).unwrap_or(&[])) {
                    out.push_str(s);
                }
            }
        }
    }
}

/// The four hex digits at `at`, if they are four hex digits.
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    let hex = bytes
        .get(at..at + 4)
        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))?;
    u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
}

/// Parse a number with JSON's grammar: an optional `-`, then `0` or a digit
/// run without a leading zero, then optionally `.digits` and `e[+-]digits`.
/// `-inf` is the one non-JSON spelling accepted here (see the module doc);
/// a float that overflows to infinity is rejected.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    let invalid = || format!("invalid number at byte {start}");
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
        if bytes.get(*pos..).unwrap_or(&[]).starts_with(b"inf") {
            *pos += 3;
            return Ok(Json::Num(f64::NEG_INFINITY));
        }
    }
    let int_start = *pos;
    let int_digits = digits(pos);
    if int_digits == 0 || (int_digits > 1 && bytes.get(int_start) == Some(&b'0')) {
        return Err(invalid());
    }
    let mut is_float = false;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(pos) == 0 {
            return Err(invalid());
        }
        is_float = true;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(invalid());
        }
        is_float = true;
    }
    let text =
        std::str::from_utf8(bytes.get(start..*pos).unwrap_or(&[])).map_err(|e| e.to_string())?;
    if is_float {
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(format!("number {text:?} overflows f64")),
            Err(e) => Err(format!("bad number {text:?}: {e}")),
        }
    } else {
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|e| format!("bad integer {text:?}: {e}"))
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_scalars_and_structures() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "18446744073709551615",
            "1.5",
            "[1,2,3]",
            "{\"a\":1,\"b\":[true,null]}",
            "\"hi \\\"there\\\"\"",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.render(), text, "roundtrip of {text}");
        }
    }

    #[test]
    fn u64_values_survive_exactly() {
        let v = Json::parse("{\"seed\":18446744073709551615}").unwrap();
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn object_keys_are_rendered_sorted() {
        let v = Json::parse("{\"b\":1,\"a\":2}").unwrap();
        assert_eq!(v.render(), "{\"a\":2,\"b\":1}");
    }

    #[test]
    fn unicode_passes_through() {
        let v = Json::parse("\"Svärd-S0\"").unwrap();
        assert_eq!(v.as_str(), Some("Svärd-S0"));
        assert_eq!(v.render(), "\"Svärd-S0\"");
    }

    #[test]
    fn surrogate_pairs_join_and_lone_surrogates_become_replacement_chars() {
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert_eq!(v.render(), "\"😀\"");
        for (text, want) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00x""#, "\u{fffd}x"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}😀"),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_str(), Some(want), "{text}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\"}").is_err());
    }

    #[test]
    fn float_display_roundtrips_via_rust_formatting() {
        let v = Json::parse("{\"w\":0.9983212}").unwrap();
        assert_eq!(v.render(), "{\"w\":0.9983212}");
        // Integral floats keep a float marker so the type survives.
        assert_eq!(Json::Num(1.0).render(), "1.0");
    }

    #[test]
    fn nesting_is_bounded() {
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        assert!(Json::parse(&format!("{{\"a\":{at_limit}}}")).is_err());
    }

    #[test]
    fn parse_follows_the_json_grammar_plus_non_finite_literals() {
        let cases: [(&str, Option<Json>); 23] = [
            ("0", Some(Json::Int(0))),
            ("-0", Some(Json::Int(0))),
            ("10", Some(Json::Int(10))),
            ("-1.5e-3", Some(Json::Num(-1.5e-3))),
            ("2E+2", Some(Json::Num(200.0))),
            ("1e308", Some(Json::Num(1e308))),
            ("inf", Some(Json::Num(f64::INFINITY))),
            ("-inf", Some(Json::Num(f64::NEG_INFINITY))),
            ("\"tab\\\\there\"", Some(Json::str("tab\\there"))),
            ("\"\\t\"", Some(Json::str("\t"))),
            ("+1", None),
            (".5", None),
            ("01", None),
            ("-01", None),
            ("1.", None),
            ("1.e3", None),
            ("1e", None),
            ("1e+", None),
            ("-", None),
            ("1e999", None),
            ("-1e999", None),
            ("\"a\tb\"", None),
            ("\"\u{1}\"", None),
        ];
        for (text, want) in cases {
            assert_eq!(Json::parse(text).ok(), want, "{text:?}");
        }
        assert!(Json::parse("NaN").is_ok_and(|v| matches!(v, Json::Num(n) if n.is_nan())));
    }

    /// Structural equality in which NaN equals NaN.
    fn same(a: &Json, b: &Json) -> bool {
        match (a, b) {
            (Json::Num(x), Json::Num(y)) => x == y || (x.is_nan() && y.is_nan()),
            (Json::Arr(x), Json::Arr(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same(a, b))
            }
            (Json::Obj(x), Json::Obj(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.0 == b.0 && same(a.1, b.1))
            }
            _ => a == b,
        }
    }

    #[test]
    fn mutated_frames_never_panic_and_accepted_values_round_trip() {
        const FRAMES: [&str; 3] = [
            r#"{"type":"submit","job_id":"fuzz-1","grid":{"defenses":["PARA","Hydra"],"providers":["none","S0"],"hc_values":[64,4096],"mixes":1,"cores":2,"instructions":18446744073709551615,"rows":256,"seed":7,"bins":8,"workers":0}}"#,
            r#"{"type":"point","job_id":"jä","index":3,"defense":"PARA","provider":"Svärd-S0","hc_first":64,"weighted_speedup":0.9871,"harmonic_speedup":1,"max_slowdown":1.125e0,"metrics":{"counters":{"mem.cycles":1200},"gauges":{"mem.read_queue_peak":9},"hists":{}}}"#,
            r#"{"type":"summary","job_id":"\ud83d\ude00","points":2,"completed":2,"resumed":0,"metrics":{"counters":{},"gauges":{},"hists":{"mem.read_latency":{"buckets":[[0,1],[64,1]],"count":2,"sum":18446744073709551615}}},"profile":[{"phase":"sweep","wall_seconds":0.25,"tasks":4,"busy_seconds":-0.0,"threads":2,"utilization":NaN,"tasks_per_second":inf}]}"#,
        ];
        const ALPHABET: [char; 32] = [
            '{', '}', '[', ']', '"', ':', ',', '\\', 'u', 'd', '8', 'D', 'e', 'E', '0', '1', '9',
            '.', '-', '+', 'n', 't', 'f', 'N', 'i', 'a', ' ', '\n', '\u{1}', '/', 'ä', '😀',
        ];
        const MUTANTS: usize = 8_000;
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n.max(1) as u64) as usize
        };
        let mut accepted = 0;
        for round in 0..MUTANTS {
            let mut chars: Vec<char> = FRAMES[round % FRAMES.len()].chars().collect();
            for _ in 0..=below(3) {
                if chars.is_empty() {
                    break;
                }
                let at = below(chars.len());
                let end = (at + 1 + below(12)).min(chars.len());
                match below(5) {
                    0 => chars.insert(at, ALPHABET[below(ALPHABET.len())]),
                    1 => chars[at] = ALPHABET[below(ALPHABET.len())],
                    2 => drop(chars.drain(at..end)),
                    3 => chars.truncate(at),
                    _ => {
                        let copy = chars[at..end].to_vec();
                        chars.splice(at..at, copy);
                    }
                }
            }
            let text: String = chars.into_iter().collect();
            let parsed = std::panic::catch_unwind(|| Json::parse(&text))
                .unwrap_or_else(|_| panic!("parse panicked on {text:?}"));
            if let Ok(value) = parsed {
                accepted += 1;
                let rendered = value.render();
                let back = Json::parse(&rendered);
                assert!(
                    back.as_ref().is_ok_and(|back| same(back, &value)),
                    "{text:?} rendered as {rendered:?} parsed back as {back:?}"
                );
            }
        }
        assert!(accepted > MUTANTS / 20, "only {accepted} mutants parse");
    }
}
