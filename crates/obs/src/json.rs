//! A small nested JSON value type with a strict parser and a compact
//! serializer, on std only (the workspace is deliberately dependency-free).
//!
//! The serializer never emits an unparseable document: non-finite numbers
//! become `null` (JSON has no NaN/Infinity literals), strings escape every
//! control character, and 64-bit hashes are rendered as hex *strings* so a
//! downstream double-precision JSON reader cannot silently round them.
//! The parser is strict where it matters for CI artifacts: duplicate keys,
//! bare words, trailing garbage, raw control characters, and non-finite
//! numbers are all hard errors.

use std::fmt::{self, Write as _};

/// A JSON value. Object keys keep insertion order so serialization is
/// deterministic and schema diffs stay readable.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null` (also how non-finite floats serialize).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned counter. Counters in this workspace are cycle and event
    /// counts far below 2^53, so the double-precision JSON number is exact;
    /// the assert keeps that assumption honest.
    pub fn u64(v: u64) -> Json {
        debug_assert!(v <= (1 << 53), "counter {v} would lose precision as a JSON number");
        Json::Num(v as f64)
    }

    /// A float value; non-finite inputs become [`Json::Null`].
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    }

    /// A 64-bit hash as a `0x`-prefixed hex string, immune to
    /// double-precision rounding in downstream readers.
    pub fn hash(v: u64) -> Json {
        Json::Str(format!("{v:#018x}"))
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite f64, if it is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
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
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace), deterministically.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.len_hint());
        self.write(&mut out);
        out
    }

    /// A cheap estimate of the serialized length (exact but for numbers and
    /// escapes), so a multi-megabyte document is written into one
    /// allocation instead of being copied at every doubling.
    fn len_hint(&self) -> usize {
        match self {
            Json::Null | Json::Bool(_) => 5,
            Json::Num(_) => 8,
            Json::Str(s) => s.len() + 2,
            Json::Arr(items) => 2 + items.iter().map(|v| v.len_hint() + 1).sum::<usize>(),
            Json::Obj(kv) => 2 + kv.iter().map(|(k, v)| k.len() + 4 + v.len_hint()).sum::<usize>(),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// Writes `v` as `{v}` would print it, straight into `out`. Counters —
/// integers below 2^53, nearly every number of every document — skip the
/// shortest-round-trip float formatter: `f64`'s `Display` never uses an
/// exponent, so it prints such a value exactly as the integer prints.
/// `-0.0` (which prints `-0`), fractions and larger magnitudes keep the
/// float path.
fn write_num(v: f64, out: &mut String) {
    const EXACT: f64 = (1u64 << 53) as f64;
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < EXACT && !(v == 0.0 && v.is_sign_negative()) {
        write!(out, "{}", v as i64).expect("writing to a String cannot fail");
    } else {
        write!(out, "{v}").expect("writing to a String cannot fail");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    // Copy runs that need no escape whole. Every byte that does is ASCII,
    // so cutting the string around it stays on character boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..0x20) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Byte length of the UTF-8 sequence starting with leading byte `b`, or
/// `None` if `b` cannot start a sequence.
fn utf8_len(b: u8) -> Option<usize> {
    match b {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

/// Nesting depth limit: deep enough for any document we emit, shallow
/// enough that a hostile input cannot overflow the parser's stack.
const MAX_DEPTH: usize = 64;

/// Strictly parses a complete JSON document (arbitrary nesting). Rejects
/// duplicate keys, bare words other than `true`/`false`/`null`, non-finite
/// numbers, raw control characters in strings, documents nested deeper
/// than an internal limit, and trailing garbage.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes after document at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.peek() {
            Some(b) if b == want => {
                self.i += 1;
                Ok(())
            }
            Some(b) => {
                Err(format!("expected {:?} at byte {}, got {:?}", want as char, self.i, b as char))
            }
            None => Err(format!("expected {:?}, got end of input", want as char)),
        }
    }

    fn literal(&mut self, word: &[u8], v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected {:?} at byte {}", b as char, self.i)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut kv: Vec<(String, Json)> = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(kv));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if kv.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            self.expect(b':')?;
            let val = self.value(depth + 1)?;
            kv.push((key, val));
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            out.push(
                                char::from_u32(cp).ok_or(format!("\\u{hex} is not a scalar"))?,
                            );
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                b if b < 0x20 => return Err("raw control character in string".to_owned()),
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Decode exactly one UTF-8 scalar. Validating from the
                    // leading byte's length (never the whole remaining
                    // input) keeps the parser linear in document size.
                    let start = self.i - 1;
                    let len = utf8_len(b).ok_or("invalid UTF-8 in string")?;
                    let bytes = self.s.get(start..start + len).ok_or("truncated UTF-8")?;
                    let ch = std::str::from_utf8(bytes)
                        .map_err(|_| "invalid UTF-8 in string")?
                        .chars()
                        .next()
                        .expect("nonempty");
                    out.push(ch);
                    self.i = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while matches!(self.s.get(self.i), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii digits");
        let v: f64 = text.parse().map_err(|_| format!("bad number {text:?} at byte {start}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite number {text:?}"));
        }
        Ok(Json::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str("v1")),
            ("n".into(), Json::u64(42)),
            ("rate".into(), Json::f64(0.5)),
            ("hash".into(), Json::hash(0x7a5b_548b_12b2_90de)),
            ("arr".into(), Json::Arr(vec![Json::Null, Json::Bool(true), Json::str("x\n\u{1}")])),
            ("obj".into(), Json::Obj(vec![("k".into(), Json::u64(1))])),
        ]);
        let text = doc.to_json();
        let back = parse_json(&text).expect("round trip");
        assert_eq!(back, doc);
        assert_eq!(back.get("hash").unwrap().as_str(), Some("0x7a5b548b12b290de"));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::f64(bad), Json::Null);
            assert_eq!(Json::Num(bad).to_json(), "null");
        }
    }

    /// The integer path must print exactly what `f64`'s `Display` prints,
    /// and everything else must still go through it.
    #[test]
    fn numbers_serialize_as_display_prints_them() {
        let p53 = (1u64 << 53) as f64;
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            42.0,
            7808.0,
            1e15,
            p53 - 1.0,
            -(p53 - 1.0),
            p53,
            p53 + 2.0,
            -p53,
            1e21,
            u64::MAX as f64,
            0.5,
            -0.5,
            0.1 + 0.2,
            1e-7,
            123456.789,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        for v in values {
            assert_eq!(Json::Num(v).to_json(), format!("{v}"), "{v:e}");
        }
        assert_eq!(Json::Num(-0.0).to_json(), "-0");
        assert_eq!(Json::u64(1 << 53).to_json(), "9007199254740992");
    }

    /// Escaping by runs must produce what escaping char by char does.
    #[test]
    fn strings_escape_like_the_char_by_char_reference() {
        fn reference(s: &str) -> String {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
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
            out
        }
        for s in [
            "",
            "plain",
            "\"",
            "\\",
            "a\"b\\c",
            "\"\"\\\\",
            "tab\there",
            "\n\r\t",
            "\u{0}\u{1}\u{1f}\u{20}\u{7f}",
            "é\"大\\🚀\n",
            "ends with escape\n",
            "\nstarts with escape",
            "cilk5-nq @ b.T/HCC-DTS-gwb",
        ] {
            assert_eq!(Json::str(s).to_json(), reference(s), "{s:?}");
            assert_eq!(parse_json(&Json::str(s).to_json()).unwrap().as_str(), Some(s));
        }
    }

    #[test]
    fn control_characters_escape_and_round_trip() {
        for cp in 0u32..0x20 {
            let s = char::from_u32(cp).unwrap().to_string();
            let text = Json::str(&s).to_json();
            assert!(!text.bytes().any(|b| b < 0x20), "raw control byte in {text:?}");
            assert_eq!(parse_json(&text).unwrap().as_str(), Some(s.as_str()));
        }
    }

    /// The parser must stay linear in document size: decoding a string
    /// character must never re-validate the whole remaining input (the
    /// megabyte-scale trace documents made that quadratic path take
    /// minutes). A multi-megabyte string-heavy document parses in well
    /// under the test timeout, and multibyte text round-trips exactly.
    #[test]
    fn large_string_documents_parse_in_linear_time() {
        let chunk = "big.TINY ménage of cœurs — 大小核 ☂ ".repeat(4096);
        let doc = Json::Arr((0..16).map(|_| Json::str(&chunk)).collect());
        let text = doc.to_json();
        assert!(text.len() > 2 << 20, "fixture should be multi-megabyte");
        let t0 = std::time::Instant::now();
        let back = parse_json(&text).expect("round trip");
        assert_eq!(back, doc);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(20),
            "string parsing is no longer linear: {:?}",
            t0.elapsed()
        );
    }

    /// The single-scalar decode path must reproduce multibyte text
    /// exactly (the input is `&str`, so truncated sequences cannot occur;
    /// the parser's truncation errors are defensive only).
    #[test]
    fn multibyte_utf8_round_trips_exactly() {
        for s in ["é", "大", "🚀", "a大é🚀b"] {
            let text = Json::str(s).to_json();
            assert_eq!(parse_json(&text).unwrap().as_str(), Some(s));
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,\"a\":2}",
            "{\"a\":NaN}",
            "nullx",
            "{\"a\":1}trailing",
            "\"\u{1}\"",
            "{\"a\":}",
            "[1 2]",
        ] {
            assert!(parse_json(bad).is_err(), "accepted malformed document {bad:?}");
        }
    }

    #[test]
    fn parser_rejects_pathological_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse_json(&deep).is_err());
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(parse_json(&ok).is_ok());
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = parse_json(r#"{"a":{"b":[1,2]},"s":"x"}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().get("b").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert!(doc.get("missing").is_none());
    }
}
