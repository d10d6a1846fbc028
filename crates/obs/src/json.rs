//! A small nested JSON value type with a strict parser and a compact
//! serializer, on std only (the workspace is deliberately dependency-free).
//!
//! An object comes in two representations that every reader sees as one:
//! [`Json::Obj`] owns its keys — what the parser returns and what a
//! producer with data-dependent keys builds — and [`Json::Rec`] is a *row*:
//! a `&'static` [`Keys`] schema plus one boxed slice of the values that
//! vary from row to row, one heap allocation however many fields it has;
//! the schema holds the values of its leading fixed keys. Producers with a
//! fixed schema build rows (DESIGN §11, "The document model").
//!
//! The serializer never emits an unparseable document: non-finite numbers
//! become `null` (JSON has no NaN/Infinity literals), strings escape every
//! control character, a schema cannot repeat a key (checked once per
//! schema by a unit test, not per row), and 64-bit hashes are rendered as
//! hex *strings* so a downstream double-precision JSON reader cannot
//! silently round them.
//! The parser is strict where it matters for CI artifacts: duplicate keys,
//! bare words, trailing garbage, raw control characters, and non-finite
//! numbers are all hard errors.

use std::borrow::Cow;
use std::fmt;
use std::io;

/// The schema of a row: its keys in order, the values of its leading
/// *fixed* keys (the same borrowed literals for every row of the schema),
/// and what the serializer writes in front of each varying value — `{`
/// plus every fixed `"key":value` plus `"first":`, then `,"next":` —
/// rendered once, by [`keys!`], when the schema is declared. A row's boxed
/// slice holds only the varying values. Keys and fixed values therefore
/// hold no byte that needs a JSON escape; `every_declared_schema_is_well_formed`
/// checks that for every schema in the crate.
#[derive(Debug)]
pub struct Keys {
    pub(crate) names: &'static [&'static str],
    pub(crate) fixed: &'static [Json],
    pub(crate) prefixes: &'static [&'static str],
}

impl Keys {
    /// The keys, in the order a row's fields follow (fixed keys first).
    pub fn names(&self) -> &'static [&'static str] {
        self.names
    }

    /// Field `i` of a row over this schema whose varying values are `values`.
    fn value<'a>(&'a self, values: &'a [Json], i: usize) -> Option<&'a Json> {
        match i.checked_sub(self.fixed.len()) {
            None => self.fixed.get(i),
            Some(j) => values.get(j),
        }
    }
}

/// A [`Keys`] schema from key literals (at least one that varies), led by
/// any number of `"key" = "value"` pairs whose string value is fixed.
macro_rules! keys {
    (@fixed [$($key:literal = $value:literal),*] $k:literal = $v:literal, $($rest:tt)+) => {
        $crate::json::keys!(@fixed [$($key = $value,)* $k = $v] $($rest)+)
    };
    (@fixed [$($key:literal = $value:literal),*] $first:literal $(, $rest:literal)* $(,)?) => {
        $crate::json::Keys {
            names: &[$($key,)* $first $(, $rest)*],
            fixed: &[$($crate::json::Json::lit($value)),*],
            prefixes: &[
                concat!("{" $(, "\"", $key, "\":\"", $value, "\",")*, "\"", $first, "\":")
                $(, concat!(",\"", $rest, "\":"))*
            ],
        }
    };
    ($($spec:tt)+) => {
        $crate::json::keys!(@fixed [] $($spec)+)
    };
}

/// Declares a module's row schemas as statics, and lists them in a
/// test-only `SCHEMAS` so the schema check cannot miss one.
macro_rules! schemas {
    ($($(#[$doc:meta])* $vis:vis $name:ident = [$($spec:tt)+];)+) => {
        $($(#[$doc])* $vis static $name: $crate::json::Keys = $crate::json::keys![$($spec)+];)+
        #[cfg(test)]
        pub(crate) static SCHEMAS: &[&$crate::json::Keys] = &[$(&$name),+];
    };
}
pub(crate) use {keys, schemas};

/// A JSON value. Object keys keep insertion order so serialization is
/// deterministic and schema diffs stay readable.
///
/// Equality is by content: a row equals the [`Json::Obj`] with the same
/// keys and values in the same order, so `parse_json(&doc.to_json())`
/// compares equal to a `doc` built from rows.
#[derive(Clone, Debug)]
pub enum Json {
    /// `null` (also how non-finite floats serialize).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string (unescaped); a literal is borrowed, not copied.
    Str(Cow<'static, str>),
    /// An array.
    Arr(Vec<Json>),
    /// An object with owned keys, in insertion order.
    Obj(Vec<(String, Json)>),
    /// A row: the object whose keys are the schema's, in its order, and
    /// whose values are the schema's fixed ones followed by the slice's.
    /// Built by [`Json::row`].
    Rec(&'static Keys, Box<[Json]>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(Cow::Owned(s.into()))
    }

    /// A string value borrowed from a literal: no allocation.
    pub const fn lit(s: &'static str) -> Json {
        Json::Str(Cow::Borrowed(s))
    }

    /// A row over `keys` from its varying values (the schema supplies the
    /// fixed ones): one allocation (none beyond the `Vec`'s own when built
    /// from an exactly sized one).
    pub fn row(keys: &'static Keys, values: impl Into<Box<[Json]>>) -> Json {
        let values = values.into();
        let arity = keys.names.len() - keys.fixed.len();
        assert_eq!(values.len(), arity, "row arity for {:?}", keys.names);
        Json::Rec(keys, values)
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
        Json::str(format!("{v:#018x}"))
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            Json::Rec(keys, values) => {
                keys.names.iter().position(|k| *k == key).and_then(|i| keys.value(values, i))
            }
            _ => None,
        }
    }

    fn field(&self, i: usize) -> Option<(&str, &Json)> {
        match self {
            Json::Obj(kv) => kv.get(i).map(|(k, v)| (k.as_str(), v)),
            Json::Rec(keys, values) => Some((*keys.names.get(i)?, keys.value(values, i)?)),
            _ => None,
        }
    }

    /// An object's fields in order, whichever way it is represented (a
    /// non-object has none).
    pub fn fields(&self) -> impl Iterator<Item = (&str, &Json)> {
        (0..).map_while(|i| self.field(i))
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

    /// Serializes compactly (no whitespace), deterministically, in one
    /// pass over the value.
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        self.write_to(&mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the serializer writes only UTF-8")
    }

    /// Writes exactly the bytes of [`Json::to_json`] to `out` as they are
    /// produced, so a document is never held as text. `out` sees many small
    /// writes: hand it a buffered writer.
    pub fn write_to<W: io::Write>(&self, out: &mut W) -> io::Result<()> {
        match self {
            Json::Null => out.write_all(b"null"),
            Json::Bool(b) => out.write_all(if *b { b"true" } else { b"false" }),
            Json::Num(v) => write_num(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.write_all(b"[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_all(b",")?;
                    }
                    item.write_to(out)?;
                }
                out.write_all(b"]")
            }
            Json::Obj(kv) => {
                out.write_all(b"{")?;
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.write_all(b",")?;
                    }
                    write_escaped(k, out)?;
                    out.write_all(b":")?;
                    v.write_to(out)?;
                }
                out.write_all(b"}")
            }
            Json::Rec(keys, values) => {
                // The first prefix opens the object; a row built around
                // `Json::row` with no values still has to.
                if values.is_empty() {
                    out.write_all(b"{")?;
                }
                for (prefix, v) in keys.prefixes.iter().zip(&values[..]) {
                    out.write_all(prefix.as_bytes())?;
                    v.write_to(out)?;
                }
                out.write_all(b"}")
            }
        }
    }
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (a @ (Json::Obj(_) | Json::Rec(..)), b @ (Json::Obj(_) | Json::Rec(..))) => {
                a.fields().eq(b.fields())
            }
            _ => false,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// Writes `v` as `{v}` would print it, straight into `out`. Counters —
/// integers below 2^53, nearly every number of every document — are
/// written digit by digit: `f64`'s `Display` never uses an exponent, so it
/// prints such a value exactly as the integer prints. `-0.0` (which prints
/// `-0`), fractions and larger magnitudes go through `Display` itself.
fn write_num<W: io::Write>(v: f64, out: &mut W) -> io::Result<()> {
    const EXACT: f64 = (1u64 << 53) as f64;
    // The cast saturates and maps NaN to 0; neither survives the
    // comparison back.
    let int = v as i64;
    if int as f64 == v && v.abs() < EXACT && !(int == 0 && v.is_sign_negative()) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = int.unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        if int < 0 {
            at -= 1;
            digits[at] = b'-';
        }
        out.write_all(&digits[at..])
    } else if v.is_finite() {
        write!(out, "{v}")
    } else {
        out.write_all(b"null")
    }
}

fn write_escaped<W: io::Write>(s: &str, out: &mut W) -> io::Result<()> {
    out.write_all(b"\"")?;
    // Copy runs that need no escape whole.
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..0x20) {
            continue;
        }
        out.write_all(&bytes[run..i])?;
        match b {
            b'"' => out.write_all(b"\\\"")?,
            b'\\' => out.write_all(b"\\\\")?,
            b'\n' => out.write_all(b"\\n")?,
            b'\r' => out.write_all(b"\\r")?,
            b'\t' => out.write_all(b"\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_all(&bytes[run..])?;
    out.write_all(b"\"")
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
            Some(b'"') => Ok(Json::str(self.string()?)),
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

    /// A streamed document is byte for byte the serialized one, and a
    /// writer's error reaches the caller.
    #[test]
    fn write_to_streams_the_bytes_of_to_json() {
        let row = Json::row(&LABELLED, vec![Json::f64(1.5), Json::f64(-0.0)]);
        let doc = Json::Arr(vec![row, Json::str("a\"b\\\n\u{1}"), Json::Null, Json::u64(7)]);
        let mut out = Vec::new();
        doc.write_to(&mut out).expect("a Vec takes every byte");
        assert_eq!(out, doc.to_json().into_bytes());

        /// Takes `.0` more bytes, then refuses.
        struct Full(usize);
        impl io::Write for Full {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::other("full"));
                }
                let n = buf.len().min(self.0);
                self.0 -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = doc.write_to(&mut Full(10)).expect_err("the writer fills up");
        assert_eq!(err.to_string(), "full");
    }

    static POINT: Keys = keys!["x", "label", "tags"];
    static TAG: Keys = keys!["k"];
    static LABELLED: Keys = keys!["kind" = "point", "unit" = "cm", "x", "y"];

    /// A row is the object with its schema's keys to every reader: equal
    /// to it (both ways round), serialized, displayed and navigated alike.
    #[test]
    fn a_row_is_the_object_with_its_keys_to_every_reader() {
        let tags = |tag: fn(Json) -> Json| Json::Arr(vec![tag(Json::u64(1)), tag(Json::Null)]);
        let row =
            Json::row(&POINT, [Json::f64(0.5), Json::lit("a\"b"), tags(|v| Json::row(&TAG, [v]))]);
        let obj = Json::Obj(vec![
            ("x".into(), Json::f64(0.5)),
            ("label".into(), Json::str("a\"b")),
            ("tags".into(), tags(|v| Json::Obj(vec![("k".into(), v)]))),
        ]);
        assert_eq!(row, obj, "a row and the object it denotes are equal");
        assert_eq!(obj, row, "whichever side the row is on");
        assert_eq!(row.to_json(), r#"{"x":0.5,"label":"a\"b","tags":[{"k":1},{"k":null}]}"#);
        assert_eq!(row.to_json(), obj.to_json());
        assert_eq!(format!("{row}"), obj.to_json());
        assert_eq!(parse_json(&row.to_json()).unwrap(), row);
        assert_eq!(row.get("label").and_then(Json::as_str), Some("a\"b"));
        assert_eq!(row.get("x"), obj.get("x"));
        assert!(row.get("k").is_none() && row.get("").is_none());
        assert!(row.fields().eq(obj.fields()));
        assert_eq!(row.fields().map(|(k, _)| k).collect::<Vec<_>>(), POINT.names());
        assert_eq!(Json::u64(1).fields().count(), 0, "a non-object has no fields");

        // Order, keys, values and arity all count.
        let unequal = [
            Json::Obj(vec![
                ("label".into(), Json::str("a\"b")),
                ("x".into(), Json::f64(0.5)),
                ("tags".into(), Json::Arr(vec![])),
            ]),
            Json::Obj(vec![("x".into(), Json::f64(0.5)), ("label".into(), Json::str("a\"b"))]),
            Json::row(&POINT, [Json::f64(0.5), Json::lit("a\"b"), Json::Arr(vec![])]),
            Json::Arr(vec![]),
            Json::Null,
        ];
        for other in &unequal {
            assert_ne!(row, *other);
            assert_ne!(*other, row);
        }
        assert_eq!(Json::lit("s"), Json::str("s"), "a borrowed literal is the same string");
        // Fixed leading keys are the schema's: the row boxes only what varies.
        let labelled = Json::row(&LABELLED, [Json::u64(3), Json::Null]);
        let text = r#"{"kind":"point","unit":"cm","x":3,"y":null}"#;
        assert_eq!((labelled.to_json().as_str(), &labelled), (text, &parse_json(text).unwrap()));
        assert_eq!(labelled.get("unit").and_then(Json::as_str), Some("cm"));
        assert_eq!(labelled.get("y"), Some(&Json::Null));
        assert_eq!(labelled.fields().map(|(k, _)| k).collect::<Vec<_>>(), LABELLED.names());
        assert!(matches!(&labelled, Json::Rec(_, values) if values.len() == 2));
        let arity = std::panic::catch_unwind(|| Json::row(&LABELLED, [0, 1, 2, 3].map(Json::u64)));
        assert!(arity.is_err(), "a row takes only the varying values");
        // Put together around the constructor, a short row is still an object.
        let short = Json::Rec(&POINT, Box::new([]));
        assert_eq!((short.to_json().as_str(), &short), ("{}", &Json::Obj(vec![])));
    }

    /// The serializer streams values through the cache once; a fatter
    /// value gives the time saved on allocation back to memory traffic
    /// (DESIGN §11 has the measurement).
    #[test]
    fn a_value_stays_within_32_bytes() {
        assert!(std::mem::size_of::<Json>() <= 32, "{} bytes", std::mem::size_of::<Json>());
    }

    /// Every schema the crate declares, with the file that declares it.
    fn declared_schemas() -> [(&'static str, &'static [&'static Keys]); 4] {
        use crate::{blackbox, heartbeat, metrics, perfetto};
        [
            ("blackbox.rs", blackbox::SCHEMAS),
            ("heartbeat.rs", heartbeat::SCHEMAS),
            ("metrics.rs", metrics::SCHEMAS),
            ("perfetto.rs", perfetto::SCHEMAS),
        ]
    }

    /// What "the serializer never emits an unparseable document" rests on
    /// for rows, checked once per schema instead of once per row: keys are
    /// unique (the strict parser rejects a repeat), and keys and fixed
    /// values need no escape (the prefixes are rendered by `concat!`, not
    /// by the escaper).
    #[test]
    fn every_declared_schema_is_well_formed() {
        let modules = declared_schemas();
        for keys in modules.iter().flat_map(|(_, schemas)| schemas.iter()) {
            let names = keys.names();
            let fixed = keys.fixed.len();
            assert!(fixed < names.len(), "{names:?}: a row has at least one varying value");
            assert_eq!(keys.prefixes.len(), names.len() - fixed);
            let mut head = String::from("{");
            for (i, name) in names.iter().enumerate() {
                assert!(!names[..i].contains(name), "{names:?} repeats {name:?}");
                let escaped = Json::str(*name).to_json();
                assert_eq!(escaped, format!("\"{name}\""), "{name:?} needs an escape");
                let Some(i) = i.checked_sub(fixed) else {
                    let value = keys.fixed[i].as_str().expect("a fixed value is a string");
                    let rendered = Json::str(value).to_json();
                    assert_eq!(rendered, format!("\"{value}\""), "{value:?} needs an escape");
                    head += &format!("{escaped}:{rendered},");
                    continue;
                };
                let open = if i == 0 { std::mem::take(&mut head) } else { ",".to_owned() };
                assert_eq!(keys.prefixes[i], format!("{open}{escaped}:"));
            }
        }
        // No module's schemas escape the walk above.
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut declaring: Vec<String> = std::fs::read_dir(src)
            .expect("source dir")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| {
                std::fs::read_to_string(path).expect("source is readable").contains("\nschemas! {")
            })
            .map(|path| path.file_name().expect("file").to_string_lossy().into_owned())
            .collect();
        declaring.sort();
        assert_eq!(declaring, modules.map(|(file, _)| file));
    }

    /// However much of a schema is fixed, its row serializes byte for byte
    /// like the owned-key object of its fields.
    #[test]
    fn every_row_serializes_like_the_object_of_its_fields() {
        for keys in declared_schemas().iter().flat_map(|(_, schemas)| schemas.iter()) {
            let arity = keys.names().len() - keys.fixed.len();
            let values: Vec<Json> = (0..arity as u64).map(Json::u64).collect();
            let row = Json::row(keys, values);
            let obj = Json::Obj(row.fields().map(|(k, v)| (k.to_owned(), v.clone())).collect());
            assert_eq!(row.fields().count(), keys.names().len());
            assert_eq!(row.to_json(), obj.to_json(), "{:?}", keys.names());
            assert_eq!(parse_json(&row.to_json()).unwrap(), row);
        }
    }

    /// A fixed-key object built through `Json::Obj` pays one `String` per
    /// key per object. Outside this file, the one producer that may is the
    /// heartbeat line, whose trailing keys are the calling harness's.
    #[test]
    fn only_dynamic_keys_are_owned_keys() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut scanned = 0;
        for entry in std::fs::read_dir(src).expect("source dir") {
            let path = entry.expect("directory entry").path();
            if path.ends_with("json.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source is readable");
            let code = text.split("#[cfg(test)]").next().unwrap_or_default();
            let allowed = usize::from(path.ends_with("heartbeat.rs"));
            assert_eq!(
                code.matches("Json::Obj(").count(),
                allowed,
                "{} builds an object with owned keys: declare a schema and build a row",
                path.display()
            );
            let squeezed: String = code.split_whitespace().collect();
            for forbidden in [".to_owned(),Json::", ".to_string(),Json::"] {
                assert!(
                    !squeezed.contains(forbidden),
                    "{} has `{forbidden}`: declare a schema and build a row",
                    path.display()
                );
            }
            scanned += 1;
        }
        assert!(scanned >= 8, "the producers' sources moved: {scanned} files scanned");
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
            9.0,
            -9.0,
            10.0,
            -10.0,
            p53 - 0.5,
            i64::MAX as f64,
            i64::MIN as f64,
            f64::EPSILON,
            1.0 + f64::EPSILON,
        ];
        // The digit loop's carries: every 10^k ± 1 below 2^53, both signs.
        let powers = (1..16).map(|k| 10f64.powi(k));
        let carries = powers.flat_map(|p| [p - 1.0, p, p + 1.0, 1.0 - p, -p, -p - 1.0]);
        for v in values.into_iter().chain(carries) {
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
