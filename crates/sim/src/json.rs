//! The workspace's one JSON value type, writer and reader.
//!
//! Run reports, chaos repro artifacts and the bench binaries'
//! `BENCH_*.json` files are all built as [`Json`] values and rendered
//! through its [`Display`](fmt::Display) impl, so they share one policy:
//!
//! * objects keep their fields in insertion order (the golden reports'
//!   key order is not alphabetical), and [`Json::get`] returns the
//!   *last* field of a name, so later duplicates win;
//! * output is compact: no whitespace between tokens;
//! * an `f64` is written with Rust's shortest-round-trip `{}` format,
//!   and a non-finite one as `null`;
//! * strings are escaped by [`quote`], the only escaper in the
//!   workspace.
//!
//! The workspace carries no external dependencies, so documents are
//! parsed by the small recursive-descent reader here instead of serde.
//! Numbers keep their source text ([`Json::Num`] holds the raw token):
//! campaign seeds are full-width `u64`s that an `f64` round trip would
//! silently truncate, and fault probabilities must survive the
//! write/read cycle bit-exactly for replay to be byte-deterministic
//! (shortest-round-trip formatting plus `str::parse` guarantees that
//! when the token text is preserved).
//!
//! # Example
//!
//! ```
//! use prism_sim::json::Json;
//!
//! let doc = Json::obj([
//!     ("seed", Json::from(u64::MAX)),
//!     ("p", Json::from(0.1)),
//!     ("name", Json::from("a\"b")),
//!     ("limit", Json::from(None::<u64>)),
//! ]);
//! let text = doc.to_string();
//! assert_eq!(text, r#"{"seed":18446744073709551615,"p":0.1,"name":"a\"b","limit":null}"#);
//! assert_eq!(Json::parse(&text).unwrap(), doc);
//! ```

use std::fmt::{self, Write};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (see module docs).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order. Later duplicates win.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup: the last field named `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a number token that parses as one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
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

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Writes the value as compact JSON (see the module docs).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(tok) => f.write_str(tok),
            Json::Str(s) => f.write_str(&quote(s)),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    v.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    f.write_str(&quote(k))?;
                    f.write_char(':')?;
                    v.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v.to_string())
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v.to_string())
    }
}

/// Shortest round-trip `{}` formatting; a non-finite value is `null`.
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v}"))
        } else {
            Json::Null
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Escapes `s` as a JSON string literal (with quotes).
pub fn quote(s: &str) -> String {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(format!("empty number at byte {start}"));
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .to_string();
        // Validate the token now so accessors can't surprise later.
        tok.parse::<f64>()
            .map_err(|e| format!("bad number {tok:?}: {e}"))?;
        Ok(Json::Num(tok))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid by construction).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']' but found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}' but found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn parses_scalars_and_containers() {
        let v = Json::parse(r#"{"a": 1, "b": [true, null, "x\n"], "c": -2.5}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], Json::Null);
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert_eq!(v.get("c").unwrap().as_f64(), Some(-2.5));
    }

    #[test]
    fn numbers_keep_full_u64_precision() {
        let v = Json::parse("{\"seed\": 18446744073709551615}").unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn f64_round_trips_bit_exactly_through_text() {
        for x in [0.017_345_678_901_234_56_f64, 1.0 / 3.0, 0.05, 1e-300] {
            let doc = Json::obj([("p", Json::from(x))]).to_string();
            let v = Json::parse(&doc).unwrap();
            assert_eq!(v.get("p").unwrap().as_f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn quote_escapes_and_reparses() {
        let s = "line\nquote\"back\\slash\ttab\u{1}";
        let doc = Json::obj([("s", Json::from(s))]).to_string();
        assert!(doc.contains("\\u0001"), "{doc}");
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(s));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("123 456").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn objects_keep_insertion_order_and_later_duplicates_win() {
        let v = Json::obj([
            ("z", Json::from(1u64)),
            ("a", Json::from(2u64)),
            ("z", Json::from(3u64)),
        ]);
        let text = v.to_string();
        assert_eq!(text, r#"{"z":1,"a":2,"z":3}"#);
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("z").unwrap().as_u64(), Some(3));
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn special_numbers_render_exactly() {
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
        assert_eq!(Json::from(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::from(f64::NEG_INFINITY).to_string(), "null");
        assert_eq!(Json::from(0.1).to_string(), "0.1");
        assert_eq!(Json::from(1.0).to_string(), "1");
        assert_eq!(Json::from(-0.0).to_string(), "-0");
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
        let sub = f64::from_bits(1); // the smallest subnormal
        for x in [0.1, -0.0, sub, f64::MIN_POSITIVE / 3.0, f64::MAX] {
            let back = Json::parse(&Json::from(x).to_string()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x:e}");
        }
    }

    /// A random value at most `depth` containers deep. Keys come from a
    /// small alphabet so objects often carry duplicates.
    fn random_value(rng: &mut SimRng, depth: u32) -> Json {
        let kinds = if depth == 0 { 5 } else { 7 };
        match rng.gen_index(kinds) {
            0 => Json::Null,
            1 => Json::from(rng.gen_bool(0.5)),
            2 => match rng.gen_index(3) {
                0 => Json::from(u64::MAX),
                1 => Json::from(rng.next_u64()),
                _ => Json::from(rng.gen_range(0..1000)),
            },
            3 => {
                // Arbitrary bits: subnormals, -0.0 and non-finite
                // values (which render as null) all turn up.
                let specials = [0.1, -0.0, f64::from_bits(1), f64::NAN, f64::INFINITY];
                match rng.gen_index(3) {
                    0 => Json::from(specials[rng.gen_index(specials.len())]),
                    1 => Json::from(f64::from_bits(rng.next_u64())),
                    _ => Json::from(rng.next_f64()),
                }
            }
            4 => {
                let alphabet = ['a', 'Z', '"', '\\', '\n', '\t', '\u{0}', '\u{1f}', 'é', '→'];
                let len = rng.gen_index(6);
                Json::Str(
                    (0..len)
                        .map(|_| alphabet[rng.gen_index(alphabet.len())])
                        .collect(),
                )
            }
            5 => Json::Arr(
                (0..rng.gen_index(4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.gen_index(5))
                    .map(|_| {
                        let key = ["k", "v", "\"q\"", "\u{7}"][rng.gen_index(4)];
                        (key.to_string(), random_value(rng, depth - 1))
                    })
                    .collect(),
            ),
        }
    }

    /// Rendering, parsing and rendering again is the identity on text,
    /// and parsing gives back the value that was rendered.
    #[test]
    fn render_parse_render_is_the_identity() {
        for case in 0..400 {
            let mut rng = SimRng::for_stream(0x15_0E, case);
            let v = random_value(&mut rng, 4);
            let text = v.to_string();
            let back = Json::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back.to_string(), text, "case {case}");
            assert_eq!(back, v, "case {case}");
        }
    }
}
