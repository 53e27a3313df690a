//! The repo's integer-JSON dialect: one value type, one writer, one
//! reader.
//!
//! Every text artifact that crosses a process boundary speaks it — the
//! telemetry registry lines of [`crate::codec`], the grid's cell
//! artifacts and trace timelines, and the `gridd` service frames — so
//! it lives here, in the zero-dependency crate every layer can import.
//! The dialect is deliberately narrow — exactly what integer-exact
//! round-tripping of experiment data needs:
//!
//! * numbers are **unsigned integers** only (`u64`): every measured
//!   quantity in the repo is integer picojoules / cycles / counts, so
//!   floats (and their cross-platform formatting hazards) never enter
//!   an artifact;
//! * objects preserve insertion order (encoded as a `Vec` of pairs), so
//!   encoding is deterministic;
//! * strings escape `"`, `\`, the common control shorthands and other
//!   control characters as `\u00xx`; non-ASCII text (`†`, emoji) is
//!   emitted raw as UTF-8, which JSON permits.
//!
//! The parser accepts standard JSON spellings for everything it can
//! represent (including `\uXXXX` escapes with surrogate pairs) and
//! rejects the rest — floats, negative numbers — with a positioned
//! error, rather than silently rounding.

use std::fmt;

/// A JSON value in the artifact dialect (no floats, no negatives).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order so encoding is
    /// deterministic.
    Obj(Vec<(String, Json)>),
}

/// A parse error with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up `key` in an object; `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes to compact JSON (no whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the compact encoding to `out`, so a caller can frame it
    /// without a second buffer.
    pub fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(n) => {
                out.push_str(&n.to_string());
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value; trailing content (other than whitespace)
    /// is an error.
    ///
    /// # Errors
    ///
    /// Malformed input, floats and negative numbers all return a
    /// positioned [`JsonError`].
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(p.err("trailing content"));
        }
        Ok(v)
    }
}

/// Whether a string byte must be escaped: the JSON delimiters and the
/// C0 controls. Every such byte is ASCII, so it never splits a UTF-8
/// scalar and the runs between them are valid `str` slices.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

fn write_escaped(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xF)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    /// The input; string runs are copied out of it as `str` slices.
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn eat(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'0'..=b'9') => self.number(),
            Some(b'-') => Err(self.err("negative numbers are not part of the artifact dialect")),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floats are not part of the artifact dialect"));
        }
        self.text[start..self.pos]
            .parse::<u64>()
            .map(Json::UInt)
            .map_err(|_| self.err("integer does not fit in u64"))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat("[")?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat("{")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue; // unicode_escape consumed everything
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the maximal run up to the next quote,
                    // backslash or control byte in one go. Those bytes
                    // are ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    let run = self.bytes()[start..].iter().position(|&b| needs_escape(b));
                    self.pos = run.map_or(self.text.len(), |n| start + n);
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Parses the `XXXX` of a `\uXXXX` escape (the `\u` is already
    /// consumed), combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&hi) {
            self.eat("\\u")
                .map_err(|_| self.err("high surrogate not followed by low surrogate"))?;
            let lo = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("lone surrogate"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes().len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes()[self.pos..end])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("bad hex in \\u escape"))?;
        self.pos = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        let text = v.encode();
        assert_eq!(&Json::parse(&text).unwrap(), v, "{text}");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&Json::Null);
        roundtrip(&Json::Bool(true));
        roundtrip(&Json::Bool(false));
        roundtrip(&Json::UInt(0));
        roundtrip(&Json::UInt(u64::MAX));
    }

    #[test]
    fn tricky_strings_roundtrip() {
        for s in [
            "",
            "plain",
            "quote\"backslash\\slash/",
            "newline\nreturn\rtab\t",
            "dagger † and emoji 🦀",
            "control\u{1}\u{1f}chars",
            "mixed †\n\"x\"\\",
        ] {
            roundtrip(&Json::Str(s.to_string()));
        }
    }

    #[test]
    fn nested_roundtrip() {
        roundtrip(&Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::UInt(1), Json::Null])),
            (
                "b †".into(),
                Json::Obj(vec![("c".into(), Json::Bool(true))]),
            ),
            ("empty".into(), Json::Arr(Vec::new())),
        ]));
    }

    #[test]
    fn parses_standard_spellings() {
        assert_eq!(
            Json::parse("  { \"a\" : [ 1 , \"\\u0041\\u00e9\" ] }  ").unwrap(),
            Json::Obj(vec![(
                "a".into(),
                Json::Arr(vec![Json::UInt(1), Json::Str("Aé".into())])
            )])
        );
        // Surrogate pair: U+1D11E (musical G clef).
        assert_eq!(
            Json::parse("\"\\ud834\\udd1e\"").unwrap(),
            Json::Str("\u{1D11E}".into())
        );
    }

    #[test]
    fn rejects_out_of_dialect() {
        assert!(Json::parse("-1").is_err());
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("1e3").is_err());
        assert!(Json::parse("18446744073709551616").is_err()); // u64::MAX + 1
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("\"\\ud834\"").is_err()); // lone high surrogate
    }

    #[test]
    fn control_chars_escape_as_u00xx() {
        assert_eq!(Json::Str("\u{1}".into()).encode(), "\"\\u0001\"");
        assert_eq!(
            Json::parse("\"\\u0001\"").unwrap(),
            Json::Str("\u{1}".into())
        );
    }

    /// SplitMix64 — the deterministic driver of the differential tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..hi`.
        fn range(&mut self, lo: u32, hi: u32) -> u32 {
            lo + (self.next() % u64::from(hi - lo)) as u32
        }

        /// A scalar value in `lo..hi`, skipping the surrogate block.
        fn scalar(&mut self, lo: u32, hi: u32) -> char {
            loop {
                if let Some(c) = char::from_u32(self.range(lo, hi)) {
                    return c;
                }
            }
        }
    }

    /// The per-char encoder the run-copying `write_escaped` replaced:
    /// the byte-for-byte reference for the differential test.
    fn reference_escaped(s: &str) -> String {
        let mut out = String::from('"');
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

    /// A random string mixing ASCII runs, quotes, backslashes, control
    /// characters and 2-, 3- and 4-byte UTF-8 scalars.
    fn random_string(rng: &mut Rng) -> String {
        let mut s = String::new();
        for _ in 0..rng.range(0, 12) {
            match rng.range(0, 6) {
                0 => (0..rng.range(1, 17)).for_each(|_| s.push(rng.scalar(0x20, 0x7F))),
                1 => s.push(rng.scalar(0, 0x20)),
                2 => s.push(if rng.range(0, 2) == 0 { '"' } else { '\\' }),
                3 => s.push(rng.scalar(0x80, 0x800)),
                4 => s.push(rng.scalar(0x800, 0x1_0000)),
                _ => s.push(rng.scalar(0x1_0000, 0x11_0000)),
            }
        }
        s
    }

    /// The pieces of a random string literal body, each as `(spelling,
    /// decoded)`: raw runs, every short escape, `\uXXXX` in either hex
    /// case, and surrogate pairs.
    fn random_literal(rng: &mut Rng) -> Vec<(String, String)> {
        const SHORT: [(&str, char); 8] = [
            ("\\\"", '"'),
            ("\\\\", '\\'),
            ("\\/", '/'),
            ("\\b", '\u{8}'),
            ("\\f", '\u{c}'),
            ("\\n", '\n'),
            ("\\r", '\r'),
            ("\\t", '\t'),
        ];
        let mut pieces = Vec::new();
        for _ in 0..rng.range(0, 12) {
            let piece = match rng.range(0, 4) {
                0 => {
                    let raw: String = random_string(rng)
                        .chars()
                        .filter(|&c| c >= ' ' && c != '"' && c != '\\')
                        .collect();
                    (raw.clone(), raw)
                }
                1 => {
                    let (spelling, c) = SHORT[rng.range(0, 8) as usize];
                    (spelling.to_string(), c.to_string())
                }
                2 => {
                    let c = rng.scalar(0, 0x1_0000);
                    let hex = if rng.range(0, 2) == 0 {
                        format!("\\u{:04x}", c as u32)
                    } else {
                        format!("\\u{:04X}", c as u32)
                    };
                    (hex, c.to_string())
                }
                _ => {
                    let c = rng.scalar(0x1_0000, 0x11_0000);
                    let mut units = [0u16; 2];
                    c.encode_utf16(&mut units);
                    (
                        format!("\\u{:04x}\\u{:04X}", units[0], units[1]),
                        c.to_string(),
                    )
                }
            };
            pieces.push(piece);
        }
        pieces
    }

    #[test]
    fn string_codec_matches_the_per_char_reference() {
        let mut rng = Rng(0x5EED_0001);
        for round in 0..2000 {
            let s = random_string(&mut rng);
            let encoded = Json::Str(s.clone()).encode();
            assert_eq!(encoded, reference_escaped(&s), "round {round}");
            assert_eq!(
                Json::parse(&encoded),
                Ok(Json::Str(s.clone())),
                "round {round}"
            );
            // Keys take the same path as values.
            roundtrip(&Json::Obj(vec![(s.clone(), Json::Str(s))]));
        }
    }

    #[test]
    fn escaped_spellings_decode_to_their_scalars() {
        let mut rng = Rng(0x5EED_0002);
        for round in 0..2000 {
            let pieces = random_literal(&mut rng);
            let spelled: String = pieces.iter().map(|(s, _)| s.as_str()).collect();
            let decoded: String = pieces.iter().map(|(_, d)| d.as_str()).collect();
            assert_eq!(
                Json::parse(&format!("\"{spelled}\"")),
                Ok(Json::Str(decoded)),
                "round {round}: {spelled:?}"
            );
        }
    }

    #[test]
    fn raw_control_bytes_fail_at_their_offset() {
        let mut rng = Rng(0x5EED_0003);
        for round in 0..2000 {
            let pieces = random_literal(&mut rng);
            let cut = rng.range(0, pieces.len() as u32 + 1) as usize;
            let head: String = pieces[..cut].iter().map(|(s, _)| s.as_str()).collect();
            let tail: String = pieces[cut..].iter().map(|(s, _)| s.as_str()).collect();
            let control = rng.scalar(0, 0x20);
            let input = format!("[\"{head}{control}{tail}\"]");
            let err = Json::parse(&input).expect_err("raw control byte accepted");
            assert_eq!(
                err.message, "raw control character in string",
                "round {round}"
            );
            assert_eq!(err.at, 2 + head.len(), "round {round}: {input:?}");
            // Without its closing quote the string fails at end of input.
            let open = format!("\"{head}{tail}");
            let err = Json::parse(&open).expect_err("unterminated string accepted");
            assert_eq!(
                (err.message.as_str(), err.at),
                ("unterminated string", open.len())
            );
        }
    }
}
