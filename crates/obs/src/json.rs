//! The workspace's one JSON path: a [`Json`] value, one strict RFC 8259
//! parser ([`Json::parse`]) and one renderer (the [`fmt::Display`] impl).
//!
//! Every document the workspace writes or reads — `--profile=json`, the
//! serve STATS body, `csfma-lint --json`, `results/BENCH_*.json` and the
//! golden corpus — goes through this module. Like
//! [`time_us`](crate::time_us) it is not gated by the `enabled` feature.
//!
//! Numbers keep their decimal text: a `u64` counter round-trips exactly,
//! and a writer fixes its printed precision with [`Json::fixed`].
//!
//! The renderer has one layout: a container holding only scalars (or
//! nothing) renders on one line; any other container puts one member per
//! line, indented by two spaces per level.

use std::fmt;

/// One JSON value. Object keys keep their insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its RFC 8259 decimal text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Containers nested deeper than this are refused by [`Json::parse`], so
/// a hostile document cannot exhaust the stack.
const MAX_DEPTH: usize = 128;

impl Json {
    /// An object from `(key, value)` pairs, in the given order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of the given values.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// `x` printed with exactly `decimals` fractional digits (`{:.N}`).
    /// A non-finite `x` has no JSON number and renders as `null`.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        if x.is_finite() {
            Json::Num(format!("{x:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// The member `key` of an object (the first, if repeated).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is a non-negative integer written
    /// without fraction or exponent that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number as the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse one RFC 8259 document; only whitespace may surround the
    /// value. The error names the byte offset of the first violation.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value(0)?;
        p.ws();
        if p.i != p.b.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let (open, close, members): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Num(text) => return f.write_str(text),
            Json::Str(s) => return write_str(f, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => {
                let members = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                ('{', '}', members.collect())
            }
        };
        let inline = members.iter().all(|(_, v)| match v {
            Json::Arr(items) => items.is_empty(),
            Json::Obj(fields) => fields.is_empty(),
            _ => true,
        });
        write!(f, "{open}")?;
        for (i, (key, v)) in members.into_iter().enumerate() {
            match (i, inline) {
                (0, true) => {}
                (_, true) => f.write_str(", ")?,
                (0, false) => write!(f, "\n{:w$}", "", w = indent + 2)?,
                (_, false) => write!(f, ",\n{:w$}", "", w = indent + 2)?,
            }
            if let Some(key) = key {
                write_str(f, key)?;
                f.write_str(": ")?;
            }
            v.write(f, indent + 2)?;
        }
        if !inline {
            write!(f, "\n{:indent$}", "")?;
        }
        write!(f, "{close}")
    }
}

impl fmt::Display for Json {
    /// The one rendering (see the module docs for the layout).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

/// A quoted string with `"`, `\` and every control character escaped.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n.to_string())
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n.to_string())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.i)
    }

    /// Consume bytes while `pred` holds; returns how many.
    fn skip(&mut self, pred: impl Fn(u8) -> bool) -> usize {
        let n = self.b[self.i..].iter().take_while(|&&c| pred(c)).count();
        self.i += n;
        n
    }

    fn ws(&mut self) {
        self.skip(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'));
    }

    /// Consume `c` (after whitespace) if it is next.
    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.b.get(self.i) == Some(&c);
        self.i += hit as usize;
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if !self.eat(c) {
            return Err(self.err(&format!("expected '{}'", c as char)));
        }
        Ok(())
    }

    fn digits(&mut self) -> Result<usize, String> {
        match self.skip(|c| c.is_ascii_digit()) {
            0 => Err(self.err("expected a digit")),
            n => Ok(n),
        }
    }

    fn literal(&mut self, kw: &str, v: Json) -> Result<Json, String> {
        if !self.b[self.i..].starts_with(kw.as_bytes()) {
            return Err(self.err("invalid literal"));
        }
        self.i += kw.len();
        Ok(v)
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.ws();
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.b.get(self.i) {
            Some(b'{') => self
                .seq(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Json::Obj),
            Some(b'[') => self.seq(b']', |p| p.value(depth + 1)).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// The comma-separated members of the container whose opening byte
    /// is next, through its `close` byte.
    fn seq<T>(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.i += 1;
        let mut out = Vec::new();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(member(self)?);
            if !self.eat(b',') {
                self.expect(close)?;
                return Ok(out);
            }
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        self.i += (self.b[self.i] == b'-') as usize;
        let int = self.i;
        if self.digits()? > 1 && self.b[int] == b'0' {
            return Err(self.err("leading zero"));
        }
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            self.digits()?;
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            self.i += matches!(self.b.get(self.i), Some(b'+' | b'-')) as usize;
            self.digits()?;
        }
        let text = String::from_utf8_lossy(&self.b[start..self.i]);
        Ok(Json::Num(text.into_owned()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let run = self.b[self.i..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .ok_or_else(|| self.err("unterminated string"))?;
            // the input is a &str and the run ends before an ASCII byte,
            // so it holds whole characters
            let plain = std::str::from_utf8(&self.b[self.i..self.i + run]);
            s.push_str(plain.expect("a run of whole characters"));
            self.i += run + 1;
            match self.b[self.i - 1] {
                b'"' => return Ok(s),
                b'\\' => s.push(self.escape()?),
                _ => return Err(self.err("control character in string")),
            }
        }
    }

    /// The character of an escape whose backslash was just consumed.
    fn escape(&mut self) -> Result<char, String> {
        self.i += 1;
        Ok(match self.b.get(self.i - 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hi = self.hex4()?;
                let mut cp = hi;
                if (0xD800..0xDC00).contains(&hi) && self.b[self.i..].starts_with(b"\\u") {
                    self.i += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("unpaired surrogate"));
                    }
                    cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                }
                // a lone surrogate is not a char
                char::from_u32(cp).ok_or_else(|| self.err("unpaired surrogate"))?
            }
            _ => return Err(self.err("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.b.get(self.i..self.i + 4);
        let hex = hex
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("expected four hex digits"))?;
        self.i += 4;
        Ok(hex
            .iter()
            .fold(0, |n, &c| n * 16 + (c as char).to_digit(16).unwrap_or(0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: Json) {
        let text = v.to_string();
        assert_eq!(Json::parse(&text), Ok(v), "{text}");
    }

    #[test]
    fn values_round_trip_and_keep_their_number_text() {
        round_trip(Json::obj([
            ("null", Json::Null),
            ("yes", true.into()),
            ("max", u64::MAX.into()),
            ("rate", Json::fixed(2.0 / 3.0, 4)),
            ("text", "héllo ✓ 𝄞".into()),
            ("empty", Json::Arr(Vec::new())),
            (
                "nested",
                Json::arr([Json::arr([1u64, 2]), Json::obj([("k", "v".into())])]),
            ),
        ]));
        let v = Json::parse(r#"{"n": [18446744073709551615, 0.5000, -1e-3], "s": "x"}"#).unwrap();
        let n = v.get("n").and_then(Json::as_arr).unwrap();
        assert_eq!(n[0].as_u64(), Some(u64::MAX));
        assert_eq!(n[1], Json::Num("0.5000".into()));
        assert_eq!((n[2].as_f64(), n[2].as_u64()), (Some(-0.001), None));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(
            (v.get("s").and_then(Json::as_u64), v.get("none")),
            (None, None)
        );
        assert_eq!(Json::fixed(f64::NAN, 2), Json::Null);
    }

    #[test]
    fn layout_is_inline_only_for_scalar_containers() {
        let doc = Json::obj([
            ("a", Json::arr([1u64, 2])),
            ("b", Json::obj([("c", Json::Null)])),
        ]);
        assert_eq!(
            doc.to_string(),
            "{\n  \"a\": [1, 2],\n  \"b\": {\"c\": null}\n}"
        );
        assert_eq!(Json::Arr(Vec::new()).to_string(), "[]");
    }

    #[test]
    fn strings_escape_every_control_character() {
        let s: String = (0u8..0x20)
            .map(char::from)
            .chain("\"\\/é".chars())
            .collect();
        assert!(Json::from(s.as_str())
            .to_string()
            .bytes()
            .all(|b| b >= 0x20));
        round_trip(Json::Str(s));
        let escaped = Json::parse(r#""\ud834\udd1e \u00e9 \b\f""#);
        assert_eq!(escaped, Ok(Json::Str("𝄞 é \u{8}\u{c}".into())));
    }

    #[test]
    fn pipeline_report_warnings_survive_escaping() {
        let warning = "quote \" backslash \\ newline \n tab \t ctrl \u{1}";
        let report = crate::PipelineReport {
            recorded: true,
            warnings: vec![warning.to_string()],
            ..Default::default()
        };
        let doc = Json::parse(&report.to_json()).unwrap();
        assert_eq!(doc.get("warnings"), Some(&Json::arr([warning])));
    }

    #[test]
    fn strict_parser_refuses_what_rfc_8259_refuses() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{a:1}",
            "01",
            "-01",
            "1.",
            ".5",
            "+1",
            "1e",
            "-",
            "NaN",
            "tru",
            "\"a\nb\"",
            "\"\\x\"",
            "\"\\ud834\"",
            "\"\\udd1e\"",
            "\"open",
            "[1] [2]",
            "{\"a\" 1}",
            &deep,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(Json::parse(" \t\r\n{ \"a\" : [ 0, -0.0e+1 ] }\n").is_ok());
    }
}
