//! The one JSON writer and reader shared by every JSON the workspace
//! emits or reads: the run manifest, the Perfetto and NDJSON trace
//! exporters, [`crate::ndjson::parse_ndjson`] and the service's wire
//! codec.
//!
//! None of those formats needs more than two things, so this module is
//! small instead of a dependency: [`json_string`], the single string
//! escaper, and [`FlatObject`], a parser for one object of
//! string/number/bool/null values (no nesting). Numbers are kept as raw
//! token text until a typed accessor parses them, so `u64` seeds survive
//! without an `f64` round trip.
//!
//! # Examples
//!
//! ```
//! use yac_obs::json::{json_string, FlatObject};
//!
//! let text = format!("{{\"name\":{},\"seed\":18446744073709551615}}", json_string("a \"b\""));
//! let obj = FlatObject::parse(&text).unwrap();
//! assert_eq!(obj.str("name").unwrap(), "a \"b\"");
//! assert_eq!(obj.u64("seed").unwrap(), u64::MAX);
//! ```

use std::fmt::Write as _;

/// Renders `s` as a JSON string literal: quoted, with `"`, `\` and
/// control characters escaped.
#[must_use]
pub fn json_string(s: &str) -> String {
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

/// One scalar value in a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
enum JsonScalar {
    /// A string, unescaped.
    Str(String),
    /// Raw number token, parsed on demand by the typed accessors.
    Num(String),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// A parsed flat JSON object with typed accessors. An accessor fails
/// with a one-line message naming the field when a required field is
/// missing or any field has the wrong type.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatObject {
    fields: Vec<(String, JsonScalar)>,
}

impl FlatObject {
    /// Parses one flat JSON object (string/number/bool/null values
    /// only), refusing nesting, malformed input and trailing text with a
    /// one-line diagnostic.
    pub fn parse(text: &str) -> Result<FlatObject, String> {
        let mut p = Parser {
            chars: text.chars().peekable(),
        };
        p.skip_ws();
        p.expect('{')?;
        let mut fields = Vec::new();
        p.skip_ws();
        if p.chars.next_if_eq(&'}').is_none() {
            loop {
                p.skip_ws();
                let key = p.string()?;
                p.skip_ws();
                p.expect(':')?;
                p.skip_ws();
                let value = p.scalar()?;
                fields.push((key, value));
                p.skip_ws();
                match p.chars.next() {
                    Some(',') => {}
                    Some('}') => break,
                    other => return Err(format!("expected ',' or '}}', got {other:?}")),
                }
            }
        }
        p.skip_ws();
        if let Some(c) = p.chars.next() {
            return Err(format!("trailing {c:?} after object"));
        }
        Ok(FlatObject { fields })
    }

    fn get(&self, key: &str) -> Option<&JsonScalar> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A required string field.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(JsonScalar::Str(s)) => Ok(s),
            Some(_) => Err(format!("field {key:?} is not a string")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    /// An optional string field.
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(_) => self.str(key).map(Some),
        }
    }

    /// A required unsigned integer field.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            Some(JsonScalar::Num(raw)) => raw
                .parse()
                .map_err(|_| format!("field {key:?} is not an unsigned integer")),
            Some(_) => Err(format!("field {key:?} is not a number")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    /// A required unsigned integer field, as a `usize`.
    pub fn usize(&self, key: &str) -> Result<usize, String> {
        self.u64(key).map(|v| v as usize)
    }

    /// An optional unsigned integer field.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(_) => self.u64(key).map(Some),
        }
    }

    /// A required boolean field.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(JsonScalar::Bool(b)) => Ok(*b),
            Some(_) => Err(format!("field {key:?} is not a bool")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    /// An optional boolean field.
    pub fn opt_bool(&self, key: &str) -> Result<Option<bool>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(_) => self.bool(key).map(Some),
        }
    }
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.chars.next_if(|c| c.is_ascii_whitespace()).is_some() {}
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(format!("expected {want:?}, got {c:?}")),
            None => Err(format!("expected {want:?}, got end of input")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let digit = self
                                .chars
                                .next()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + digit;
                        }
                        // Surrogates don't appear in our own output;
                        // foreign ones are refused rather than mangled.
                        out.push(char::from_u32(code).ok_or("\\u escape is not a scalar value")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn scalar(&mut self) -> Result<JsonScalar, String> {
        match self.chars.peek() {
            Some('"') => self.string().map(JsonScalar::Str),
            Some('t') => self.literal("true").map(|()| JsonScalar::Bool(true)),
            Some('f') => self.literal("false").map(|()| JsonScalar::Bool(false)),
            Some('n') => self.literal("null").map(|()| JsonScalar::Null),
            Some(c) if *c == '-' || c.is_ascii_digit() => {
                let mut raw = String::new();
                while let Some(c) = self
                    .chars
                    .next_if(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
                {
                    raw.push(c);
                }
                // Validate the token shape once; integer accessors
                // re-parse the raw text exactly.
                raw.parse::<f64>()
                    .map_err(|_| format!("bad number {raw:?}"))?;
                Ok(JsonScalar::Num(raw))
            }
            Some(c) => Err(format!("unexpected {c:?} (nested values not supported)")),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        for want in word.chars() {
            self.expect(want)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_and_unescape() {
        assert_eq!(json_string("plain"), "\"plain\"");
        let out = json_string("a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        let obj = FlatObject::parse(&format!("{{\"k\":{out}}}")).unwrap();
        assert_eq!(obj.str("k").unwrap(), "a\"b\\c\nd\te\u{1}");
        // Foreign escapes parse too.
        let obj = FlatObject::parse("{\"k\":\"\\u0041\\/\\b\\f\\r\"}").unwrap();
        assert_eq!(obj.str("k").unwrap(), "A/\u{8}\u{c}\r");
    }

    #[test]
    fn typed_accessors_name_the_bad_field() {
        let obj =
            FlatObject::parse(" { \"n\" : 7 , \"s\":\"x\", \"b\":true, \"z\":null, \"f\":-1.5 } ")
                .unwrap();
        assert_eq!(obj.u64("n"), Ok(7));
        assert_eq!(obj.opt_u64("absent"), Ok(None));
        assert_eq!(obj.opt_str("s"), Ok(Some("x")));
        assert_eq!(obj.opt_bool("b"), Ok(Some(true)));
        assert_eq!(obj.get("z"), Some(&JsonScalar::Null));
        assert!(obj.u64("f").unwrap_err().contains("\"f\""));
        assert!(obj.str("n").unwrap_err().contains("not a string"));
        assert!(obj.bool("absent").unwrap_err().contains("missing field"));
        assert_eq!(FlatObject::parse("{}").unwrap().get("n"), None);
    }

    #[test]
    fn malformed_objects_are_refused() {
        for bad in [
            "",
            "[]",
            "{\"k\":{}}",
            "{\"k\":1,}",
            "{\"k\" 1}",
            "{\"k\":\"open}",
            "{\"k\":1} trailing",
            "{\"k\":1e}",
            "{\"k\":\"\\ud800\"}",
        ] {
            assert!(FlatObject::parse(bad).is_err(), "{bad:?}");
        }
    }
}
