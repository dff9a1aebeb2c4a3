//! A minimal JSON parser for the `aos-serve/v1` protocol: *flat*
//! objects (string / number / bool / null values — the whole request
//! vocabulary). Responses are written by the workspace's one JSON
//! writer, [`aos_util::json::Json`]. The parser is hand-rolled because
//! the repo takes no serde dependency, and a service that parses
//! hostile stdin must fail typed, never panic.

use aos_util::AosError;

/// A parsed JSON scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A (unescaped) string.
    Str(String),
    /// Any JSON number, kept as f64 (the protocol's numbers are small
    /// counts and scales).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// A flat JSON object: fields in document order.
pub type JsonObject = Vec<(String, JsonValue)>;

/// Looks a field up by name.
pub fn get<'a>(object: &'a JsonObject, name: &str) -> Option<&'a JsonValue> {
    object.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn err(detail: impl std::fmt::Display) -> AosError {
    AosError::invalid_input("aos-serve request", detail)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), AosError> {
        if self.peek() == Some(byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(err(format!(
                "expected '{}' at byte {}",
                byte as char, self.at
            )))
        }
    }

    fn string(&mut self) -> Result<String, AosError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(err("unterminated string"));
            };
            self.at += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(err("unterminated escape"));
                    };
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let end = self.at + 4;
                            let hex = self
                                .bytes
                                .get(self.at..end)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| err("truncated \\u escape"))?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| err("bad \\u escape"))?;
                            // Surrogates are rejected rather than paired:
                            // nothing in the protocol needs astral chars.
                            let ch = char::from_u32(code)
                                .ok_or_else(|| err("\\u escape is not a scalar value"))?;
                            out.push(ch);
                            self.at = end;
                        }
                        other => return Err(err(format!("unknown escape '\\{}'", other as char))),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let start = self.at - 1;
                    let width = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(err("invalid UTF-8 in string")),
                    };
                    let end = start + width;
                    let s = self
                        .bytes
                        .get(start..end)
                        .and_then(|w| std::str::from_utf8(w).ok())
                        .ok_or_else(|| err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.at = end;
                }
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, AosError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'{') | Some(b'[') => Err(err(
                "nested objects/arrays are not part of the aos-serve/v1 request vocabulary",
            )),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.at;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at])
                    .map_err(|_| err("invalid number"))?;
                let n: f64 = text
                    .parse()
                    .map_err(|_| err(format!("bad number '{text}'")))?;
                Ok(JsonValue::Num(n))
            }
            _ => Err(err(format!("unexpected byte at {}", self.at))),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, AosError> {
        let end = self.at + word.len();
        if self.bytes.get(self.at..end) == Some(word.as_bytes()) {
            self.at = end;
            Ok(value)
        } else {
            Err(err(format!("expected '{word}' at byte {}", self.at)))
        }
    }
}

/// Parses one flat JSON object.
///
/// # Errors
///
/// [`AosError::InvalidInput`] for anything that is not a flat object
/// of scalar values — including nested objects and arrays, which the
/// protocol deliberately excludes.
pub fn parse_object(line: &str) -> Result<JsonObject, AosError> {
    let mut c = Cursor {
        bytes: line.as_bytes(),
        at: 0,
    };
    c.skip_ws();
    c.expect(b'{')?;
    let mut object = JsonObject::new();
    c.skip_ws();
    if c.peek() == Some(b'}') {
        c.at += 1;
    } else {
        loop {
            c.skip_ws();
            let key = c.string()?;
            c.skip_ws();
            c.expect(b':')?;
            let value = c.value()?;
            if object.iter().any(|(k, _)| *k == key) {
                return Err(err(format!("duplicate key '{key}'")));
            }
            object.push((key, value));
            c.skip_ws();
            match c.peek() {
                Some(b',') => c.at += 1,
                Some(b'}') => {
                    c.at += 1;
                    break;
                }
                _ => return Err(err("expected ',' or '}' in object")),
            }
        }
    }
    c.skip_ws();
    if c.at != c.bytes.len() {
        return Err(err("trailing bytes after object"));
    }
    Ok(object)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let o = parse_object(
            r#"{"proto":"aos-serve/v1","id":"j1","kind":"trace","scale":0.01,"flag":true,"x":null}"#,
        )
        .expect("parse");
        assert_eq!(get(&o, "proto").unwrap().as_str(), Some("aos-serve/v1"));
        assert_eq!(get(&o, "scale").unwrap().as_f64(), Some(0.01));
        assert_eq!(get(&o, "flag"), Some(&JsonValue::Bool(true)));
        assert_eq!(get(&o, "x"), Some(&JsonValue::Null));
        assert_eq!(get(&o, "missing"), None);
    }

    #[test]
    fn hostile_lines_fail_typed_never_panic() {
        for line in [
            "",
            "{",
            "not json",
            r#"{"a"}"#,
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            r#"{"a":1}} "#,
            r#"{"a":{"nested":1}}"#,
            r#"{"a":[1,2]}"#,
            r#"{"a":"unterminated"#,
            r#"{"a":"bad\q"}"#,
            r#"{"a":"\ud800"}"#,
            r#"{"a":1e}"#,
            r#"{"a":1,"a":2}"#,
        ] {
            let e = parse_object(line).expect_err(line);
            assert!(matches!(e, AosError::InvalidInput { .. }), "{line}: {e}");
        }
    }

    #[test]
    fn empty_object_and_whitespace() {
        assert!(parse_object("  { }  ").expect("parse").is_empty());
        let o = parse_object("{\"a\" : -2.5e3 }").expect("parse");
        assert_eq!(get(&o, "a").unwrap().as_f64(), Some(-2500.0));
    }
}
