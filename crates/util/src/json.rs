//! The one JSON writer: every report, annotation and protocol line in
//! the workspace is built as a [`Json`] value and rendered here, so no
//! other code places a brace, a separator or an indent.
//!
//! Each container carries its [`Layout`]: [`Layout::Pretty`] puts every
//! member on its own line, indented two spaces per enclosing pretty
//! container, with `": "` after keys; [`Layout::Inline`] keeps it on one
//! line as `{"k": v, "k2": v2}`; [`Layout::Compact`] drops the spaces,
//! `{"k":v,"k2":v2}` (the `aos-serve/v1` protocol). Inline and compact
//! containers do not indent, so a pretty object nested in an inline row
//! indents from the row's own line.
//!
//! # Examples
//!
//! ```
//! use aos_util::json::{Json, Layout};
//!
//! let row = Layout::Inline.object([("mcq", Json::num(48)), ("ipc", Json::fixed(0.5, 4))]);
//! let doc = Layout::Pretty.object([("id", Json::Null), ("points", Layout::Pretty.array([row]))]);
//! assert_eq!(
//!     doc.to_string(),
//!     "{\n  \"id\": null,\n  \"points\": [\n    {\"mcq\": 48, \"ipc\": 0.5000}\n  ]\n}"
//! );
//! ```

use std::fmt::{self, Display, Write as _};

/// Escapes `s` for embedding in a JSON string literal: quotes,
/// backslashes and every control character below U+0020.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// How a container lays out its members (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, two spaces of indent per pretty level.
    Pretty,
    /// One line, `", "` between members and `": "` after keys.
    Inline,
    /// One line, `","` between members and `":"` after keys.
    Compact,
}

impl Layout {
    /// An array of `items` in this layout.
    pub fn array(self, items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(self, items.into_iter().collect())
    }

    /// An object of `fields` in this layout, keys in the given order.
    pub fn object<K: Into<String>>(self, fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(
            self,
            fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        )
    }
}

/// A JSON value with ordered object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, already formatted and written verbatim.
    Num(String),
    /// A string, escaped when rendered.
    Str(String),
    /// An array.
    Array(Layout, Vec<Json>),
    /// An object whose keys render in insertion order.
    Object(Layout, Vec<(String, Json)>),
}

impl Json {
    /// A number as its `Display` renders it.
    pub fn num(value: impl Display) -> Json {
        Json::Num(value.to_string())
    }

    /// A number with `digits` digits after the point.
    pub fn fixed(value: f64, digits: usize) -> Json {
        Json::Num(format!("{value:.digits$}"))
    }

    /// A string value.
    pub fn str(value: impl Into<String>) -> Json {
        Json::Str(value.into())
    }

    /// Writes the value at `depth` pretty levels. This is the one place
    /// a brace, separator or indent is written: a pretty container puts
    /// its members at `depth + 1` and its close at `depth`.
    fn write(&self, out: &mut String, depth: usize) {
        let (layout, open, close, members): (_, _, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return out.push_str(n),
            Json::Str(s) => return write_str(out, s),
            Json::Array(layout, items) => {
                (layout, '[', ']', items.iter().map(|v| (None, v)).collect())
            }
            Json::Object(layout, fields) => (
                layout,
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let (separator, colon) = match layout {
            Layout::Pretty => (",", ": "),
            Layout::Inline => (", ", ": "),
            Layout::Compact => (",", ":"),
        };
        let pretty = *layout == Layout::Pretty;
        let inner = depth + usize::from(pretty);
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push_str(separator);
            }
            if pretty {
                newline(out, inner);
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(colon);
            }
            value.write(out, inner);
        }
        if pretty {
            newline(out, depth);
        }
        out.push(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', 2 * depth));
}

/// Renders the value with each container's own layout, no trailing
/// newline.
impl Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_text_passes_through() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("µop → ok"), "µop → ok");
    }

    #[test]
    fn quotes_backslashes_and_controls_are_escaped() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("\n\r\t"), "\\n\\r\\t");
        assert_eq!(escape("\u{0001}\u{001f}"), "\\u0001\\u001f");
    }

    /// Decodes the escapes a JSON string literal may carry.
    fn unescape(s: &str) -> String {
        let mut out = String::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next().expect("escape has a second char") {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).expect("hex escape");
                    out.push(char::from_u32(code).expect("scalar value"));
                }
                other => out.push(other),
            }
        }
        out
    }

    #[test]
    fn escapes_round_trip() {
        let hostile = "a\"b\\c\nd\te\u{0001}\r\u{001f}";
        let escaped = escape(hostile);
        assert!(escaped.chars().all(|c| c as u32 >= 0x20));
        assert_eq!(unescape(&escaped), hostile);
    }

    #[test]
    fn scalars_render_verbatim_and_strings_escaped() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(false).to_string(), "false");
        assert_eq!(Json::fixed(0.5, 4).to_string(), "0.5000");
        assert_eq!(Json::num(0.004).to_string(), "0.004");
        assert_eq!(Json::str("a\"b").to_string(), "\"a\\\"b\"");
    }

    #[test]
    fn each_layout_places_its_own_separators() {
        let members = || {
            let pair = Layout::Inline.array([Json::num(2), Json::num(3)]);
            [("a", Json::num(1)), ("b", pair)]
        };
        assert_eq!(
            Layout::Inline.object(members()).to_string(),
            "{\"a\": 1, \"b\": [2, 3]}"
        );
        assert_eq!(
            Layout::Compact.object(members()).to_string(),
            "{\"a\":1,\"b\":[2, 3]}"
        );
        assert_eq!(
            Layout::Pretty.object(members()).to_string(),
            "{\n  \"a\": 1,\n  \"b\": [2, 3]\n}"
        );
    }

    #[test]
    fn empty_containers_keep_their_layout() {
        assert_eq!(Layout::Inline.array([]).to_string(), "[]");
        assert_eq!(Layout::Compact.object::<&str>([]).to_string(), "{}");
        assert_eq!(Layout::Pretty.array([]).to_string(), "[\n]");
        let nested = Layout::Pretty.object([("xs", Layout::Pretty.array([]))]);
        assert_eq!(nested.to_string(), "{\n  \"xs\": [\n  ]\n}");
    }

    /// Only pretty containers indent: a pretty object inside an inline
    /// row indents from the row's own line.
    #[test]
    fn pretty_inside_inline_indents_from_the_enclosing_line() {
        let inner = Layout::Pretty.object([("k", Json::num(1))]);
        let row = Layout::Inline.object([("id", Json::str("r")), ("t", inner)]);
        let doc = Layout::Pretty.object([("rows", Layout::Pretty.array([row]))]);
        assert_eq!(
            doc.to_string(),
            "{\n  \"rows\": [\n    {\"id\": \"r\", \"t\": {\n      \"k\": 1\n    }}\n  ]\n}"
        );
    }

    #[test]
    fn keys_keep_insertion_order_and_are_escaped() {
        let doc = Layout::Compact.object([("z", Json::Null), ("a\"", Json::Null)]);
        assert_eq!(doc.to_string(), "{\"z\":null,\"a\\\"\":null}");
    }
}
