//! The one JSON string escaper the workspace's hand-rolled reports and
//! protocols share (campaign reports, lint reports, the serve
//! protocol), so no crate needs a JSON dependency to emit a string.
//!
//! # Examples
//!
//! ```
//! use aos_util::json::escape;
//!
//! assert_eq!(escape("say \"hi\"\n"), "say \\\"hi\\\"\\n");
//! ```

use std::fmt::Write as _;

/// Escapes `s` for embedding in a JSON string literal: quotes,
/// backslashes and every control character below U+0020.
pub fn escape(s: &str) -> String {
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
}
