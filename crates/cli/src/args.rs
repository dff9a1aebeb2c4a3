//! Tiny flag parser for the CLI (`--name value` pairs plus
//! positionals); hand-rolled to keep the dependency set minimal.
//! Each subcommand names the flags it accepts, so a misspelt or
//! removed flag is a usage error instead of a silently ignored one.

use aos_util::AosError;

/// Parsed arguments: positionals in order, flags as `(name, value)`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Parsed {
    positionals: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Parsed {
    /// Parses `argv` against the subcommand's `allowed` flag names
    /// (space-separated, without the leading `--`). Every `--flag`
    /// must be followed by a value.
    ///
    /// # Errors
    ///
    /// Returns a message when a flag is not in `allowed` or has no
    /// value.
    pub fn parse(argv: &[String], allowed: &str) -> Result<Self, String> {
        let mut parsed = Parsed::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if !allowed.split(' ').any(|flag| flag == name) {
                    return Err(format!(
                        "unknown flag --{name} (accepted: --{})",
                        allowed.replace(' ', ", --")
                    ));
                }
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{name} requires a value"))?;
                parsed.flags.push((name.to_string(), value.clone()));
            } else {
                parsed.positionals.push(arg.clone());
            }
        }
        Ok(parsed)
    }

    /// The n-th positional argument.
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positionals.get(index).map(String::as_str)
    }

    /// A flag's raw value.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// A flag parsed to a type, with a default when absent.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn flag_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} got unparsable value '{v}'")),
        }
    }
}

/// Parses and validates a `--scale` flag (default 1.0).
///
/// # Errors
///
/// [`AosError::InvalidInput`] for an unparsable, NaN, non-positive or
/// > 1.0 value — a silent pass-through would generate an empty or
/// runaway trace downstream.
pub fn scale(parsed: &Parsed) -> Result<f64, AosError> {
    scale_or(parsed, 1.0)
}

/// [`scale`] with a caller-chosen default (e.g. `aos faults` uses a
/// small window because each sweep replays the trace many times).
pub fn scale_or(parsed: &Parsed, default: f64) -> Result<f64, AosError> {
    let s: f64 = parsed
        .flag_or("scale", default)
        .map_err(|e| AosError::invalid_input("--scale", e))?;
    if s.is_nan() {
        return Err(AosError::invalid_input("--scale", "NaN is not a scale"));
    }
    if s > 0.0 && s <= 1.0 {
        Ok(s)
    } else {
        Err(AosError::invalid_input(
            "--scale",
            format!("must be in (0, 1], got {s}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_and_flags() {
        let p = Parsed::parse(
            &argv(&["gcc", "--scale", "0.5", "--system", "aos"]),
            "scale system",
        )
        .unwrap();
        assert_eq!(p.positional(0), Some("gcc"));
        assert_eq!(p.flag("scale"), Some("0.5"));
        assert_eq!(p.flag("system"), Some("aos"));
        assert_eq!(p.positional(1), None);
        assert_eq!(p.flag("missing"), None);
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        let err = Parsed::parse(&argv(&["--bogus", "1"]), "scale seed").unwrap_err();
        assert_eq!(err, "unknown flag --bogus (accepted: --scale, --seed)");
    }

    #[test]
    fn flag_requires_value() {
        assert!(Parsed::parse(&argv(&["--scale"]), "scale").is_err());
    }

    #[test]
    fn flag_or_defaults_and_parses() {
        let p = Parsed::parse(&argv(&["--n", "42"]), "n m").unwrap();
        assert_eq!(p.flag_or("n", 0u64).unwrap(), 42);
        assert_eq!(p.flag_or("m", 7u64).unwrap(), 7);
        assert!(p.flag_or::<u64>("n", 0).is_ok());
        let bad = Parsed::parse(&argv(&["--n", "x"]), "n").unwrap();
        assert!(bad.flag_or::<u64>("n", 0).is_err());
    }

    #[test]
    fn scale_bounds() {
        let ok = Parsed::parse(&argv(&["--scale", "0.25"]), "scale").unwrap();
        assert_eq!(scale(&ok).unwrap(), 0.25);
        let bad = Parsed::parse(&argv(&["--scale", "2.0"]), "scale").unwrap();
        assert!(scale(&bad).is_err());
        let none = Parsed::parse(&argv(&[]), "").unwrap();
        assert_eq!(scale(&none).unwrap(), 1.0);
        assert_eq!(scale_or(&none, 0.004).unwrap(), 0.004);
    }

    #[test]
    fn degenerate_scales_are_typed_errors() {
        for bad in ["0", "-0.5", "NaN", "inf", "bogus"] {
            let p = Parsed::parse(&argv(&["--scale", bad]), "scale").unwrap();
            let err = scale(&p).unwrap_err();
            assert!(
                matches!(err, AosError::InvalidInput { .. }),
                "--scale {bad} must be InvalidInput, got {err}"
            );
        }
    }
}
