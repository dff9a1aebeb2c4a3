//! The lint rule taxonomy: one rule per Fig. 7 / Algorithm 1 protocol
//! obligation, with stable wire names and fixed severities.

/// How bad a finding is.
///
/// `Error` findings are protocol violations — an instrumentation
/// stream a correct AOS compiler cannot emit. `Warning` findings are
/// end-of-stream imbalances that may be benign truncation (a trace
/// window ending mid-protocol) but deserve a look.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but possibly benign (e.g. a truncated window).
    Warning,
    /// A definite violation of the instrumentation protocol.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The static protocol rules, one per lifecycle obligation of the
/// paper's Fig. 7 instrumentation and Algorithm 1 AHC encoding.
///
/// The discriminant indexes
/// [`AOS_RULES`](crate::registry::AOS_RULES), which holds each rule's
/// stable wire name, severity and obligation, and the AOS report's
/// per-rule counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Rule {
    /// A signed pointer was dereferenced after its `pacma` but before
    /// any `bndstr` recorded bounds for it — the malloc protocol is
    /// `pacma` *then* `bndstr` (Fig. 7a), and until the bounds exist
    /// every access would miss the HBT.
    UseBeforeBndstr,
    /// A signed pointer whose PAC was never produced by any `pacma`
    /// in the stream — a forged or tampered signature.
    UnknownPac,
    /// A signed pointer was dereferenced after every bounds record
    /// under its PAC had been `bndclr`ed — the static shadow of a
    /// use-after-free.
    AccessAfterClear,
    /// A `bndclr` for a PAC with no live bounds record — the static
    /// shadow of a double free (Fig. 7b clears exactly once).
    DoubleBndclr,
    /// An `xpacm` with no outstanding `bndclr` — Fig. 7b strips the
    /// PAC only as part of the clear-then-strip free sequence.
    XpacmWithoutBndclr,
    /// A `bndstr` whose PAC was not just signed by a matching `pacma`
    /// (missing sign, or the sizes disagree) — bounds without a
    /// signature can never validate an access.
    BndstrWithoutPacma,
    /// A `pacma` whose pointer's AHC bits disagree with Algorithm 1
    /// applied to its size operand — the hash-table way selection
    /// would diverge between store and check.
    AhcSizeMismatch,
    /// An operation on a PAC that has live bounds records, but none
    /// in the AHC class the pointer's top bits select — store and
    /// check would walk different HBT ways.
    AccessAhcMismatch,
    /// Protocol state left open at end of stream: a `pacma` whose
    /// `bndstr` never arrived, or `bndclr`s with no matching `xpacm`.
    /// Live bounds records at exit are *not* flagged — a process may
    /// legitimately exit with allocations live.
    UnbalancedAtEnd,
}

impl Rule {
    /// Number of rules in the taxonomy.
    pub const COUNT: usize = 9;

    /// Every rule, in counter (and wire) order.
    pub const ALL: [Rule; Self::COUNT] = [
        Rule::UseBeforeBndstr,
        Rule::UnknownPac,
        Rule::AccessAfterClear,
        Rule::DoubleBndclr,
        Rule::XpacmWithoutBndclr,
        Rule::BndstrWithoutPacma,
        Rule::AhcSizeMismatch,
        Rule::AccessAhcMismatch,
        Rule::UnbalancedAtEnd,
    ];

    /// The rule's stable wire name (from the shared
    /// [`registry`](crate::registry)).
    pub fn name(self) -> &'static str {
        crate::registry::AOS_RULES[self as usize].name
    }

    /// The rule's fixed severity (from the shared registry).
    pub fn severity(self) -> Severity {
        crate::registry::AOS_RULES[self as usize].severity
    }

    /// The Fig. 7 / Algorithm 1 obligation the rule enforces — one
    /// line, used by the CLI table and DESIGN.md §12.
    pub fn obligation(self) -> &'static str {
        crate::registry::AOS_RULES[self as usize].obligation
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_arrays_agree() {
        for (i, rule) in Rule::ALL.iter().enumerate() {
            assert_eq!(*rule as usize, i, "{rule:?} discriminant drifted");
            assert!(!rule.obligation().is_empty());
        }
    }

    #[test]
    fn only_end_imbalance_is_a_warning() {
        for rule in Rule::ALL {
            let expected = if rule == Rule::UnbalancedAtEnd {
                Severity::Warning
            } else {
                Severity::Error
            };
            assert_eq!(rule.severity(), expected, "{rule}");
        }
    }
}
