//! The linter's product: exact per-rule counts, the stored findings,
//! and the memory-discipline evidence — with stable JSON
//! (`aos-lint-report/v1`) and human-table renderers.

use std::fmt::Write as _;

use aos_util::json::escape;

use crate::rules::{Diagnostic, Rule, Severity};

/// What one scan found. Per-rule counts are always exact; the stored
/// [`Diagnostic`]s are capped at
/// [`MAX_STORED_DIAGNOSTICS`](crate::verifier::MAX_STORED_DIAGNOSTICS)
/// with the overflow counted in `dropped_diagnostics`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Ops consumed from the stream.
    pub ops_scanned: u64,
    /// Exact findings per rule, indexed by `Rule as usize`.
    pub rule_counts: [u64; Rule::COUNT],
    /// The first findings, in stream order (capped).
    pub diagnostics: Vec<Diagnostic>,
    /// Findings beyond the storage cap (counted, not stored).
    pub dropped_diagnostics: u64,
    /// Distinct PACs the scan tracked — the linter's memory bound.
    pub distinct_pacs: usize,
    /// Bounds records still live when the stream ended (a process may
    /// legitimately exit with allocations live; not a finding).
    pub live_records_at_end: u64,
    /// High-water mark of simultaneously-live bounds records.
    pub peak_live_records: u64,
    /// The stream pipeline's op-buffering high-water mark, when the
    /// scan ran through
    /// [`lint_stream_metered`](crate::verifier::lint_stream_metered);
    /// 0 otherwise. The
    /// linter itself always buffers zero ops.
    pub pipeline_peak_buffered_ops: usize,
}

impl LintReport {
    /// Total findings across every rule and severity.
    pub fn total_diagnostics(&self) -> u64 {
        self.rule_counts.iter().sum()
    }

    /// Findings with [`Severity::Error`].
    pub fn errors(&self) -> u64 {
        Rule::ALL
            .iter()
            .filter(|r| r.severity() == Severity::Error)
            .map(|&r| self.count(r))
            .sum()
    }

    /// Findings with [`Severity::Warning`].
    pub fn warnings(&self) -> u64 {
        self.total_diagnostics() - self.errors()
    }

    /// `true` when the scan produced no findings of any severity.
    pub fn clean(&self) -> bool {
        self.total_diagnostics() == 0
    }

    /// Exact number of findings for one rule.
    pub fn count(&self, rule: Rule) -> u64 {
        self.rule_counts[rule as usize]
    }

    /// The rules that fired at least once, in taxonomy order.
    pub fn rules_fired(&self) -> Vec<Rule> {
        Rule::ALL
            .iter()
            .copied()
            .filter(|&r| self.count(r) > 0)
            .collect()
    }

    /// The `aos-lint-report/v1` JSON document. Stable key order,
    /// pinned by `tests/lint_report_golden.rs`; an intentional shape
    /// change means bumping the version string and regenerating the
    /// golden.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"aos-lint-report/v1\",\n");
        let _ = writeln!(out, "  \"ops_scanned\": {},", self.ops_scanned);
        let _ = writeln!(out, "  \"diagnostics\": {},", self.total_diagnostics());
        let _ = writeln!(out, "  \"errors\": {},", self.errors());
        let _ = writeln!(out, "  \"warnings\": {},", self.warnings());
        let _ = writeln!(
            out,
            "  \"dropped_diagnostics\": {},",
            self.dropped_diagnostics
        );
        let _ = writeln!(out, "  \"distinct_pacs\": {},", self.distinct_pacs);
        let _ = writeln!(
            out,
            "  \"live_records_at_end\": {},",
            self.live_records_at_end
        );
        let _ = writeln!(out, "  \"peak_live_records\": {},", self.peak_live_records);
        let _ = writeln!(
            out,
            "  \"pipeline_peak_buffered_ops\": {},",
            self.pipeline_peak_buffered_ops
        );
        out.push_str("  \"rules\": {\n");
        for (i, rule) in Rule::ALL.iter().enumerate() {
            let _ = writeln!(
                out,
                "    \"{}\": {}{}",
                rule.name(),
                self.count(*rule),
                if i + 1 < Rule::COUNT { "," } else { "" }
            );
        }
        out.push_str("  },\n");
        out.push_str("  \"findings\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"rule\": \"{}\", \"severity\": \"{}\", \"op_index\": {}, \
                 \"pac\": {}, \"detail\": \"{}\"}}{}",
                d.rule,
                d.severity,
                d.op_index,
                d.pac,
                escape(&d.detail),
                if i + 1 < self.diagnostics.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// A human-readable summary table plus the stored findings.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>12} ops scanned, {} distinct PACs, {} live records at end (peak {})",
            self.ops_scanned, self.distinct_pacs, self.live_records_at_end, self.peak_live_records
        );
        if self.pipeline_peak_buffered_ops > 0 {
            let _ = writeln!(
                out,
                "{:>12} ops peak pipeline buffering (linter itself buffers none)",
                self.pipeline_peak_buffered_ops
            );
        }
        if self.clean() {
            let _ = writeln!(out, "clean: no protocol findings");
            return out;
        }
        let _ = writeln!(
            out,
            "{} finding(s): {} error(s), {} warning(s)",
            self.total_diagnostics(),
            self.errors(),
            self.warnings()
        );
        let _ = writeln!(out, "{:<22} {:>8}  obligation", "rule", "count");
        for rule in self.rules_fired() {
            let _ = writeln!(
                out,
                "{:<22} {:>8}  {}",
                rule.name(),
                self.count(rule),
                rule.obligation()
            );
        }
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        if self.dropped_diagnostics > 0 {
            let _ = writeln!(
                out,
                "  ... and {} more finding(s) beyond the storage cap",
                self.dropped_diagnostics
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> LintReport {
        LintReport {
            ops_scanned: 10,
            rule_counts: [0; Rule::COUNT],
            diagnostics: Vec::new(),
            dropped_diagnostics: 0,
            distinct_pacs: 0,
            live_records_at_end: 0,
            peak_live_records: 0,
            pipeline_peak_buffered_ops: 0,
        }
    }

    #[test]
    fn clean_report_renders_and_counts() {
        let r = empty();
        assert!(r.clean());
        assert_eq!(r.errors(), 0);
        assert!(r.to_table().contains("clean"));
        assert!(r.to_json().contains("\"aos-lint-report/v1\""));
    }

    #[test]
    fn severity_split_adds_up() {
        let mut r = empty();
        r.rule_counts[Rule::DoubleBndclr as usize] = 2;
        r.rule_counts[Rule::UnbalancedAtEnd as usize] = 1;
        assert_eq!(r.total_diagnostics(), 3);
        assert_eq!(r.errors(), 2);
        assert_eq!(r.warnings(), 1);
        assert_eq!(r.rules_fired(), vec![Rule::DoubleBndclr, Rule::UnbalancedAtEnd]);
        assert!(!r.clean());
    }

    #[test]
    fn json_lists_every_rule_exactly_once() {
        let json = empty().to_json();
        for name in Rule::NAMES {
            assert_eq!(json.matches(&format!("\"{name}\"")).count(), 1, "{name}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn details_are_escaped() {
        let mut r = empty();
        r.rule_counts[Rule::UnknownPac as usize] = 1;
        r.diagnostics.push(Diagnostic {
            rule: Rule::UnknownPac,
            op_index: 0,
            pac: 1,
            severity: Severity::Error,
            detail: "quote \" and \\ backslash".to_string(),
        });
        let json = r.to_json();
        assert!(json.contains("quote \\\" and \\\\ backslash"));
    }
}
