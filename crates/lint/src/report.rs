//! The linter's product: the AOS policy's findings plus the
//! memory-discipline evidence only the linter keeps — with stable
//! JSON (`aos-lint-report/v1`) and human-table renderers.

use std::fmt::Write as _;

use aos_util::json::{Json, Layout};

use crate::policy::PolicyReport;
use crate::registry::AOS_RULES;
use crate::rules::Rule;

/// What one scan found: the [`Policy::Aos`](crate::Policy::Aos)
/// [`PolicyReport`] (exact per-rule counts indexed by `Rule as usize`,
/// stored diagnostics capped at
/// [`MAX_STORED_DIAGNOSTICS`](crate::MAX_STORED_DIAGNOSTICS), distinct
/// PACs tracked) plus the live-record and pipeline-buffering figures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// The AOS policy's findings.
    pub findings: PolicyReport,
    /// Bounds records still live when the stream ended (a process may
    /// legitimately exit with allocations live; not a finding).
    pub live_records_at_end: u64,
    /// High-water mark of simultaneously-live bounds records.
    pub peak_live_records: u64,
    /// The stream pipeline's op-buffering high-water mark, when the
    /// scan ran through
    /// [`lint_stream_metered`](crate::verifier::lint_stream_metered);
    /// 0 otherwise. The linter itself always buffers zero ops.
    pub pipeline_peak_buffered_ops: usize,
}

impl LintReport {
    /// Exact number of findings for one rule.
    pub fn count(&self, rule: Rule) -> u64 {
        self.findings.count(rule as usize)
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
        let f = &self.findings;
        let rules = AOS_RULES
            .iter()
            .zip(&f.rule_counts)
            .map(|(info, count)| (info.name, Json::num(count)));
        let findings = f.diagnostics.iter().map(|d| {
            let info = &AOS_RULES[d.rule];
            Layout::Inline.object([
                ("rule", Json::str(info.name)),
                ("severity", Json::str(info.severity.to_string())),
                ("op_index", Json::num(d.op_index)),
                ("pac", Json::num(d.pac)),
                ("detail", Json::str(d.detail.as_str())),
            ])
        });
        let doc = Layout::Pretty.object([
            ("schema", Json::str("aos-lint-report/v1")),
            ("ops_scanned", Json::num(f.ops_scanned)),
            ("diagnostics", Json::num(f.total_diagnostics())),
            ("errors", Json::num(f.errors())),
            ("warnings", Json::num(f.warnings())),
            ("dropped_diagnostics", Json::num(f.dropped_diagnostics)),
            ("distinct_pacs", Json::num(f.tracked_pacs)),
            ("live_records_at_end", Json::num(self.live_records_at_end)),
            ("peak_live_records", Json::num(self.peak_live_records)),
            (
                "pipeline_peak_buffered_ops",
                Json::num(self.pipeline_peak_buffered_ops),
            ),
            ("rules", Layout::Pretty.object(rules)),
            ("findings", Layout::Pretty.array(findings)),
        ]);
        format!("{doc}\n")
    }

    /// A human-readable summary table plus the stored findings.
    pub fn to_table(&self) -> String {
        let f = &self.findings;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>12} ops scanned, {} distinct PACs, {} live records at end (peak {})",
            f.ops_scanned, f.tracked_pacs, self.live_records_at_end, self.peak_live_records
        );
        if self.pipeline_peak_buffered_ops > 0 {
            let _ = writeln!(
                out,
                "{:>12} ops peak pipeline buffering (linter itself buffers none)",
                self.pipeline_peak_buffered_ops
            );
        }
        if f.clean() {
            let _ = writeln!(out, "clean: no protocol findings");
            return out;
        }
        let _ = writeln!(
            out,
            "{} finding(s): {} error(s), {} warning(s)",
            f.total_diagnostics(),
            f.errors(),
            f.warnings()
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
        for d in &f.diagnostics {
            let info = &AOS_RULES[d.rule];
            let _ = writeln!(
                out,
                "  {}: {} at op {} (pac {:#x}): {}",
                info.severity, info.name, d.op_index, d.pac, d.detail
            );
        }
        if f.dropped_diagnostics > 0 {
            let _ = writeln!(
                out,
                "  ... and {} more finding(s) beyond the storage cap",
                f.dropped_diagnostics
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Policy, PolicyDiagnostic};

    fn empty() -> LintReport {
        LintReport {
            findings: PolicyReport {
                policy: Policy::Aos,
                ops_scanned: 10,
                rule_counts: vec![0; Rule::COUNT],
                diagnostics: Vec::new(),
                dropped_diagnostics: 0,
                tracked_pacs: 0,
            },
            live_records_at_end: 0,
            peak_live_records: 0,
            pipeline_peak_buffered_ops: 0,
        }
    }

    #[test]
    fn clean_report_renders_and_counts() {
        let r = empty();
        assert!(r.findings.clean());
        assert_eq!(r.findings.errors(), 0);
        assert!(r.to_table().contains("clean"));
        assert!(r.to_json().contains("\"aos-lint-report/v1\""));
    }

    #[test]
    fn severity_split_adds_up() {
        let mut r = empty();
        r.findings.rule_counts[Rule::DoubleBndclr as usize] = 2;
        r.findings.rule_counts[Rule::UnbalancedAtEnd as usize] = 1;
        assert_eq!(r.findings.total_diagnostics(), 3);
        assert_eq!(r.findings.errors(), 2);
        assert_eq!(r.findings.warnings(), 1);
        assert_eq!(
            r.rules_fired(),
            vec![Rule::DoubleBndclr, Rule::UnbalancedAtEnd]
        );
        assert!(!r.findings.clean());
    }

    #[test]
    fn json_lists_every_rule_exactly_once() {
        let json = empty().to_json();
        for info in AOS_RULES {
            let name = info.name;
            assert_eq!(json.matches(&format!("\"{name}\"")).count(), 1, "{name}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn details_are_escaped() {
        let mut r = empty();
        r.findings.rule_counts[Rule::UnknownPac as usize] = 1;
        r.findings.diagnostics.push(PolicyDiagnostic {
            rule: Rule::UnknownPac as usize,
            op_index: 0,
            pac: 1,
            detail: "quote \" and \\ backslash".to_string(),
        });
        let json = r.to_json();
        assert!(json.contains("quote \\\" and \\\\ backslash"));
    }

    #[test]
    fn findings_render_for_humans() {
        let mut r = empty();
        r.findings.rule_counts[Rule::DoubleBndclr as usize] = 1;
        r.findings.diagnostics.push(PolicyDiagnostic {
            rule: Rule::DoubleBndclr as usize,
            op_index: 17,
            pac: 0xbeef,
            detail: "no live bounds record".to_string(),
        });
        let table = r.to_table();
        assert!(table.contains("  error: double-bndclr at op 17 (pac 0xbeef): no live bounds"));
    }
}
