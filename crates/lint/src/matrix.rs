//! The static scanner — one streaming pass, one record per PAC shared
//! by every enabled policy — and the `aos-lint-matrix/v1` report that
//! crosses policies with fault kinds.
//!
//! [`MatrixScan`] runs any subset of [`Policy::ALL`] over a single op
//! stream. It counts every op, then skips the ops no enabled policy
//! reads: everything but `pacma`, `bndstr`, `bndclr`, `xpacm` and
//! signed loads, stores and `autm`s. It decodes each remaining op's
//! PAC and AHC class once, probes its one [`PacMap`] once, and runs
//! each enabled policy's transfer function on that policy's slot of
//! the PAC's record. An N-policy scan therefore costs one traversal,
//! one decode and one probe per obligation-carrying op, plus N
//! constant-size slots per record — never N traversals or N maps.
//!
//! A record carries one tracked bit per policy, set exactly where
//! that policy would create its own entry: AOS on any `pacma` and a
//! signed `bndstr`, CryptSan on a signed `bndstr`, PACSan on a signed
//! `pacma` and every signed `bndclr`, PACTight on a signed `pacma`. A
//! policy that only looks a PAC up treats a record without its bit as
//! absent, and a policy's `tracked_pacs` counts the records carrying
//! its bit — so each policy's report is the one it would produce
//! scanning alone.

use std::fmt::Write as _;

use aos_isa::Op;
use aos_ptrauth::PointerLayout;
use aos_util::hash::PacMap;
use aos_util::Telemetry;

use crate::policy::{KeyState, Policy, PolicyReport, SealState, SignedClasses};
use crate::report::LintReport;
use crate::verifier::{AosScan, PacState};
use aos_util::json::{Json, Layout};

const AOS: u8 = Policy::Aos.bit();
const CRYPTSAN: u8 = Policy::CryptSan.bit();
const PACSAN: u8 = Policy::PacSan.bit();
const PACTIGHT: u8 = Policy::PacTight.bit();

/// Everything the enabled policies know about one PAC: one slot per
/// policy and the bits saying which policies track it. 64 bytes.
#[derive(Debug, Default)]
struct PacRecord {
    tracked: u8,
    aos: PacState,
    cryptsan: KeyState,
    pacsan: SealState,
    pactight: SignedClasses,
}

/// `record` if the policy with `bit` tracks it: a record without the
/// bit is absent to that policy.
fn tracked(record: Option<&PacRecord>, bit: u8) -> Option<&PacRecord> {
    record.filter(|r| r.tracked & bit != 0)
}

/// [`tracked`] for a record the transfer function may change.
fn tracked_mut<'a>(record: &'a mut Option<&mut PacRecord>, bit: u8) -> Option<&'a mut PacRecord> {
    record.as_deref_mut().filter(|r| r.tracked & bit != 0)
}

/// The static scanner: a single pass over several policies at once.
#[derive(Debug)]
pub struct MatrixScan {
    layout: PointerLayout,
    /// The requested policies, in report order.
    policies: Vec<Policy>,
    /// The enabled policies' bits.
    enabled: u8,
    ops_scanned: u64,
    pacs: PacMap<PacRecord>,
    aos: AosScan,
    cryptsan: PolicyReport,
    pacsan: PolicyReport,
    pactight: PolicyReport,
}

impl MatrixScan {
    /// A fresh scan over `policies` (reports come back in this order).
    pub fn new(policies: &[Policy], layout: PointerLayout) -> Self {
        Self {
            layout,
            policies: policies.to_vec(),
            enabled: policies.iter().fold(0, |bits, p| bits | p.bit()),
            ops_scanned: 0,
            pacs: PacMap::default(),
            aos: AosScan::new(),
            cryptsan: PolicyReport::new(Policy::CryptSan),
            pacsan: PolicyReport::new(Policy::PacSan),
            pactight: PolicyReport::new(Policy::PacTight),
        }
    }

    /// Advances every enabled policy by one op. Inlined into the
    /// caller's stream loop, so the skipped ops cost one dispatch.
    #[inline]
    pub fn scan(&mut self, op: &Op) {
        let index = self.ops_scanned;
        self.ops_scanned += 1;
        match *op {
            Op::Pacma { pointer, size } => self.pacma(index, pointer, size),
            Op::BndStr { pointer, size } => self.bndstr(index, pointer, size),
            Op::BndClr { pointer } => self.bndclr(index, pointer),
            Op::Xpacm if self.enabled & AOS != 0 => self.aos.xpacm(index),
            Op::Load { pointer, .. } | Op::Store { pointer, .. } | Op::Autm { pointer }
                if self.layout.is_signed(pointer) =>
            {
                self.access(index, pointer)
            }
            // Compute, branch, generic-PA and Watchdog ops and
            // unsigned accesses carry no obligation under any policy.
            _ => {}
        }
    }

    /// The PAC and the AHC class (`0..=3`) of `pointer`.
    fn decode(&self, pointer: u64) -> (u64, usize) {
        (
            self.layout.pac(pointer),
            self.layout.ahc(pointer) as usize & 3,
        )
    }

    fn pacma(&mut self, index: u64, pointer: u64, size: u64) {
        let mut claims = self.enabled & AOS;
        if self.layout.is_signed(pointer) {
            claims |= self.enabled & (PACSAN | PACTIGHT);
        }
        if claims == 0 {
            return;
        }
        let (pac, ahc) = self.decode(pointer);
        let record = self.pacs.entry(pac).or_default();
        record.tracked |= claims;
        if claims & AOS != 0 {
            self.aos
                .pacma(&mut record.aos, self.layout, index, pointer, size);
        }
        if claims & PACSAN != 0 {
            record.pacsan.seal(ahc);
        }
        if claims & PACTIGHT != 0 {
            record.pactight.sign(ahc);
        }
    }

    fn bndstr(&mut self, index: u64, pointer: u64, size: u64) {
        if !self.layout.is_signed(pointer) {
            if self.enabled & AOS != 0 {
                self.aos.unsigned_bndstr(index);
            }
            return;
        }
        let claims = self.enabled & (AOS | CRYPTSAN);
        if claims == 0 {
            return;
        }
        let (pac, ahc) = self.decode(pointer);
        let record = self.pacs.entry(pac).or_default();
        record.tracked |= claims;
        if claims & AOS != 0 {
            self.aos.bndstr(&mut record.aos, index, pac, ahc, size);
        }
        if claims & CRYPTSAN != 0 {
            record.cryptsan.register();
        }
    }

    fn bndclr(&mut self, index: u64, pointer: u64) {
        let on = self.enabled;
        if on & AOS != 0 {
            self.aos.note_clear();
        }
        if !self.layout.is_signed(pointer) {
            if on & AOS != 0 {
                self.aos.unsigned_bndclr(index);
            }
            return;
        }
        if on & (AOS | CRYPTSAN | PACSAN) == 0 {
            return;
        }
        let (pac, ahc) = self.decode(pointer);
        // PACSan creates its entry on a clear; AOS and CryptSan only
        // look theirs up.
        let mut record = if on & PACSAN != 0 {
            let record = self.pacs.entry(pac).or_default();
            record.tracked |= PACSAN;
            Some(record)
        } else {
            self.pacs.get_mut(&pac)
        };
        if on & AOS != 0 {
            let state = tracked_mut(&mut record, AOS).map(|r| &mut r.aos);
            self.aos.bndclr(state, index, pac, ahc);
        }
        if on & CRYPTSAN != 0 {
            let state = tracked_mut(&mut record, CRYPTSAN).map(|r| &mut r.cryptsan);
            KeyState::revoke(state, &mut self.cryptsan, index, pac);
        }
        if let Some(record) = tracked_mut(&mut record, PACSAN) {
            record.pacsan.invalidate(&mut self.pacsan, index, pac, ahc);
        }
    }

    fn access(&mut self, index: u64, pointer: u64) {
        let (pac, ahc) = self.decode(pointer);
        let on = self.enabled;
        let record = self.pacs.get(&pac);
        if on & AOS != 0 {
            let state = tracked(record, AOS).map(|r| &r.aos);
            self.aos.access(state, index, pac, ahc);
        }
        if on & CRYPTSAN != 0 {
            let state = tracked(record, CRYPTSAN).map(|r| &r.cryptsan);
            KeyState::check(state, &mut self.cryptsan, index, pac);
        }
        if on & PACSAN != 0 {
            let state = tracked(record, PACSAN).map(|r| &r.pacsan);
            SealState::validate(state, &mut self.pacsan, index, pac, ahc);
        }
        if on & PACTIGHT != 0 {
            let state = tracked(record, PACTIGHT).map(|r| &r.pactight);
            SignedClasses::authenticate(state, &mut self.pactight, index, pac, ahc);
        }
    }

    /// Ends the stream: emits the AOS end-of-stream findings and
    /// counts the records each policy tracks.
    fn close(&mut self) -> [usize; Policy::COUNT] {
        let mut tracked_pacs = [0usize; Policy::COUNT];
        let mut unpaired = Vec::new();
        for (&pac, record) in &self.pacs {
            for (p, count) in Policy::ALL.iter().zip(&mut tracked_pacs) {
                *count += usize::from(record.tracked & p.bit() != 0);
            }
            if record.tracked & AOS != 0 && record.aos.unpaired() {
                unpaired.push(pac);
            }
        }
        if self.enabled & AOS != 0 {
            // Map order is unspecified; PAC order keeps the report
            // (and its digest) identical.
            unpaired.sort_unstable();
            self.aos.close(self.ops_scanned, &unpaired);
        }
        tracked_pacs
    }

    /// `policy`'s closed report; its counters land on `telemetry`.
    fn report(&self, policy: Policy, tracked_pacs: usize, telemetry: &Telemetry) -> PolicyReport {
        let findings = match policy {
            Policy::Aos => &self.aos.findings,
            Policy::CryptSan => &self.cryptsan,
            Policy::PacSan => &self.pacsan,
            Policy::PacTight => &self.pactight,
        };
        findings
            .clone()
            .into_report(self.ops_scanned, tracked_pacs, telemetry)
    }

    /// Closes the stream: one [`PolicyReport`] per requested policy,
    /// in the order they were requested. Scan counters land on
    /// `telemetry`.
    pub fn finish(mut self, telemetry: &Telemetry) -> Vec<PolicyReport> {
        let tracked_pacs = self.close();
        self.policies
            .iter()
            .map(|&p| self.report(p, tracked_pacs[p as usize], telemetry))
            .collect()
    }

    /// The AOS scan's [`LintReport`]; the scan must enable only
    /// [`Policy::Aos`].
    pub(crate) fn into_lint_report(mut self, telemetry: &Telemetry) -> LintReport {
        debug_assert_eq!(self.policies, [Policy::Aos]);
        let tracked_pacs = self.close();
        let findings = self.report(Policy::Aos, tracked_pacs[0], telemetry);
        self.aos.into_lint_report(findings)
    }

    /// Convenience: scans a whole stream in one call.
    pub fn run(
        policies: &[Policy],
        stream: impl Iterator<Item = Op>,
        layout: PointerLayout,
        telemetry: &Telemetry,
    ) -> Vec<PolicyReport> {
        let mut scan = MatrixScan::new(policies, layout);
        for op in stream {
            scan.scan(&op);
        }
        scan.finish(telemetry)
    }
}

/// One row of the detection matrix: a subject (a fault kind, a
/// composite primitive, or `"clean"`) crossed with every policy.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixEntry {
    /// What was injected into the scanned stream.
    pub subject: String,
    /// Per policy (report order): exact per-rule finding totals,
    /// summed across the seeds that contributed to the row.
    pub rule_counts: Vec<Vec<u64>>,
}

impl MatrixEntry {
    /// Total findings for the `p`-th policy.
    pub fn diagnostics(&self, p: usize) -> u64 {
        self.rule_counts[p].iter().sum()
    }

    /// Whether the `p`-th policy flagged this subject at all.
    pub fn detected(&self, p: usize) -> bool {
        self.diagnostics(p) > 0
    }
}

/// The policy × rule × fault-kind detection matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixReport {
    /// Workload profile the traces came from.
    pub workload: String,
    /// Trace scale factor.
    pub scale: f64,
    /// Seeds each subject was injected under.
    pub seeds: Vec<u64>,
    /// The policies, in column order.
    pub policies: Vec<Policy>,
    /// One row per subject, in injection order (clean first).
    pub entries: Vec<MatrixEntry>,
    /// Total ops scanned across every cell.
    pub ops_scanned: u64,
}

impl MatrixReport {
    /// Accumulates one scan's reports into the row for `subject`,
    /// creating the row on first sight. `reports` must be in the
    /// matrix's policy order.
    pub fn absorb(&mut self, subject: &str, reports: &[PolicyReport]) {
        debug_assert_eq!(reports.len(), self.policies.len());
        if let Some(first) = reports.first() {
            self.ops_scanned += first.ops_scanned;
        }
        let entry = match self.entries.iter_mut().find(|e| e.subject == subject) {
            Some(entry) => entry,
            None => {
                self.entries.push(MatrixEntry {
                    subject: subject.to_string(),
                    rule_counts: self
                        .policies
                        .iter()
                        .map(|p| vec![0; p.rules().len()])
                        .collect(),
                });
                self.entries.last_mut().expect("just pushed")
            }
        };
        for (p, report) in reports.iter().enumerate() {
            for (i, &c) in report.rule_counts.iter().enumerate() {
                entry.rule_counts[p][i] += c;
            }
        }
    }

    /// An empty matrix ready to [`absorb`](MatrixReport::absorb).
    pub fn new(workload: &str, scale: f64, seeds: Vec<u64>, policies: Vec<Policy>) -> Self {
        Self {
            workload: workload.to_string(),
            scale,
            seeds,
            policies,
            entries: Vec::new(),
            ops_scanned: 0,
        }
    }

    /// The row for `subject`, if any seed produced one.
    pub fn entry(&self, subject: &str) -> Option<&MatrixEntry> {
        self.entries.iter().find(|e| e.subject == subject)
    }

    /// The `aos-lint-matrix/v1` JSON document. Stable key order,
    /// pinned by `tests/lint_matrix_golden.rs`; an intentional shape
    /// change means bumping the version string and regenerating the
    /// golden.
    pub fn to_json(&self) -> String {
        let rows = self.entries.iter().map(|entry| {
            let verdicts = self.policies.iter().enumerate().map(|(p, policy)| {
                let rules = policy
                    .rules()
                    .iter()
                    .zip(&entry.rule_counts[p])
                    .map(|(info, count)| (info.name, Json::num(count)));
                let verdict = Layout::Pretty.object([
                    ("detected", Json::Bool(entry.detected(p))),
                    ("diagnostics", Json::num(entry.diagnostics(p))),
                    ("rules", Layout::Pretty.object(rules)),
                ]);
                (policy.name(), verdict)
            });
            Layout::Pretty.object([
                ("subject", Json::str(entry.subject.as_str())),
                ("verdicts", Layout::Pretty.object(verdicts)),
            ])
        });
        let doc = Layout::Pretty.object([
            ("schema", Json::str("aos-lint-matrix/v1")),
            ("workload", Json::str(self.workload.as_str())),
            ("scale", Json::num(self.scale)),
            (
                "seeds",
                Layout::Inline.array(self.seeds.iter().map(Json::num)),
            ),
            ("ops_scanned", Json::num(self.ops_scanned)),
            (
                "policies",
                Layout::Inline.array(self.policies.iter().map(|p| Json::str(p.name()))),
            ),
            ("matrix", Layout::Pretty.array(rows)),
        ]);
        format!("{doc}\n")
    }

    /// A human-readable detection table: one row per subject, one
    /// column per policy, the rules each policy fired underneath.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "policy detection matrix — workload {}, scale {}, seeds {:?}, {} ops scanned",
            self.workload, self.scale, self.seeds, self.ops_scanned
        );
        let _ = write!(out, "{:<18}", "subject");
        for p in &self.policies {
            let _ = write!(out, " {:>12}", p.name());
        }
        out.push('\n');
        for entry in &self.entries {
            let _ = write!(out, "{:<18}", entry.subject);
            for p in 0..self.policies.len() {
                let cell = if entry.detected(p) {
                    format!("hit({})", entry.diagnostics(p))
                } else {
                    "-".to_string()
                };
                let _ = write!(out, " {cell:>12}");
            }
            out.push('\n');
        }
        for entry in &self.entries {
            let mut fired: Vec<String> = Vec::new();
            for (p, policy) in self.policies.iter().enumerate() {
                let rules: Vec<&str> = policy
                    .rules()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| entry.rule_counts[p][*i] > 0)
                    .map(|(_, info)| info.name)
                    .collect();
                if !rules.is_empty() {
                    fired.push(format!("{}: {}", policy.name(), rules.join(", ")));
                }
            }
            if !fired.is_empty() {
                let _ = writeln!(out, "  {:<16} {}", entry.subject, fired.join(" | "));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_ptrauth::compute_ahc;

    fn ops_with_forged_load() -> Vec<Op> {
        let l = PointerLayout::default();
        let ahc = compute_ahc(0x4000, 64, l.va_size()).bits();
        let ptr = l.compose(0x4000, 7, ahc);
        let forged = l.compose(0x5000, 0x99, 1);
        vec![
            Op::Pacma {
                pointer: ptr,
                size: 64,
            },
            Op::BndStr {
                pointer: ptr,
                size: 64,
            },
            Op::Load {
                pointer: forged,
                bytes: 8,
                chained: false,
            },
        ]
    }

    #[test]
    fn one_pass_yields_one_report_per_policy_in_order() {
        let reports = MatrixScan::run(
            &Policy::ALL,
            ops_with_forged_load().into_iter(),
            PointerLayout::default(),
            &Telemetry::disabled(),
        );
        assert_eq!(reports.len(), Policy::ALL.len());
        for (p, report) in Policy::ALL.iter().zip(&reports) {
            assert_eq!(report.policy, *p);
            assert_eq!(report.ops_scanned, 3);
            assert_eq!(report.total_diagnostics(), 1, "{p}");
        }
    }

    #[test]
    fn reports_come_back_in_the_requested_order() {
        let order = [Policy::PacTight, Policy::Aos, Policy::PacTight];
        let reports = MatrixScan::run(
            &order,
            ops_with_forged_load().into_iter(),
            PointerLayout::default(),
            &Telemetry::disabled(),
        );
        let policies: Vec<Policy> = reports.iter().map(|r| r.policy).collect();
        assert_eq!(policies, order);
        assert_eq!(reports[0], reports[2]);
    }

    #[test]
    fn one_record_per_pac_fits_a_cache_line() {
        assert!(std::mem::size_of::<PacRecord>() <= 64);
    }

    #[test]
    fn matrix_report_absorbs_rows_and_renders() {
        let mut matrix = MatrixReport::new("hmmer", 0.004, vec![1, 2], Policy::ALL.to_vec());
        let reports = MatrixScan::run(
            &Policy::ALL,
            ops_with_forged_load().into_iter(),
            PointerLayout::default(),
            &Telemetry::disabled(),
        );
        matrix.absorb("pac-tamper", &reports);
        matrix.absorb("pac-tamper", &reports);
        let entry = matrix.entry("pac-tamper").expect("row exists");
        for p in 0..Policy::ALL.len() {
            assert!(entry.detected(p));
            assert_eq!(entry.diagnostics(p), 2, "two seeds absorbed");
        }
        assert_eq!(matrix.ops_scanned, 6);
        let json = matrix.to_json();
        assert!(json.contains("\"aos-lint-matrix/v1\""));
        assert!(json.contains("\"pac-tamper\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = matrix.to_table();
        assert!(table.contains("pac-tamper"));
        assert!(table.contains("hit(2)"));
    }
}
