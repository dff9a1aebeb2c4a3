//! The streaming abstract interpreter: per-PAC lifecycle state
//! machines driven by one forward scan of an [`Op`] stream.
//!
//! Memory discipline: the linter holds one small `PacState` per
//! *distinct PAC observed* — bounded by the PAC space (2^16 under the
//! default layout), independent of trace length — plus O(1) global
//! state. It buffers no ops, so composing it with the
//! [`aos_isa::stream`] adapters preserves the pipeline's `O(window)`
//! proof (see [`lint_stream_metered`]).

use aos_isa::stream::{BufferedOps, OpStream};
use aos_isa::Op;
use aos_ptrauth::{compute_ahc, PointerLayout};
use aos_util::hash::PacMap;
use aos_util::Telemetry;

use crate::policy::{Policy, PolicyReport, PolicyVerifier};
use crate::report::LintReport;
use crate::rules::Rule;

/// Lifecycle state for one PAC: the abstract value the interpreter
/// tracks per distinct signature it has seen.
///
/// `live` counts outstanding bounds records per AHC class (index =
/// AHC bits, 1..=3; index 0 is never populated because an unsigned
/// pointer carries no PAC). Counting — not a boolean — is what lets
/// PAC collisions (two live chunks signed into the same PAC) pass
/// clean, exactly as the real HBT stores both records.
#[derive(Debug, Default, Clone)]
struct PacState {
    /// Outstanding bounds records, by AHC class.
    live: [u32; 4],
    /// Size operand of a `pacma` still awaiting its paired `bndstr`.
    pending_sign: Option<u64>,
    /// A `bndstr` has ever recorded bounds under this PAC.
    ever_stored: bool,
    /// The last event was the free-site re-`pacma` (size 0) that
    /// locks a dangling pointer (Fig. 7b).
    resigned_dangling: bool,
}

impl PacState {
    fn total_live(&self) -> u32 {
        self.live.iter().sum()
    }
}

/// The streaming protocol verifier: the [`Policy::Aos`]
/// [`PolicyVerifier`]. Feed ops with [`PolicyVerifier::scan`], then
/// [`Linter::into_report`] for the [`LintReport`] — or use the
/// [`lint_stream`] / [`lint_stream_metered`] front ends.
#[derive(Debug)]
pub struct Linter {
    layout: PointerLayout,
    pacs: PacMap<PacState>,
    /// `bndclr`s whose paired `xpacm` has not arrived yet. Global —
    /// `xpacm` takes no operand, so strips cannot be attributed to a
    /// PAC, only balanced in aggregate.
    pending_strips: u64,
    findings: PolicyReport,
    live_records: u64,
    peak_live_records: u64,
}

impl PolicyVerifier for Linter {
    fn policy(&self) -> Policy {
        Policy::Aos
    }

    fn scan(&mut self, op: &Op) {
        let index = self.findings.ops_scanned;
        self.findings.ops_scanned += 1;
        match *op {
            Op::Pacma { pointer, size } => self.pacma(index, pointer, size),
            Op::BndStr { pointer, size } => self.bndstr(index, pointer, size),
            Op::BndClr { pointer } => self.bndclr(index, pointer),
            Op::Xpacm => self.xpacm(index),
            Op::Load { pointer, .. } | Op::Store { pointer, .. } | Op::Autm { pointer } => {
                self.access(index, pointer)
            }
            // Compute, branch, generic-PA and Watchdog ops carry no
            // AOS protocol obligations.
            _ => {}
        }
    }

    fn finish(self: Box<Self>, telemetry: &Telemetry) -> PolicyReport {
        self.into_report(telemetry).findings
    }
}

impl Linter {
    /// A fresh linter for streams using `layout`'s pointer encoding.
    pub fn new(layout: PointerLayout) -> Self {
        Self {
            layout,
            pacs: PacMap::default(),
            pending_strips: 0,
            findings: PolicyReport::new(Policy::Aos),
            live_records: 0,
            peak_live_records: 0,
        }
    }

    /// Closes the stream: emits the end-of-stream balance findings
    /// and produces the report. Counters land on `telemetry` (use
    /// [`Telemetry::disabled`] to opt out).
    pub fn into_report(mut self, telemetry: &Telemetry) -> LintReport {
        let end = self.findings.ops_scanned;
        if self.pending_strips > 0 {
            let detail = format!(
                "{} bndclr(s) with no matching xpacm at end of stream",
                self.pending_strips
            );
            self.findings
                .emit(Rule::UnbalancedAtEnd as usize, end, 0, detail);
        }
        // Map order is unspecified; PAC order keeps the report
        // (and its digest) identical.
        let mut unpaired: Vec<u64> = self
            .pacs
            .iter()
            .filter(|(_, s)| s.pending_sign.is_some())
            .map(|(&pac, _)| pac)
            .collect();
        unpaired.sort_unstable();
        for pac in unpaired {
            self.findings.emit(
                Rule::UnbalancedAtEnd as usize,
                end,
                pac,
                "pacma with no matching bndstr at end of stream".to_string(),
            );
        }
        LintReport {
            findings: self.findings.into_report(self.pacs.len(), telemetry),
            live_records_at_end: self.live_records,
            peak_live_records: self.peak_live_records,
            pipeline_peak_buffered_ops: 0,
        }
    }

    fn pacma(&mut self, index: u64, pointer: u64, size: u64) {
        let pac = self.layout.pac(pointer);
        let entry = self.pacs.entry(pac).or_default();
        if size == 0 {
            // Fig. 7b: the free site re-signs the dangling pointer
            // with an xzr size to lock it. Nothing to validate
            // statically — the pointer is *meant* to be poison now.
            entry.resigned_dangling = true;
            return;
        }
        entry.resigned_dangling = false;
        // Back-to-back signs without a bndstr in between surface as
        // the unpaired sign at end of stream; the newer size wins
        // for bndstr matching.
        entry.pending_sign = Some(size);
        let ahc = self.layout.ahc(pointer);
        let expected = compute_ahc(self.layout.address(pointer), size, self.layout.va_size());
        if ahc != expected.bits() {
            self.findings.emit(
                Rule::AhcSizeMismatch as usize,
                index,
                pac,
                format!(
                    "pacma size {size} implies AHC class {} but pointer carries {ahc}",
                    expected.bits()
                ),
            );
        }
    }

    fn bndstr(&mut self, index: u64, pointer: u64, size: u64) {
        let rule = Rule::BndstrWithoutPacma as usize;
        if !self.layout.is_signed(pointer) {
            let detail = "bndstr of an unsigned pointer".to_string();
            self.findings.emit(rule, index, 0, detail);
            return;
        }
        let pac = self.layout.pac(pointer);
        let ahc = self.layout.ahc(pointer) as usize;
        let entry = self.pacs.entry(pac).or_default();
        match entry.pending_sign.take() {
            Some(signed) if signed == size => {}
            Some(signed) => self.findings.emit(
                rule,
                index,
                pac,
                format!("bndstr size {size} disagrees with pacma size {signed}"),
            ),
            None => self.findings.emit(
                rule,
                index,
                pac,
                "no preceding pacma signed this PAC".to_string(),
            ),
        }
        // Record the bounds regardless: the HBT would.
        entry.live[ahc & 3] += 1;
        entry.ever_stored = true;
        entry.resigned_dangling = false;
        self.live_records += 1;
        self.peak_live_records = self.peak_live_records.max(self.live_records);
    }

    fn bndclr(&mut self, index: u64, pointer: u64) {
        // Fig. 7b pairs every clear with a strip; balance is checked
        // globally because xpacm carries no operand.
        self.pending_strips += 1;
        if !self.layout.is_signed(pointer) {
            let detail = "bndclr of an unsigned pointer".to_string();
            self.findings
                .emit(Rule::UnknownPac as usize, index, 0, detail);
            return;
        }
        let pac = self.layout.pac(pointer);
        let ahc = self.layout.ahc(pointer) as usize & 3;
        match self.pacs.get_mut(&pac) {
            None => self.findings.emit(
                Rule::UnknownPac as usize,
                index,
                pac,
                "bndclr through a PAC no pacma produced".to_string(),
            ),
            Some(entry) if entry.total_live() == 0 => self.findings.emit(
                Rule::DoubleBndclr as usize,
                index,
                pac,
                "bndclr with no live bounds record under this PAC".to_string(),
            ),
            Some(entry) => {
                self.live_records = self.live_records.saturating_sub(1);
                if entry.live[ahc] > 0 {
                    entry.live[ahc] -= 1;
                } else {
                    // Some record exists, just not in this AHC class:
                    // clear one anyway (fail-open on the count, flag
                    // the class).
                    if let Some(slot) = entry.live.iter_mut().find(|c| **c > 0) {
                        *slot -= 1;
                    }
                    self.findings.emit(
                        Rule::AccessAhcMismatch as usize,
                        index,
                        pac,
                        format!("bndclr selects AHC class {ahc} but no record lives there"),
                    );
                }
            }
        }
    }

    fn xpacm(&mut self, index: u64) {
        if self.pending_strips == 0 {
            self.findings.emit(
                Rule::XpacmWithoutBndclr as usize,
                index,
                0,
                "xpacm with no outstanding bndclr".to_string(),
            );
        } else {
            self.pending_strips -= 1;
        }
    }

    fn access(&mut self, index: u64, pointer: u64) {
        if !self.layout.is_signed(pointer) {
            return;
        }
        let pac = self.layout.pac(pointer);
        let ahc = self.layout.ahc(pointer) as usize & 3;
        let (rule, detail) = match self.pacs.get(&pac) {
            None => (
                Rule::UnknownPac,
                "access through a PAC no pacma produced".to_string(),
            ),
            Some(entry) if entry.total_live() == 0 => {
                if entry.ever_stored || entry.resigned_dangling {
                    (
                        Rule::AccessAfterClear,
                        "access after every bounds record under this PAC was cleared".to_string(),
                    )
                } else {
                    (
                        Rule::UseBeforeBndstr,
                        "access between pacma and its bndstr".to_string(),
                    )
                }
            }
            Some(entry) if entry.live[ahc] == 0 => (
                Rule::AccessAhcMismatch,
                format!("access selects AHC class {ahc} but no record lives there"),
            ),
            Some(_) => return,
        };
        self.findings.emit(rule as usize, index, pac, detail);
    }
}

/// Lints a whole stream in one pass. O(live-PACs) memory: the stream
/// is consumed op by op and never materialized.
pub fn lint_stream(stream: impl Iterator<Item = Op>, layout: PointerLayout) -> LintReport {
    scan_all(stream, layout, &Telemetry::disabled())
}

/// The metered front end: wraps the stream in
/// [`aos_isa::stream::Metered`], lints it with the scan counters
/// recorded on `telemetry`, and records the pipeline's buffering
/// high-water mark in the report — the executable proof that linting
/// added no trace materialization on top of the producer's own
/// `O(window)`.
pub fn lint_stream_metered<I>(stream: I, layout: PointerLayout, telemetry: &Telemetry) -> LintReport
where
    I: Iterator<Item = Op> + BufferedOps,
{
    let mut metered = stream.metered();
    let mut report = scan_all(&mut metered, layout, telemetry);
    debug_assert_eq!(report.findings.ops_scanned, metered.ops());
    report.pipeline_peak_buffered_ops = metered.peak_buffered_ops();
    report
}

fn scan_all(
    stream: impl Iterator<Item = Op>,
    layout: PointerLayout,
    telemetry: &Telemetry,
) -> LintReport {
    let mut linter = Linter::new(layout);
    for op in stream {
        linter.scan(&op);
    }
    linter.into_report(telemetry)
}
