//! The streaming abstract interpreter: per-PAC lifecycle state
//! machines driven by one forward scan of an [`Op`] stream.
//!
//! Memory discipline: the linter holds one small `PacState` per
//! *distinct PAC observed* — bounded by the PAC space (2^16 under the
//! default layout), independent of trace length — plus O(1) global
//! state. It buffers no ops, so composing it with the
//! [`aos_isa::stream`] adapters preserves the pipeline's `O(window)`
//! proof (see [`Linting`]).

use std::collections::HashMap;

use aos_isa::stream::{BufferedOps, OpStream};
use aos_isa::Op;
use aos_ptrauth::{compute_ahc, PointerLayout};
use aos_util::{Counter, Telemetry};

use crate::report::LintReport;
use crate::rules::{Diagnostic, Rule};

/// Cap on *stored* [`Diagnostic`]s. Per-rule counts in the report are
/// always exact; beyond the cap further findings only increment
/// counters (`LintReport::dropped_diagnostics` says how many), so a
/// pathological stream cannot make the linter's memory grow with its
/// violation count.
pub const MAX_STORED_DIAGNOSTICS: usize = 256;

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

/// The streaming protocol verifier. Feed ops with [`Linter::scan`],
/// then [`Linter::finish`] for the [`LintReport`] — or use the
/// [`lint_stream`] / [`Linting`] front ends.
#[derive(Debug)]
pub struct Linter {
    layout: PointerLayout,
    pacs: HashMap<u64, PacState>,
    /// `bndclr`s whose paired `xpacm` has not arrived yet. Global —
    /// `xpacm` takes no operand, so strips cannot be attributed to a
    /// PAC, only balanced in aggregate.
    pending_strips: u64,
    ops_scanned: u64,
    rule_counts: [u64; Rule::COUNT],
    diagnostics: Vec<Diagnostic>,
    dropped_diagnostics: u64,
    live_records: u64,
    peak_live_records: u64,
}

impl Linter {
    /// A fresh linter for streams using `layout`'s pointer encoding.
    pub fn new(layout: PointerLayout) -> Self {
        Self {
            layout,
            pacs: HashMap::new(),
            pending_strips: 0,
            ops_scanned: 0,
            rule_counts: [0; Rule::COUNT],
            diagnostics: Vec::new(),
            dropped_diagnostics: 0,
            live_records: 0,
            peak_live_records: 0,
        }
    }

    /// Distinct PACs currently tracked — the linter's O(live-PACs)
    /// memory bound, surfaced so tests can assert it.
    pub fn tracked_pacs(&self) -> usize {
        self.pacs.len()
    }

    /// Ops scanned so far.
    pub fn ops_scanned(&self) -> u64 {
        self.ops_scanned
    }

    /// Advances the abstract interpretation by one op.
    pub fn scan(&mut self, op: &Op) {
        let index = self.ops_scanned;
        self.ops_scanned += 1;
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

    /// Closes the stream: emits the end-of-stream balance findings
    /// and produces the report. Counters land on `telemetry` (use
    /// [`Telemetry::disabled`] to opt out).
    pub fn finish(mut self, telemetry: &Telemetry) -> LintReport {
        if self.pending_strips > 0 {
            let detail = format!(
                "{} bndclr(s) with no matching xpacm at end of stream",
                self.pending_strips
            );
            self.emit(Rule::UnbalancedAtEnd, self.ops_scanned, 0, detail);
        }
        let unpaired: Vec<u64> = self
            .pacs
            .iter()
            .filter(|(_, s)| s.pending_sign.is_some())
            .map(|(&pac, _)| pac)
            .collect();
        for pac in unpaired {
            self.emit(
                Rule::UnbalancedAtEnd,
                self.ops_scanned,
                pac,
                "pacma with no matching bndstr at end of stream".to_string(),
            );
        }
        telemetry.add(Counter::LintOpsScanned, self.ops_scanned);
        telemetry.add(
            Counter::LintDiagnostics,
            self.rule_counts.iter().sum::<u64>(),
        );
        LintReport {
            ops_scanned: self.ops_scanned,
            rule_counts: self.rule_counts,
            diagnostics: self.diagnostics,
            dropped_diagnostics: self.dropped_diagnostics,
            distinct_pacs: self.pacs.len(),
            live_records_at_end: self.live_records,
            peak_live_records: self.peak_live_records,
            pipeline_peak_buffered_ops: 0,
        }
    }

    fn emit(&mut self, rule: Rule, op_index: u64, pac: u64, detail: String) {
        self.rule_counts[rule as usize] += 1;
        if self.diagnostics.len() < MAX_STORED_DIAGNOSTICS {
            self.diagnostics.push(Diagnostic {
                rule,
                op_index,
                pac,
                severity: rule.severity(),
                detail,
            });
        } else {
            self.dropped_diagnostics += 1;
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
            self.emit(
                Rule::AhcSizeMismatch,
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
        if !self.layout.is_signed(pointer) {
            self.emit(
                Rule::BndstrWithoutPacma,
                index,
                0,
                "bndstr of an unsigned pointer".to_string(),
            );
            return;
        }
        let pac = self.layout.pac(pointer);
        let ahc = self.layout.ahc(pointer) as usize;
        let entry = self.pacs.entry(pac).or_default();
        match entry.pending_sign.take() {
            Some(signed) if signed == size => {}
            Some(signed) => self.emit(
                Rule::BndstrWithoutPacma,
                index,
                pac,
                format!("bndstr size {size} disagrees with pacma size {signed}"),
            ),
            None => self.emit(
                Rule::BndstrWithoutPacma,
                index,
                pac,
                "no preceding pacma signed this PAC".to_string(),
            ),
        }
        // Record the bounds regardless: the HBT would.
        let entry = self.pacs.entry(pac).or_default();
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
            self.emit(
                Rule::UnknownPac,
                index,
                0,
                "bndclr of an unsigned pointer".to_string(),
            );
            return;
        }
        let pac = self.layout.pac(pointer);
        let ahc = self.layout.ahc(pointer) as usize & 3;
        // Resolve against the state first, emit after: `emit` needs
        // the whole linter, so the map borrow must end before it.
        enum Clr {
            Unknown,
            Double,
            WrongClass,
            Ok,
        }
        let outcome = match self.pacs.get_mut(&pac) {
            None => Clr::Unknown,
            Some(entry) if entry.total_live() == 0 => Clr::Double,
            Some(entry) => {
                if entry.live[ahc] > 0 {
                    entry.live[ahc] -= 1;
                    Clr::Ok
                } else {
                    // Some record exists, just not in this AHC class:
                    // clear one anyway (fail-open on the count, flag
                    // the class).
                    if let Some(slot) = entry.live.iter_mut().find(|c| **c > 0) {
                        *slot -= 1;
                    }
                    Clr::WrongClass
                }
            }
        };
        match outcome {
            Clr::Unknown => self.emit(
                Rule::UnknownPac,
                index,
                pac,
                "bndclr through a PAC no pacma produced".to_string(),
            ),
            Clr::Double => self.emit(
                Rule::DoubleBndclr,
                index,
                pac,
                "bndclr with no live bounds record under this PAC".to_string(),
            ),
            Clr::WrongClass => {
                self.live_records = self.live_records.saturating_sub(1);
                self.emit(
                    Rule::AccessAhcMismatch,
                    index,
                    pac,
                    format!("bndclr selects AHC class {ahc} but no record lives there"),
                );
            }
            Clr::Ok => self.live_records = self.live_records.saturating_sub(1),
        }
    }

    fn xpacm(&mut self, index: u64) {
        if self.pending_strips == 0 {
            self.emit(
                Rule::XpacmWithoutBndclr,
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
        let rule = match self.pacs.get(&pac) {
            None => Some(Rule::UnknownPac),
            Some(entry) if entry.total_live() == 0 => {
                if entry.ever_stored || entry.resigned_dangling {
                    Some(Rule::AccessAfterClear)
                } else {
                    Some(Rule::UseBeforeBndstr)
                }
            }
            Some(entry) if entry.live[ahc] == 0 => Some(Rule::AccessAhcMismatch),
            Some(_) => None,
        };
        match rule {
            Some(Rule::UnknownPac) => self.emit(
                Rule::UnknownPac,
                index,
                pac,
                "access through a PAC no pacma produced".to_string(),
            ),
            Some(Rule::AccessAfterClear) => self.emit(
                Rule::AccessAfterClear,
                index,
                pac,
                "access after every bounds record under this PAC was cleared".to_string(),
            ),
            Some(Rule::UseBeforeBndstr) => self.emit(
                Rule::UseBeforeBndstr,
                index,
                pac,
                "access between pacma and its bndstr".to_string(),
            ),
            Some(rule) => self.emit(
                rule,
                index,
                pac,
                format!("access selects AHC class {ahc} but no record lives there"),
            ),
            None => {}
        }
    }
}

/// Lints a whole stream in one pass. O(live-PACs) memory: the stream
/// is consumed op by op and never materialized.
pub fn lint_stream(stream: impl Iterator<Item = Op>, layout: PointerLayout) -> LintReport {
    lint_stream_with_telemetry(stream, layout, &Telemetry::disabled())
}

/// [`lint_stream`] with the scan counters recorded on `telemetry`.
pub fn lint_stream_with_telemetry(
    stream: impl Iterator<Item = Op>,
    layout: PointerLayout,
    telemetry: &Telemetry,
) -> LintReport {
    let mut linter = Linter::new(layout);
    for op in stream {
        linter.scan(&op);
    }
    linter.finish(telemetry)
}

/// The metered front end: wraps the stream in
/// [`aos_isa::stream::Metered`], lints it, and records the pipeline's
/// buffering high-water mark in the report — the executable proof
/// that linting added no trace materialization on top of the
/// producer's own `O(window)`.
pub fn lint_stream_metered<I>(stream: I, layout: PointerLayout, telemetry: &Telemetry) -> LintReport
where
    I: Iterator<Item = Op> + BufferedOps,
{
    let mut metered = stream.metered();
    let mut linter = Linter::new(layout);
    for op in &mut metered {
        linter.scan(&op);
    }
    let mut report = linter.finish(telemetry);
    debug_assert_eq!(report.ops_scanned, metered.ops());
    report.pipeline_peak_buffered_ops = metered.peak_buffered_ops();
    report
}

/// A transparent pass-through adapter: ops flow to the consumer
/// unchanged while the linter observes them, so a stream can be
/// linted *and* simulated in the same single pass. Buffers nothing —
/// its [`BufferedOps`] impl delegates straight to the inner stream.
#[derive(Debug)]
pub struct Linting<I> {
    inner: I,
    linter: Linter,
}

impl<I> Linting<I> {
    /// Wraps `inner`, linting every op that flows through.
    pub fn new(inner: I, layout: PointerLayout) -> Self {
        Self {
            inner,
            linter: Linter::new(layout),
        }
    }

    /// The linter's live state (e.g. for mid-stream assertions).
    pub fn linter(&self) -> &Linter {
        &self.linter
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &I {
        &self.inner
    }

    /// Finishes the scan and returns the report. Call after the
    /// consumer has drained the stream.
    pub fn into_report(self, telemetry: &Telemetry) -> LintReport {
        self.linter.finish(telemetry)
    }
}

impl<I: Iterator<Item = Op>> Iterator for Linting<I> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let op = self.inner.next()?;
        self.linter.scan(&op);
        Some(op)
    }
}

impl<I: BufferedOps> BufferedOps for Linting<I> {
    fn peak_buffered_ops(&self) -> usize {
        self.inner.peak_buffered_ops()
    }
}
