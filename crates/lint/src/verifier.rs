//! The AOS policy: the Fig. 7 / Algorithm 1 lifecycle state machine
//! per PAC, and the [`lint_stream`] front ends that run it alone.
//!
//! Its per-PAC state is the AOS slot of the record
//! [`MatrixScan`] holds per PAC; its global state — the strips
//! awaiting an `xpacm` and the live-record count and peak — lives
//! beside its report. A lint scan is a [`MatrixScan`] with only
//! [`Policy::Aos`] enabled, so it holds one record per PAC the policy
//! tracks (bounded by the PAC space, 2^16 under the default layout,
//! independent of trace length) and buffers no ops: composing it with
//! the [`aos_isa::stream`] adapters preserves the pipeline's
//! `O(window)` proof (see [`lint_stream_metered`]).

use std::num::NonZeroU64;

use aos_isa::stream::{BufferedOps, OpStream};
use aos_isa::Op;
use aos_ptrauth::{compute_ahc, PointerLayout};
use aos_util::Telemetry;

use crate::matrix::MatrixScan;
use crate::policy::{Policy, PolicyReport};
use crate::report::LintReport;
use crate::rules::Rule;

/// AOS's slot of a PAC record: the lifecycle state (Unsigned →
/// Signed → Bounds-live → Cleared → Re-signed-dangling) of one
/// signature.
///
/// `live` counts outstanding bounds records per AHC class (index =
/// AHC bits, 1..=3; index 0 is never populated because an unsigned
/// pointer carries no PAC). Counting — not a boolean — is what lets
/// PAC collisions (two live chunks signed into the same PAC) pass
/// clean, exactly as the real HBT stores both records.
#[derive(Debug, Default)]
pub(crate) struct PacState {
    /// Outstanding bounds records, by AHC class.
    live: [u32; 4],
    /// Size operand of a `pacma` still awaiting its paired `bndstr`
    /// (a size-0 sign never awaits one).
    pending_sign: Option<NonZeroU64>,
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

    /// Whether a `pacma` still awaits its `bndstr`.
    pub(crate) fn unpaired(&self) -> bool {
        self.pending_sign.is_some()
    }
}

/// The AOS policy's global state and findings.
#[derive(Debug)]
pub(crate) struct AosScan {
    /// `bndclr`s whose paired `xpacm` has not arrived yet. Global —
    /// `xpacm` takes no operand, so strips cannot be attributed to a
    /// PAC, only balanced in aggregate.
    pending_strips: u64,
    live_records: u64,
    peak_live_records: u64,
    pub(crate) findings: PolicyReport,
}

impl AosScan {
    pub(crate) fn new() -> Self {
        Self {
            pending_strips: 0,
            live_records: 0,
            peak_live_records: 0,
            findings: PolicyReport::new(Policy::Aos),
        }
    }

    /// Any `pacma`, signed or not, into `state`, its PAC's slot.
    pub(crate) fn pacma(
        &mut self,
        state: &mut PacState,
        layout: PointerLayout,
        index: u64,
        pointer: u64,
        size: u64,
    ) {
        let Some(size) = NonZeroU64::new(size) else {
            // Fig. 7b: the free site re-signs the dangling pointer
            // with an xzr size to lock it. Nothing to validate
            // statically — the pointer is *meant* to be poison now.
            state.resigned_dangling = true;
            return;
        };
        state.resigned_dangling = false;
        // Back-to-back signs without a bndstr in between surface as
        // the unpaired sign at end of stream; the newer size wins
        // for bndstr matching.
        state.pending_sign = Some(size);
        let ahc = layout.ahc(pointer);
        let expected = compute_ahc(layout.address(pointer), size.get(), layout.va_size());
        if ahc != expected.bits() {
            self.findings.emit(
                Rule::AhcSizeMismatch as usize,
                index,
                layout.pac(pointer),
                format!(
                    "pacma size {size} implies AHC class {} but pointer carries {ahc}",
                    expected.bits()
                ),
            );
        }
    }

    /// A `bndstr` of an unsigned pointer.
    pub(crate) fn unsigned_bndstr(&mut self, index: u64) {
        let detail = "bndstr of an unsigned pointer".to_string();
        self.findings
            .emit(Rule::BndstrWithoutPacma as usize, index, 0, detail);
    }

    /// A signed `bndstr` in class `ahc`.
    pub(crate) fn bndstr(
        &mut self,
        state: &mut PacState,
        index: u64,
        pac: u64,
        ahc: usize,
        size: u64,
    ) {
        let rule = Rule::BndstrWithoutPacma as usize;
        match state.pending_sign.take() {
            Some(signed) if signed.get() == size => {}
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
        state.live[ahc] += 1;
        state.ever_stored = true;
        state.resigned_dangling = false;
        self.live_records += 1;
        self.peak_live_records = self.peak_live_records.max(self.live_records);
    }

    /// Any `bndclr`: Fig. 7b pairs every clear with a strip; balance
    /// is checked globally because xpacm carries no operand.
    pub(crate) fn note_clear(&mut self) {
        self.pending_strips += 1;
    }

    /// A `bndclr` of an unsigned pointer.
    pub(crate) fn unsigned_bndclr(&mut self, index: u64) {
        let detail = "bndclr of an unsigned pointer".to_string();
        self.findings
            .emit(Rule::UnknownPac as usize, index, 0, detail);
    }

    /// A signed `bndclr` in class `ahc`; `state` is the PAC's slot if
    /// AOS tracks the PAC.
    pub(crate) fn bndclr(
        &mut self,
        state: Option<&mut PacState>,
        index: u64,
        pac: u64,
        ahc: usize,
    ) {
        match state {
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

    /// An `xpacm`.
    pub(crate) fn xpacm(&mut self, index: u64) {
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

    /// A signed access in class `ahc`; `state` is the PAC's slot if
    /// AOS tracks the PAC.
    pub(crate) fn access(&mut self, state: Option<&PacState>, index: u64, pac: u64, ahc: usize) {
        let (rule, detail) = match state {
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

    /// Closes the stream at op index `end`: the end-of-stream balance
    /// findings, with the unpaired signs' PACs in ascending order.
    pub(crate) fn close(&mut self, end: u64, unpaired: &[u64]) {
        if self.pending_strips > 0 {
            let detail = format!(
                "{} bndclr(s) with no matching xpacm at end of stream",
                self.pending_strips
            );
            self.findings
                .emit(Rule::UnbalancedAtEnd as usize, end, 0, detail);
        }
        for &pac in unpaired {
            self.findings.emit(
                Rule::UnbalancedAtEnd as usize,
                end,
                pac,
                "pacma with no matching bndstr at end of stream".to_string(),
            );
        }
    }

    /// The closed scan as a [`LintReport`] around its `findings`.
    pub(crate) fn into_lint_report(self, findings: PolicyReport) -> LintReport {
        LintReport {
            findings,
            live_records_at_end: self.live_records,
            peak_live_records: self.peak_live_records,
            pipeline_peak_buffered_ops: 0,
        }
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
    let mut scan = MatrixScan::new(&[Policy::Aos], layout);
    for op in stream {
        scan.scan(&op);
    }
    scan.into_lint_report(telemetry)
}
