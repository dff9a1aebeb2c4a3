//! Static verification of the AOS instrumentation protocol.
//!
//! The paper's security argument assumes the compiler emits the
//! Fig. 7 lifecycle correctly — `pacma` + `bndstr` after malloc,
//! `bndclr` + `xpacm` before the free body, a size-0 re-`pacma` to
//! lock the dangling pointer — and that AHC bits encode Algorithm 1
//! of the allocation size. The simulator only checks those invariants
//! *dynamically*: a malformed trace and a real violation look the
//! same until a machine replays them. This crate closes the gap with
//! a **streaming abstract interpreter** over [`Op`](aos_isa::Op)
//! streams:
//!
//! - [`lint_stream`] / [`lint_stream_metered`] run one per-PAC
//!   lifecycle state machine (Unsigned → Signed → Bounds-live →
//!   Cleared → Re-signed-dangling) per distinct PAC observed —
//!   `O(live-PACs)` memory, no trace materialization, same discipline
//!   as [`aos_isa::stream`];
//! - [`Rule`] names each protocol obligation and indexes its entry in
//!   [`registry::AOS_RULES`]; violations surface as
//!   [`PolicyDiagnostic`]s in a [`LintReport`] with exact per-rule
//!   counts and stable `aos-lint-report/v1` JSON;
//! - scan counters thread through [`aos_util::telemetry`]
//!   (`lint_ops_scanned`, `lint_diagnostics`).
//!
//! The fault campaign uses the linter as a second, independent
//! detector: temporal faults and metadata forgeries (UAF, double
//! free, PAC tamper, AHC forge) are *statically* visible protocol
//! breaks, while spatial overflows/underflows are clean protocol
//! streams whose addresses are simply wrong — runtime phenomena only
//! the HBT bounds check can catch. `aos_fault` pins that split.
//!
//! The AOS lifecycle is one of four static policies: the [`policy`]
//! module adds abstract models of CryptSan (lock-and-key), PACSan
//! (PAC-sealed shadow) and PACTight (pointer integrity), each encoding
//! what that paper's instrumentation can and cannot prove about a
//! trace, each counting its findings into a [`PolicyReport`]. One
//! scanner runs them all: a [`MatrixScan`] over any subset of
//! [`Policy::ALL`] decodes each op once, probes one per-PAC record
//! once and runs each enabled policy on its slot of that record; a
//! lint scan is the same scanner with only [`Policy::Aos`] enabled.
//! The [`matrix`] module also renders the policy × rule × fault-kind
//! detection matrix (`aos-lint-matrix/v1`); per-policy rule metadata
//! lives in the shared [`registry`].
//!
//! # Examples
//!
//! ```
//! use aos_isa::Op;
//! use aos_lint::{lint_stream, Rule};
//! use aos_ptrauth::PointerLayout;
//!
//! let layout = PointerLayout::default();
//! let ptr = layout.compose(0x1000, 0xbeef, 1);
//! // A well-formed malloc + use + free lifecycle lints clean.
//! let ops = [
//!     Op::Pacma { pointer: ptr, size: 32 },
//!     Op::BndStr { pointer: ptr, size: 32 },
//!     Op::Load { pointer: ptr, bytes: 8, chained: false },
//!     Op::BndClr { pointer: ptr },
//!     Op::Xpacm,
//!     Op::Pacma { pointer: ptr, size: 0 },
//! ];
//! assert!(lint_stream(ops.into_iter(), layout).findings.clean());
//!
//! // A second bndclr is the static shadow of a double free.
//! let double_free = ops.into_iter().chain([Op::BndClr { pointer: ptr }]);
//! let report = lint_stream(double_free, layout);
//! assert_eq!(report.count(Rule::DoubleBndclr), 1);
//! ```

pub mod matrix;
pub mod policy;
pub mod registry;
pub mod report;
pub mod rules;
pub mod verifier;

pub use matrix::{MatrixEntry, MatrixReport, MatrixScan};
pub use policy::{Policy, PolicyDiagnostic, PolicyReport, MAX_STORED_DIAGNOSTICS};
pub use registry::RuleInfo;
pub use report::LintReport;
pub use rules::{Rule, Severity};
pub use verifier::{lint_stream, lint_stream_metered};

#[cfg(test)]
mod tests {
    use aos_isa::stream::{OpStream, Splice};
    use aos_isa::Op;
    use aos_ptrauth::{compute_ahc, PointerLayout};
    use aos_util::{Counter, Telemetry};

    use super::*;

    fn layout() -> PointerLayout {
        PointerLayout::default()
    }

    /// A pointer whose AHC bits honestly encode Algorithm 1 for
    /// `size`, as the signer would produce.
    fn signed(addr: u64, pac: u64, size: u64) -> u64 {
        let ahc = compute_ahc(addr, size, layout().va_size()).bits();
        layout().compose(addr, pac, ahc)
    }

    fn malloc(ptr: u64, size: u64) -> [Op; 2] {
        [
            Op::Pacma { pointer: ptr, size },
            Op::BndStr { pointer: ptr, size },
        ]
    }

    fn free(ptr: u64) -> [Op; 3] {
        [
            Op::BndClr { pointer: ptr },
            Op::Xpacm,
            Op::Pacma {
                pointer: ptr,
                size: 0,
            },
        ]
    }

    fn load(ptr: u64) -> Op {
        Op::Load {
            pointer: ptr,
            bytes: 8,
            chained: false,
        }
    }

    fn lint(ops: impl IntoIterator<Item = Op>) -> LintReport {
        lint_stream(ops.into_iter(), layout())
    }

    #[test]
    fn full_lifecycle_is_clean() {
        let p = signed(0x4000, 7, 64);
        let ops: Vec<Op> = malloc(p, 64)
            .into_iter()
            .chain([
                load(p),
                Op::Store {
                    pointer: p + 8,
                    bytes: 8,
                },
            ])
            .chain(free(p))
            .collect();
        let report = lint(ops);
        assert!(report.findings.clean(), "{}", report.to_table());
        assert_eq!(report.findings.ops_scanned, 7);
        assert_eq!(report.findings.tracked_pacs, 1);
        assert_eq!(report.live_records_at_end, 0);
        assert_eq!(report.peak_live_records, 1);
    }

    #[test]
    fn unfreed_allocations_at_exit_are_not_findings() {
        let p = signed(0x4000, 7, 64);
        let ops: Vec<Op> = malloc(p, 64).into_iter().chain([load(p)]).collect();
        let report = lint(ops);
        assert!(report.findings.clean(), "{}", report.to_table());
        assert_eq!(report.live_records_at_end, 1);
    }

    #[test]
    fn use_after_free_is_access_after_clear() {
        let p = signed(0x4000, 7, 64);
        let ops: Vec<Op> = malloc(p, 64)
            .into_iter()
            .chain(free(p))
            .chain([load(p)])
            .collect();
        let report = lint(ops);
        assert_eq!(report.count(Rule::AccessAfterClear), 1);
        assert_eq!(report.findings.diagnostics[0].op_index, 5);
        assert_eq!(report.findings.diagnostics[0].pac, 7);
    }

    #[test]
    fn double_free_is_double_bndclr() {
        let p = signed(0x4000, 7, 64);
        let ops: Vec<Op> = malloc(p, 64)
            .into_iter()
            .chain(free(p))
            .chain([Op::BndClr { pointer: p }])
            .collect();
        let report = lint(ops);
        assert_eq!(report.count(Rule::DoubleBndclr), 1);
        // The unmatched second clear also leaves the strip balance
        // open at end of stream.
        assert_eq!(report.count(Rule::UnbalancedAtEnd), 1);
    }

    #[test]
    fn forged_pac_is_unknown() {
        let p = signed(0x4000, 7, 64);
        let forged = signed(0x4000, 0x1234, 64);
        let ops: Vec<Op> = malloc(p, 64).into_iter().chain([load(forged)]).collect();
        let report = lint(ops);
        assert_eq!(report.count(Rule::UnknownPac), 1);
        assert_eq!(report.findings.diagnostics[0].pac, 0x1234);
    }

    #[test]
    fn access_before_bndstr_is_flagged() {
        let p = signed(0x4000, 7, 64);
        let ops = [
            Op::Pacma {
                pointer: p,
                size: 64,
            },
            load(p),
        ];
        let report = lint(ops);
        assert_eq!(report.count(Rule::UseBeforeBndstr), 1);
        // ... and the unpaired sign surfaces at end of stream.
        assert_eq!(report.count(Rule::UnbalancedAtEnd), 1);
    }

    #[test]
    fn unpaired_signs_at_end_are_reported_in_pac_order() {
        let pacs = [0x9000, 7, 0x42, 0x1234, 3];
        let ops = pacs.map(|pac| Op::Pacma {
            pointer: signed(0x4000, pac, 64),
            size: 64,
        });
        let report = lint(ops);
        let reported: Vec<u64> = report.findings.diagnostics.iter().map(|d| d.pac).collect();
        assert_eq!(reported, [3, 7, 0x42, 0x1234, 0x9000]);
    }

    #[test]
    fn lying_size_operand_is_ahc_mismatch() {
        // Sign with AHC honest for 16 bytes, then claim 1 MiB.
        let p = signed(0x4000, 7, 16);
        let report = lint([Op::Pacma {
            pointer: p,
            size: 1 << 20,
        }]);
        assert_eq!(report.count(Rule::AhcSizeMismatch), 1);
    }

    #[test]
    fn bare_xpacm_and_bare_bndstr_are_flagged() {
        let p = signed(0x4000, 7, 64);
        let report = lint([Op::Xpacm]);
        assert_eq!(report.count(Rule::XpacmWithoutBndclr), 1);
        let report = lint([Op::BndStr {
            pointer: p,
            size: 64,
        }]);
        assert_eq!(report.count(Rule::BndstrWithoutPacma), 1);
    }

    #[test]
    fn bndstr_size_must_match_pacma_size() {
        let p = signed(0x4000, 7, 64);
        let report = lint([
            Op::Pacma {
                pointer: p,
                size: 64,
            },
            Op::BndStr {
                pointer: p,
                size: 32,
            },
        ]);
        assert_eq!(report.count(Rule::BndstrWithoutPacma), 1);
        assert!(report.findings.diagnostics[0].detail.contains("disagrees"));
    }

    #[test]
    fn pac_collisions_with_distinct_ahc_classes_stay_clean() {
        // Two live chunks under one PAC, different AHC classes —
        // the HBT stores both; so does the abstract state.
        let small = signed(0x4000, 7, 16);
        let large = signed(0x8000, 7, 1 << 13);
        assert_ne!(layout().ahc(small), layout().ahc(large));
        let ops: Vec<Op> = malloc(small, 16)
            .into_iter()
            .chain(malloc(large, 1 << 13))
            .chain([load(small), load(large)])
            .chain(free(large))
            .chain([load(small)])
            .chain(free(small))
            .collect();
        let report = lint(ops);
        assert!(report.findings.clean(), "{}", report.to_table());
    }

    #[test]
    fn access_in_the_wrong_ahc_class_is_flagged() {
        let small = signed(0x4000, 7, 16);
        let wrong_class = layout().compose(0x4000, 7, 3);
        let ops: Vec<Op> = malloc(small, 16)
            .into_iter()
            .chain([load(wrong_class)])
            .collect();
        let report = lint(ops);
        assert_eq!(report.count(Rule::AccessAhcMismatch), 1);
    }

    #[test]
    fn unsigned_accesses_are_ignored() {
        let report = lint([
            load(0x4000),
            Op::Store {
                pointer: 0x8000,
                bytes: 4,
            },
            Op::IntAlu,
            Op::PacCrypto,
        ]);
        assert!(report.findings.clean());
        assert_eq!(report.findings.tracked_pacs, 0);
    }

    #[test]
    fn diagnostic_storage_is_capped_but_counts_are_exact() {
        let p = signed(0x4000, 7, 64);
        let n = MAX_STORED_DIAGNOSTICS as u64 + 100;
        let ops = std::iter::repeat_n(load(p), n as usize);
        let report = lint_stream(ops, layout());
        assert_eq!(report.count(Rule::UnknownPac), n);
        assert_eq!(report.findings.diagnostics.len(), MAX_STORED_DIAGNOSTICS);
        assert_eq!(report.findings.dropped_diagnostics, 100);
    }

    #[test]
    fn telemetry_counters_record_the_scan() {
        let p = signed(0x4000, 7, 64);
        let t = Telemetry::enabled();
        let ops: Vec<Op> = malloc(p, 64)
            .into_iter()
            .chain(free(p))
            .chain([load(p)])
            .collect();
        let report = lint_stream_metered(ops.iter().copied(), layout(), &t);
        let snap = t.snapshot();
        assert_eq!(
            snap.counter(Counter::LintOpsScanned),
            report.findings.ops_scanned
        );
        assert_eq!(
            snap.counter(Counter::LintDiagnostics),
            report.findings.total_diagnostics()
        );
        assert_eq!(snap.counter(Counter::LintPolicyDiagnostics), 0);
    }

    #[test]
    fn metered_scan_reports_the_pipeline_high_water_mark() {
        let p = signed(0x4000, 7, 64);
        let ops: Vec<Op> = malloc(p, 64).into_iter().chain(free(p)).collect();
        // A one-op splice buffers one op; the linter adds none.
        let stream = ops
            .iter()
            .copied()
            .splice_many(vec![Splice::insert(2, vec![load(p)])]);
        let report = lint_stream_metered(stream, layout(), &Telemetry::disabled());
        assert_eq!(report.findings.ops_scanned, 6);
        assert!(report.pipeline_peak_buffered_ops <= 1);
        assert!(report.findings.clean());
    }
}
