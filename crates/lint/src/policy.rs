//! Pluggable static policies: the abstract-interpretation framework
//! behind the cross-paper detection matrix.
//!
//! A [`PolicyVerifier`] is a per-op transfer function over an
//! abstract heap/PAC state, with a policy-owned rule taxonomy (the
//! [`registry`](crate::registry)) and the same memory contract as the
//! AOS linter: O(distinct PACs observed) state, zero buffered ops,
//! stored diagnostics capped at
//! [`MAX_STORED_DIAGNOSTICS`]
//! while per-rule counts stay exact.
//!
//! Four implementations ship:
//!
//! - [`Policy::Aos`] — the Fig. 7 / Algorithm 1 lifecycle verifier,
//!   a transparent wrapper around [`Linter`] producing bit-identical
//!   findings;
//! - [`Policy::CryptSan`] — a lock-and-key model: allocation
//!   registers a key, free revokes it, dereference checks it. Sees
//!   temporal bugs and forged keys; blind to spatial overflow and to
//!   AHC size classes (its metadata has no size-class notion);
//! - [`Policy::PacSan`] — a PAC-sealed shadow model: `pacma` seals,
//!   free invalidates, use validates the seal and its class. The
//!   crucial blind spot is *authentication laundering*: the Fig. 7b
//!   free-site re-sign produces a perfectly valid seal, so
//!   use-after-free that dereferences the re-signed pointer passes
//!   its check;
//! - [`Policy::PacTight`] — pointer integrity only: a use is valid
//!   iff its PAC+class were ever produced by a `pacma`. No liveness,
//!   no bounds — the strictly weakest model in the matrix.
//!
//! Each model encodes what the paper's instrumentation *can prove
//! about a trace*, not how its runtime implements the check; the
//! point of the matrix is which attack chains slip past which
//! policy's evidence.

use std::collections::HashMap;

use aos_isa::Op;
use aos_ptrauth::PointerLayout;
use aos_util::{Counter, Telemetry};

use crate::registry::{RuleInfo, AOS_RULES, CRYPTSAN_RULES, PACSAN_RULES, PACTIGHT_RULES};
use crate::report::LintReport;
use crate::verifier::{Linter, MAX_STORED_DIAGNOSTICS};

/// The static policies the matrix can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// The AOS Fig. 7 lifecycle verifier (the pre-existing linter).
    Aos,
    /// CryptSan's lock-and-key heap metadata, modeled statically.
    CryptSan,
    /// PACSan's PAC-sealed shadow checks, modeled statically.
    PacSan,
    /// PACTight's pointer-integrity signing, modeled statically.
    PacTight,
}

impl Policy {
    /// Number of policies.
    pub const COUNT: usize = 4;

    /// Every policy, in matrix (and wire) order.
    pub const ALL: [Policy; Self::COUNT] =
        [Policy::Aos, Policy::CryptSan, Policy::PacSan, Policy::PacTight];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Aos => "aos",
            Policy::CryptSan => "cryptsan",
            Policy::PacSan => "pacsan",
            Policy::PacTight => "pactight",
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<Policy> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The policy's rule taxonomy; [`PolicyDiagnostic::rule`] and
    /// [`PolicyReport::rule_counts`] index into this slice.
    pub fn rules(self) -> &'static [RuleInfo] {
        match self {
            Policy::Aos => &AOS_RULES,
            Policy::CryptSan => &CRYPTSAN_RULES,
            Policy::PacSan => &PACSAN_RULES,
            Policy::PacTight => &PACTIGHT_RULES,
        }
    }

    /// One line on what the policy's instrumentation proves.
    pub fn claim(self) -> &'static str {
        match self {
            Policy::Aos => "full Fig. 7 lifecycle + Algorithm 1 AHC encoding",
            Policy::CryptSan => "lock-and-key: allocation keys checked on free and use",
            Policy::PacSan => "PAC seals validated (with class) on free and use",
            Policy::PacTight => "pointer integrity: PAC+class were once signed",
        }
    }

    /// A fresh verifier for this policy.
    pub fn new_verifier(self, layout: PointerLayout) -> Box<dyn PolicyVerifier> {
        match self {
            Policy::Aos => Box::new(AosPolicy {
                linter: Linter::new(layout),
            }),
            Policy::CryptSan => Box::new(CryptSanPolicy {
                layout,
                pacs: HashMap::new(),
                findings: Findings::new(self),
            }),
            Policy::PacSan => Box::new(PacSanPolicy {
                layout,
                pacs: HashMap::new(),
                findings: Findings::new(self),
            }),
            Policy::PacTight => Box::new(PacTightPolicy {
                layout,
                pacs: HashMap::new(),
                findings: Findings::new(self),
            }),
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding from a policy verifier. `rule` indexes the policy's
/// [`Policy::rules`] slice (severity and wire name live there).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyDiagnostic {
    /// Index into the owning policy's rule registry.
    pub rule: usize,
    /// Zero-based index of the offending op in the scanned stream.
    pub op_index: u64,
    /// The PAC the finding is attributed to (0 when none applies).
    pub pac: u64,
    /// Human-readable specifics.
    pub detail: String,
}

/// A per-op abstract interpreter for one policy.
///
/// Contract: `scan` is called once per op in stream order; `finish`
/// closes the stream and yields the report. Implementations hold
/// O(distinct PACs) state and buffer no ops.
pub trait PolicyVerifier {
    /// Which policy this verifier implements.
    fn policy(&self) -> Policy;

    /// Advances the abstract interpretation by one op.
    fn scan(&mut self, op: &Op);

    /// Closes the stream and produces the report. Scan counters land
    /// on `telemetry`.
    fn finish(self: Box<Self>, telemetry: &Telemetry) -> PolicyReport;
}

/// What one policy's scan found. The policy analogue of
/// [`LintReport`]: exact per-rule counts (indexed like
/// [`Policy::rules`]), capped stored diagnostics, and the memory
/// bound.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyReport {
    /// Which policy produced the report.
    pub policy: Policy,
    /// Ops consumed from the stream.
    pub ops_scanned: u64,
    /// Exact findings per rule; `rule_counts[i]` counts
    /// `policy.rules()[i]`.
    pub rule_counts: Vec<u64>,
    /// The first findings, in stream order (capped).
    pub diagnostics: Vec<PolicyDiagnostic>,
    /// Findings beyond the storage cap (counted, not stored).
    pub dropped_diagnostics: u64,
    /// Distinct PACs tracked — the verifier's memory bound.
    pub tracked_pacs: usize,
}

impl PolicyReport {
    /// Total findings across every rule.
    pub fn total_diagnostics(&self) -> u64 {
        self.rule_counts.iter().sum()
    }

    /// `true` when the scan produced no findings.
    pub fn clean(&self) -> bool {
        self.total_diagnostics() == 0
    }

    /// Exact count for one rule index.
    pub fn count(&self, rule: usize) -> u64 {
        self.rule_counts[rule]
    }

    /// Wire names of the rules that fired, in taxonomy order.
    pub fn rule_names_fired(&self) -> Vec<&'static str> {
        let rules = self.policy.rules();
        self.rule_counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| rules[i].name)
            .collect()
    }

    /// The AOS policy report equivalent to a [`LintReport`] — the
    /// bridge the bit-identity tests compare across.
    pub fn from_lint(report: &LintReport) -> PolicyReport {
        PolicyReport {
            policy: Policy::Aos,
            ops_scanned: report.ops_scanned,
            rule_counts: report.rule_counts.to_vec(),
            diagnostics: report
                .diagnostics
                .iter()
                .map(|d| PolicyDiagnostic {
                    rule: d.rule as usize,
                    op_index: d.op_index,
                    pac: d.pac,
                    detail: d.detail.clone(),
                })
                .collect(),
            dropped_diagnostics: report.dropped_diagnostics,
            tracked_pacs: report.distinct_pacs,
        }
    }
}

/// Shared finding accumulator: exact counts, capped storage.
#[derive(Debug)]
struct Findings {
    policy: Policy,
    rule_counts: Vec<u64>,
    diagnostics: Vec<PolicyDiagnostic>,
    dropped: u64,
    ops_scanned: u64,
}

impl Findings {
    fn new(policy: Policy) -> Self {
        Self {
            policy,
            rule_counts: vec![0; policy.rules().len()],
            diagnostics: Vec::new(),
            dropped: 0,
            ops_scanned: 0,
        }
    }

    fn emit(&mut self, rule: usize, op_index: u64, pac: u64, detail: String) {
        self.rule_counts[rule] += 1;
        if self.diagnostics.len() < MAX_STORED_DIAGNOSTICS {
            self.diagnostics.push(PolicyDiagnostic {
                rule,
                op_index,
                pac,
                detail,
            });
        } else {
            self.dropped += 1;
        }
    }

    fn into_report(self, tracked_pacs: usize, telemetry: &Telemetry) -> PolicyReport {
        telemetry.add(
            Counter::LintPolicyDiagnostics,
            self.rule_counts.iter().sum::<u64>(),
        );
        PolicyReport {
            policy: self.policy,
            ops_scanned: self.ops_scanned,
            rule_counts: self.rule_counts,
            diagnostics: self.diagnostics,
            dropped_diagnostics: self.dropped,
            tracked_pacs,
        }
    }
}

/// The AOS lifecycle policy: a transparent wrapper around [`Linter`].
/// Findings are bit-identical to the pre-framework verifier because
/// they *are* the verifier's findings.
struct AosPolicy {
    linter: Linter,
}

impl PolicyVerifier for AosPolicy {
    fn policy(&self) -> Policy {
        Policy::Aos
    }

    fn scan(&mut self, op: &Op) {
        self.linter.scan(op);
    }

    fn finish(self: Box<Self>, telemetry: &Telemetry) -> PolicyReport {
        PolicyReport::from_lint(&self.linter.finish(telemetry))
    }
}

// CryptSan rule indices (into CRYPTSAN_RULES).
const CS_UNALLOCATED: usize = 0;
const CS_REVOKED: usize = 1;
const CS_DOUBLE_REVOKE: usize = 2;

/// Per-key abstract state for the CryptSan model.
#[derive(Debug, Default)]
struct KeyState {
    /// Outstanding allocation keys under this PAC (counting, so PAC
    /// collisions stay clean, exactly like the real metadata keyed by
    /// allocation identity).
    keys_live: u32,
    /// A key was ever registered under this PAC.
    ever_allocated: bool,
}

/// CryptSan as a static policy: `bndstr` registers an allocation key,
/// `bndclr` revokes it, every signed access checks it. The model is
/// deliberately blind to `pacma`/`xpacm` (CryptSan has no pointer
/// signing of its own) and to AHC classes and addresses (its metadata
/// carries no size class and its check is key validity, not bounds) —
/// so spatial overflow and class confusion pass it clean.
struct CryptSanPolicy {
    layout: PointerLayout,
    pacs: HashMap<u64, KeyState>,
    findings: Findings,
}

impl PolicyVerifier for CryptSanPolicy {
    fn policy(&self) -> Policy {
        Policy::CryptSan
    }

    fn scan(&mut self, op: &Op) {
        let index = self.findings.ops_scanned;
        self.findings.ops_scanned += 1;
        match *op {
            Op::BndStr { pointer, .. } if self.layout.is_signed(pointer) => {
                let entry = self.pacs.entry(self.layout.pac(pointer)).or_default();
                entry.keys_live += 1;
                entry.ever_allocated = true;
            }
            Op::BndClr { pointer } if self.layout.is_signed(pointer) => {
                let pac = self.layout.pac(pointer);
                match self.pacs.get_mut(&pac) {
                    Some(entry) if entry.keys_live > 0 => entry.keys_live -= 1,
                    Some(entry) if entry.ever_allocated => self.findings.emit(
                        CS_DOUBLE_REVOKE,
                        index,
                        pac,
                        "key already revoked for every allocation under this PAC".to_string(),
                    ),
                    _ => self.findings.emit(
                        CS_UNALLOCATED,
                        index,
                        pac,
                        "revoke of a key no allocation registered".to_string(),
                    ),
                }
            }
            Op::Load { pointer, .. } | Op::Store { pointer, .. } | Op::Autm { pointer }
                if self.layout.is_signed(pointer) =>
            {
                let pac = self.layout.pac(pointer);
                match self.pacs.get(&pac) {
                    Some(entry) if entry.keys_live > 0 => {}
                    Some(entry) if entry.ever_allocated => self.findings.emit(
                        CS_REVOKED,
                        index,
                        pac,
                        "dereference after the allocation's key was revoked".to_string(),
                    ),
                    _ => self.findings.emit(
                        CS_UNALLOCATED,
                        index,
                        pac,
                        "dereference through a key no allocation registered".to_string(),
                    ),
                }
            }
            // pacma/xpacm and unsigned traffic carry no CryptSan
            // obligations: the model has no signing of its own.
            _ => {}
        }
    }

    fn finish(self: Box<Self>, telemetry: &Telemetry) -> PolicyReport {
        let tracked = self.pacs.len();
        self.findings.into_report(tracked, telemetry)
    }
}

// PACSan rule indices (into PACSAN_RULES).
const PS_UNSEALED: usize = 0;
const PS_STALE: usize = 1;
const PS_CLASS: usize = 2;
const PS_DOUBLE_INVALIDATE: usize = 3;

/// Per-PAC abstract state for the PACSan model.
#[derive(Debug, Default)]
struct SealState {
    /// Outstanding seals per AHC class (counting, for collisions).
    sealed: [u32; 4],
    /// A seal was ever produced under this PAC.
    ever_sealed: bool,
    /// The last event on this PAC was an invalidation with no re-seal
    /// since — the window in which a second invalidation is a double
    /// free.
    just_invalidated: bool,
}

impl SealState {
    fn total(&self) -> u32 {
        self.sealed.iter().sum()
    }
}

/// PACSan as a static policy: `pacma` seals a pointer (any size —
/// including the Fig. 7b size-0 re-sign, which is the model's blind
/// spot: a re-seal *launders* a dangling pointer, so the UAF chains
/// that end in the re-sign pass PACSan's validation while AOS and
/// CryptSan still flag them). `bndclr` invalidates a seal, and every
/// signed access validates that a seal of the pointer's class is
/// outstanding.
struct PacSanPolicy {
    layout: PointerLayout,
    pacs: HashMap<u64, SealState>,
    findings: Findings,
}

impl PolicyVerifier for PacSanPolicy {
    fn policy(&self) -> Policy {
        Policy::PacSan
    }

    fn scan(&mut self, op: &Op) {
        let index = self.findings.ops_scanned;
        self.findings.ops_scanned += 1;
        match *op {
            Op::Pacma { pointer, .. } if self.layout.is_signed(pointer) => {
                let ahc = self.layout.ahc(pointer) as usize & 3;
                let entry = self.pacs.entry(self.layout.pac(pointer)).or_default();
                entry.sealed[ahc] += 1;
                entry.ever_sealed = true;
                entry.just_invalidated = false;
            }
            Op::BndClr { pointer } if self.layout.is_signed(pointer) => {
                let pac = self.layout.pac(pointer);
                let ahc = self.layout.ahc(pointer) as usize & 3;
                let entry = self.pacs.entry(pac).or_default();
                if !entry.ever_sealed {
                    self.findings.emit(
                        PS_UNSEALED,
                        index,
                        pac,
                        "invalidation of a pointer no pacma sealed".to_string(),
                    );
                } else if entry.just_invalidated {
                    self.findings.emit(
                        PS_DOUBLE_INVALIDATE,
                        index,
                        pac,
                        "second invalidation with no re-seal in between".to_string(),
                    );
                } else {
                    if entry.sealed[ahc] > 0 {
                        entry.sealed[ahc] -= 1;
                    } else if let Some(slot) = entry.sealed.iter_mut().find(|c| **c > 0) {
                        // Fail-open on the count (the class complaint
                        // belongs to the access rules, not the free).
                        *slot -= 1;
                    }
                    entry.just_invalidated = true;
                }
            }
            Op::Load { pointer, .. } | Op::Store { pointer, .. } | Op::Autm { pointer }
                if self.layout.is_signed(pointer) =>
            {
                let pac = self.layout.pac(pointer);
                let ahc = self.layout.ahc(pointer) as usize & 3;
                match self.pacs.get(&pac) {
                    None => self.findings.emit(
                        PS_UNSEALED,
                        index,
                        pac,
                        "use of a pointer no pacma sealed".to_string(),
                    ),
                    Some(entry) if entry.total() == 0 => {
                        if entry.ever_sealed {
                            self.findings.emit(
                                PS_STALE,
                                index,
                                pac,
                                "use after every seal instance was invalidated".to_string(),
                            );
                        } else {
                            self.findings.emit(
                                PS_UNSEALED,
                                index,
                                pac,
                                "use of a pointer no pacma sealed".to_string(),
                            );
                        }
                    }
                    Some(entry) if entry.sealed[ahc] == 0 => self.findings.emit(
                        PS_CLASS,
                        index,
                        pac,
                        format!("use in class {ahc} but the seal was produced elsewhere"),
                    ),
                    Some(_) => {}
                }
            }
            // bndstr/xpacm and unsigned traffic: PACSan's shadow
            // tracks seals, not bounds records.
            _ => {}
        }
    }

    fn finish(self: Box<Self>, telemetry: &Telemetry) -> PolicyReport {
        let tracked = self.pacs.len();
        self.findings.into_report(tracked, telemetry)
    }
}

// PACTight rule indices (into PACTIGHT_RULES).
const PT_FORGED: usize = 0;
const PT_CLASS: usize = 1;

/// PACTight as a static policy: the weakest model. `pacma` records
/// that (PAC, class) was signed; every signed access merely
/// authenticates that fact. No revocation, no liveness, no bounds —
/// every temporal and spatial chain passes, only outright forgery
/// (a PAC or class no pacma ever produced) is caught.
struct PacTightPolicy {
    layout: PointerLayout,
    /// Per PAC: bitmask of AHC classes ever signed.
    pacs: HashMap<u64, u8>,
    findings: Findings,
}

impl PolicyVerifier for PacTightPolicy {
    fn policy(&self) -> Policy {
        Policy::PacTight
    }

    fn scan(&mut self, op: &Op) {
        let index = self.findings.ops_scanned;
        self.findings.ops_scanned += 1;
        match *op {
            Op::Pacma { pointer, .. } if self.layout.is_signed(pointer) => {
                let ahc = self.layout.ahc(pointer) & 3;
                *self.pacs.entry(self.layout.pac(pointer)).or_default() |= 1 << ahc;
            }
            Op::Load { pointer, .. } | Op::Store { pointer, .. } | Op::Autm { pointer }
                if self.layout.is_signed(pointer) =>
            {
                let pac = self.layout.pac(pointer);
                let ahc = self.layout.ahc(pointer) & 3;
                match self.pacs.get(&pac) {
                    None => self.findings.emit(
                        PT_FORGED,
                        index,
                        pac,
                        "authentication of a PAC no pacma produced".to_string(),
                    ),
                    Some(classes) if classes & (1 << ahc) == 0 => self.findings.emit(
                        PT_CLASS,
                        index,
                        pac,
                        format!("pointer authenticates in class {ahc}, never signed there"),
                    ),
                    Some(_) => {}
                }
            }
            _ => {}
        }
    }

    fn finish(self: Box<Self>, telemetry: &Telemetry) -> PolicyReport {
        let tracked = self.pacs.len();
        self.findings.into_report(tracked, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_ptrauth::compute_ahc;

    fn layout() -> PointerLayout {
        PointerLayout::default()
    }

    fn signed(addr: u64, pac: u64, size: u64) -> u64 {
        let l = layout();
        l.compose(addr, pac, compute_ahc(addr, size, l.va_size()).bits())
    }

    fn malloc(ptr: u64, size: u64) -> Vec<Op> {
        vec![Op::Pacma { pointer: ptr, size }, Op::BndStr { pointer: ptr, size }]
    }

    fn free(ptr: u64) -> Vec<Op> {
        vec![
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

    fn run(policy: Policy, ops: &[Op]) -> PolicyReport {
        let mut v = policy.new_verifier(layout());
        for op in ops {
            v.scan(op);
        }
        v.finish(&Telemetry::disabled())
    }

    fn lifecycle(ptr: u64, size: u64) -> Vec<Op> {
        let mut ops = malloc(ptr, size);
        ops.push(load(ptr));
        ops.extend(free(ptr));
        ops
    }

    #[test]
    fn policy_names_roundtrip() {
        for p in Policy::ALL {
            assert_eq!(Policy::parse(p.name()), Some(p));
            assert!(!p.rules().is_empty());
            assert!(!p.claim().is_empty());
        }
        assert_eq!(Policy::parse("nonesuch"), None);
    }

    #[test]
    fn a_clean_lifecycle_is_clean_under_every_policy() {
        let ptr = signed(0x4000, 7, 64);
        let mut ops = lifecycle(ptr, 64);
        // A second lifecycle on the same PAC: collision tolerance.
        ops.extend(lifecycle(ptr, 64));
        for p in Policy::ALL {
            let report = run(p, &ops);
            assert!(report.clean(), "{p}: {:?}", report.diagnostics);
        }
    }

    #[test]
    fn use_after_free_splits_cryptsan_from_pacsan() {
        let ptr = signed(0x4000, 7, 64);
        let mut ops = malloc(ptr, 64);
        ops.extend(free(ptr));
        ops.push(load(ptr));
        // CryptSan: the key was revoked — caught.
        let cs = run(Policy::CryptSan, &ops);
        assert_eq!(cs.rule_names_fired(), vec!["revoked-key"]);
        // PACSan: the size-0 re-sign laundered the pointer — missed.
        let ps = run(Policy::PacSan, &ops);
        assert!(ps.clean(), "{:?}", ps.diagnostics);
        // PACTight: the PAC was signed once — missed.
        assert!(run(Policy::PacTight, &ops).clean());
        // AOS: access-after-clear, as ever.
        let aos = run(Policy::Aos, &ops);
        assert_eq!(aos.rule_names_fired(), vec!["access-after-clear"]);
    }

    #[test]
    fn double_free_is_caught_by_all_but_pactight() {
        let ptr = signed(0x4000, 7, 64);
        let mut ops = malloc(ptr, 64);
        // The injector shape: the second bndclr lands immediately
        // after the first, before the xpacm/re-sign tail.
        ops.push(Op::BndClr { pointer: ptr });
        ops.push(Op::BndClr { pointer: ptr });
        ops.push(Op::Xpacm);
        ops.push(Op::Pacma {
            pointer: ptr,
            size: 0,
        });
        assert!(run(Policy::Aos, &ops)
            .rule_names_fired()
            .contains(&"double-bndclr"));
        assert_eq!(
            run(Policy::CryptSan, &ops).rule_names_fired(),
            vec!["double-revoke"]
        );
        assert_eq!(
            run(Policy::PacSan, &ops).rule_names_fired(),
            vec!["double-invalidate"]
        );
        assert!(run(Policy::PacTight, &ops).clean());
    }

    #[test]
    fn forged_pointers_are_caught_by_every_policy() {
        let ptr = signed(0x4000, 7, 64);
        let forged = signed(0x4000, 0x99, 64);
        let mut ops = malloc(ptr, 64);
        ops.push(load(forged));
        for (p, rule) in [
            (Policy::Aos, "unknown-pac"),
            (Policy::CryptSan, "unallocated-key"),
            (Policy::PacSan, "unsealed-pointer"),
            (Policy::PacTight, "forged-pointer"),
        ] {
            assert_eq!(run(p, &ops).rule_names_fired(), vec![rule], "{p}");
        }
    }

    #[test]
    fn class_confusion_is_invisible_to_cryptsan_only() {
        let l = layout();
        let ptr = signed(0x4000, 7, 64);
        let real = l.ahc(ptr);
        let confused = (real % 3) + 1;
        let mut ops = malloc(ptr, 64);
        ops.push(load(l.compose(0x4000 + 64, 7, confused)));
        assert_eq!(
            run(Policy::Aos, &ops).rule_names_fired(),
            vec!["access-ahc-mismatch"]
        );
        assert!(run(Policy::CryptSan, &ops).clean());
        assert_eq!(
            run(Policy::PacSan, &ops).rule_names_fired(),
            vec!["seal-class-mismatch"]
        );
        assert_eq!(
            run(Policy::PacTight, &ops).rule_names_fired(),
            vec!["integrity-class-mismatch"]
        );
    }

    #[test]
    fn spatial_overflow_passes_every_static_policy() {
        let l = layout();
        let ptr = signed(0x4000, 7, 64);
        let mut ops = malloc(ptr, 64);
        // One slot past the end, same PAC and class: protocol-clean.
        ops.push(Op::Store {
            pointer: l.compose(0x4000 + 64, 7, l.ahc(ptr)),
            bytes: 8,
        });
        for p in Policy::ALL {
            assert!(run(p, &ops).clean(), "{p} must be blind to pure overflow");
        }
    }

    #[test]
    fn aos_policy_report_is_bit_identical_to_the_linter() {
        let ptr = signed(0x4000, 7, 64);
        let mut ops = malloc(ptr, 64);
        ops.extend(free(ptr));
        ops.push(load(ptr));
        ops.push(Op::BndClr { pointer: ptr });
        let direct = {
            let mut linter = Linter::new(layout());
            for op in &ops {
                linter.scan(op);
            }
            linter.finish(&Telemetry::disabled())
        };
        let via_policy = run(Policy::Aos, &ops);
        assert_eq!(via_policy, PolicyReport::from_lint(&direct));
        let direct_names: Vec<&str> = direct.rules_fired().iter().map(|r| r.name()).collect();
        assert_eq!(via_policy.rule_names_fired(), direct_names);
    }

    #[test]
    fn policy_memory_stays_bounded_by_distinct_pacs() {
        let mut ops = Vec::new();
        for i in 0..64u64 {
            ops.extend(lifecycle(signed(0x4000 + i * 0x100, i % 8, 64), 64));
        }
        for p in Policy::ALL {
            let report = run(p, &ops);
            assert!(report.tracked_pacs <= 8, "{p} tracked {}", report.tracked_pacs);
        }
    }

    #[test]
    fn telemetry_counts_non_aos_policy_findings() {
        let t = Telemetry::enabled();
        let forged = signed(0x4000, 0x99, 64);
        let mut v = Policy::PacTight.new_verifier(layout());
        v.scan(&load(forged));
        let report = v.finish(&t);
        assert_eq!(report.total_diagnostics(), 1);
        assert_eq!(
            t.snapshot().counter(Counter::LintPolicyDiagnostics),
            1
        );
    }
}
