//! The differential harness: replays one planned scenario through
//! *every* static policy — `aos-lint`'s four abstract interpreters in
//! one [`MatrixScan`](aos_lint::MatrixScan) pass — and the
//! machine-model fault oracle on all five systems, and flags any
//! verdict that falls outside the scenario's pinned expectation
//! split. Both measurements are one
//! [`aos_fault::oracle::measure`] of the scenario's [`Trial`]: the
//! clean trial with the plan's edits spliced in.
//!
//! The harness never decides *which* oracle is right. A
//! [`Finding`] means the static verdict, the dynamic verdict, and
//! the pinned expectation do not triangulate — a bug in a policy
//! verifier, in the machine model, or in the primitive's own
//! pinning, and in every case worth banking as a regression input.
//! Every static column, the paper's own AOS verifier included, is
//! held to its pinned rule split the same way and reports through
//! [`FindingKind::PolicyDisagreement`].

use aos_core::experiment::SystemUnderTest;
use aos_fault::oracle::{measure, Measurement, SystemTrial, Trial};
use aos_isa::SafetyConfig;
use aos_lint::{Policy, PolicyReport};
use aos_util::Telemetry;

use crate::scenario::ScenarioPlan;

/// Why a scenario was flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// An AOS-checked machine executed the faulted stream without an
    /// extra violation.
    DynamicMiss,
    /// An unprotected machine raised extra violations — it has no
    /// mechanism that should see these faults.
    UnexpectedDetection,
    /// An AOS-checked machine raised a different number of extra
    /// violations than the chain pins exactly (e.g. a probe that
    /// must hit mid-migration was charged as a miss).
    DeltaMismatch,
    /// The *clean* trace raised violations on some system.
    FalsePositive,
    /// The clean trace did not lint clean, so static expectations
    /// cannot be trusted for this workload.
    DirtyCleanLint,
    /// A static policy's verdict contradicts the chain's pinned
    /// per-policy rule split (a pinned rule stayed silent, or a rule
    /// outside the pinned set fired beyond its clean-trace count).
    PolicyDisagreement,
}

impl FindingKind {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::DynamicMiss => "dynamic-miss",
            FindingKind::UnexpectedDetection => "unexpected-detection",
            FindingKind::DeltaMismatch => "delta-mismatch",
            FindingKind::FalsePositive => "false-positive",
            FindingKind::DirtyCleanLint => "dirty-clean-lint",
            FindingKind::PolicyDisagreement => "policy-disagreement",
        }
    }
}

impl std::fmt::Display for FindingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One oracle disagreement.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The scenario that produced it ([`crate::ScenarioSpec::id`]).
    pub scenario: String,
    /// The system the disagreement occurred on (`None` for static
    /// findings, which are system-independent).
    pub system: Option<SafetyConfig>,
    /// The disagreement class.
    pub kind: FindingKind,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.system {
            Some(system) => write!(
                f,
                "[{}] {} on {system}: {}",
                self.scenario, self.kind, self.detail
            ),
            None => write!(f, "[{}] {}: {}", self.scenario, self.kind, self.detail),
        }
    }
}

/// Measures `trial` the way the harness judges every scenario: on
/// all five systems (in [`SafetyConfig::ALL`] order, built with
/// telemetry when `telemetry` records) and under all four static
/// policies (in [`Policy::ALL`] order, AOS first). Measured once on
/// the clean trial, this is the baseline every scenario of a campaign
/// is judged against: faulted-stream verdicts are deltas over it, so
/// a policy with clean-trace noise cannot fake (or mask) a detection.
pub fn measure_everywhere(trial: &Trial, telemetry: &Telemetry) -> Measurement {
    let systems: Vec<SystemUnderTest> = SafetyConfig::ALL
        .into_iter()
        .map(|system| {
            SystemUnderTest::scaled(system, trial.scale).with_telemetry(telemetry.is_enabled())
        })
        .collect();
    measure(|| trial.stream(), &systems, &Policy::ALL, telemetry)
}

/// One static policy's verdict on a faulted stream.
#[derive(Debug, Clone)]
pub struct PolicyVerdict {
    /// The policy that scanned.
    pub policy: Policy,
    /// Total diagnostics on the faulted stream.
    pub diagnostics: u64,
    /// Wire names of the rules that fired, in taxonomy order.
    pub rules: Vec<&'static str>,
}

/// Everything the harness measured for one scenario.
#[derive(Debug, Clone)]
pub struct DifferentialOutcome {
    /// The scenario id.
    pub scenario: String,
    /// Step names in chain order (dropped steps excluded).
    pub steps: Vec<&'static str>,
    /// Every static policy's verdict, in [`Policy::ALL`] order (AOS
    /// first; see [`DifferentialOutcome::aos`]).
    pub policies: Vec<PolicyVerdict>,
    /// Per-system dynamic measurements, in [`SafetyConfig::ALL`]
    /// order.
    pub systems: Vec<SystemTrial>,
    /// Oracle disagreements (empty when the scenario behaved exactly
    /// as pinned).
    pub findings: Vec<Finding>,
}

impl DifferentialOutcome {
    /// Whether this scenario produced at least one finding.
    pub fn is_finding(&self) -> bool {
        !self.findings.is_empty()
    }

    /// The AOS linter's verdict on the faulted stream — the `lint`
    /// column of the fuzz report, digest and corpus metadata.
    pub fn aos(&self) -> &PolicyVerdict {
        &self.policies[0]
    }
}

/// Splices `plan` into the clean trial, measures it through both
/// oracles on all five systems ([`measure_everywhere`]) and
/// classifies every disagreement with its pinned expectations.
/// `baseline` is the clean trial's own measurement; the scan and the
/// machines record into `telemetry`.
pub fn run_scenario(
    clean: &Trial,
    baseline: &Measurement,
    plan: &ScenarioPlan,
    telemetry: &Telemetry,
) -> DifferentialOutcome {
    let scenario = plan.spec.id();
    let faulted = measure_everywhere(&clean.with_edits(plan.edits.clone()), telemetry);
    let mut findings = Vec::new();
    let mut flag = |system: Option<SafetyConfig>, kind: FindingKind, detail: String| {
        findings.push(Finding {
            scenario: scenario.clone(),
            system,
            kind,
            detail,
        })
    };

    let clean_lint = baseline.reports[0].total_diagnostics();
    if clean_lint > 0 {
        flag(
            None,
            FindingKind::DirtyCleanLint,
            format!("clean trace raised {clean_lint} lint diagnostics"),
        );
    }

    // Static oracles: one matrix pass over the faulted stream drove
    // all four policies, each held to the chain's pinned rule split
    // as a delta over the clean baseline. A pinned rule that stays
    // silent is always a finding. An unpinned rule that fires is one
    // only on fully pinned chains: a collision-unpinned tamper/forge
    // step makes every policy's verdict legitimately input-dependent.
    let all_pinned = plan.steps.iter().all(|s| s.static_pinned);
    for (report, clean_report) in faulted.reports.iter().zip(&baseline.reports) {
        let policy = report.policy;
        let expected = plan.expected_policy_rules(policy);
        let counts = report.rule_counts.iter().zip(&clean_report.rule_counts);
        for (info, (&count, &clean)) in policy.rules().iter().zip(counts) {
            let delta = count.saturating_sub(clean);
            let pinned = expected.contains(&info.name);
            if pinned && delta == 0 {
                let detail = format!("{policy}: pinned rule '{}' did not fire", info.name);
                flag(None, FindingKind::PolicyDisagreement, detail);
            } else if !pinned && delta > 0 && all_pinned {
                let detail = format!(
                    "{policy}: unpinned rule '{}' fired {delta} time(s) over baseline",
                    info.name
                );
                flag(None, FindingKind::PolicyDisagreement, detail);
            }
        }
    }

    // Dynamic oracle: the faulted stream on every system.
    let exact_delta = plan.expected_exact_delta();
    let expect_detection = !plan.steps.is_empty();
    let systems = faulted.trials(baseline);
    for trial in &systems {
        let system = Some(trial.system);
        if trial.false_positive() {
            let detail = format!("clean trace raised {} violations", trial.clean_violations);
            flag(system, FindingKind::FalsePositive, detail);
        }
        let delta = trial.delta();
        if !trial.system.uses_aos() {
            if delta != 0 {
                let detail = format!("unprotected machine added {delta} violations");
                flag(system, FindingKind::UnexpectedDetection, detail);
            }
        } else if expect_detection && delta == 0 {
            let detail = "faulted stream added no violations".to_string();
            flag(system, FindingKind::DynamicMiss, detail);
        } else if let Some(pinned) = exact_delta.filter(|&pinned| delta != pinned) {
            let detail = format!("added {delta} violations, pinned exactly {pinned}");
            flag(system, FindingKind::DeltaMismatch, detail);
        }
    }

    DifferentialOutcome {
        scenario,
        steps: plan.steps.iter().map(|s| s.kind.name()).collect(),
        policies: faulted.reports.iter().map(policy_verdict).collect(),
        systems,
        findings,
    }
}

/// Collapses one policy's report into the wire verdict.
fn policy_verdict(report: &PolicyReport) -> PolicyVerdict {
    PolicyVerdict {
        policy: report.policy,
        diagnostics: report.total_diagnostics(),
        rules: report.rule_names_fired(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitive::CompositeKind;
    use crate::scenario::{plan_scenario, ScenarioSpec, StepKind};
    use aos_ptrauth::PointerLayout;
    use aos_workloads::profile::by_name;

    const SCALE: f64 = 0.004;

    /// The clean mcf trial and its measurement.
    fn mcf() -> (Trial, Measurement) {
        let clean = Trial::clean(*by_name("mcf").expect("mcf profile exists"), SCALE);
        let baseline = measure_everywhere(&clean, &Telemetry::disabled());
        (clean, baseline)
    }

    #[test]
    fn every_composite_chain_is_clean_of_findings() {
        let (clean, baseline) = mcf();
        assert_eq!(
            baseline.reports[0].total_diagnostics(),
            0,
            "clean trace must lint clean"
        );
        let trace = || clean.stream();
        for kind in CompositeKind::ALL {
            let spec = ScenarioSpec {
                seed: 11,
                steps: vec![StepKind::Composite(kind)],
            };
            let plan = plan_scenario(&spec, trace, PointerLayout::default()).expect("plan");
            let outcome = run_scenario(&clean, &baseline, &plan, &Telemetry::disabled());
            assert!(
                !outcome.is_finding(),
                "{kind}: unexpected findings {:?}",
                outcome.findings
            );
            let aos = outcome
                .systems
                .iter()
                .find(|v| v.system == SafetyConfig::Aos)
                .expect("aos verdict");
            assert_eq!(aos.delta(), kind.exact_delta(), "{kind} delta");
        }
    }

    #[test]
    fn a_deliberately_mispinned_chain_is_flagged() {
        // Sanity-check the harness itself: run a statically
        // detectable chain but lie about the expected class by
        // linting a *clean* stream against the plan's expectations.
        let (clean, baseline) = mcf();
        let trace = || clean.stream();
        let spec = ScenarioSpec {
            seed: 5,
            steps: vec![StepKind::Composite(CompositeKind::DanglingResign)],
        };
        let mut plan = plan_scenario(&spec, trace, PointerLayout::default()).expect("plan");
        // Drop the edits: the "faulted" stream is now the clean trace,
        // so the pinned rule cannot fire and AOS cannot detect.
        plan.edits.clear();
        let outcome = run_scenario(&clean, &baseline, &plan, &Telemetry::disabled());
        let kinds: Vec<FindingKind> = outcome.findings.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&FindingKind::DynamicMiss), "{kinds:?}");
        // Every policy with a pinned rule must flag the same lie: the
        // AOS access-after-clear and CryptSan's revoked-key cannot
        // fire on the clean trace.
        let details: Vec<&str> = outcome.findings.iter().map(|f| f.detail.as_str()).collect();
        for silent in [
            "aos: pinned rule 'access-after-clear' did not fire",
            "cryptsan: pinned rule 'revoked-key' did not fire",
        ] {
            assert!(details.contains(&silent), "{details:?}");
        }
    }

    #[test]
    fn policy_verdicts_split_exactly_as_the_matrix_pins() {
        let (clean, baseline) = mcf();
        assert_eq!(baseline.reports.len(), Policy::ALL.len());
        assert!(
            baseline.reports.iter().all(|r| r.total_diagnostics() == 0),
            "clean trace must be clean under every policy"
        );
        let trace = || clean.stream();
        let spec = ScenarioSpec {
            seed: 23,
            steps: vec![StepKind::Composite(CompositeKind::DanglingResign)],
        };
        let plan = plan_scenario(&spec, trace, PointerLayout::default()).expect("plan");
        let outcome = run_scenario(&clean, &baseline, &plan, &Telemetry::disabled());
        assert!(!outcome.is_finding(), "{:?}", outcome.findings);
        let verdict = |p: Policy| {
            outcome
                .policies
                .iter()
                .find(|v| v.policy == p)
                .expect("verdict per policy")
        };
        // AOS and CryptSan see the dangling pointer; PACSan's re-seal
        // laundering and PACTight's liveness-blindness miss it.
        assert_eq!(outcome.aos().policy, Policy::Aos);
        assert_eq!(outcome.aos().rules, vec!["access-after-clear"]);
        assert_eq!(verdict(Policy::CryptSan).rules, vec!["revoked-key"]);
        assert_eq!(verdict(Policy::PacSan).diagnostics, 0);
        assert_eq!(verdict(Policy::PacTight).diagnostics, 0);
    }
}
