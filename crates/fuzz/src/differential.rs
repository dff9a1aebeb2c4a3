//! The differential harness: replays one planned scenario through
//! *every* static policy — `aos-lint`'s four abstract interpreters in
//! one [`MatrixScan`] pass — and the machine-model fault oracle on
//! all five systems, and flags any verdict that falls outside the
//! scenario's pinned expectation split.
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
use aos_isa::SafetyConfig;
use aos_lint::{MatrixScan, Policy, PolicyReport};
use aos_ptrauth::PointerLayout;
use aos_sim::Machine;
use aos_util::Telemetry;
use aos_workloads::{TraceGenerator, WorkloadProfile};

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

/// The dynamic oracle's measurement on one system.
#[derive(Debug, Clone, Copy)]
pub struct SystemVerdict {
    /// The system the faulted stream ran on.
    pub system: SafetyConfig,
    /// Violations the clean trace raised on this system.
    pub clean_violations: u64,
    /// Violations the faulted stream raised on this system.
    pub faulty_violations: u64,
}

impl SystemVerdict {
    /// Extra violations the scenario added.
    pub fn delta(&self) -> u64 {
        self.faulty_violations.saturating_sub(self.clean_violations)
    }
}

/// Clean-trace measurements shared by every scenario of a campaign:
/// one machine run per system plus one four-policy [`MatrixScan`],
/// all against the unmodified generated trace. Measuring this once
/// per `(workload, scale)` instead of once per trial keeps a
/// budget-`B` campaign at `B × (5 machine runs + 1 matrix scan)`
/// instead of twice that.
#[derive(Debug, Clone)]
pub struct CleanBaseline {
    /// Clean violations per system, in [`SafetyConfig::ALL`] order.
    pub violations: Vec<(SafetyConfig, u64)>,
    /// Per-policy per-rule counts on the clean trace, in
    /// [`Policy::ALL`] order (AOS first). Faulted-stream verdicts are
    /// judged on the *delta* against this row, so a policy with
    /// inherent clean-trace noise cannot fake (or mask) a detection.
    pub policy_rule_counts: Vec<Vec<u64>>,
}

impl CleanBaseline {
    /// Measures the clean trace for `(profile, scale)` on all five
    /// systems and all four static policies.
    pub fn measure(profile: &WorkloadProfile, scale: f64) -> CleanBaseline {
        let stream = || TraceGenerator::new(profile, SafetyConfig::Aos, scale);
        let violations = SafetyConfig::ALL
            .into_iter()
            .map(|system| {
                let sut = SystemUnderTest::scaled(system, scale);
                let result = Machine::new(sut.machine_config()).run(stream());
                (system, result.violations)
            })
            .collect();
        let reports = MatrixScan::run(
            &Policy::ALL,
            stream(),
            PointerLayout::default(),
            &Telemetry::disabled(),
        );
        CleanBaseline {
            violations,
            policy_rule_counts: reports.into_iter().map(|r| r.rule_counts).collect(),
        }
    }

    /// Diagnostics the clean trace raises in the AOS linter (expected
    /// 0; anything else poisons static expectations).
    pub fn lint_diagnostics(&self) -> u64 {
        self.policy_rule_counts[0].iter().sum()
    }

    fn clean_violations(&self, system: SafetyConfig) -> u64 {
        self.violations
            .iter()
            .find(|(s, _)| *s == system)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
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
    pub systems: Vec<SystemVerdict>,
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

/// Replays `plan` through both oracles on all five systems and
/// classifies every disagreement with its pinned expectations.
pub fn run_scenario(
    profile: &WorkloadProfile,
    scale: f64,
    plan: &ScenarioPlan,
    baseline: &CleanBaseline,
) -> DifferentialOutcome {
    let scenario = plan.spec.id();
    let stream = || TraceGenerator::new(profile, SafetyConfig::Aos, scale);
    let layout = PointerLayout::default();
    let mut findings = Vec::new();

    if baseline.lint_diagnostics() > 0 {
        findings.push(Finding {
            scenario: scenario.clone(),
            system: None,
            kind: FindingKind::DirtyCleanLint,
            detail: format!(
                "clean trace raised {} lint diagnostics",
                baseline.lint_diagnostics()
            ),
        });
    }

    // Static oracles: one matrix pass over the faulted stream drives
    // all four policies, each held to the chain's pinned rule split
    // as a delta over the clean baseline. A pinned rule that stays
    // silent is always a finding. An unpinned rule that fires is one
    // only on fully pinned chains: a collision-unpinned tamper/forge
    // step makes every policy's verdict legitimately input-dependent.
    let policy_reports = MatrixScan::run(
        &Policy::ALL,
        plan.apply(stream()),
        layout,
        &Telemetry::disabled(),
    );
    let all_pinned = plan.steps.iter().all(|s| s.static_pinned);
    for (report, clean_counts) in policy_reports.iter().zip(&baseline.policy_rule_counts) {
        let policy = report.policy;
        let expected = plan.expected_policy_rules(policy);
        let counts = report.rule_counts.iter().zip(clean_counts);
        for (info, (&count, &clean)) in policy.rules().iter().zip(counts) {
            let delta = count.saturating_sub(clean);
            let pinned = expected.contains(&info.name);
            let detail = if pinned && delta == 0 {
                format!("{policy}: pinned rule '{}' did not fire", info.name)
            } else if !pinned && delta > 0 && all_pinned {
                format!(
                    "{policy}: unpinned rule '{}' fired {delta} time(s) over baseline",
                    info.name
                )
            } else {
                continue;
            };
            findings.push(Finding {
                scenario: scenario.clone(),
                system: None,
                kind: FindingKind::PolicyDisagreement,
                detail,
            });
        }
    }

    // Dynamic oracle: the faulted stream on every system.
    let exact_delta = plan.expected_exact_delta();
    let expect_detection = !plan.steps.is_empty();
    let mut systems = Vec::with_capacity(SafetyConfig::ALL.len());
    for system in SafetyConfig::ALL {
        let sut = SystemUnderTest::scaled(system, scale);
        let result = Machine::new(sut.machine_config()).run(plan.apply(stream()));
        let verdict = SystemVerdict {
            system,
            clean_violations: baseline.clean_violations(system),
            faulty_violations: result.violations,
        };
        if verdict.clean_violations > 0 {
            findings.push(Finding {
                scenario: scenario.clone(),
                system: Some(system),
                kind: FindingKind::FalsePositive,
                detail: format!(
                    "clean trace raised {} violations",
                    verdict.clean_violations
                ),
            });
        }
        let delta = verdict.delta();
        if system.uses_aos() {
            if expect_detection && delta == 0 {
                findings.push(Finding {
                    scenario: scenario.clone(),
                    system: Some(system),
                    kind: FindingKind::DynamicMiss,
                    detail: "faulted stream added no violations".to_string(),
                });
            } else if let Some(pinned) = exact_delta {
                if delta != pinned {
                    findings.push(Finding {
                        scenario: scenario.clone(),
                        system: Some(system),
                        kind: FindingKind::DeltaMismatch,
                        detail: format!("added {delta} violations, pinned exactly {pinned}"),
                    });
                }
            }
        } else if delta != 0 {
            findings.push(Finding {
                scenario: scenario.clone(),
                system: Some(system),
                kind: FindingKind::UnexpectedDetection,
                detail: format!("unprotected machine added {delta} violations"),
            });
        }
        systems.push(verdict);
    }

    DifferentialOutcome {
        scenario,
        steps: plan.steps.iter().map(|s| s.kind.name()).collect(),
        policies: policy_reports.iter().map(policy_verdict).collect(),
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
    use aos_workloads::profile::by_name;

    const SCALE: f64 = 0.004;

    #[test]
    fn every_composite_chain_is_clean_of_findings() {
        let profile = by_name("mcf").expect("mcf profile exists");
        let baseline = CleanBaseline::measure(profile, SCALE);
        assert_eq!(
            baseline.lint_diagnostics(),
            0,
            "clean trace must lint clean"
        );
        let trace = || TraceGenerator::new(profile, SafetyConfig::Aos, SCALE);
        for kind in CompositeKind::ALL {
            let spec = ScenarioSpec {
                seed: 11,
                steps: vec![StepKind::Composite(kind)],
            };
            let plan = plan_scenario(&spec, trace, PointerLayout::default()).expect("plan");
            let outcome = run_scenario(profile, SCALE, &plan, &baseline);
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
        let profile = by_name("mcf").expect("mcf profile exists");
        let baseline = CleanBaseline::measure(profile, SCALE);
        let trace = || TraceGenerator::new(profile, SafetyConfig::Aos, SCALE);
        let spec = ScenarioSpec {
            seed: 5,
            steps: vec![StepKind::Composite(CompositeKind::DanglingResign)],
        };
        let mut plan = plan_scenario(&spec, trace, PointerLayout::default()).expect("plan");
        // Drop the edits: the "faulted" stream is now the clean trace,
        // so the pinned rule cannot fire and AOS cannot detect.
        plan.edits.clear();
        let outcome = run_scenario(profile, SCALE, &plan, &baseline);
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
        let profile = by_name("mcf").expect("mcf profile exists");
        let baseline = CleanBaseline::measure(profile, SCALE);
        assert_eq!(baseline.policy_rule_counts.len(), Policy::ALL.len());
        assert!(
            baseline.policy_rule_counts.iter().all(|row| row.iter().sum::<u64>() == 0),
            "clean trace must be clean under every policy"
        );
        let trace = || TraceGenerator::new(profile, SafetyConfig::Aos, SCALE);
        let spec = ScenarioSpec {
            seed: 23,
            steps: vec![StepKind::Composite(CompositeKind::DanglingResign)],
        };
        let plan = plan_scenario(&spec, trace, PointerLayout::default()).expect("plan");
        let outcome = run_scenario(profile, SCALE, &plan, &baseline);
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
