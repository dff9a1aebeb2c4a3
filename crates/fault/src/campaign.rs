//! The fault-injection campaign: a `kind × seed × system` grid run
//! through the hardened campaign runner, so each trial inherits the
//! runner's panic isolation, timeout and retry machinery, and the
//! detection summary rides the `aos-campaign-report/v7` document as a
//! `fault_detection` annotation.

use std::sync::Arc;

use aos_core::experiment::campaign::{
    run_campaign_custom, CampaignCell, CampaignOptions, CampaignReport, CellOutput,
};
use aos_core::experiment::SystemUnderTest;
use aos_isa::stream::{BufferedOps, OpStream};
use aos_isa::{Op, SafetyConfig};
use aos_lint::{MatrixScan, Policy};
use aos_ptrauth::PointerLayout;
use aos_sim::Machine;
use aos_util::{AosError, Telemetry};
use aos_workloads::{TraceGenerator, WorkloadProfile};

use crate::inject::{plan_fault, FaultKind, FaultPlan, FaultSpec};
use crate::oracle::{FaultTrial, TrialMatrix};

/// What to sweep.
#[derive(Debug, Clone)]
pub struct FaultCampaignConfig {
    /// The workload whose traces are faulted.
    pub profile: WorkloadProfile,
    /// Window scale for the generated traces.
    pub scale: f64,
    /// Fault classes to inject.
    pub kinds: Vec<FaultKind>,
    /// Seeds per fault class.
    pub seeds: Vec<u64>,
    /// Systems to replay each faulted trace on. Defaults pair the
    /// protected AOS machine with the unprotected Baseline.
    pub systems: Vec<SafetyConfig>,
    /// Static policies to cross-check every stream against, all in
    /// one single-pass matrix scan per stream. Each gets a
    /// [`PolicyCrossCheck`] and an entry in the `policy_cross_check`
    /// report annotation.
    pub policies: Vec<Policy>,
    /// Runner execution knobs (threads, timeout, retries).
    pub options: CampaignOptions,
    /// Whether each cell's machine records pipeline telemetry (the
    /// verdicts are identical either way; the v4 report then carries
    /// real counter columns instead of zeros).
    pub telemetry: bool,
}

impl FaultCampaignConfig {
    /// The standard sweep for one workload: every fault class, the
    /// given seeds, AOS vs Baseline.
    pub fn standard(profile: WorkloadProfile, scale: f64, seeds: Vec<u64>) -> Self {
        Self {
            profile,
            scale,
            kinds: FaultKind::ALL.to_vec(),
            seeds,
            systems: vec![SafetyConfig::Aos, SafetyConfig::Baseline],
            policies: vec![Policy::Aos],
            options: CampaignOptions::default(),
            telemetry: false,
        }
    }
}

/// The campaign's product: the annotated v4 report plus the oracle
/// matrix it summarizes and the static cross-checks.
#[derive(Debug, Clone)]
pub struct FaultCampaignOutcome {
    /// The v4 campaign report, annotated with `fault_detection` and
    /// `policy_cross_check`.
    pub report: CampaignReport,
    /// Every trial's verdict.
    pub matrix: TrialMatrix,
    /// The differential static-analysis cross-checks — what each
    /// configured [`Policy`] sees in the same clean and faulted
    /// streams — in [`Policy::ALL`] order.
    pub policies: Vec<PolicyCrossCheck>,
}

/// How the static linter relates to one [`FaultKind`]: either the
/// fault is a protocol break the linter sees without running a
/// machine, or it is a runtime-only phenomenon the dynamic oracle
/// must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintClass {
    /// Every seeded instance raised at least one lint diagnostic.
    StaticallyDetectable,
    /// No seeded instance raised any diagnostic: only the machine's
    /// bounds check can see it.
    DynamicOnly,
    /// Some seeds flagged, some not — the classification is unstable
    /// and the campaign's consistency gate fails.
    Mixed,
}

/// The pinned static rules each policy fires on each base fault kind
/// — the design fact the differential harness and the strict gate
/// defend — in wire names because every policy owns its own taxonomy.
/// An empty slice pins the kind as invisible to that policy's static
/// model:
///
/// - spatial faults are protocol-clean under every policy;
/// - `use-after-free` splits CryptSan (revoked key — caught) from
///   PACSan (the Fig. 7b re-sign launders the seal — missed);
/// - `double-free` is caught by everything with a revocation notion,
///   i.e. all but PACTight;
/// - the forgery kinds are caught by all four (an unseen PAC fails
///   every model's provenance check).
pub fn expected_policy_rules(policy: Policy, kind: FaultKind) -> &'static [&'static str] {
    match policy {
        Policy::Aos => match kind {
            FaultKind::OverflowWrite | FaultKind::UnderflowWrite => &[],
            FaultKind::UseAfterFree => &["access-after-clear"],
            FaultKind::DoubleFree => &["double-bndclr", "unbalanced-at-end"],
            FaultKind::PacTamper | FaultKind::AhcForge => &["unknown-pac"],
        },
        Policy::CryptSan => match kind {
            FaultKind::OverflowWrite | FaultKind::UnderflowWrite => &[],
            FaultKind::UseAfterFree => &["revoked-key"],
            FaultKind::DoubleFree => &["double-revoke"],
            FaultKind::PacTamper | FaultKind::AhcForge => &["unallocated-key"],
        },
        Policy::PacSan => match kind {
            FaultKind::OverflowWrite | FaultKind::UnderflowWrite | FaultKind::UseAfterFree => &[],
            FaultKind::DoubleFree => &["double-invalidate"],
            FaultKind::PacTamper | FaultKind::AhcForge => &["unsealed-pointer"],
        },
        Policy::PacTight => match kind {
            FaultKind::OverflowWrite
            | FaultKind::UnderflowWrite
            | FaultKind::UseAfterFree
            | FaultKind::DoubleFree => &[],
            FaultKind::PacTamper | FaultKind::AhcForge => &["forged-pointer"],
        },
    }
}

/// The pinned classification implied by [`expected_policy_rules`]: a
/// kind with pinned rules is statically detectable under the policy,
/// one without is dynamic-only.
pub fn expected_policy_class(policy: Policy, kind: FaultKind) -> LintClass {
    if expected_policy_rules(policy, kind).is_empty() {
        LintClass::DynamicOnly
    } else {
        LintClass::StaticallyDetectable
    }
}

impl std::fmt::Display for LintClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LintClass::StaticallyDetectable => "static",
            LintClass::DynamicOnly => "dynamic-only",
            LintClass::Mixed => "mixed",
        })
    }
}

/// One policy's lint verdicts for one fault kind across the
/// campaign's seeds.
#[derive(Debug, Clone)]
pub struct PolicyKindCheck {
    /// The verifying policy.
    pub policy: Policy,
    /// The fault class.
    pub kind: FaultKind,
    /// Seeds whose plan succeeded and whose faulted stream was
    /// scanned.
    pub seeds: usize,
    /// Seeds whose faulted stream raised at least one diagnostic
    /// under this policy.
    pub flagged: usize,
    /// Union of the policy's rule names that fired, in taxonomy
    /// order.
    pub rules: Vec<&'static str>,
}

impl PolicyKindCheck {
    /// The kind's static-vs-dynamic classification under the policy.
    pub fn classification(&self) -> LintClass {
        if self.flagged == 0 {
            LintClass::DynamicOnly
        } else if self.flagged == self.seeds {
            LintClass::StaticallyDetectable
        } else {
            LintClass::Mixed
        }
    }
}

/// One policy's differential summary across the whole sweep: the
/// clean stream's verdict plus each fault kind's classification —
/// the strict gate's evidence.
#[derive(Debug, Clone)]
pub struct PolicyCrossCheck {
    /// The verifying policy.
    pub policy: Policy,
    /// Diagnostics the policy raised on the clean stream — any
    /// nonzero value is a false positive of the model.
    pub clean_diagnostics: u64,
    /// One entry per fault kind, in sweep order.
    pub kinds: Vec<PolicyKindCheck>,
}

impl PolicyCrossCheck {
    /// `true` when the clean stream scanned clean and every kind is
    /// unambiguously static or dynamic-only under this policy.
    pub fn is_consistent(&self) -> bool {
        self.clean_diagnostics == 0
            && self
                .kinds
                .iter()
                .all(|k| k.classification() != LintClass::Mixed)
    }

    /// `true` when every swept kind's observed classification and
    /// fired rule set equal the policy's pinned table
    /// ([`expected_policy_class`] / [`expected_policy_rules`]).
    /// Stronger than [`PolicyCrossCheck::is_consistent`]: a kind that
    /// silently drifted from `static` to `dynamic-only` (or started
    /// firing a different rule) is still self-consistent, but it is
    /// no longer the system the paper describes.
    pub fn matches_pinned_split(&self) -> bool {
        self.clean_diagnostics == 0
            && self.kinds.iter().all(|k| {
                k.classification() == expected_policy_class(self.policy, k.kind)
                    && k.rules == expected_policy_rules(self.policy, k.kind)
            })
    }

    /// A single-line JSON value for the report annotation.
    pub fn to_json_value(&self) -> String {
        let kinds = self
            .kinds
            .iter()
            .map(|k| {
                let rules = k
                    .rules
                    .iter()
                    .map(|r| format!("\"{r}\""))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "{{\"kind\": \"{}\", \"classification\": \"{}\", \
                     \"seeds\": {}, \"flagged\": {}, \"rules\": [{rules}]}}",
                    k.kind.name(),
                    k.classification(),
                    k.seeds,
                    k.flagged
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"policy\": \"{}\", \"clean_diagnostics\": {}, \"consistent\": {}, \
             \"pinned\": {}, \"kinds\": [{kinds}]}}",
            self.policy.name(),
            self.clean_diagnostics,
            self.is_consistent(),
            self.matches_pinned_split()
        )
    }
}

/// Runs the grid, fully streaming: each `(kind, seed)` fault is
/// planned **once** from one `O(window)` scan of the deterministic
/// trace stream, then every cell regenerates the stream lazily inside
/// its worker and replays it through the plan's splice adapter — no
/// trace is ever materialized, so campaign peak memory is
/// `threads × O(window)` instead of `cells × O(trace)`. The clean
/// stream is replayed once per system up front for the false-positive
/// reference.
pub fn run_fault_campaign(config: &FaultCampaignConfig) -> Result<FaultCampaignOutcome, AosError> {
    if config.kinds.is_empty() || config.seeds.is_empty() || config.systems.is_empty() {
        return Err(AosError::invalid_input(
            "fault campaign",
            "kinds, seeds and systems must all be non-empty",
        ));
    }
    let layout = PointerLayout::default();
    let stream = |profile: &WorkloadProfile, scale: f64| {
        TraceGenerator::new(profile, SafetyConfig::Aos, scale)
    };

    // Clean-reference violations per system (the false-positive gate).
    let mut clean_violations = Vec::with_capacity(config.systems.len());
    for &system in &config.systems {
        let sut = SystemUnderTest::scaled(system, config.scale);
        let stats = Machine::new(sut.machine_config()).run(stream(&config.profile, config.scale));
        clean_violations.push(stats.violations);
    }

    // One campaign cell per (kind, seed, system); the cell's label
    // carries the workload/system pair, the side tables the fault.
    // Plans are per (kind, seed) — shared by that pair's cells across
    // every system, so each fault is planned once, not once per cell.
    let mut cells = Vec::new();
    let mut specs = Vec::new();
    let mut plans: Vec<Result<FaultPlan, AosError>> = Vec::new();
    for &kind in &config.kinds {
        for &seed in &config.seeds {
            let spec = FaultSpec { kind, seed };
            plans.push(plan_fault(
                stream(&config.profile, config.scale),
                layout,
                spec,
            ));
            for (si, &system) in config.systems.iter().enumerate() {
                cells.push(CampaignCell {
                    profile: config.profile,
                    sut: SystemUnderTest::scaled(system, config.scale)
                        .with_telemetry(config.telemetry),
                });
                specs.push((spec, si));
            }
        }
    }

    // The differential static cross-check: every configured policy
    // scans the same streams the machines will replay — the clean
    // stream once, then each planned fault's spliced stream — in one
    // shared-decode matrix pass per stream.
    let policies: Vec<Policy> = Policy::ALL
        .into_iter()
        .filter(|p| config.policies.contains(p))
        .collect();
    let clean_reports = MatrixScan::run(
        &policies,
        stream(&config.profile, config.scale),
        layout,
        &Telemetry::disabled(),
    );
    let mut policy_checks: Vec<PolicyCrossCheck> = clean_reports
        .iter()
        .map(|clean| PolicyCrossCheck {
            policy: clean.policy,
            clean_diagnostics: clean.total_diagnostics(),
            kinds: Vec::new(),
        })
        .collect();
    // `plans` holds each kind's seeds contiguously, in sweep order.
    for (&kind, kind_plans) in config.kinds.iter().zip(plans.chunks(config.seeds.len())) {
        let mut kind_checks: Vec<PolicyKindCheck> = policies
            .iter()
            .map(|&policy| PolicyKindCheck {
                policy,
                kind,
                seeds: 0,
                flagged: 0,
                rules: Vec::new(),
            })
            .collect();
        // Per policy, per rule: whether any seed fired it.
        let mut fired: Vec<Vec<bool>> = policies
            .iter()
            .map(|p| vec![false; p.rules().len()])
            .collect();
        for plan in kind_plans.iter().flatten() {
            let reports = MatrixScan::run(
                &policies,
                plan.apply(stream(&config.profile, config.scale)),
                layout,
                &Telemetry::disabled(),
            );
            for ((check, fired), report) in kind_checks.iter_mut().zip(&mut fired).zip(&reports) {
                check.seeds += 1;
                check.flagged += usize::from(!report.clean());
                for (f, &count) in fired.iter_mut().zip(&report.rule_counts) {
                    *f |= count > 0;
                }
            }
        }
        for ((cross, mut check), fired) in policy_checks.iter_mut().zip(kind_checks).zip(fired) {
            check.rules = check
                .policy
                .rules()
                .iter()
                .zip(fired)
                .filter(|(_, f)| *f)
                .map(|(info, _)| info.name)
                .collect();
            cross.kinds.push(check);
        }
    }

    // A failed plan is reported through its cells' Failed outcome
    // (via panic + catch_unwind) instead of aborting the sweep.
    let plans = Arc::new(plans);
    let systems_per_plan = config.systems.len();
    let runner = {
        let plans = Arc::clone(&plans);
        Arc::new(move |index: usize, cell: &CampaignCell| -> CellOutput {
            let plan = match &plans[index / systems_per_plan] {
                Ok(plan) => plan,
                Err(e) => panic!("{e}"),
            };
            let mut faulty = plan
                .apply(TraceGenerator::new(
                    &cell.profile,
                    SafetyConfig::Aos,
                    cell.sut.scale,
                ))
                .metered();
            let stats = Machine::new(cell.sut.machine_config()).run(&mut faulty);
            CellOutput {
                stats,
                trace_ops: faulty.ops(),
                peak_trace_bytes: faulty.peak_buffered_ops() as u64
                    * std::mem::size_of::<Op>() as u64,
            }
        })
    };

    let mut report = run_campaign_custom(&cells, &config.options, &|_| {}, runner);

    let mut matrix = TrialMatrix::default();
    for (index, result) in report.results.iter().enumerate() {
        let (spec, si) = specs[index];
        if let Some(stats) = result.stats() {
            matrix.push(FaultTrial {
                spec,
                system: config.systems[si],
                clean_violations: clean_violations[si],
                faulty_violations: stats.violations,
                description: plans[index / systems_per_plan]
                    .as_ref()
                    .map(|p| p.description.clone())
                    .unwrap_or_else(|_| "<no description recorded>".to_string()),
            });
        }
    }
    report.annotate("fault_detection", matrix.to_json_value());
    let policy_json = policy_checks
        .iter()
        .map(PolicyCrossCheck::to_json_value)
        .collect::<Vec<_>>()
        .join(", ");
    report.annotate("policy_cross_check", format!("[{policy_json}]"));
    Ok(FaultCampaignOutcome {
        report,
        matrix,
        policies: policy_checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_workloads::profile::by_name;

    #[test]
    fn standard_sweep_is_sound_and_annotated() {
        let config = FaultCampaignConfig {
            options: CampaignOptions::with_threads(4),
            policies: Policy::ALL.to_vec(),
            ..FaultCampaignConfig::standard(*by_name("hmmer").unwrap(), 0.004, vec![1, 2])
        };
        let outcome = run_fault_campaign(&config).unwrap();
        assert_eq!(outcome.report.results.len(), 6 * 2 * 2);
        assert_eq!(outcome.report.failed(), 0);
        assert!(outcome.matrix.is_sound(), "{}", outcome.matrix.to_json_value());
        // Baseline must miss every fault: that asymmetry is the claim.
        assert!(outcome
            .matrix
            .unprotected()
            .all(|t| t.verdict() == crate::oracle::Verdict::Missed));
        // Every configured policy's verdicts must land exactly on its
        // pinned per-kind table, in `Policy::ALL` order.
        assert_eq!(outcome.policies.len(), Policy::ALL.len());
        for (check, policy) in outcome.policies.iter().zip(Policy::ALL) {
            assert_eq!(check.policy, policy);
            assert_eq!(check.kinds.len(), 6);
            assert!(check.matches_pinned_split(), "{}", check.to_json_value());
        }
        let json = outcome.report.to_json();
        assert!(json.contains("\"fault_detection\": {\"trials\": 24,"));
        assert!(!json.contains("lint_cross_check"));
        assert!(json.contains("\"policy_cross_check\": [{\"policy\": \"aos\","));
        assert!(json.contains("\"policy\": \"pactight\""));
        assert!(json.contains("\"schema\": \"aos-campaign-report/v7\""));
        // Every cell streamed: ops were metered and the pipeline never
        // held more than a window of trace (the clean trace here is
        // tens of thousands of ops).
        for r in &outcome.report.results {
            assert!(r.trace_ops() > 10_000, "{}", r.cell.label());
            let peak_ops = r.peak_trace_bytes() / std::mem::size_of::<Op>() as u64;
            assert!(peak_ops > 0 && peak_ops < 1024, "peak {peak_ops} ops");
        }
    }

    #[test]
    fn empty_grid_is_a_typed_error() {
        let mut config = FaultCampaignConfig::standard(*by_name("hmmer").unwrap(), 0.004, vec![]);
        config.options = CampaignOptions::with_threads(1);
        assert!(matches!(
            run_fault_campaign(&config),
            Err(AosError::InvalidInput { .. })
        ));
    }
}
