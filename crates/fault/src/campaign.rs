//! The fault-injection campaign: a `kind × seed × system` grid run
//! through the hardened campaign runner, so each trial inherits the
//! runner's panic isolation, and the detection summary rides the
//! `aos-campaign-report/v8` document as a `fault_detection`
//! annotation.

use aos_core::experiment::campaign::{
    run_campaign_custom, CampaignCell, CampaignOptions, CampaignReport,
};
use aos_core::experiment::SystemUnderTest;
use aos_isa::SafetyConfig;
use aos_lint::{Policy, PolicyReport};
use aos_util::json::{Json, Layout};
use aos_util::{AosError, Telemetry, TelemetrySnapshot};
use aos_workloads::WorkloadProfile;

use crate::inject::FaultKind;
use crate::oracle::{fault_sweep, SystemTrial, Trial, TrialMatrix};

/// The systems every fault is replayed on: the protected AOS machine
/// and the unprotected Baseline, in cell order.
pub const SYSTEMS: [SafetyConfig; 2] = [SafetyConfig::Aos, SafetyConfig::Baseline];

/// What to sweep.
#[derive(Debug, Clone)]
pub struct FaultCampaignConfig {
    /// The workload whose traces are faulted.
    pub profile: WorkloadProfile,
    /// Window scale for the generated traces.
    pub scale: f64,
    /// Fault classes to inject.
    pub kinds: Vec<FaultKind>,
    /// Seeds per fault class. Each fault runs on every one of
    /// [`SYSTEMS`].
    pub seeds: Vec<u64>,
    /// Static policies to cross-check every stream against, all in
    /// one single-pass matrix scan per stream. Each gets a
    /// [`PolicyCrossCheck`] and an entry in the `policy_cross_check`
    /// report annotation.
    pub policies: Vec<Policy>,
    /// Runner execution knobs (the worker-thread count).
    pub options: CampaignOptions,
    /// Whether each cell records generator and pipeline telemetry and
    /// the static cross-check records its scan counters (the verdicts
    /// are identical either way; the report then carries real counter
    /// columns instead of zeros).
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
            policies: vec![Policy::Aos],
            options: CampaignOptions::default(),
            telemetry: false,
        }
    }
}

/// The campaign's product: the annotated v8 report plus the oracle
/// matrix it summarizes and the static cross-checks.
#[derive(Debug, Clone)]
pub struct FaultCampaignOutcome {
    /// The v8 campaign report, annotated with `fault_detection` and
    /// `policy_cross_check`.
    pub report: CampaignReport,
    /// Every trial's verdict.
    pub matrix: TrialMatrix,
    /// The differential static-analysis cross-checks — what each
    /// configured [`Policy`] sees in the same clean and faulted
    /// streams — in [`Policy::ALL`] order.
    pub policies: Vec<PolicyCrossCheck>,
    /// The cross-check scans' counters (`lint_ops_scanned`,
    /// `lint_diagnostics`, `lint_policy_diagnostics`); empty unless
    /// [`FaultCampaignConfig::telemetry`] is set. The cells' own
    /// counters are in [`CampaignReport::telemetry`].
    pub telemetry: TelemetrySnapshot,
}

/// How the static linter relates to one [`FaultKind`]: either the
/// fault is a protocol break the linter sees without running a
/// machine, or it is a runtime-only phenomenon the dynamic oracle
/// must catch — or no seed could be planned, so there is no verdict.
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
    /// No seed planned (the trace has no anchor for the kind), so no
    /// stream was scanned: neither static nor dynamic, and the
    /// consistency gate fails.
    Unplanned,
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
            LintClass::Unplanned => "unplanned",
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
        if self.seeds == 0 {
            LintClass::Unplanned
        } else if self.flagged == 0 {
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
            && self.kinds.iter().all(|k| {
                matches!(
                    k.classification(),
                    LintClass::StaticallyDetectable | LintClass::DynamicOnly
                )
            })
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

    /// The inline JSON value of the `policy_cross_check` report
    /// annotation's entry for this policy.
    pub fn to_json_value(&self) -> Json {
        let kinds = self.kinds.iter().map(|k| {
            Layout::Inline.object([
                ("kind", Json::str(k.kind.name())),
                ("classification", Json::str(k.classification().to_string())),
                ("seeds", Json::num(k.seeds)),
                ("flagged", Json::num(k.flagged)),
                (
                    "rules",
                    Layout::Inline.array(k.rules.iter().map(|r| Json::str(*r))),
                ),
            ])
        });
        Layout::Inline.object([
            ("policy", Json::str(self.policy.name())),
            ("clean_diagnostics", Json::num(self.clean_diagnostics)),
            ("consistent", Json::Bool(self.is_consistent())),
            ("pinned", Json::Bool(self.matches_pinned_split())),
            ("kinds", Layout::Inline.array(kinds)),
        ])
    }
}

/// Runs the grid, fully streaming: the [`fault_sweep`] plans each
/// `(kind, seed)` fault **once** from one `O(window)` scan of the
/// clean trial's stream and scans the faulted trial under every
/// policy; then every cell regenerates its trial's stream lazily
/// inside its worker ([`Trial::run_cell`]) — no trace is ever
/// materialized, so campaign peak memory is `threads × O(window)`
/// instead of `cells × O(trace)`. The clean trial is replayed once
/// per system up front for the false-positive reference.
pub fn run_fault_campaign(config: &FaultCampaignConfig) -> Result<FaultCampaignOutcome, AosError> {
    if config.kinds.is_empty() || config.seeds.is_empty() {
        return Err(AosError::invalid_input(
            "fault campaign",
            "kinds and seeds must both be non-empty",
        ));
    }
    // The differential static cross-check: every configured policy
    // scans the same streams the machines replay — the clean trial
    // once, then each planned fault's trial — in one shared-decode
    // matrix pass per stream.
    let policies: Vec<Policy> = Policy::ALL
        .into_iter()
        .filter(|p| config.policies.contains(p))
        .collect();
    let scan_telemetry = Telemetry::new(config.telemetry);
    let clean = Trial::clean(config.profile, config.scale);
    // The clean reference runs (the false-positive gate) record into
    // the scan handle, as the fuzz harness's do, so the counters cover
    // them as well as the faulted cells and the scans.
    let reference: Vec<SystemUnderTest> = SYSTEMS
        .iter()
        .map(|&system| {
            SystemUnderTest::scaled(system, config.scale).with_telemetry(config.telemetry)
        })
        .collect();
    let (clean_outcome, faults) = fault_sweep(
        &clean,
        &reference,
        &config.kinds,
        &config.seeds,
        &policies,
        &scan_telemetry,
    );
    let faults: Vec<_> = faults.collect();

    // The sweep yields each kind's seeds contiguously, in sweep order;
    // a seed whose plan failed scanned nothing.
    let policy_checks: Vec<PolicyCrossCheck> = clean_outcome
        .reports
        .iter()
        .enumerate()
        .map(|(p, clean)| PolicyCrossCheck {
            policy: clean.policy,
            clean_diagnostics: clean.total_diagnostics(),
            kinds: config
                .kinds
                .iter()
                .zip(faults.chunks(config.seeds.len()))
                .map(|(&kind, kind_faults)| {
                    let reports: Vec<&PolicyReport> = kind_faults
                        .iter()
                        .filter_map(|(_, planned)| planned.as_ref().ok())
                        .map(|(_, reports)| &reports[p])
                        .collect();
                    PolicyKindCheck {
                        policy: clean.policy,
                        kind,
                        seeds: reports.len(),
                        flagged: reports.iter().filter(|r| !r.clean()).count(),
                        // Every rule any seed fired, in taxonomy order.
                        rules: (clean.policy.rules().iter().enumerate())
                            .filter(|&(i, _)| reports.iter().any(|r| r.rule_counts[i] > 0))
                            .map(|(_, info)| info.name)
                            .collect(),
                    }
                })
                .collect(),
        })
        .collect();

    // One campaign cell per (kind, seed, system); the cell's label
    // carries the workload/system pair, the side tables the fault.
    // Each fault's trial is shared by its cells across the systems.
    let cells: Vec<CampaignCell> = faults
        .iter()
        .flat_map(|_| SYSTEMS)
        .map(|system| CampaignCell {
            profile: config.profile,
            sut: SystemUnderTest::scaled(system, config.scale).with_telemetry(config.telemetry),
        })
        .collect();
    // A failed plan fails its cells (the runner's error) instead of
    // aborting the sweep.
    let mut report = run_campaign_custom(&cells, &config.options, &|index, cell| {
        let (_, planned) = &faults[index / SYSTEMS.len()];
        let (trial, _) = planned.as_ref().map_err(AosError::clone)?;
        Ok(trial.run_cell(&cell.sut))
    });

    let mut matrix = TrialMatrix::default();
    for (index, result) in report.results.iter().enumerate() {
        if let Some(stats) = result.stats() {
            let (system, clean_violations) = clean_outcome.violations[index % SYSTEMS.len()];
            matrix.push(
                faults[index / SYSTEMS.len()].0,
                SystemTrial {
                    system,
                    clean_violations,
                    faulty_violations: stats.violations,
                },
            );
        }
    }
    report.annotate("fault_detection", matrix.to_json_value());
    report.annotate(
        "policy_cross_check",
        Layout::Inline.array(policy_checks.iter().map(PolicyCrossCheck::to_json_value)),
    );
    Ok(FaultCampaignOutcome {
        report,
        matrix,
        policies: policy_checks,
        telemetry: scan_telemetry.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_isa::Op;
    use aos_util::Counter;
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
        assert!(
            outcome.matrix.is_sound(),
            "{}",
            outcome.matrix.to_json_value()
        );
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
        assert!(json.contains("\"schema\": \"aos-campaign-report/v8\""));
        // Every cell streamed: ops were metered and the pipeline never
        // held more than a window of trace (the clean trace here is
        // tens of thousands of ops).
        for r in &outcome.report.results {
            assert!(r.trace_ops() > 10_000, "{}", r.cell.label());
            let peak_ops = r.peak_trace_bytes() / std::mem::size_of::<Op>() as u64;
            assert!(peak_ops > 0 && peak_ops < 1024, "peak {peak_ops} ops");
        }
    }

    /// mcf's window has no free to anchor a `uaf` on: the planning
    /// error is the cell's failure, reported with the planner's own
    /// text and no panic.
    #[test]
    fn a_failed_plan_fails_its_cells_without_a_panic() {
        let config = FaultCampaignConfig {
            kinds: vec![FaultKind::UseAfterFree],
            options: CampaignOptions::with_threads(1),
            ..FaultCampaignConfig::standard(*by_name("mcf").unwrap(), 0.004, vec![1])
        };
        let outcome = run_fault_campaign(&config).unwrap();
        assert_eq!(outcome.report.failed(), 2);
        for cell in &outcome.report.results {
            let system = cell.cell.sut.safety;
            assert_eq!(
                cell.error(),
                Some(
                    format!(
                        "cell mcf/{system} failed: invalid input in fault injection: trace has \
                         no bndclr (free) without a same-PAC reallocation inside the \
                         retirement window to anchor a uaf fault on"
                    )
                    .as_str()
                )
            );
        }
    }

    /// A kind whose every plan failed scanned no stream: it has no
    /// static/dynamic verdict, so neither gate may pass it.
    #[test]
    fn a_kind_with_no_planned_seed_is_unplanned() {
        let config = FaultCampaignConfig {
            kinds: vec![FaultKind::UseAfterFree, FaultKind::DoubleFree],
            options: CampaignOptions::with_threads(1),
            ..FaultCampaignConfig::standard(*by_name("mcf").unwrap(), 0.004, vec![1, 2])
        };
        let outcome = run_fault_campaign(&config).unwrap();
        let aos = &outcome.policies[0];
        for check in &aos.kinds {
            assert_eq!(check.seeds, 0, "{}", check.kind);
            assert_eq!(check.classification(), LintClass::Unplanned);
        }
        assert!(!aos.is_consistent(), "{}", aos.to_json_value());
        assert!(!aos.matches_pinned_split(), "{}", aos.to_json_value());
        let json = aos.to_json_value().to_string();
        assert!(json.contains("\"classification\": \"unplanned\""), "{json}");
    }

    /// With telemetry on, the cells count generation as well as
    /// simulation, and the static cross-check counts its scans: all
    /// six counters below read zero when either half is dropped.
    #[test]
    fn telemetry_covers_generation_simulation_and_the_static_scans() {
        let config = FaultCampaignConfig {
            kinds: vec![FaultKind::DoubleFree],
            policies: Policy::ALL.to_vec(),
            options: CampaignOptions::with_threads(1),
            telemetry: true,
            ..FaultCampaignConfig::standard(*by_name("hmmer").unwrap(), 0.004, vec![1])
        };
        let outcome = run_fault_campaign(&config).unwrap();
        let mut merged = outcome.report.telemetry();
        merged.merge(&outcome.telemetry);
        for counter in [
            Counter::HeapAllocs,
            Counter::PtrSigns,
            Counter::PacComputations,
            Counter::LintOpsScanned,
            Counter::LintDiagnostics,
            Counter::LintPolicyDiagnostics,
        ] {
            assert!(merged.counter(counter) > 0, "{} stayed 0", counter.name());
        }
        // The scan handle also holds the clean reference runs' machine
        // counters; the faulted cells' own are in the report.
        assert!(outcome.telemetry.counter(Counter::McqEnqueued) > 0);
        let quiet = run_fault_campaign(&FaultCampaignConfig {
            telemetry: false,
            ..config
        })
        .unwrap();
        assert!(quiet.telemetry.is_empty());
        assert!(quiet.report.telemetry().is_empty());
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
