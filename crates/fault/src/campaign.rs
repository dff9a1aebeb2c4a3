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
use aos_lint::{MatrixScan, Policy, Rule};
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
    /// Static policies to cross-check every stream against. The AOS
    /// policy is always scanned (it backs the legacy
    /// `lint_cross_check`); listing more policies here adds their
    /// verdicts to the same single-pass matrix scan and to the
    /// `policy_cross_check` report annotation.
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
/// matrix it summarizes and the static-lint cross-check.
#[derive(Debug, Clone)]
pub struct FaultCampaignOutcome {
    /// The v4 campaign report, annotated with `fault_detection` and
    /// `lint_cross_check`.
    pub report: CampaignReport,
    /// Every trial's verdict.
    pub matrix: TrialMatrix,
    /// The differential static-analysis cross-check: what `aos-lint`
    /// sees in the same clean and faulted streams.
    pub lint: LintCrossCheck,
    /// Per-policy cross-checks, one per configured [`Policy`], in
    /// [`Policy::ALL`] order. Each policy's verdicts come from the
    /// same single-pass matrix scan as the legacy `lint` field.
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

impl LintClass {
    /// The *pinned* static/dynamic split of the six base fault kinds
    /// — the design fact the differential harness and the strict gate
    /// defend. Spatial faults splice protocol-legal accesses (only
    /// the machine's bounds check can see an address is wrong);
    /// temporal and forgery faults break the Fig. 7 lifecycle itself,
    /// which the linter proves without running a machine.
    pub fn expected_for(kind: FaultKind) -> LintClass {
        match kind {
            FaultKind::OverflowWrite | FaultKind::UnderflowWrite => LintClass::DynamicOnly,
            FaultKind::UseAfterFree
            | FaultKind::DoubleFree
            | FaultKind::PacTamper
            | FaultKind::AhcForge => LintClass::StaticallyDetectable,
        }
    }
}

/// The exact lint rules each base fault kind is pinned to fire (in
/// taxonomy order; empty for the dynamic-only kinds). The companion
/// of [`LintClass::expected_for`].
pub fn expected_lint_rules(kind: FaultKind) -> &'static [Rule] {
    match kind {
        FaultKind::OverflowWrite | FaultKind::UnderflowWrite => &[],
        FaultKind::UseAfterFree => &[Rule::AccessAfterClear],
        FaultKind::DoubleFree => &[Rule::DoubleBndclr, Rule::UnbalancedAtEnd],
        FaultKind::PacTamper => &[Rule::UnknownPac],
        FaultKind::AhcForge => &[Rule::UnknownPac],
    }
}

/// The pinned static rules each policy fires on each base fault kind
/// — the per-policy analogue of [`expected_lint_rules`], in wire
/// names because every policy owns its own taxonomy. An empty slice
/// pins the kind as invisible to that policy's static model:
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

/// The lint verdicts for one fault kind across the campaign's seeds.
#[derive(Debug, Clone)]
pub struct LintKindCheck {
    /// The fault class.
    pub kind: FaultKind,
    /// Seeds whose plan succeeded and whose faulted stream was
    /// linted.
    pub seeds: usize,
    /// Seeds whose faulted stream raised at least one diagnostic.
    pub flagged: usize,
    /// Union of rule names that fired, in taxonomy order.
    pub rules: Vec<&'static str>,
}

impl LintKindCheck {
    /// The kind's static-vs-dynamic classification.
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

/// The campaign's differential static-analysis summary: the clean
/// stream's diagnostic count (must be zero) and each fault kind's
/// [`LintClass`]. Rides the report as the `lint_cross_check`
/// annotation.
#[derive(Debug, Clone, Default)]
pub struct LintCrossCheck {
    /// Diagnostics the clean (unfaulted) stream raised — any nonzero
    /// value is a lint false positive.
    pub clean_diagnostics: u64,
    /// One entry per fault kind, in sweep order.
    pub kinds: Vec<LintKindCheck>,
}

impl LintCrossCheck {
    /// `true` when the clean stream linted clean and every kind is
    /// unambiguously static or dynamic-only — the property the
    /// strict gate and `tests/lint_matrix.rs` pin.
    pub fn is_consistent(&self) -> bool {
        self.clean_diagnostics == 0
            && self
                .kinds
                .iter()
                .all(|k| k.classification() != LintClass::Mixed)
    }

    /// The kinds the linter proves statically.
    pub fn static_kinds(&self) -> impl Iterator<Item = &LintKindCheck> {
        self.kinds
            .iter()
            .filter(|k| k.classification() == LintClass::StaticallyDetectable)
    }

    /// `true` when every swept kind's observed classification *and*
    /// fired rule set equal the pinned split
    /// ([`LintClass::expected_for`] / [`expected_lint_rules`]).
    /// Stronger than [`LintCrossCheck::is_consistent`]: a kind that
    /// silently drifted from `static` to `dynamic-only` (or started
    /// firing a different rule) is still self-consistent, but it is
    /// no longer the system the paper describes — the strict gate
    /// fails it instead of annotating it.
    pub fn matches_pinned_split(&self) -> bool {
        self.clean_diagnostics == 0
            && self.kinds.iter().all(|k| {
                let rules: Vec<&'static str> = expected_lint_rules(k.kind)
                    .iter()
                    .map(|r| r.name())
                    .collect();
                k.classification() == LintClass::expected_for(k.kind) && k.rules == rules
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
            "{{\"clean_diagnostics\": {}, \"consistent\": {}, \"kinds\": [{kinds}]}}",
            self.clean_diagnostics,
            self.is_consistent()
        )
    }
}

/// One policy's lint verdicts for one fault kind across the
/// campaign's seeds — the per-policy analogue of [`LintKindCheck`].
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
/// the `--policy` strict gate's evidence.
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
    // shared-decode matrix pass per stream. The AOS policy is always
    // scanned (it backs the legacy `lint_cross_check`, bit-identical
    // to the pre-framework linter); extra policies ride the same
    // pass.
    let requested: Vec<Policy> = Policy::ALL
        .into_iter()
        .filter(|p| config.policies.contains(p))
        .collect();
    let scan_policies: Vec<Policy> = Policy::ALL
        .into_iter()
        .filter(|p| *p == Policy::Aos || requested.contains(p))
        .collect();
    let slot = |p: Policy| {
        scan_policies
            .iter()
            .position(|&q| q == p)
            .expect("policy was scanned")
    };
    let clean_reports = MatrixScan::run(
        &scan_policies,
        stream(&config.profile, config.scale),
        layout,
        &Telemetry::disabled(),
    );
    let mut lint = LintCrossCheck {
        clean_diagnostics: clean_reports[slot(Policy::Aos)].total_diagnostics(),
        kinds: Vec::new(),
    };
    let mut policy_checks: Vec<PolicyCrossCheck> = requested
        .iter()
        .map(|&p| PolicyCrossCheck {
            policy: p,
            clean_diagnostics: clean_reports[slot(p)].total_diagnostics(),
            kinds: Vec::new(),
        })
        .collect();
    for (ki, &kind) in config.kinds.iter().enumerate() {
        let mut check = LintKindCheck {
            kind,
            seeds: 0,
            flagged: 0,
            rules: Vec::new(),
        };
        let mut fired = [false; Rule::COUNT];
        let mut kind_checks: Vec<PolicyKindCheck> = requested
            .iter()
            .map(|&p| PolicyKindCheck {
                policy: p,
                kind,
                seeds: 0,
                flagged: 0,
                rules: Vec::new(),
            })
            .collect();
        let mut policy_fired: Vec<Vec<bool>> = requested
            .iter()
            .map(|&p| vec![false; p.rules().len()])
            .collect();
        for si in 0..config.seeds.len() {
            if let Ok(plan) = &plans[ki * config.seeds.len() + si] {
                let reports = MatrixScan::run(
                    &scan_policies,
                    plan.apply(stream(&config.profile, config.scale)),
                    layout,
                    &Telemetry::disabled(),
                );
                let aos = &reports[slot(Policy::Aos)];
                check.seeds += 1;
                if !aos.clean() {
                    check.flagged += 1;
                }
                for rule in aos.aos_rules_fired() {
                    fired[rule as usize] = true;
                }
                for (pi, &p) in requested.iter().enumerate() {
                    let report = &reports[slot(p)];
                    kind_checks[pi].seeds += 1;
                    if !report.clean() {
                        kind_checks[pi].flagged += 1;
                    }
                    for (ri, &count) in report.rule_counts.iter().enumerate() {
                        if count > 0 {
                            policy_fired[pi][ri] = true;
                        }
                    }
                }
            }
        }
        check.rules = Rule::ALL
            .iter()
            .filter(|r| fired[**r as usize])
            .map(|r| r.name())
            .collect();
        lint.kinds.push(check);
        for (pi, mut kind_check) in kind_checks.into_iter().enumerate() {
            kind_check.rules = kind_check
                .policy
                .rules()
                .iter()
                .enumerate()
                .filter(|(ri, _)| policy_fired[pi][*ri])
                .map(|(_, info)| info.name)
                .collect();
            policy_checks[pi].kinds.push(kind_check);
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
    report.annotate("lint_cross_check", lint.to_json_value());
    let policy_json = policy_checks
        .iter()
        .map(PolicyCrossCheck::to_json_value)
        .collect::<Vec<_>>()
        .join(", ");
    report.annotate("policy_cross_check", format!("[{policy_json}]"));
    Ok(FaultCampaignOutcome {
        report,
        matrix,
        lint,
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
        // The static cross-check rides the report and must be
        // internally consistent: clean stream clean, every kind
        // unambiguously static or dynamic-only.
        assert!(outcome.lint.is_consistent(), "{}", outcome.lint.to_json_value());
        assert_eq!(outcome.lint.kinds.len(), 6);
        assert!(outcome.lint.static_kinds().count() >= 1);
        // Every configured policy's verdicts must land exactly on its
        // pinned per-kind table, and the AOS policy's check must agree
        // with the legacy lint cross-check (same scan, same linter).
        assert_eq!(outcome.policies.len(), Policy::ALL.len());
        for check in &outcome.policies {
            assert!(
                check.matches_pinned_split(),
                "{}",
                check.to_json_value()
            );
        }
        let aos_check = &outcome.policies[0];
        assert_eq!(aos_check.policy, Policy::Aos);
        assert_eq!(aos_check.clean_diagnostics, outcome.lint.clean_diagnostics);
        for (pk, lk) in aos_check.kinds.iter().zip(&outcome.lint.kinds) {
            assert_eq!(pk.flagged, lk.flagged);
            assert_eq!(pk.rules, lk.rules);
        }
        let json = outcome.report.to_json();
        assert!(json.contains("\"fault_detection\": {\"trials\": 24,"));
        assert!(json.contains("\"lint_cross_check\": {\"clean_diagnostics\": 0, \"consistent\": true,"));
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
