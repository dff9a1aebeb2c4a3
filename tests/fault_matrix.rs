//! The security matrix, pinned per kind: every injected spatial,
//! temporal and forgery fault is detected by the AOS machine and
//! missed by the unprotected Baseline, with zero false positives on
//! clean traces. This is the repo's executable form of the paper's
//! §VII security evaluation.
//!
//! Detection is sourced from the machines' telemetry ledger — the
//! `sim_violations` counter delta between the faulted and the clean
//! replay — rather than re-deriving detected/missed verdicts in the
//! test. One pinned table drives every kind × system, and the ledger
//! is cross-checked against `RunStats::violations` so the two
//! accounting paths can never drift apart silently.

use aos_core::experiment::SystemUnderTest;
use aos_fault::campaign::FaultCampaignConfig;
use aos_fault::{
    expected_policy_class, expected_policy_rules, plan_fault, run_fault_campaign, FaultKind,
    FaultSpec,
};
use aos_isa::SafetyConfig;
use aos_lint::{MatrixScan, Policy};
use aos_ptrauth::PointerLayout;
use aos_sim::Machine;
use aos_util::{Counter, Telemetry, TelemetrySnapshot};
use aos_workloads::profile::by_name;
use aos_workloads::TraceGenerator;

const SCALE: f64 = 0.004;
const SEEDS: [u64; 3] = [1, 7, 42];

/// Expected telemetry-sourced detections per kind over [`SEEDS`]:
/// every seed of every kind must be caught under AOS. The Baseline
/// expectation is zero across the board — pinned once in the loop,
/// not per kind.
const PINNED: [(FaultKind, u64); 6] = [
    (FaultKind::OverflowWrite, SEEDS.len() as u64),
    (FaultKind::UnderflowWrite, SEEDS.len() as u64),
    (FaultKind::UseAfterFree, SEEDS.len() as u64),
    (FaultKind::DoubleFree, SEEDS.len() as u64),
    (FaultKind::PacTamper, SEEDS.len() as u64),
    (FaultKind::AhcForge, SEEDS.len() as u64),
];

/// Replays the clean and the faulted stream for one `(kind, seed)` on
/// `system` with telemetry on, returning the two snapshots. The
/// cross-check that each ledger agrees with the machine's own
/// violation count lives here, so every trial below inherits it.
fn trial_snapshots(
    kind: FaultKind,
    seed: u64,
    system: SafetyConfig,
) -> (TelemetrySnapshot, TelemetrySnapshot) {
    let profile = by_name("hmmer").unwrap();
    let sut = SystemUnderTest::scaled(system, SCALE).with_telemetry(true);
    let stream = || TraceGenerator::new(profile, SafetyConfig::Aos, SCALE);
    let plan = plan_fault(stream(), PointerLayout::default(), FaultSpec { kind, seed })
        .expect("fault plans against the instrumented trace");
    let clean = Machine::new(sut.machine_config()).run(stream());
    let faulty = Machine::new(sut.machine_config()).run(plan.apply(stream()));
    assert_eq!(
        clean.telemetry.counter(Counter::SimViolations),
        clean.violations,
        "{kind} seed {seed} on {system}: clean ledger drifted from RunStats"
    );
    assert_eq!(
        faulty.telemetry.counter(Counter::SimViolations),
        faulty.violations,
        "{kind} seed {seed} on {system}: faulty ledger drifted from RunStats"
    );
    (clean.telemetry, faulty.telemetry)
}

/// Telemetry-sourced detections for one kind on one system: the
/// number of seeds whose faulted replay raised more `sim_violations`
/// than its clean replay. Clean replays must stay silent (the
/// false-positive gate) on every system.
fn detections(kind: FaultKind, system: SafetyConfig) -> u64 {
    SEEDS
        .iter()
        .filter(|&&seed| {
            let (clean, faulty) = trial_snapshots(kind, seed, system);
            assert_eq!(
                clean.counter(Counter::SimViolations),
                0,
                "{kind} seed {seed} on {system}: clean trace raised a violation"
            );
            faulty.counter(Counter::SimViolations) > clean.counter(Counter::SimViolations)
        })
        .count() as u64
}

#[test]
fn aos_detects_and_baseline_misses_every_pinned_fault() {
    for (kind, expected) in PINNED {
        assert_eq!(
            detections(kind, SafetyConfig::Aos),
            expected,
            "AOS must detect every seed of {kind}"
        );
        assert_eq!(
            detections(kind, SafetyConfig::Baseline),
            0,
            "Baseline unexpectedly caught {kind}"
        );
    }
}

/// Baseline machines record nothing AOS-specific: their faulted runs
/// keep the whole safety-pipeline ledger at zero, which is what makes
/// the detection asymmetry above meaningful.
#[test]
fn baseline_faulted_runs_keep_the_safety_ledger_empty() {
    let (_, faulty) = trial_snapshots(FaultKind::OverflowWrite, 1, SafetyConfig::Baseline);
    for c in [
        Counter::SimViolations,
        Counter::HbtInserts,
        Counter::BwbHits,
        Counter::BwbMisses,
        Counter::McqEnqueued,
    ] {
        assert_eq!(faulty.counter(c), 0, "baseline counted {c:?}");
    }
}

/// The static/dynamic split of the six base kinds under the default
/// sweep, pinned as a table instead of merely annotated: the campaign
/// scans the AOS policy alone, the spatial writes are invisible to
/// the linter (protocol-clean streams) while the temporal and forgery
/// kinds each fire an exact rule set. A kind silently drifting across
/// the split — or firing a different rule — fails here even though it
/// would still be self-consistent under the weaker `is_consistent`
/// gate.
#[test]
fn lint_cross_check_matches_the_pinned_static_dynamic_split() {
    let profile = by_name("hmmer").unwrap();
    let config = FaultCampaignConfig::standard(*profile, SCALE, vec![1, 7]);
    let outcome = run_fault_campaign(&config).expect("fault campaign runs");
    assert_eq!(
        outcome.policies.len(),
        1,
        "the default sweep scans AOS alone"
    );
    let aos = &outcome.policies[0];
    assert_eq!(aos.policy, Policy::Aos);
    assert_eq!(aos.clean_diagnostics, 0, "the clean trace must lint clean");
    assert_eq!(aos.kinds.len(), FaultKind::ALL.len());
    for check in &aos.kinds {
        assert_eq!(
            check.classification(),
            expected_policy_class(Policy::Aos, check.kind),
            "{} drifted across the static/dynamic split",
            check.kind.name()
        );
        assert_eq!(
            check.rules,
            expected_policy_rules(Policy::Aos, check.kind),
            "{} fired a different rule set than pinned",
            check.kind.name()
        );
    }
    assert!(aos.matches_pinned_split());
    assert!(aos.is_consistent());
    // One static verdict, one annotation.
    let json = outcome.report.to_json();
    assert!(!json.contains("lint_cross_check"));
    assert!(json.contains("\"policy_cross_check\": [{\"policy\": \"aos\","));
}

/// The `--policy all` strict gate's evidence, end to end: sweeping
/// the campaign under every static policy lands each one exactly on
/// its own pinned rule table (zero clean-trace noise included), and
/// the campaign report carries one annotation per policy.
#[test]
fn every_policy_cross_check_lands_on_its_pinned_table() {
    let profile = by_name("hmmer").unwrap();
    let config = FaultCampaignConfig {
        policies: Policy::ALL.to_vec(),
        ..FaultCampaignConfig::standard(*profile, SCALE, vec![1, 7])
    };
    let outcome = run_fault_campaign(&config).expect("fault campaign runs");
    assert_eq!(outcome.policies.len(), Policy::ALL.len());
    for check in &outcome.policies {
        assert_eq!(
            check.clean_diagnostics,
            0,
            "{} flagged the clean trace",
            check.policy.name()
        );
        assert!(
            check.matches_pinned_split(),
            "{} drifted off its pinned table: {}",
            check.policy.name(),
            check.to_json_value()
        );
        for k in &check.kinds {
            assert_eq!(
                k.rules,
                expected_policy_rules(check.policy, k.kind),
                "{} / {}",
                check.policy.name(),
                k.kind.name()
            );
            assert_eq!(
                k.classification(),
                expected_policy_class(check.policy, k.kind),
                "{} / {}",
                check.policy.name(),
                k.kind.name()
            );
        }
    }
    // The report annotation carries every policy's verdict.
    let json = outcome.report.to_json();
    assert!(json.contains("\"policy_cross_check\""));
    for p in Policy::ALL {
        assert!(json.contains(&format!("\"policy\": \"{}\"", p.name())), "{p:?}");
    }
}

/// The `uaf` injector's anchor rules, on the omnetpp seeds that broke
/// them: seed 13 anchored on a free within `UAF_DELAY_OPS` of the
/// trace end, so the load was clamped into the retirement window and
/// the machine missed it; seeds 14 and 24 anchored on a free that left
/// another record with the victim's PAC live, so no PAC-keyed model
/// could tell the access from one through the live alias. Every seed
/// must be flagged statically and detected dynamically.
#[test]
fn uaf_anchors_have_a_full_window_and_no_live_alias() {
    let profile = by_name("omnetpp").unwrap();
    let layout = PointerLayout::default();
    let stream = || TraceGenerator::new(profile, SafetyConfig::Aos, SCALE);
    let sut = SystemUnderTest::scaled(SafetyConfig::Aos, SCALE);
    let clean = Machine::new(sut.machine_config()).run(stream()).violations;
    for seed in [13, 14, 24] {
        let spec = FaultSpec {
            kind: FaultKind::UseAfterFree,
            seed,
        };
        let plan = plan_fault(stream(), layout, spec).expect("uaf plans on omnetpp");
        let reports = MatrixScan::run(
            &[Policy::Aos],
            plan.apply(stream()),
            layout,
            &Telemetry::disabled(),
        );
        assert_eq!(
            reports[0].rule_names_fired(),
            expected_policy_rules(Policy::Aos, FaultKind::UseAfterFree),
            "seed {seed}: {}",
            plan.description
        );
        let faulty = Machine::new(sut.machine_config()).run(plan.apply(stream()));
        assert!(
            faulty.violations > clean,
            "seed {seed}: the AOS machine missed {}",
            plan.description
        );
    }
}

/// A forged PAC never aliases one the clean trace signs: on omnetpp
/// one of the first 40 seeds used to draw a signed PAC, so its forged
/// access looked legal to every PAC-keyed model and the kind read
/// `mixed`. All 40 must now land on the pinned static split and be
/// caught by the AOS machine.
#[test]
fn ahc_forge_never_aliases_a_signed_pac() {
    let config = FaultCampaignConfig {
        kinds: vec![FaultKind::AhcForge],
        ..FaultCampaignConfig::standard(*by_name("omnetpp").unwrap(), SCALE, (1..=40).collect())
    };
    let outcome = run_fault_campaign(&config).expect("ahc-forge plans on omnetpp");
    assert_eq!(outcome.report.failed(), 0);
    assert!(
        outcome.matrix.is_sound(),
        "{}",
        outcome.matrix.to_json_value()
    );
    let aos = &outcome.policies[0];
    assert_eq!(aos.kinds[0].flagged, 40, "{}", aos.to_json_value());
    assert!(aos.matches_pinned_split(), "{}", aos.to_json_value());
}

#[test]
fn pa_aos_system_also_detects_the_pinned_faults() {
    let (clean, faulty) = trial_snapshots(FaultKind::OverflowWrite, 1, SafetyConfig::PaAos);
    assert_eq!(clean.counter(Counter::SimViolations), 0);
    assert!(faulty.counter(Counter::SimViolations) > 0);
}
