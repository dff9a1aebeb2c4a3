//! The adversarial fuzzing matrix: every composite attack primitive,
//! alone and chained, lands exactly on its pinned static/dynamic
//! expectation — detected by the AOS machines, missed by the
//! unprotected ones, flagged (or deliberately not) by the linter —
//! and the banked golden corpus replays those verdicts bit-stably.
//!
//! Regenerate the golden corpus after an intentional change to the
//! primitives, the trace generator, or the corpus format with:
//!
//! ```text
//! AOS_UPDATE_GOLDEN=1 cargo test --test fuzz_matrix
//! ```

use aos_fault::{
    plan_fault, run_fault_campaign, FaultCampaignConfig, FaultKind, FaultSpec, Measurement, Trial,
};
use aos_fuzz::differential::{measure_everywhere, run_scenario};
use aos_fuzz::scenario::{plan_scenario, PlannedStep, ScenarioPlan};
use aos_fuzz::{
    bank_scenarios, replay_corpus, run_fuzz, CompositeKind, FuzzConfig, ScenarioSpec, StepKind,
};
use aos_isa::SafetyConfig;
use aos_lint::Policy;
use aos_ptrauth::PointerLayout;
use aos_util::scratch::ScratchDir;
use aos_util::{Counter, Telemetry};
use aos_workloads::profile::by_name;

const GOLDEN: &str = "tests/golden/fuzz/composites.aosc";
const WORKLOAD: &str = "hmmer";
const SCALE: f64 = 0.004;

/// One fixed-seed single-step chain per composite primitive — the
/// permanent regression corpus.
fn golden_specs() -> Vec<ScenarioSpec> {
    CompositeKind::ALL
        .into_iter()
        .enumerate()
        .map(|(i, kind)| ScenarioSpec {
            seed: 100 + i as u64,
            steps: vec![StepKind::Composite(kind)],
        })
        .collect()
}

/// The clean trial of `workload` and its measurement on every system
/// under every policy: the baseline each scenario is judged against.
fn clean_trial(workload: &str) -> (Trial, Measurement) {
    let profile = by_name(workload).expect("workload profile exists");
    let clean = Trial::clean(*profile, SCALE);
    let baseline = measure_everywhere(&clean, &Telemetry::disabled());
    (clean, baseline)
}

/// The acceptance matrix: each composite chain is detected by both
/// AOS machines with its exact pinned violation delta, missed by
/// Baseline/Watchdog/PA, and classified by the linter exactly as
/// pinned — with zero differential findings.
#[test]
fn every_composite_chain_is_detected_by_aos_and_missed_by_baseline() {
    let (clean, baseline) = clean_trial(WORKLOAD);
    let trace = || clean.stream();
    for spec in golden_specs() {
        let kind = match spec.steps[0] {
            StepKind::Composite(kind) => kind,
            StepKind::Base(_) => unreachable!("golden specs are composites"),
        };
        let plan = plan_scenario(&spec, trace, PointerLayout::default()).expect("plan");
        let outcome = run_scenario(&clean, &baseline, &plan, &Telemetry::disabled());
        assert!(
            outcome.findings.is_empty(),
            "{kind}: {:?}",
            outcome.findings
        );
        let pinned = kind.exact_delta();
        for verdict in &outcome.systems {
            assert_eq!(verdict.clean_violations, 0, "{kind} on {}", verdict.system);
            let expected = if verdict.system.uses_aos() { pinned } else { 0 };
            assert_eq!(
                verdict.delta(),
                expected,
                "{kind} on {}: wrong violation delta",
                verdict.system
            );
        }
        let statically_flagged = outcome.aos().diagnostics > 0;
        assert_eq!(
            statically_flagged,
            !kind.policy_rules(Policy::Aos).is_empty(),
            "{kind}: linter verdict off the pinned static/dynamic split"
        );
    }
}

/// Composites compose: all five in one chain, each in a private
/// synthetic region with private PACs, still produce the exact sum of
/// their pinned deltas and the union of their pinned rules.
#[test]
fn the_full_composite_chain_composes_without_interference() {
    let (clean, baseline) = clean_trial(WORKLOAD);
    let trace = || clean.stream();
    let spec = ScenarioSpec {
        seed: 4242,
        steps: CompositeKind::ALL
            .into_iter()
            .map(StepKind::Composite)
            .collect(),
    };
    let plan = plan_scenario(&spec, trace, PointerLayout::default()).expect("plan");
    let expected_delta: u64 = CompositeKind::ALL
        .into_iter()
        .map(CompositeKind::exact_delta)
        .sum();
    let outcome = run_scenario(&clean, &baseline, &plan, &Telemetry::disabled());
    assert!(outcome.findings.is_empty(), "{:?}", outcome.findings);
    for verdict in &outcome.systems {
        let expected = if verdict.system.uses_aos() {
            expected_delta
        } else {
            0
        };
        assert_eq!(verdict.delta(), expected, "on {}", verdict.system);
    }
}

/// Base-injector chains on omnetpp that once anchored on a free
/// leaving another record with the victim's PAC live: the `uaf` load
/// or the repeated `bndclr` then went through the live alias, and the
/// AOS and CryptSan pinned rules stayed silent. The injectors now skip
/// such frees, so every chain lands on its pins.
#[test]
fn base_chains_on_aliased_frees_stay_on_their_pins() {
    let (clean, baseline) = clean_trial("omnetpp");
    let trace = || clean.stream();
    let uaf = StepKind::Base(FaultKind::UseAfterFree);
    for spec in [
        ScenarioSpec {
            seed: 11010449909530149182,
            steps: vec![uaf, StepKind::Composite(CompositeKind::HeapSpray)],
        },
        ScenarioSpec {
            seed: 8292508428407620880,
            steps: vec![StepKind::Base(FaultKind::OverflowWrite), uaf],
        },
        ScenarioSpec {
            seed: 7729296927948608918,
            steps: vec![StepKind::Base(FaultKind::DoubleFree)],
        },
    ] {
        let plan = plan_scenario(&spec, trace, PointerLayout::default()).expect("plan");
        let outcome = run_scenario(&clean, &baseline, &plan, &Telemetry::disabled());
        assert!(
            !outcome.is_finding(),
            "{}: {:?}",
            spec.id(),
            outcome.findings
        );
    }
}

/// The fault campaign and the differential harness judge one edit
/// alike: a one-step scenario carrying exactly `plan_fault`'s splice
/// raises the campaign's AOS/Baseline clean and faulty violations,
/// and every policy fires exactly the rules the campaign's
/// cross-check pins for that kind.
#[test]
fn both_harnesses_judge_the_same_edit_alike() {
    const SEEDS: [u64; 2] = [1, 7];
    let (clean, baseline) = clean_trial(WORKLOAD);
    let outcome = run_fault_campaign(&FaultCampaignConfig {
        policies: Policy::ALL.to_vec(),
        ..FaultCampaignConfig::standard(clean.profile, SCALE, SEEDS.to_vec())
    })
    .expect("fault campaign runs");
    for kind in FaultKind::ALL {
        for seed in SEEDS {
            let spec = FaultSpec { kind, seed };
            let fault = plan_fault(clean.stream(), PointerLayout::default(), spec).expect("plan");
            let step = StepKind::Base(kind);
            let plan = ScenarioPlan {
                spec: ScenarioSpec {
                    seed,
                    steps: vec![step],
                },
                edits: vec![fault.splice],
                steps: vec![PlannedStep {
                    kind: step,
                    description: fault.description,
                    static_pinned: true,
                }],
                dropped: Vec::new(),
            };
            let scenario = run_scenario(&clean, &baseline, &plan, &Telemetry::disabled());
            for system in [SafetyConfig::Aos, SafetyConfig::Baseline] {
                let (_, trial) = outcome
                    .matrix
                    .trials
                    .iter()
                    .find(|(s, t)| *s == spec && t.system == system)
                    .expect("one campaign trial per (kind, seed, system)");
                let verdict = scenario
                    .systems
                    .iter()
                    .find(|v| v.system == system)
                    .expect("one scenario verdict per system");
                assert_eq!(verdict, trial, "{kind} seed {seed} on {system}");
            }
            for check in &outcome.policies {
                let pinned = check
                    .kinds
                    .iter()
                    .find(|k| k.kind == kind)
                    .expect("one cross-check entry per kind");
                let verdict = scenario
                    .policies
                    .iter()
                    .find(|v| v.policy == check.policy)
                    .expect("one scenario verdict per policy");
                assert_eq!(
                    verdict.rules, pinned.rules,
                    "{kind} seed {seed} under {}",
                    check.policy
                );
            }
        }
    }
}

/// `aos fuzz --seed N --budget B` twice produces identical digests
/// and identical reports — the determinism contract.
#[test]
fn fuzz_campaign_digest_is_deterministic_and_seed_steered() {
    let telemetry = Telemetry::disabled();
    let config = FuzzConfig {
        workload: WORKLOAD.to_string(),
        scale: SCALE,
        seed: 9,
        budget: 4,
        ..FuzzConfig::default()
    };
    let a = run_fuzz(&config, &telemetry).expect("fuzz");
    let b = run_fuzz(&config, &telemetry).expect("fuzz");
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.to_json(), b.to_json());
    let other = run_fuzz(&FuzzConfig { seed: 10, ..config }, &telemetry).expect("fuzz");
    assert_ne!(a.digest(), other.digest(), "seed must steer the campaign");
}

/// The campaign is observable: the `fuzz_*` telemetry counters ledger
/// scenarios, steps and findings.
#[test]
fn fuzz_telemetry_counters_ledger_the_campaign() {
    let telemetry = Telemetry::enabled();
    let report = run_fuzz(
        &FuzzConfig {
            workload: WORKLOAD.to_string(),
            scale: SCALE,
            seed: 3,
            budget: 3,
            ..FuzzConfig::default()
        },
        &telemetry,
    )
    .expect("fuzz");
    let snapshot = telemetry.snapshot();
    assert_eq!(snapshot.counter(Counter::FuzzScenarios), 3);
    assert!(snapshot.counter(Counter::FuzzSteps) >= report.outcomes.len() as u64);
    assert_eq!(snapshot.counter(Counter::FuzzFindings), report.findings());
    // The clean-baseline scan and every scenario's scan record into
    // the campaign's handle: AOS diagnostics ledger exactly (the clean
    // trace lints clean), and the op count covers all of the scans.
    assert_eq!(
        snapshot.counter(Counter::LintDiagnostics),
        report
            .outcomes
            .iter()
            .map(|o| o.aos().diagnostics)
            .sum::<u64>()
    );
    assert!(snapshot.counter(Counter::LintOpsScanned) > 0);
}

/// The campaign's machines count into its handle too: every replay
/// (the clean baseline's and each scenario's, on all five systems)
/// records generation and simulation, so the generator and pipeline
/// counters `aos fuzz --telemetry true` prints are not zero.
#[test]
fn fuzz_telemetry_counts_generation_and_the_machines() {
    let telemetry = Telemetry::enabled();
    run_fuzz(
        &FuzzConfig {
            workload: WORKLOAD.to_string(),
            scale: SCALE,
            seed: 7,
            budget: 1,
            ..FuzzConfig::default()
        },
        &telemetry,
    )
    .expect("fuzz");
    let snapshot = telemetry.snapshot();
    for counter in [
        Counter::HeapAllocs,
        Counter::PtrSigns,
        Counter::PacComputations,
        Counter::McqEnqueued,
        Counter::McqRetired,
    ] {
        assert!(snapshot.counter(counter) > 0, "{} stayed 0", counter.name());
    }
}

/// The banked golden corpus replays with bit-stable verdicts: the
/// recorded lint total and the per-system violation counts reproduce
/// exactly from the banked ops alone.
#[test]
fn golden_corpus_replays_verdict_stable() {
    if std::env::var_os("AOS_UPDATE_GOLDEN").is_some() {
        let outcomes = bank_scenarios(
            WORKLOAD,
            SCALE,
            &golden_specs(),
            GOLDEN,
            &Telemetry::disabled(),
        )
        .expect("bank golden corpus");
        assert!(
            outcomes.iter().all(|o| !o.is_finding()),
            "golden chains must be finding-free"
        );
    }
    let report = replay_corpus(GOLDEN, &Telemetry::disabled())
        .expect("golden corpus opens; regenerate with AOS_UPDATE_GOLDEN=1");
    assert_eq!(report.checks.len(), CompositeKind::ALL.len());
    assert!(report.is_stable(), "{:?}", report.checks);
}

/// Banking is a pure function of the specs: regenerating the corpus
/// from scratch reproduces the checked-in golden file byte for byte.
#[test]
fn golden_corpus_matches_regeneration_bit_for_bit() {
    if std::env::var_os("AOS_UPDATE_GOLDEN").is_some() {
        // The replay test above is rewriting the golden concurrently;
        // comparing against a file mid-write would be a false alarm.
        return;
    }
    let dir = ScratchDir::new("fuzz-golden-regen").expect("scratch dir");
    let tmp = dir.join("regen.aosc");
    bank_scenarios(
        WORKLOAD,
        SCALE,
        &golden_specs(),
        &tmp,
        &Telemetry::disabled(),
    )
    .expect("regenerate");
    let fresh = std::fs::read(&tmp).expect("read regenerated corpus");
    let golden =
        std::fs::read(GOLDEN).expect("golden corpus missing; regenerate with AOS_UPDATE_GOLDEN=1");
    assert_eq!(fresh, golden, "banked corpus bytes drifted from generation");
}
