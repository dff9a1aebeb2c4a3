//! The differential static-vs-dynamic detection matrix, pinned per
//! fault kind: temporal faults and metadata forgeries (UAF, double
//! free, PAC tamper, AHC forge) are *protocol breaks* the streaming
//! linter proves without running a machine, while spatial
//! overflows/underflows are clean protocol streams whose addresses
//! are simply wrong — only the HBT bounds check at runtime can see
//! them. Together the two detectors cover every kind, which is the
//! repo's executable form of the paper's claim that AOS needs
//! *runtime* bounds checks precisely because correct instrumentation
//! cannot rule out spatial violations.
//!
//! Also pinned here: clean generated traces lint clean on every
//! system, and the linter's memory stays O(live-PACs) with zero op
//! buffering (asserted through the metered adapter).

use aos_fault::{
    plan_fault, run_fault_campaign, FaultCampaignConfig, FaultKind, FaultSpec, LintClass,
};
use aos_fuzz::scenario::plan_scenario;
use aos_fuzz::{ScenarioSpec, StepKind};
use aos_isa::stream::OpStream;
use aos_isa::SafetyConfig;
use aos_lint::{lint_stream, lint_stream_metered, MatrixScan, Policy, Rule};
use aos_ptrauth::PointerLayout;
use aos_sim::Machine;
use aos_util::Telemetry;
use aos_workloads::profile::by_name;
use aos_workloads::{TraceGenerator, WorkloadProfile};

use aos_core::experiment::SystemUnderTest;

const SCALE: f64 = 0.004;
const SEEDS: [u64; 3] = [1, 7, 42];

/// The pinned matrix over [`SEEDS`]: each kind's lint classification
/// and the exact rule set its injection fires. `DoubleFree` fires two
/// rules because the injected extra `bndclr` both re-clears a cleared
/// PAC and leaves the clear/strip balance open at end of stream.
const PINNED: [(FaultKind, LintClass, &[Rule]); 6] = [
    (FaultKind::OverflowWrite, LintClass::DynamicOnly, &[]),
    (FaultKind::UnderflowWrite, LintClass::DynamicOnly, &[]),
    (
        FaultKind::UseAfterFree,
        LintClass::StaticallyDetectable,
        &[Rule::AccessAfterClear],
    ),
    (
        FaultKind::DoubleFree,
        LintClass::StaticallyDetectable,
        &[Rule::DoubleBndclr, Rule::UnbalancedAtEnd],
    ),
    (
        FaultKind::PacTamper,
        LintClass::StaticallyDetectable,
        &[Rule::UnknownPac],
    ),
    (
        FaultKind::AhcForge,
        LintClass::StaticallyDetectable,
        &[Rule::UnknownPac],
    ),
];

fn profile() -> &'static WorkloadProfile {
    by_name("hmmer").expect("built-in workload")
}

fn stream() -> TraceGenerator {
    TraceGenerator::new(profile(), SafetyConfig::Aos, SCALE)
}

#[test]
fn clean_traces_lint_clean_on_every_system() {
    let layout = PointerLayout::default();
    for name in ["hmmer", "gcc", "mcf", "omnetpp"] {
        let p = by_name(name).expect("built-in workload");
        for system in SafetyConfig::ALL {
            let report = lint_stream(TraceGenerator::new(p, system, SCALE), layout);
            assert!(
                report.findings.clean(),
                "clean {name} on {system} raised findings:\n{}",
                report.to_table()
            );
        }
    }
}

#[test]
fn fault_kind_lint_matrix_is_pinned() {
    let layout = PointerLayout::default();
    for (kind, class, rules) in PINNED {
        for seed in SEEDS {
            let plan = plan_fault(stream(), layout, FaultSpec { kind, seed })
                .expect("fault plans against the instrumented trace");
            let report = lint_stream(plan.apply(stream()), layout);
            assert_eq!(
                report.rules_fired(),
                rules.to_vec(),
                "{kind} seed {seed} fired unexpected rules:\n{}",
                report.to_table()
            );
            let flagged = !report.findings.clean();
            assert_eq!(
                flagged,
                class == LintClass::StaticallyDetectable,
                "{kind} seed {seed}: classification drifted from {class}"
            );
        }
    }
}

/// The union property behind the paper's design: every fault kind is
/// caught by at least one detector — statically by the linter, or
/// dynamically by the AOS machine. For the dynamic-only kinds the
/// machine replay is the *only* net, so it is asserted explicitly.
#[test]
fn static_and_dynamic_detectors_cover_every_kind() {
    let layout = PointerLayout::default();
    let sut = SystemUnderTest::scaled(SafetyConfig::Aos, SCALE);
    for (kind, class, _) in PINNED {
        if class != LintClass::DynamicOnly {
            continue; // statically covered, pinned above
        }
        for seed in SEEDS {
            let plan = plan_fault(stream(), layout, FaultSpec { kind, seed })
                .expect("fault plans against the instrumented trace");
            let stats = Machine::new(sut.machine_config()).run(plan.apply(stream()));
            assert!(
                stats.violations > 0,
                "{kind} seed {seed} is dynamic-only but the AOS machine missed it"
            );
        }
    }
}

/// The full campaign's AOS cross-check agrees with the pinned matrix:
/// consistent, clean-trace clean, and each kind classified exactly as
/// above.
#[test]
fn campaign_cross_check_agrees_with_the_pinned_matrix() {
    use aos_core::experiment::campaign::CampaignOptions;
    let config = FaultCampaignConfig {
        options: CampaignOptions::with_threads(4),
        ..FaultCampaignConfig::standard(*profile(), SCALE, vec![1, 7])
    };
    let outcome = run_fault_campaign(&config).expect("campaign runs");
    let aos = &outcome.policies[0];
    assert_eq!(aos.policy, Policy::Aos);
    assert!(aos.is_consistent(), "{}", aos.to_json_value());
    assert_eq!(aos.clean_diagnostics, 0);
    for (kind, class, rules) in PINNED {
        let check = aos
            .kinds
            .iter()
            .find(|c| c.kind == kind)
            .expect("every kind checked");
        assert_eq!(check.classification(), class, "{kind}");
        let names: Vec<&str> = rules.iter().map(|r| r.name()).collect();
        assert_eq!(check.rules, names, "{kind}");
    }
    let json = outcome.report.to_json();
    assert!(json.contains(
        "\"policy_cross_check\": [{\"policy\": \"aos\", \"clean_diagnostics\": 0, \
         \"consistent\": true,"
    ));
}

/// The cross-paper detection matrix, pinned by rule name over all
/// eleven attack kinds (six base injectors + five composite
/// primitives) and all four static policies. Each column is one
/// paper's abstract model; the disagreement cells are the point:
/// CryptSan's key revocation catches the dangling re-sign that AOS's
/// size-0 `pacma` launders straight past PACSan, PACTight sees only
/// forgeries and class confusion, and nobody proves spatial
/// overflows statically.
const POLICY_PINNED: [(&str, [&[&str]; 4]); 11] = [
    ("overflow", [&[], &[], &[], &[]]),
    ("underflow", [&[], &[], &[], &[]]),
    (
        "uaf",
        [&["access-after-clear"], &["revoked-key"], &[], &[]],
    ),
    (
        "double-free",
        [
            &["double-bndclr", "unbalanced-at-end"],
            &["double-revoke"],
            &["double-invalidate"],
            &[],
        ],
    ),
    (
        "pac-tamper",
        [
            &["unknown-pac"],
            &["unallocated-key"],
            &["unsealed-pointer"],
            &["forged-pointer"],
        ],
    ),
    (
        "ahc-forge",
        [
            &["unknown-pac"],
            &["unallocated-key"],
            &["unsealed-pointer"],
            &["forged-pointer"],
        ],
    ),
    ("heap-spray", [&[], &[], &[], &[]]),
    (
        "pac-brute-force",
        [
            &["unknown-pac"],
            &["unallocated-key"],
            &["unsealed-pointer"],
            &["forged-pointer"],
        ],
    ),
    (
        "ahc-confusion",
        [
            &["access-ahc-mismatch"],
            &[],
            &["seal-class-mismatch"],
            &["integrity-class-mismatch"],
        ],
    ),
    (
        "dangling-resign",
        [&["access-after-clear"], &["revoked-key"], &[], &[]],
    ),
    ("toctou-resize", [&[], &[], &[], &[]]),
];

/// Every (kind, policy) cell of [`POLICY_PINNED`] is observed on a
/// real injected stream, and the library's own pinned tables (which
/// the strict `--policy` gates enforce) agree with this test's copy.
#[test]
fn the_cross_paper_policy_matrix_is_pinned_for_all_eleven_kinds() {
    let layout = PointerLayout::default();
    let trace = stream;
    assert_eq!(
        POLICY_PINNED.len(),
        StepKind::all().count(),
        "a new attack kind needs a pinned matrix row"
    );
    for (i, (name, expected)) in POLICY_PINNED.iter().enumerate() {
        let step = StepKind::parse(name).expect("pinned kind parses");
        let spec = ScenarioSpec {
            seed: 100 + i as u64,
            steps: vec![step],
        };
        let plan = plan_scenario(&spec, &trace, layout).expect("plan");
        assert!(
            plan.steps.iter().all(|s| s.static_pinned),
            "{name}: seed {} collided with a trace PAC; pick another",
            spec.seed
        );
        let reports = MatrixScan::run(
            &Policy::ALL,
            stream().splice_many(plan.edits.clone()),
            layout,
            &Telemetry::disabled(),
        );
        for (p, report) in reports.iter().enumerate() {
            assert_eq!(
                report.rule_names_fired(),
                expected[p].to_vec(),
                "{name} under {}: rule set drifted off the pinned matrix",
                report.policy.name()
            );
        }
        for (p, policy) in Policy::ALL.iter().enumerate() {
            assert_eq!(
                plan.expected_policy_rules(*policy),
                expected[p].to_vec(),
                "{name}: the library's pinned table disagrees with the test's under {}",
                policy.name()
            );
        }
    }
}

/// The linter's two front ends agree: [`lint_stream`] and the AOS
/// column of a [`MatrixScan`] yield the same [`aos_lint::PolicyReport`]
/// — counts, stored findings, op tally and tracked PACs — on the
/// clean trace and on every injected kind.
#[test]
fn the_aos_policy_is_bit_identical_to_the_linter() {
    let layout = PointerLayout::default();
    let trace = stream;
    let compare = |label: &str, ops: &dyn Fn() -> Box<dyn Iterator<Item = aos_isa::Op>>| {
        let matrix = MatrixScan::run(&[Policy::Aos], ops(), layout, &Telemetry::disabled());
        let linted = lint_stream(ops(), layout);
        assert_eq!(matrix, [linted.findings], "{label}");
    };
    compare("clean", &|| Box::new(stream()));
    for (i, step) in StepKind::all().enumerate() {
        let spec = ScenarioSpec {
            seed: 100 + i as u64,
            steps: vec![step],
        };
        let plan = plan_scenario(&spec, &trace, layout).expect("plan");
        compare(step.name(), &|| Box::new(stream().splice_many(plan.edits.clone())));
    }
}

/// The memory-discipline proof: linting a trace an order of magnitude
/// longer than the default sweep keeps (a) pipeline op buffering at
/// the generator's own O(window) — the linter adds none — and (b)
/// linter state bounded by distinct PACs, not ops. No `Vec<Op>` ever
/// exists in this test.
#[test]
fn linting_stays_o_live_pacs_memory() {
    let layout = PointerLayout::default();
    let telemetry = Telemetry::enabled();
    let long = TraceGenerator::new(profile(), SafetyConfig::Aos, 0.05);
    let report = lint_stream_metered(long, layout, &telemetry);
    assert!(
        report.findings.ops_scanned > 100_000,
        "scale 0.05 is a long stream"
    );
    assert!(
        report.pipeline_peak_buffered_ops < 1024,
        "pipeline buffered {} ops — trace materialized?",
        report.pipeline_peak_buffered_ops
    );
    assert!(
        (report.findings.tracked_pacs as u64) < layout.pac_space(),
        "tracked PACs exceed the PAC space"
    );
    assert!(
        (report.findings.tracked_pacs as u64) * 100 < report.findings.ops_scanned,
        "linter state ({} PACs) should be orders of magnitude below ops ({})",
        report.findings.tracked_pacs,
        report.findings.ops_scanned
    );
    // The telemetry ledger agrees with the report's own accounting.
    let snap = telemetry.snapshot();
    assert_eq!(
        snap.counter(aos_util::Counter::LintOpsScanned),
        report.findings.ops_scanned
    );
    assert!(report.findings.clean(), "clean long trace must lint clean");
}
