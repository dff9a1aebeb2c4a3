//! Golden-file pin of the `aos-lint-report/v1` JSON schema.
//!
//! Like the campaign report, the lint report is JSON consumed by
//! scripts (`aos lint --json`), so its shape — field names, their
//! order, the nine rule-count keys, and the per-finding keys — is an
//! interface. The golden sequence is extracted from the
//! deterministic double-free-faulted hmmer report (two findings, so
//! the finding-object keys are pinned too) and regenerated with:
//!
//! ```text
//! AOS_UPDATE_GOLDEN=1 cargo test --test lint_report_golden
//! ```

use aos_fault::{plan_fault, FaultKind, FaultSpec};
use aos_isa::SafetyConfig;
use aos_lint::lint_stream;
use aos_ptrauth::PointerLayout;
use aos_workloads::profile::by_name;
use aos_workloads::TraceGenerator;

mod common;
use common::ordered_keys;

const GOLDEN: &str = "tests/golden/lint_report_v1.keys";
const SCALE: f64 = 0.004;

fn report_json(fault: Option<FaultKind>) -> String {
    let layout = PointerLayout::default();
    let profile = by_name("hmmer").unwrap();
    let stream = || TraceGenerator::new(profile, SafetyConfig::Aos, SCALE);
    let report = match fault {
        Some(kind) => {
            let plan = plan_fault(stream(), layout, FaultSpec { kind, seed: 1 })
                .expect("fault plans against the instrumented trace");
            lint_stream(plan.apply(stream()), layout)
        }
        None => lint_stream(stream(), layout),
    };
    report.to_json()
}

#[test]
fn lint_report_v1_key_sequence_matches_golden() {
    let json = report_json(Some(FaultKind::DoubleFree));
    assert!(
        json.contains("\"schema\": \"aos-lint-report/v1\""),
        "schema version string drifted"
    );
    let keys = ordered_keys(&json).join("\n") + "\n";

    if std::env::var_os("AOS_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &keys).expect("write golden");
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; regenerate with AOS_UPDATE_GOLDEN=1");
    assert_eq!(
        keys, golden,
        "the v1 lint report's key names/order changed; if intentional, bump \
         the schema version and rerun with AOS_UPDATE_GOLDEN=1"
    );
}

/// The report envelope does not depend on what the linter found: a
/// clean report emits exactly the golden keys up to `findings`, whose
/// array is simply empty. Consumers never branch on cleanliness to
/// parse the header.
#[test]
fn clean_and_faulted_reports_share_the_envelope() {
    let clean = ordered_keys(&report_json(None));
    let faulted = ordered_keys(&report_json(Some(FaultKind::DoubleFree)));
    let envelope = faulted
        .iter()
        .position(|k| k == "findings")
        .expect("report has a findings key");
    assert_eq!(clean.len(), envelope + 1, "clean report has extra keys");
    assert_eq!(clean, faulted[..=envelope]);
}
