//! Golden-file pin of the `aos-lint-matrix/v1` JSON schema.
//!
//! The detection matrix is JSON consumed by scripts
//! (`aos matrix --json`, `aos matrix --out`), so its shape — field
//! names, their order, one verdict block per policy, the per-policy
//! rule-count keys — is an interface. The golden sequence is
//! extracted from a deterministic two-row matrix (clean + a
//! double-free seed, so every policy's rule table appears twice) and
//! regenerated with:
//!
//! ```text
//! AOS_UPDATE_GOLDEN=1 cargo test --test lint_matrix_golden
//! ```

use aos_fault::{plan_fault, FaultKind, FaultSpec};
use aos_isa::SafetyConfig;
use aos_lint::{MatrixReport, MatrixScan, Policy};
use aos_ptrauth::PointerLayout;
use aos_util::Telemetry;
use aos_workloads::profile::by_name;
use aos_workloads::TraceGenerator;

mod common;
use common::ordered_keys;

const GOLDEN: &str = "tests/golden/lint_matrix_v1.keys";
const SCALE: f64 = 0.004;

fn matrix_json() -> String {
    let layout = PointerLayout::default();
    let profile = by_name("hmmer").unwrap();
    let stream = || TraceGenerator::new(profile, SafetyConfig::Aos, SCALE);
    let policies = Policy::ALL.to_vec();
    let mut matrix = MatrixReport::new("hmmer", SCALE, vec![1], policies.clone());
    matrix.absorb(
        "clean",
        &MatrixScan::run(&policies, stream(), layout, &Telemetry::disabled()),
    );
    let plan = plan_fault(
        stream(),
        layout,
        FaultSpec {
            kind: FaultKind::DoubleFree,
            seed: 1,
        },
    )
    .expect("fault plans against the instrumented trace");
    matrix.absorb(
        "double-free",
        &MatrixScan::run(&policies, plan.apply(stream()), layout, &Telemetry::disabled()),
    );
    matrix.to_json()
}

#[test]
fn lint_matrix_v1_key_sequence_matches_golden() {
    let json = matrix_json();
    assert!(
        json.contains("\"schema\": \"aos-lint-matrix/v1\""),
        "schema version string drifted"
    );
    // Every policy contributes one verdict block per row.
    for policy in Policy::ALL {
        assert_eq!(
            json.matches(&format!("\"{}\": {{", policy.name())).count(),
            2,
            "{} must appear in both matrix rows",
            policy.name()
        );
    }
    let keys = ordered_keys(&json).join("\n") + "\n";

    if std::env::var_os("AOS_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &keys).expect("write golden");
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; regenerate with AOS_UPDATE_GOLDEN=1");
    assert_eq!(
        keys, golden,
        "the v1 matrix report's key names/order changed; if intentional, bump \
         the schema version and rerun with AOS_UPDATE_GOLDEN=1"
    );
}

/// The matrix envelope is balanced, detection-independent JSON: the
/// clean row and the faulted row emit the same key skeleton, so
/// consumers parse every row with one shape.
#[test]
fn matrix_rows_share_one_key_skeleton() {
    let json = matrix_json();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    let keys = ordered_keys(&json);
    let subjects: Vec<usize> = keys
        .iter()
        .enumerate()
        .filter(|(_, k)| *k == "subject")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(subjects.len(), 2, "two matrix rows");
    let row_len = subjects[1] - subjects[0];
    assert_eq!(
        keys[subjects[0]..subjects[0] + row_len],
        keys[subjects[1]..subjects[1] + row_len],
        "clean and faulted rows must share the key skeleton"
    );
}
