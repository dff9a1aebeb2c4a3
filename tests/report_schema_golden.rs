//! Golden-file pin of the `aos-campaign-report/v7` JSON schema.
//!
//! The report is hand-rolled JSON consumed by scripts, so its shape —
//! field names, their order, and the per-cell telemetry counter keys —
//! is an interface. This test extracts the ordered key sequence from a
//! one-cell campaign report and compares it against the checked-in
//! golden file. An intentional schema change means bumping the schema
//! version string and regenerating with:
//!
//! ```text
//! AOS_UPDATE_GOLDEN=1 cargo test --test report_schema_golden
//! ```

use aos_core::experiment::campaign::{matrix, run_campaign, CampaignOptions};
use aos_core::experiment::SystemUnderTest;
use aos_isa::SafetyConfig;
use aos_workloads::profile::by_name;

const GOLDEN: &str = "tests/golden/campaign_report_v7.keys";

/// Every JSON object key in document order: a quoted token directly
/// followed by a colon. Values are never followed by `:` in this
/// report, so the scan is exact.
fn ordered_keys(json: &str) -> Vec<String> {
    let bytes = json.as_bytes();
    let mut keys = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let start = i + 1;
        let mut j = start;
        while j < bytes.len() && bytes[j] != b'"' {
            if bytes[j] == b'\\' {
                j += 1;
            }
            j += 1;
        }
        let mut k = j + 1;
        while k < bytes.len() && bytes[k] == b' ' {
            k += 1;
        }
        if k < bytes.len() && bytes[k] == b':' {
            keys.push(json[start..j].to_string());
        }
        i = j + 1;
    }
    keys
}

fn one_cell_report(telemetry: bool) -> String {
    let cells = matrix(
        [*by_name("hmmer").unwrap()],
        [SystemUnderTest::scaled(SafetyConfig::Aos, 0.004).with_telemetry(telemetry)],
    );
    let report = run_campaign(&cells, &CampaignOptions::with_threads(1));
    assert_eq!(report.failed(), 0, "the golden cell must complete");
    report.to_json()
}

#[test]
fn campaign_report_v5_key_sequence_matches_golden() {
    let json = one_cell_report(true);
    assert!(
        json.contains("\"schema\": \"aos-campaign-report/v7\""),
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
        "the v7 report's key names/order changed; if intentional, bump the \
         schema version and rerun with AOS_UPDATE_GOLDEN=1"
    );
}

/// The schema is stable whether or not the cell recorded telemetry:
/// a disabled cell emits the same keys with zero values, so consumers
/// never need to branch on the flag.
#[test]
fn v5_key_sequence_does_not_depend_on_the_telemetry_flag() {
    let enabled = ordered_keys(&one_cell_report(true));
    let disabled = ordered_keys(&one_cell_report(false));
    assert_eq!(enabled, disabled);
}
