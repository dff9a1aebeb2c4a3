//! Byte-for-byte pin of every JSON document the library crates render.
//!
//! The key-order goldens pin each document's shape; this test pins its
//! exact bytes — braces, separators, indentation, number precision and
//! string escapes — as one FNV-1a digest per document kind:
//!
//! - the campaign report (a telemetry-on campaign plus one failed cell
//!   whose error needs escaping) and the fault-injection report, with
//!   every wall-clock set to zero so the timing columns are fixed;
//! - the fault report's two annotations (`fault_detection`,
//!   `policy_cross_check`) as rendered on their own;
//! - a telemetry snapshot;
//! - a clean and a faulted lint report, the lint matrix and a fuzz
//!   report;
//! - one `aos-serve/v2` response line per status from a live session,
//!   including a sim result (`trace`) and a lint result (`lint`).
//!
//! A change to how JSON is written must leave the golden unchanged.
//! Regenerate only when a document is meant to change:
//!
//! ```text
//! AOS_UPDATE_GOLDEN=1 cargo test --test json_bytes_golden
//! ```

use std::io::{Cursor, Write};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use aos_core::experiment::campaign::{
    matrix, run_campaign, CampaignOptions, CampaignReport, CellOutcome, CellResult,
};
use aos_core::experiment::SystemUnderTest;
use aos_fault::{plan_fault, run_fault_campaign, FaultCampaignConfig, FaultKind, FaultSpec};
use aos_fuzz::{run_fuzz, FuzzConfig};
use aos_isa::SafetyConfig;
use aos_lint::{lint_stream, MatrixReport, MatrixScan, Policy};
use aos_ptrauth::PointerLayout;
use aos_serve::{serve, ServeOptions};
use aos_util::hash::{fnv1a64, FNV1A64_OFFSET};
use aos_util::Telemetry;
use aos_workloads::profile::by_name;
use aos_workloads::TraceGenerator;

const GOLDEN: &str = "tests/golden/json_bytes_digests.txt";
const SCALE: f64 = 0.004;

/// Zeroes the campaign's and every cell's wall-clock, so the timing
/// columns (`wall_seconds`, the per-second rates) render the same on
/// every host.
fn zero_walls(report: &mut CampaignReport) {
    report.wall = Duration::ZERO;
    for r in &mut report.results {
        r.wall = Duration::ZERO;
    }
}

fn campaign_report() -> (CampaignReport, String) {
    let cells = matrix(
        [*by_name("hmmer").unwrap()],
        [SafetyConfig::Baseline, SafetyConfig::Aos]
            .map(|s| SystemUnderTest::scaled(s, SCALE).with_telemetry(true)),
    );
    let mut report = run_campaign(&cells, &CampaignOptions::with_threads(1));
    assert_eq!(report.failed(), 0, "the golden cells must complete");
    // A failed row, with an error that exercises the string escaper.
    report.results.push(CellResult {
        cell: cells[0],
        outcome: CellOutcome::Failed {
            error: "cell hmmer/Baseline panicked: \"quoted\"\n\tand\\slashed".to_string(),
        },
        wall: Duration::ZERO,
    });
    zero_walls(&mut report);
    let telemetry = report.results[1]
        .stats()
        .expect("the AOS cell completed")
        .telemetry
        .to_json()
        .to_string();
    (report, telemetry)
}

fn lint_report(fault: Option<FaultKind>) -> String {
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

fn lint_matrix() -> String {
    let layout = PointerLayout::default();
    let profile = by_name("hmmer").unwrap();
    let stream = || TraceGenerator::new(profile, SafetyConfig::Aos, SCALE);
    let policies = Policy::ALL.to_vec();
    let mut matrix = MatrixReport::new("hmmer", SCALE, vec![1, 2], policies.clone());
    matrix.absorb(
        "clean",
        &MatrixScan::run(&policies, stream(), layout, &Telemetry::disabled()),
    );
    for kind in [FaultKind::UseAfterFree, FaultKind::DoubleFree] {
        for seed in [1, 2] {
            let plan = plan_fault(stream(), layout, FaultSpec { kind, seed })
                .expect("fault plans against the instrumented trace");
            matrix.absorb(
                kind.name(),
                &MatrixScan::run(
                    &policies,
                    plan.apply(stream()),
                    layout,
                    &Telemetry::disabled(),
                ),
            );
        }
    }
    matrix.to_json()
}

/// A writer the test can read back after the service drops its clone.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buf lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One live service session answering every status: `ready`, `ok`
/// for a trace job (the sim result) and a lint job (the lint result),
/// `rejected` for an unparsable line and for a bad field, `failed`
/// for a panicking job, and the final `shutdown`. Each response line
/// is named by its status and id; completion order does not matter.
fn serve_lines() -> Vec<(String, String)> {
    let job = |id: &str, kind: &str, extra: &str| {
        format!("{{\"proto\":\"aos-serve/v2\",\"id\":\"{id}\",\"kind\":\"{kind}\"{extra}}}\n")
    };
    let fields = format!(",\"workload\":\"mcf\",\"system\":\"aos\",\"scale\":{SCALE}");
    let script = [
        job("sim", "trace", &fields),
        job("lint", "lint", &fields),
        "this is not a protocol line\n".to_string(),
        job(
            "bad\\\"id",
            "trace",
            ",\"workload\":\"mcf\",\"system\":\"mpx\"",
        ),
        job("boom", "__poison", ""),
    ]
    .concat();
    let options = ServeOptions {
        workers: 1,
        job_timeout: None,
        test_jobs: true,
        ..ServeOptions::default()
    };
    let out = SharedBuf::default();
    serve(Cursor::new(script), out.clone(), &options).expect("serve session");
    let output = String::from_utf8(out.0.lock().expect("buf lock").clone()).expect("utf8");
    let mut lines: Vec<(String, String)> = output
        .lines()
        .map(|line| {
            let status = field(line, "status").unwrap_or_else(|| panic!("no status: {line}"));
            let name = match field(line, "id") {
                Some(id) => format!("serve.{status}.{id}"),
                None => format!("serve.{status}"),
            };
            (name, line.to_string())
        })
        .collect();
    lines.sort();
    let names: Vec<&str> = lines.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "serve.failed.boom",
            "serve.ok.lint",
            "serve.ok.sim",
            "serve.ready",
            "serve.rejected",
            "serve.rejected.bad\\\"id",
            "serve.shutdown",
        ],
        "{output}"
    );
    lines
}

/// The raw text of a compact string field (`"name":"value"`), escapes
/// left in place.
fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("\"{name}\":\"");
    let start = line.find(&needle)? + needle.len();
    let mut end = start;
    let bytes = line.as_bytes();
    while bytes[end] != b'"' {
        end += if bytes[end] == b'\\' { 2 } else { 1 };
    }
    Some(&line[start..end])
}

/// Every pinned document, named (built once, shared by both tests).
fn documents() -> &'static [(String, String)] {
    static DOCS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    DOCS.get_or_init(build_documents)
}

fn build_documents() -> Vec<(String, String)> {
    let mut docs = Vec::new();

    let (campaign, telemetry) = campaign_report();
    docs.push(("campaign.report".to_string(), campaign.to_json()));
    docs.push(("telemetry.snapshot".to_string(), telemetry));

    let config = FaultCampaignConfig {
        policies: Policy::ALL.to_vec(),
        options: CampaignOptions::with_threads(1),
        ..FaultCampaignConfig::standard(*by_name("hmmer").unwrap(), SCALE, vec![1, 2])
    };
    let mut faults = run_fault_campaign(&config).expect("fault campaign").report;
    zero_walls(&mut faults);
    docs.push(("fault.report".to_string(), faults.to_json()));
    for (key, value) in &faults.annotations {
        docs.push((format!("fault.annotation.{key}"), value.to_string()));
    }

    docs.push(("lint.report.clean".to_string(), lint_report(None)));
    docs.push((
        "lint.report.double-free".to_string(),
        lint_report(Some(FaultKind::DoubleFree)),
    ));
    docs.push(("lint.matrix".to_string(), lint_matrix()));

    let fuzz = FuzzConfig {
        workload: "hmmer".to_string(),
        scale: SCALE,
        seed: 7,
        budget: 3,
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&fuzz, &Telemetry::disabled()).expect("fuzz campaign");
    docs.push(("fuzz.report".to_string(), report.to_json()));

    docs.extend(serve_lines());
    docs
}

#[test]
fn json_documents_match_their_byte_digests() {
    let docs = documents();
    let digests: String = docs
        .iter()
        .map(|(name, doc)| format!("{name} {:016x}\n", fnv1a64(FNV1A64_OFFSET, doc.as_bytes())))
        .collect();
    if std::env::var_os("AOS_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &digests).expect("write golden");
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; regenerate with AOS_UPDATE_GOLDEN=1");
    if digests != golden {
        let moved: Vec<&str> = digests
            .lines()
            .filter(|line| !golden.lines().any(|g| g == *line))
            .collect();
        panic!(
            "JSON bytes moved for: {moved:?}\n{}",
            docs.iter()
                .filter(|(name, _)| moved.iter().any(|m| m.split(' ').next() == Some(name)))
                .map(|(name, doc)| format!("== {name}\n{doc}\n"))
                .collect::<String>()
        );
    }
}

/// The documents carry what the digests are meant to pin: an escaped
/// error string, both fault annotations, findings, and each status.
#[test]
fn pinned_documents_cover_every_shape() {
    let docs = documents();
    let get = |name: &str| {
        &docs
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no document {name}"))
            .1
    };
    assert!(get("campaign.report").contains(r#"\"quoted\"\n\tand\\slashed"#));
    assert!(get("campaign.report").contains("\"status\": \"failed\""));
    assert!(get("fault.report").contains("\"policy_cross_check\": ["));
    assert!(get("fault.annotation.fault_detection").starts_with("{\"trials\": "));
    assert!(get("fault.annotation.policy_cross_check").starts_with("[{\"policy\": \"aos\""));
    assert!(get("lint.report.clean").contains("\"findings\": [\n  ]"));
    assert!(get("lint.report.double-free").contains("\"rule\": \"double-bndclr\""));
    assert!(get("serve.ok.sim").contains("\"stats_digest\":\""));
    assert!(get("serve.ok.lint").contains("\"report_digest\":\""));
    assert!(get("serve.rejected").contains("\"id\":null"));
    assert!(get("serve.failed.boom").contains("\"error_kind\":\"panic\""));
}
