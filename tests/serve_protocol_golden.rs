//! Golden-file pin of the `aos-serve/v1` wire protocol.
//!
//! The service answers with JSON whose key order is part
//! of the interface (scripts `cut`/`grep` these lines, and the
//! protocol doc in `crates/serve/src/proto.rs` spells the order out).
//! This test renders every request and response shape the protocol
//! has — deterministically, without a live service — and snapshots
//! the exact key sequence of each. Regenerate after an intentional
//! protocol change with:
//!
//! ```text
//! AOS_UPDATE_GOLDEN=1 cargo test --test serve_protocol_golden
//! ```

use aos_isa::SafetyConfig;
use aos_serve::proto::{render_failed, render_ok, render_ready, render_rejected, render_shutdown};
use aos_serve::{execute, parse_request, JobSpec, ReplayMode};
use aos_util::json::Json;
use aos_util::scratch::ScratchDir;
use aos_util::Telemetry;

mod common;
use common::ordered_keys;

const GOLDEN: &str = "tests/golden/serve_protocol_v1.keys";
const SCALE: f64 = 0.004;

fn run(spec: JobSpec) -> Json {
    execute(&spec, &Telemetry::disabled()).expect("job body")
}

/// Every protocol shape as a named, deterministically rendered line.
fn shapes() -> Vec<(&'static str, String)> {
    // Each call gets its own corpus: the tests calling this run in
    // parallel.
    let dir = ScratchDir::new("serve-protocol-golden").expect("scratch dir");
    let corpus = dir.join("proto.aosc").display().to_string();

    // Canonical request lines (their key order is the documented
    // spelling; each must parse).
    let requests = vec![
        (
            "request.trace",
            format!(
                r#"{{"proto":"aos-serve/v1","id":"j1","kind":"trace","workload":"mcf","system":"aos","scale":{SCALE}}}"#
            ),
        ),
        (
            "request.lint",
            format!(
                r#"{{"proto":"aos-serve/v1","id":"j2","kind":"lint","workload":"mcf","system":"aos","scale":{SCALE}}}"#
            ),
        ),
        (
            "request.campaign",
            format!(
                r#"{{"proto":"aos-serve/v1","id":"j3","kind":"campaign","workloads":"mcf","systems":"baseline,aos","scale":{SCALE}}}"#
            ),
        ),
        (
            "request.corpus_record",
            format!(
                r#"{{"proto":"aos-serve/v1","id":"j4","kind":"corpus_record","corpus":"{corpus}","workloads":"mcf","systems":"aos","scale":{SCALE}}}"#
            ),
        ),
        (
            "request.corpus_replay",
            format!(
                r#"{{"proto":"aos-serve/v1","id":"j5","kind":"corpus_replay","corpus":"{corpus}","entry":"mcf-aos","mode":"sim"}}"#
            ),
        ),
        (
            "request.corpus_verify",
            format!(
                r#"{{"proto":"aos-serve/v1","id":"j6","kind":"corpus_verify","corpus":"{corpus}"}}"#
            ),
        ),
        (
            "request.shutdown",
            r#"{"proto":"aos-serve/v1","kind":"shutdown"}"#.to_string(),
        ),
    ];
    for (name, line) in &requests {
        parse_request(line, false).unwrap_or_else(|e| panic!("{name} must parse: {e}"));
    }

    let record = run(JobSpec::CorpusRecord {
        path: corpus.clone(),
        workloads: vec!["mcf".into()],
        systems: vec![SafetyConfig::Aos],
        scale: SCALE,
    });
    let replay_sim = run(JobSpec::CorpusReplay {
        path: corpus.clone(),
        entry: "mcf-aos".into(),
        mode: ReplayMode::Sim,
    });
    let replay_lint = run(JobSpec::CorpusReplay {
        path: corpus.clone(),
        entry: "mcf-aos".into(),
        mode: ReplayMode::Lint,
    });
    let verify = run(JobSpec::CorpusVerify {
        path: corpus.clone(),
    });

    let mut shapes = requests;
    shapes.extend([
        ("response.ready", render_ready()),
        (
            "response.ok.trace",
            render_ok(
                "j1",
                1,
                run(JobSpec::Trace {
                    workload: "mcf".into(),
                    system: SafetyConfig::Aos,
                    scale: SCALE,
                }),
            ),
        ),
        (
            "response.ok.lint",
            render_ok(
                "j2",
                1,
                run(JobSpec::Lint {
                    workload: "mcf".into(),
                    system: SafetyConfig::Aos,
                    scale: SCALE,
                }),
            ),
        ),
        (
            "response.ok.campaign",
            render_ok(
                "j3",
                1,
                run(JobSpec::Campaign {
                    workloads: vec!["mcf".into()],
                    systems: vec![SafetyConfig::Baseline, SafetyConfig::Aos],
                    scale: SCALE,
                }),
            ),
        ),
        ("response.ok.corpus_record", render_ok("j4", 1, record)),
        (
            "response.ok.corpus_replay.sim",
            render_ok("j5", 1, replay_sim),
        ),
        (
            "response.ok.corpus_replay.lint",
            render_ok("j5", 1, replay_lint),
        ),
        ("response.ok.corpus_verify", render_ok("j6", 1, verify)),
        (
            "response.rejected.backpressure",
            render_rejected(
                Some("j7"),
                "resource",
                "queue full (16 jobs queued)",
                Some(25),
            ),
        ),
        (
            "response.rejected.malformed",
            render_rejected(None, "input", "aos-serve request: not JSON", None),
        ),
        (
            "response.failed",
            render_failed("j8", 3, "timeout", "trace mcf/AOS timed out after 30000ms"),
        ),
        ("response.shutdown", render_shutdown(4)),
    ]);
    shapes
}

#[test]
fn serve_protocol_v1_key_sequences_match_golden() {
    let mut doc = String::new();
    for (name, line) in shapes() {
        doc.push_str("== ");
        doc.push_str(name);
        doc.push_str(" ==\n");
        for key in ordered_keys(&line) {
            doc.push_str(&key);
            doc.push('\n');
        }
    }

    if std::env::var_os("AOS_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &doc).expect("write golden");
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; regenerate with AOS_UPDATE_GOLDEN=1");
    assert_eq!(
        doc, golden,
        "the aos-serve/v1 key names/order changed; if intentional, bump the \
         protocol version and rerun with AOS_UPDATE_GOLDEN=1"
    );
}

/// Every line of the protocol is one line (NDJSON) and self-identifies
/// with the proto tag as its first key.
#[test]
fn every_shape_is_single_line_and_proto_tagged() {
    for (name, line) in shapes() {
        assert!(!line.contains('\n'), "{name} spans lines: {line}");
        assert!(
            line.starts_with("{\"proto\":\"aos-serve/v1\""),
            "{name} must lead with the proto tag: {line}"
        );
        assert_eq!(
            ordered_keys(&line).first().map(String::as_str),
            Some("proto"),
            "{name}"
        );
    }
}

/// The `result` payload of every ok response ends with its digest (or
/// summary) field — consumers can rely on digests being present
/// without parsing nested JSON.
#[test]
fn ok_results_carry_digests() {
    let shapes = shapes();
    let find = |name: &str| {
        &shapes
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("shape {name}"))
            .1
    };
    assert!(find("response.ok.trace").contains("\"stats_digest\":\""));
    assert!(find("response.ok.corpus_replay.sim").contains("\"stats_digest\":\""));
    assert!(find("response.ok.lint").contains("\"report_digest\":\""));
    assert!(find("response.ok.corpus_replay.lint").contains("\"report_digest\":\""));
    assert!(find("response.ok.corpus_verify").contains("\"quarantined\":"));
}
