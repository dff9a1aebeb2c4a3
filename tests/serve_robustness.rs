//! Robustness contract of `aos serve` (crates/serve): the service
//! stays up and keeps its protocol promises whatever a job does.
//!
//! Each test drives a full service session — reader, bounded queue,
//! guarded workers, collector — through an in-memory transcript and
//! asserts on the NDJSON it answered:
//!
//! - a full queue answers `rejected` with a `retry_after_ms` hint
//!   (explicit backpressure, no unbounded buffering);
//! - a wedged job hits its per-job deadline, burns its bounded retry
//!   budget (exponential backoff), and answers `failed`/`timeout`;
//! - a poisoned (panicking) job answers `failed`/`panic` and the
//!   *same worker* serves the next job — crash isolation;
//! - shutdown and EOF drain: every accepted job answers before the
//!   final `shutdown` line;
//! - a CRC-corrupted corpus block quarantines with a typed
//!   corruption error and a `corpus_crc_failures` count while the
//!   service keeps serving;
//! - a corpus replay through the service is bit-identical to the
//!   in-process pipeline (matching `stats_digest`).

use std::io::{Cursor, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use aos_core::experiment::{run_metered, SystemUnderTest};
use aos_isa::SafetyConfig;
use aos_serve::{serve, stats_digest, ServeOptions, ServeSummary};
use aos_util::scratch::ScratchDir;
use aos_util::{Counter, Gauge, Telemetry};

/// A writer the test can read back after the collector thread drops
/// its clone.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().expect("buf lock").clone()).expect("utf8 output")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buf lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn run_script(script: String, options: &ServeOptions) -> (ServeSummary, String) {
    let out = SharedBuf::default();
    let summary = serve(Cursor::new(script), out.clone(), options).expect("serve session");
    (summary, out.contents())
}

fn request(id: &str, kind: &str, extra: &str) -> String {
    format!("{{\"proto\":\"aos-serve/v1\",\"id\":\"{id}\",\"kind\":\"{kind}\"{extra}}}\n")
}

fn response_for<'a>(output: &'a str, id: &str) -> &'a str {
    let needle = format!("\"id\":\"{id}\"");
    output
        .lines()
        .find(|l| l.contains(&needle))
        .unwrap_or_else(|| panic!("no response for {id} in:\n{output}"))
}

/// A private scratch directory holding `name`; the guard removes it
/// when the test drops it.
fn temp(name: &str) -> (ScratchDir, PathBuf) {
    let dir = ScratchDir::new(name).expect("scratch dir");
    let path = dir.join(name);
    (dir, path)
}

#[test]
fn full_queue_answers_rejected_with_retry_after() {
    let options = ServeOptions {
        queue_capacity: 1,
        workers: 1,
        test_jobs: true,
        retry_after_ms: 40,
        ..ServeOptions::default()
    };
    // One job holds the single worker; capacity 1 holds one more; the
    // remaining submissions must be pushed back, not buffered.
    let mut script = request("hold", "__sleep", ",\"millis\":300");
    for i in 0..6 {
        script.push_str(&request(&format!("q{i}"), "__sleep", ",\"millis\":1"));
    }
    let (summary, output) = run_script(script, &options);
    assert!(summary.rejected >= 1, "bounded queue never pushed back");
    assert_eq!(summary.accepted + summary.rejected, 7);
    let rejected = output
        .lines()
        .find(|l| l.contains("\"status\":\"rejected\""))
        .expect("a rejected response");
    assert!(
        rejected.contains("\"error_kind\":\"resource\""),
        "{rejected}"
    );
    assert!(rejected.contains("\"error\":\"queue full (1 jobs queued)\""));
    assert!(
        rejected.contains("\"retry_after_ms\":40"),
        "backpressure must carry the retry hint: {rejected}"
    );
    // Everything that was accepted still answered.
    assert_eq!(summary.completed(), summary.accepted);
}

#[test]
fn wedged_job_times_out_after_its_bounded_retry_budget() {
    let options = ServeOptions {
        workers: 1,
        test_jobs: true,
        job_timeout: Some(Duration::from_millis(40)),
        retries: 2,
        backoff_base: Duration::from_millis(5),
        ..ServeOptions::default()
    };
    let script = request("wedge", "__sleep", ",\"millis\":5000")
        + &request("after", "__sleep", ",\"millis\":1");
    let (summary, output) = run_script(script, &options);
    let wedge = response_for(&output, "wedge");
    assert!(wedge.contains("\"status\":\"failed\""), "{wedge}");
    assert!(wedge.contains("\"error_kind\":\"timeout\""), "{wedge}");
    assert!(
        wedge.contains("\"attempts\":3"),
        "2 retries = 3 attempts, then the budget is spent: {wedge}"
    );
    assert!(wedge.contains("timed out after"), "{wedge}");
    assert_eq!(summary.timed_out, 1);
    assert_eq!(summary.retried, 2);
    // The worker that abandoned the wedged attempts still serves.
    assert!(response_for(&output, "after").contains("\"status\":\"ok\""));
}

#[test]
fn poisoned_job_is_isolated_and_the_service_survives() {
    let telemetry = Telemetry::enabled();
    let options = ServeOptions {
        workers: 1,
        test_jobs: true,
        retries: 0,
        telemetry: telemetry.clone(),
        ..ServeOptions::default()
    };
    let script = request("boom", "__poison", "")
        + &request(
            "alive",
            "lint",
            ",\"workload\":\"mcf\",\"system\":\"aos\",\"scale\":0.004",
        )
        + "{\"proto\":\"aos-serve/v1\",\"kind\":\"shutdown\"}\n";
    let (summary, output) = run_script(script, &options);
    let boom = response_for(&output, "boom");
    assert!(boom.contains("\"status\":\"failed\""), "{boom}");
    assert!(boom.contains("\"error_kind\":\"panic\""), "{boom}");
    assert!(
        boom.contains("deliberately panicked"),
        "the captured panic message surfaces: {boom}"
    );
    // The same (sole) worker thread runs the next job: isolation, not
    // a respawn.
    let alive = response_for(&output, "alive");
    assert!(alive.contains("\"status\":\"ok\""), "{alive}");
    assert!(alive.contains("\"clean\":true"), "{alive}");
    assert_eq!(summary.panicked, 1);
    assert_eq!(summary.succeeded, 1);
    assert!(summary.shutdown_requested);
    assert_eq!(telemetry.snapshot().counter(Counter::ServeJobsPanicked), 1);
}

#[test]
fn shutdown_and_eof_drain_all_accepted_jobs() {
    for explicit_shutdown in [true, false] {
        let options = ServeOptions {
            workers: 2,
            test_jobs: true,
            ..ServeOptions::default()
        };
        let mut script = String::new();
        for i in 0..5 {
            script.push_str(&request(&format!("d{i}"), "__sleep", ",\"millis\":30"));
        }
        if explicit_shutdown {
            script.push_str("{\"proto\":\"aos-serve/v1\",\"kind\":\"shutdown\"}\n");
        }
        let (summary, output) = run_script(script, &options);
        assert_eq!(summary.accepted, 5);
        assert_eq!(
            summary.succeeded, 5,
            "drain must complete in-flight and queued jobs (shutdown={explicit_shutdown})"
        );
        assert_eq!(summary.shutdown_requested, explicit_shutdown);
        for i in 0..5 {
            assert!(response_for(&output, &format!("d{i}")).contains("\"status\":\"ok\""));
        }
        let last = output.lines().last().expect("output");
        assert!(
            last.contains("\"status\":\"shutdown\",\"jobs_completed\":5"),
            "the shutdown line is last and counts the drain: {last}"
        );
    }
}

#[test]
fn corrupted_corpus_block_quarantines_and_the_service_keeps_serving() {
    let (_dir, path) = temp("quarantine.aosc");
    let path_str = path.display().to_string();

    // Record through the service, then corrupt the stored block.
    let telemetry = Telemetry::enabled();
    let options = ServeOptions {
        workers: 1,
        telemetry: telemetry.clone(),
        ..ServeOptions::default()
    };
    let record = request(
        "rec",
        "corpus_record",
        &format!(
            ",\"corpus\":\"{path_str}\",\"workloads\":\"mcf\",\"systems\":\"baseline\",\"scale\":0.004"
        ),
    );
    let (summary, output) = run_script(record, &options);
    assert_eq!(summary.succeeded, 1, "{output}");

    let entry = aos_isa::corpus::CorpusReader::open(&path, Telemetry::disabled())
        .expect("open")
        .entries()[0]
        .clone();
    let mut bytes = std::fs::read(&path).expect("read");
    // Past the entry's header frame (length, CRC, kind, name and
    // metadata) and its first op block's frame header (length, CRC,
    // kind): one payload byte of that block.
    let header_frame = 8 + 1 + 4 + entry.name.len() + 4 + entry.metadata.len();
    bytes[entry.offset as usize + header_frame + 9 + 40] ^= 0x02;
    std::fs::write(&path, &bytes).expect("write");

    // Replay the damaged entry, then prove the service still serves.
    let script = request(
        "bad",
        "corpus_replay",
        &format!(",\"corpus\":\"{path_str}\",\"entry\":\"mcf-baseline\""),
    ) + &request(
        "still-alive",
        "lint",
        ",\"workload\":\"mcf\",\"system\":\"aos\",\"scale\":0.004",
    );
    let (summary, output) = run_script(script, &options);
    let bad = response_for(&output, "bad");
    assert!(bad.contains("\"status\":\"failed\""), "{bad}");
    assert!(
        bad.contains("\"error_kind\":\"corruption\""),
        "typed quarantine, not a crash: {bad}"
    );
    assert!(bad.contains("CRC mismatch"), "{bad}");
    assert!(response_for(&output, "still-alive").contains("\"status\":\"ok\""));
    assert_eq!(summary.failed, 1);
    assert_eq!(summary.succeeded, 1);
    assert!(
        telemetry.snapshot().counter(Counter::CorpusCrcFailures) >= 1,
        "the quarantine must be counted"
    );
}

#[test]
fn service_replay_is_bit_identical_to_the_in_process_pipeline() {
    let (_dir, path) = temp("identity.aosc");
    let path_str = path.display().to_string();
    let options = ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    };
    let script = request(
        "rec",
        "corpus_record",
        &format!(
            ",\"corpus\":\"{path_str}\",\"workloads\":\"mcf\",\"systems\":\"aos\",\"scale\":0.004"
        ),
    ) + &request(
        "rep",
        "corpus_replay",
        &format!(",\"corpus\":\"{path_str}\",\"entry\":\"mcf-aos\""),
    );
    let (summary, output) = run_script(script, &options);
    assert_eq!(summary.succeeded, 2, "{output}");

    // The same cell through the in-process pipeline.
    let profile = aos_workloads::profile::by_name("mcf").expect("profile");
    let out = run_metered(profile, &SystemUnderTest::scaled(SafetyConfig::Aos, 0.004));
    let expected = format!("\"stats_digest\":\"{:016x}\"", stats_digest(&out.stats));
    let rep = response_for(&output, "rep");
    assert!(
        rep.contains(&expected),
        "service replay must be bit-identical to the pipeline:\n  {rep}\n  want {expected}"
    );
    assert!(rep.contains(&format!("\"cycles\":{}", out.stats.cycles)));
    assert!(rep.contains(&format!("\"retired_ops\":{}", out.stats.retired_ops)));
}

#[test]
fn serve_telemetry_reaches_the_v4_report_taxonomy() {
    // The serve_* counters and queue-depth gauge ride the same
    // snapshot/merge machinery as every other pipeline stage, so a
    // campaign report rendered from a serve session's registry carries
    // them under their wire names.
    let telemetry = Telemetry::enabled();
    let options = ServeOptions {
        workers: 1,
        test_jobs: true,
        telemetry: telemetry.clone(),
        ..ServeOptions::default()
    };
    let script =
        request("t1", "__sleep", ",\"millis\":1") + &request("t2", "__sleep", ",\"millis\":1");
    let (summary, _) = run_script(script, &options);
    assert_eq!(summary.succeeded, 2);
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter(Counter::ServeJobsAccepted), 2);
    assert!(snap.gauge(Gauge::ServeQueueDepth) >= 1);
    // Wire names are stable (the golden report test pins their order
    // inside the v4 document).
    assert_eq!(Counter::ServeJobsAccepted.name(), "serve_jobs_accepted");
    assert_eq!(Counter::ServeJobsRejected.name(), "serve_jobs_rejected");
    assert_eq!(Counter::ServeJobsRetried.name(), "serve_jobs_retried");
    assert_eq!(Counter::ServeJobsTimedOut.name(), "serve_jobs_timed_out");
    assert_eq!(Counter::ServeJobsPanicked.name(), "serve_jobs_panicked");
    assert_eq!(Counter::CorpusBlocksWritten.name(), "corpus_blocks_written");
    assert_eq!(Counter::CorpusBlocksRead.name(), "corpus_blocks_read");
    assert_eq!(Counter::CorpusCrcFailures.name(), "corpus_crc_failures");
    assert_eq!(Gauge::ServeQueueDepth.name(), "serve_queue_depth");
}
