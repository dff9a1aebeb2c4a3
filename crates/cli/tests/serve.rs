//! `aos serve --telemetry true` counts what its jobs do: each job
//! records into its own handle, and the session report merges the
//! snapshots beside the `serve_*` counters.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

use aos_core::isa::corpus::CorpusReader;
use aos_util::scratch::ScratchDir;
use aos_util::{Counter, Gauge, Telemetry};

/// The value `aos serve --telemetry true` printed on stderr for
/// `counter` (counters that read 0 are not printed).
fn counter(stderr: &str, counter: &str) -> u64 {
    stderr
        .lines()
        .find_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some(counter)).then(|| words.next()?.parse().ok())?
        })
        .unwrap_or(0)
}

fn request(id: &str, kind: &str, extra: &str) -> String {
    format!("{{\"proto\":\"aos-serve/v2\",\"id\":\"{id}\",\"kind\":\"{kind}\"{extra}}}\n")
}

#[test]
fn serve_telemetry_counts_what_the_jobs_do() {
    let dir = ScratchDir::new("cli-serve-telemetry").expect("scratch dir");
    let corpus = dir.join("jobs.aosc");
    let requests = request(
        "l",
        "lint",
        ",\"workload\":\"mcf\",\"system\":\"aos\",\"scale\":0.004",
    ) + &request(
        "c",
        "corpus_record",
        &format!(
            ",\"corpus\":\"{}\",\"workloads\":\"mcf\",\"systems\":\"aos\",\"scale\":0.004",
            corpus.display()
        ),
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_aos"))
        .args(["serve", "--workers", "1", "--telemetry", "true"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the aos binary runs");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(requests.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "aos serve: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert_eq!(stdout.matches("\"status\":\"ok\"").count(), 2, "{stdout}");
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(counter(&stderr, "lint_ops_scanned") > 0, "{stderr}");
    assert!(counter(&stderr, "corpus_blocks_written") > 0, "{stderr}");
    assert_eq!(counter(&stderr, "serve_jobs_accepted"), 2, "{stderr}");
}

/// One stdio session reaches every path the service counts on: a
/// malformed line, a panicking job, a job past its deadline, a lint
/// scan, a simulation, a corpus recording, and a replay in each mode
/// over a flipped op block. Every `serve_*` counter, the queue-depth
/// gauge and the corpus, lint and MCQ counters those jobs drive must
/// read nonzero in the session report.
#[test]
fn every_serve_and_corpus_counter_records() {
    let dir = ScratchDir::new("cli-serve-counters").expect("scratch dir");
    let corpus = dir.join("flipped.aosc");
    let path = corpus.display().to_string();
    let mut child = Command::new(env!("CARGO_BIN_EXE_aos"))
        .args([
            "serve",
            "--workers",
            "1",
            "--timeout-ms",
            "200",
            "--test-jobs",
            "true",
            "--telemetry",
            "true",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the aos binary runs");
    let mut stdin = child.stdin.take().expect("stdin");
    let mut answers = BufReader::new(child.stdout.take().expect("stdout")).lines();

    let cell = ",\"workload\":\"mcf\",\"system\":\"aos\",\"scale\":0.004";
    let first = [
        "this is not a protocol line\n".to_string(),
        request("boom", "__poison", ""),
        request("wedge", "__sleep", ",\"millis\":3000"),
        request("lint", "lint", cell),
        request("sim", "trace", cell),
        request(
            "rec",
            "corpus_record",
            &format!(
                ",\"corpus\":\"{path}\",\"workloads\":\"mcf\",\"systems\":\"aos\",\"scale\":0.004"
            ),
        ),
    ]
    .concat();
    stdin.write_all(first.as_bytes()).expect("write requests");
    stdin.flush().expect("flush requests");
    // One worker answers in queue order: the recording is done once
    // its answer arrives.
    let mut transcript = Vec::new();
    for line in answers.by_ref() {
        let line = line.expect("answer line");
        let recorded = line.contains("\"id\":\"rec\"");
        transcript.push(line);
        if recorded {
            break;
        }
    }

    // Flip one payload byte of the entry's first op block: past the
    // header frame (length, CRC, kind, name, metadata) and the block's
    // frame header (length, CRC, kind).
    let entry = CorpusReader::open(&corpus, Telemetry::disabled())
        .expect("open the recorded corpus")
        .entries()[0]
        .clone();
    let mut bytes = std::fs::read(&corpus).expect("read corpus");
    let header_frame = 8 + 1 + 4 + entry.name.len() + 4 + entry.metadata.len();
    bytes[entry.offset as usize + header_frame + 9 + 40] ^= 0x02;
    std::fs::write(&corpus, &bytes).expect("write corpus");

    for mode in ["sim", "lint"] {
        let replay = request(
            &format!("replay-{mode}"),
            "corpus_replay",
            &format!(",\"corpus\":\"{path}\",\"entry\":\"mcf-aos\",\"mode\":\"{mode}\""),
        );
        stdin.write_all(replay.as_bytes()).expect("write replay");
    }
    drop(stdin);
    transcript.extend(answers.map(|line| line.expect("answer line")));
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "aos serve: {out:?}");
    let transcript = transcript.join("\n");
    let answer = |id: &str| {
        let needle = format!("\"id\":\"{id}\"");
        transcript
            .lines()
            .find(|l| l.contains(&needle))
            .unwrap_or_else(|| panic!("no answer for {id}:\n{transcript}"))
    };
    assert!(answer("boom").contains("\"error_kind\":\"panic\""));
    assert!(answer("wedge").contains("\"error_kind\":\"timeout\""));
    for id in ["lint", "sim", "rec"] {
        assert!(answer(id).contains("\"status\":\"ok\""), "{transcript}");
    }
    for id in ["replay-sim", "replay-lint"] {
        assert!(
            answer(id).contains("\"error_kind\":\"corruption\""),
            "{transcript}"
        );
    }

    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    let serve_counters = Counter::ALL
        .into_iter()
        .filter(|c| c.name().starts_with("serve_"));
    let job_counters = [
        Counter::CorpusBlocksWritten,
        Counter::CorpusBlocksRead,
        Counter::CorpusCrcFailures,
        Counter::LintOpsScanned,
        Counter::McqEnqueued,
    ];
    for c in serve_counters.chain(job_counters) {
        assert!(
            counter(&stderr, c.name()) > 0,
            "{} read 0:\n{stderr}",
            c.name()
        );
    }
    assert!(
        counter(&stderr, Gauge::ServeQueueDepth.name()) > 0,
        "{stderr}"
    );
    assert_eq!(counter(&stderr, "corpus_crc_failures"), 2, "{stderr}");
}

/// The retry knobs are gone with the retries: each is an unknown flag.
#[test]
fn retry_flags_are_unknown() {
    for flag in [["--retries", "1"], ["--backoff-ms", "5"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_aos"))
            .arg("serve")
            .args(flag)
            .stdin(Stdio::null())
            .output()
            .expect("the aos binary runs");
        assert_eq!(out.status.code(), Some(2), "aos serve {flag:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
        assert!(
            stderr.contains(&format!("unknown flag {}", flag[0])),
            "{stderr}"
        );
    }
}
