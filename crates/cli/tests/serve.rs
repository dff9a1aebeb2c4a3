//! `aos serve --telemetry true` counts what its jobs do: each job
//! attempt records into its own handle, and the session report merges
//! the snapshots beside the `serve_*` counters.

use std::io::Write;
use std::process::{Command, Stdio};

use aos_util::scratch::ScratchDir;

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

#[test]
fn serve_telemetry_counts_what_the_jobs_do() {
    let dir = ScratchDir::new("cli-serve-telemetry").expect("scratch dir");
    let corpus = dir.join("jobs.aosc");
    let requests = format!(
        "{}\n{}\n",
        r#"{"proto":"aos-serve/v1","id":"l","kind":"lint","workload":"mcf","system":"aos","scale":0.004}"#,
        format_args!(
            r#"{{"proto":"aos-serve/v1","id":"c","kind":"corpus_record","corpus":"{}","workloads":"mcf","systems":"aos","scale":0.004}}"#,
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
