//! Byte pins of the JSON documents the `aos` binary renders itself
//! (`run`, `stats`, `ablate`, `lint`), of the `lint` and `matrix`
//! tables and of the strict fault gate's message,
//! which carries the fault report's annotations. Each is one FNV-1a
//! digest of the exact output, so a change to how JSON is written
//! cannot move a byte unnoticed.

use std::process::{Command, Output};

use aos_util::hash::{fnv1a64, FNV1A64_OFFSET};
use aos_util::scratch::ScratchDir;

fn aos(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aos"))
        .args(args)
        .output()
        .expect("the aos binary runs")
}

fn stdout(args: &[&str]) -> String {
    let out = aos(args);
    assert!(out.status.success(), "aos {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a64(FNV1A64_OFFSET, text.as_bytes()))
}

#[track_caller]
fn assert_pinned(name: &str, text: &str, pinned: &str) {
    assert_eq!(digest(text), pinned, "{name} moved; it now reads:\n{text}");
}

#[test]
fn run_json_is_pinned() {
    assert_pinned(
        "run --json",
        &stdout(&["run", "mcf", "--scale", "0.002", "--json", "true"]),
        "c328d4acef08cb3c",
    );
    // The telemetry member follows the compact layout of the object it
    // sits in: `"telemetry":{`, no space after the colon.
    assert_pinned(
        "run --json --telemetry",
        &stdout(&[
            "run",
            "mcf",
            "--scale",
            "0.002",
            "--json",
            "true",
            "--telemetry",
            "true",
        ]),
        "9488d0c85889822a",
    );
}

#[test]
fn stats_json_is_pinned() {
    assert_pinned(
        "stats --json",
        &stdout(&[
            "stats",
            "--workload",
            "mcf",
            "--scale",
            "0.002",
            "--threads",
            "1",
            "--json",
            "true",
        ]),
        "e2730e827fc5d01c",
    );
}

/// The ablation sweep at BWB capacities 16 and 128, the two default
/// sweep points no other pin covers (every AOS row of
/// `sim_stats_digests.txt` runs the Table IV capacity, 64).
#[test]
fn ablate_report_is_pinned() {
    let dir = ScratchDir::new("cli-ablate-pin").expect("scratch dir");
    let path = dir.join("ablate.json");
    let path = path.to_str().expect("utf8 path");
    stdout(&[
        "ablate",
        "--workload",
        "mcf",
        "--scale",
        "0.002",
        "--mcq",
        "12,48",
        "--bwb",
        "16,128",
        "--out",
        path,
    ]);
    let report = std::fs::read_to_string(path).expect("ablate wrote its report");
    assert_pinned("ablate --out", &report, "f21dad3f0e59b0c6");
}

/// The `aos lint` table, clean and faulted (with the telemetry table
/// that carries the lint counters), its faulted JSON report, and the
/// `aos matrix` table: the linter's two front ends byte for byte.
#[test]
fn lint_and_matrix_outputs_are_pinned() {
    assert_pinned(
        "lint",
        &stdout(&["lint", "--scale", "0.004"]),
        "b121fb4660759fb8",
    );
    let faulted = [
        "lint",
        "--scale",
        "0.004",
        "--fault",
        "double-free",
        "--telemetry",
        "true",
        "--strict",
        "false",
    ];
    assert_pinned("lint --fault", &stdout(&faulted), "1fb5c29a08cc8d43");
    let mut json = faulted.to_vec();
    json.extend(["--json", "true"]);
    assert_pinned("lint --fault --json", &stdout(&json), "7255423c2021771e");
    assert_pinned(
        "matrix",
        &stdout(&["matrix", "--scale", "0.004", "--seeds", "1"]),
        "2c77154280fbc91d",
    );
}

/// The strict gate's failure message embeds the report's
/// `fault_detection` and `policy_cross_check` annotations inline.
/// mcf's window has no usable free, so its `uaf` and `double-free`
/// cells fail, both kinds read `unplanned` (no seed planned, so no
/// static/dynamic verdict) and the gate trips.
#[test]
fn strict_fault_gate_message_is_pinned() {
    let out = aos(&[
        "faults",
        "--workload",
        "mcf",
        "--seeds",
        "2",
        "--kinds",
        "uaf,double-free",
        "--scale",
        "0.004",
        "--strict",
        "true",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    let message = stderr
        .lines()
        .find(|l| l.starts_with("strict fault gate failed: "))
        .unwrap_or_else(|| panic!("no gate message in:\n{stderr}"));
    assert_pinned("strict gate message", message, "d0c19422aa4a897f");
}

/// With `--json true` stdout is exactly one JSON document: for the
/// commands that also write `--out`, byte for byte the file they
/// wrote, with no banner, table or trailing note around it.
#[test]
fn json_stdout_is_the_document_alone() {
    let dir = ScratchDir::new("cli-json-stdout").expect("scratch dir");
    for (name, args) in [
        ("fuzz", &["fuzz", "--seed", "7", "--budget", "2"][..]),
        (
            "ablate",
            &[
                "ablate",
                "--workload",
                "mcf",
                "--scale",
                "0.002",
                "--mcq",
                "12",
                "--bwb",
                "16",
            ][..],
        ),
        (
            "matrix",
            &[
                "matrix", "--scale", "0.002", "--seeds", "1", "--kinds", "uaf",
            ][..],
        ),
    ] {
        let path = dir.join(format!("{name}.json"));
        let path = path.to_str().expect("utf8 path");
        let mut argv = args.to_vec();
        argv.extend(["--json", "true", "--out", path]);
        let printed = stdout(&argv);
        let written = std::fs::read_to_string(path).expect("report written");
        assert_eq!(printed, written, "aos {name} --json true");
        assert!(
            printed.starts_with("{\n") && printed.ends_with("}\n"),
            "{printed}"
        );
    }
    for args in [
        &[
            "run",
            "mcf",
            "--scale",
            "0.002",
            "--json",
            "true",
            "--telemetry",
            "true",
        ][..],
        &[
            "stats",
            "--workload",
            "mcf",
            "--scale",
            "0.002",
            "--json",
            "true",
        ][..],
        &["lint", "--scale", "0.002", "--json", "true"][..],
    ] {
        let printed = stdout(args);
        assert!(
            printed.starts_with('{') && printed.ends_with("}\n"),
            "{args:?}: {printed}"
        );
        assert_eq!(printed.matches("\n}").count(), 1, "{args:?}: one document");
    }
}
