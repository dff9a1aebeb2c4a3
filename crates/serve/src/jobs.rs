//! Job bodies: what each `aos-serve/v2` job kind actually executes,
//! and the rendered result objects it answers with.
//!
//! Every body is a pure function of its spec, and replays of a
//! recorded corpus must be bit-identical to the in-process pipeline,
//! so results carry [`digest64`] fingerprints of the underlying
//! [`RunStats`] / lint reports that tests (and users) can compare
//! across processes and sessions.

use aos_core::experiment::campaign::{matrix, run_campaign, CampaignOptions};
use aos_core::experiment::{run_metered, SystemUnderTest};
use aos_isa::corpus::{CorpusReader, CorpusWriter};
use aos_isa::stream::BufferedOps;
use aos_isa::SafetyConfig;
use aos_lint::{lint_stream_metered, LintReport};
use aos_ptrauth::PointerLayout;
use aos_sim::{Machine, RunStats};
use aos_util::hash::{fnv1a64, FNV1A64_OFFSET};
use aos_util::json::{Json, Layout};
use aos_util::{AosError, Telemetry};
use aos_workloads::{profile, TraceGenerator, WorkloadProfile};

/// How a recorded corpus entry is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// Feed the recorded ops through a Table IV machine and report
    /// its [`RunStats`].
    Sim,
    /// Feed the recorded ops through the static protocol linter and
    /// report its findings.
    Lint,
}

/// One unit of service work, fully specified.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Run one workload on one system and report the machine's
    /// statistics (the `aos run` cell, streamed per op).
    Trace {
        /// Workload name.
        workload: String,
        /// System under test.
        system: SafetyConfig,
        /// Window scale in `(0, 1]`.
        scale: f64,
    },
    /// Lint one workload's generated stream.
    Lint {
        /// Workload name.
        workload: String,
        /// System under test (decides which safety ops appear).
        system: SafetyConfig,
        /// Window scale in `(0, 1]`.
        scale: f64,
    },
    /// Run a workload × system campaign grid.
    Campaign {
        /// Workload names.
        workloads: Vec<String>,
        /// Systems under test.
        systems: Vec<SafetyConfig>,
        /// Window scale in `(0, 1]`.
        scale: f64,
    },
    /// Record a workload × system grid into a new corpus file.
    CorpusRecord {
        /// Corpus file to create.
        path: String,
        /// Workload names.
        workloads: Vec<String>,
        /// Systems under test.
        systems: Vec<SafetyConfig>,
        /// Window scale in `(0, 1]`.
        scale: f64,
    },
    /// Replay one recorded entry.
    CorpusReplay {
        /// Corpus file to read.
        path: String,
        /// Entry name.
        entry: String,
        /// Replay destination.
        mode: ReplayMode,
    },
    /// CRC-verify every entry of a corpus.
    CorpusVerify {
        /// Corpus file to read.
        path: String,
    },
    /// Test-gated: hold a worker for a fixed time (robustness tests
    /// fill the queue and fire timeouts with this).
    Sleep {
        /// How long to hold the worker.
        millis: u64,
    },
    /// Test-gated: panic inside the job body (robustness tests prove
    /// isolation with this).
    Poison,
}

impl JobSpec {
    /// A short label for error messages.
    pub fn label(&self) -> String {
        match self {
            JobSpec::Trace {
                workload, system, ..
            } => format!("trace {workload}/{system}"),
            JobSpec::Lint {
                workload, system, ..
            } => format!("lint {workload}/{system}"),
            JobSpec::Campaign {
                workloads, systems, ..
            } => {
                format!("campaign {}x{}", workloads.len(), systems.len())
            }
            JobSpec::CorpusRecord { path, .. } => format!("corpus_record {path}"),
            JobSpec::CorpusReplay { path, entry, .. } => {
                format!("corpus_replay {path}#{entry}")
            }
            JobSpec::CorpusVerify { path } => format!("corpus_verify {path}"),
            JobSpec::Sleep { millis } => format!("__sleep {millis}ms"),
            JobSpec::Poison => "__poison".to_string(),
        }
    }
}

/// FNV-1a over `bytes`: the stable 64-bit fingerprint results carry.
pub fn digest64(bytes: &[u8]) -> u64 {
    fnv1a64(FNV1A64_OFFSET, bytes)
}

/// A [`RunStats`] fingerprint: FNV-1a over the `Debug` rendering of
/// every simulated statistic, the telemetry snapshot left out (it is
/// a projection of the same run), so a run digests alike with
/// telemetry on or off. Two runs agree on this digest exactly when
/// they simulated alike.
pub fn stats_digest(stats: &RunStats) -> u64 {
    digest64(format!("{:?}", stats.without_telemetry()).as_bytes())
}

/// A [`LintReport`] fingerprint: FNV-1a over its
/// `aos-lint-report/v1` document with the stream's buffering mark
/// cleared, so a lint job and a corpus replay of the same ops digest
/// alike whatever produced them.
fn report_digest(report: &LintReport) -> u64 {
    let findings = LintReport {
        pipeline_peak_buffered_ops: 0,
        ..report.clone()
    };
    digest64(findings.to_json().as_bytes())
}

fn find_workload(name: &str) -> Result<&'static WorkloadProfile, AosError> {
    profile::by_name(name)
        .ok_or_else(|| AosError::invalid_input("workload", format!("unknown workload '{name}'")))
}

/// A simulation job's `result` object: the `head` fields naming what
/// ran, then the machine's headline statistics.
fn sim_result(head: [(&str, Json); 3], stats: &RunStats, trace_ops: u64) -> Json {
    Layout::Compact.object(head.into_iter().chain([
        ("cycles", Json::num(stats.cycles)),
        ("retired_ops", Json::num(stats.retired_ops)),
        ("trace_ops", Json::num(trace_ops)),
        ("ipc", Json::fixed(stats.ipc(), 4)),
        ("violations", Json::num(stats.violations)),
        (
            "stats_digest",
            Json::str(format!("{:016x}", stats_digest(stats))),
        ),
    ]))
}

/// A lint job's `result` object: the `head` fields naming what ran,
/// then the scan's counts and report digest.
fn lint_result(head: [(&str, Json); 3], report: &LintReport) -> Json {
    let findings = &report.findings;
    Layout::Compact.object(head.into_iter().chain([
        ("ops_scanned", Json::num(findings.ops_scanned)),
        ("errors", Json::num(findings.errors())),
        ("warnings", Json::num(findings.warnings())),
        ("clean", Json::Bool(findings.clean())),
        (
            "report_digest",
            Json::str(format!("{:016x}", report_digest(report))),
        ),
    ]))
}

/// The canonical entry name `corpus_record` gives a `(workload,
/// system)` cell, e.g. `mcf-pa+aos`.
pub fn entry_name(workload: &str, system: SafetyConfig) -> String {
    format!("{workload}-{}", system.to_string().to_ascii_lowercase())
}

/// The metadata string recorded with each entry; `corpus_replay`
/// parses the system back out of it so a replay needs no re-spec.
pub fn entry_metadata(workload: &str, system: SafetyConfig, scale: f64) -> String {
    format!("workload={workload} system={system} scale={scale}")
}

/// Parses the `system=` field of an entry's recorded metadata.
fn system_from_metadata(metadata: &str) -> Result<SafetyConfig, AosError> {
    let token = metadata
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("system="))
        .ok_or_else(|| {
            AosError::corruption("corpus entry metadata", "no system= field recorded")
        })?;
    SafetyConfig::parse(token).ok_or_else(|| {
        AosError::corruption(
            "corpus entry metadata",
            format!("unknown system '{}'", token.to_ascii_lowercase()),
        )
    })
}

/// Adapter: drains a corpus [`Replay`](aos_isa::corpus::Replay) as a
/// plain op stream for a machine or linter, parking the first error
/// so the caller can fail the job after the consumer stops. The
/// iterator fuses at the error — no op after a corrupt block is ever
/// delivered.
struct ReplayOps {
    inner: aos_isa::corpus::Replay,
    error: Option<AosError>,
}

impl Iterator for ReplayOps {
    type Item = aos_isa::Op;

    fn next(&mut self) -> Option<Self::Item> {
        if self.error.is_some() {
            return None;
        }
        match self.inner.next() {
            Some(Ok(op)) => Some(op),
            Some(Err(e)) => {
                self.error = Some(e);
                None
            }
            None => None,
        }
    }
}

impl BufferedOps for ReplayOps {
    fn peak_buffered_ops(&self) -> usize {
        self.inner.peak_buffered_ops()
    }
}

/// Executes one job and renders its result object (the `"result"`
/// value of an `ok` response).
///
/// Lint scans, corpus frames and simulated machines count on
/// `telemetry`; the service gives every job a handle of its own and
/// merges the snapshots.
///
/// # Errors
///
/// [`AosError`] in its usual taxonomy; notably
/// [`AosError::Corruption`] when a corpus job hits a CRC-failing
/// block — the caller quarantines the job, the service keeps serving.
pub fn execute(spec: &JobSpec, telemetry: &Telemetry) -> Result<Json, AosError> {
    let cell = |workload: &str, system: &SafetyConfig, scale: &f64| {
        [
            ("workload", Json::str(workload)),
            ("system", Json::str(system.to_string())),
            ("scale", Json::num(scale)),
        ]
    };
    match spec {
        JobSpec::Trace {
            workload,
            system,
            scale,
        } => {
            let p = find_workload(workload)?;
            let sut = SystemUnderTest::scaled(*system, *scale).with_telemetry(true);
            let out = run_metered(p, &sut);
            telemetry.merge(&out.stats.telemetry);
            Ok(sim_result(
                cell(workload, system, scale),
                &out.stats,
                out.trace_ops,
            ))
        }
        JobSpec::Lint {
            workload,
            system,
            scale,
        } => {
            let p = find_workload(workload)?;
            let gen = TraceGenerator::new(p, *system, *scale);
            let report = lint_stream_metered(gen, PointerLayout::default(), telemetry);
            Ok(lint_result(cell(workload, system, scale), &report))
        }
        JobSpec::Campaign {
            workloads,
            systems,
            scale,
        } => {
            let mut profiles = Vec::with_capacity(workloads.len());
            for name in workloads {
                profiles.push(*find_workload(name)?);
            }
            let suts: Vec<SystemUnderTest> = systems
                .iter()
                .map(|s| SystemUnderTest::scaled(*s, *scale))
                .collect();
            let cells = matrix(profiles, suts);
            // One campaign thread: the service's own workers are the
            // parallelism budget here.
            let report = run_campaign(&cells, &CampaignOptions::with_threads(1));
            Ok(Layout::Compact.object([
                ("cells", Json::num(report.results.len())),
                ("completed", Json::num(report.completed())),
                ("failed", Json::num(report.failed())),
                ("total_sim_cycles", Json::num(report.total_sim_cycles())),
            ]))
        }
        JobSpec::CorpusRecord {
            path,
            workloads,
            systems,
            scale,
        } => {
            let mut cells = Vec::new();
            for name in workloads {
                let p = find_workload(name)?;
                for system in systems {
                    cells.push((name.clone(), p, *system));
                }
            }
            if cells.is_empty() {
                return Err(AosError::invalid_input(
                    "corpus_record",
                    "empty workload x system grid",
                ));
            }
            let mut writer = CorpusWriter::create(path, telemetry.clone())?;
            let mut ops_total = 0u64;
            for (name, p, system) in &cells {
                let gen = TraceGenerator::new(p, *system, *scale);
                let meta = writer.record(
                    &entry_name(name, *system),
                    &entry_metadata(name, *system, *scale),
                    gen,
                )?;
                ops_total += meta.op_count;
            }
            let entries = writer.finish()?;
            Ok(Layout::Compact.object([
                ("corpus", Json::str(path.as_str())),
                ("entries", Json::num(entries.len())),
                ("ops_total", Json::num(ops_total)),
            ]))
        }
        JobSpec::CorpusReplay { path, entry, mode } => {
            let reader = CorpusReader::open(path, telemetry.clone())?;
            let meta = reader
                .find(entry)
                .ok_or_else(|| {
                    AosError::invalid_input(
                        "corpus_replay",
                        format!("no entry '{entry}' in {path}"),
                    )
                })?
                .clone();
            let system = system_from_metadata(&meta.metadata)?;
            let replay = reader.replay(&meta)?;
            let mut ops = ReplayOps {
                inner: replay,
                error: None,
            };
            let head = [
                ("corpus", Json::str(path.as_str())),
                ("entry", Json::str(entry.as_str())),
                ("system", Json::str(system.to_string())),
            ];
            match mode {
                ReplayMode::Sim => {
                    let config = SystemUnderTest::standard(system)
                        .with_telemetry(true)
                        .machine_config();
                    let stats = Machine::new(config).run(&mut ops);
                    telemetry.merge(&stats.telemetry);
                    if let Some(e) = ops.error {
                        return Err(e);
                    }
                    Ok(sim_result(head, &stats, meta.op_count))
                }
                ReplayMode::Lint => {
                    let report = lint_stream_metered(&mut ops, PointerLayout::default(), telemetry);
                    if let Some(e) = ops.error {
                        return Err(e);
                    }
                    Ok(lint_result(head, &report))
                }
            }
        }
        JobSpec::CorpusVerify { path } => {
            let reader = CorpusReader::open(path, telemetry.clone())?;
            let checks = reader.verify();
            let quarantined = checks.iter().filter(|c| c.status.is_err()).count();
            let first_error = checks
                .iter()
                .find_map(|c| c.status.as_ref().err().map(|e| e.to_string()))
                .unwrap_or_default();
            Ok(Layout::Compact.object([
                ("corpus", Json::str(path.as_str())),
                ("entries", Json::num(checks.len())),
                ("quarantined", Json::num(quarantined)),
                ("clean", Json::Bool(quarantined == 0)),
                ("first_error", Json::str(first_error)),
            ]))
        }
        JobSpec::Sleep { millis } => {
            std::thread::sleep(std::time::Duration::from_millis(*millis));
            Ok(Layout::Compact.object([("slept_ms", Json::num(millis))]))
        }
        JobSpec::Poison => panic!("__poison job body deliberately panicked"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_lint::lint_stream;
    use aos_util::scratch::ScratchDir;
    use aos_util::Counter;
    use std::path::PathBuf;

    /// A private scratch directory holding `name`; the guard removes it
    /// when the test drops it.
    fn temp(name: &str) -> (ScratchDir, PathBuf) {
        let dir = ScratchDir::new(name).expect("scratch dir");
        let path = dir.join(name);
        (dir, path)
    }

    #[test]
    fn trace_job_reports_a_digest() {
        let spec = JobSpec::Trace {
            workload: "mcf".into(),
            system: SafetyConfig::Aos,
            scale: 0.004,
        };
        let a = execute(&spec, &Telemetry::disabled()).expect("run");
        let b = execute(&spec, &Telemetry::disabled()).expect("run");
        assert_eq!(a, b, "job bodies are pure functions of their spec");
        let a = a.to_string();
        assert!(a.contains("\"stats_digest\":\""));
        assert!(a.contains("\"workload\":\"mcf\""));
    }

    #[test]
    fn record_then_replay_is_bit_identical_to_the_in_process_pipeline() {
        let (_dir, path) = temp("identity.aosc");
        let record = JobSpec::CorpusRecord {
            path: path.display().to_string(),
            workloads: vec!["mcf".into()],
            systems: vec![SafetyConfig::Aos],
            scale: 0.004,
        };
        execute(&record, &Telemetry::disabled()).expect("record");

        let replay = JobSpec::CorpusReplay {
            path: path.display().to_string(),
            entry: "mcf-aos".into(),
            mode: ReplayMode::Sim,
        };
        let replayed = execute(&replay, &Telemetry::disabled())
            .expect("replay")
            .to_string();

        // The in-process pipeline on the same cell.
        let p = profile::by_name("mcf").expect("profile");
        let sut = SystemUnderTest::scaled(SafetyConfig::Aos, 0.004);
        let out = run_metered(p, &sut);
        let expect = format!("\"stats_digest\":\"{:016x}\"", stats_digest(&out.stats));
        assert!(
            replayed.contains(&expect),
            "replay {replayed} != in-process digest {expect}"
        );
    }

    #[test]
    fn replay_lint_matches_in_process_lint() {
        let (_dir, path) = temp("lintid.aosc");
        execute(
            &JobSpec::CorpusRecord {
                path: path.display().to_string(),
                workloads: vec!["mcf".into()],
                systems: vec![SafetyConfig::Aos],
                scale: 0.004,
            },
            &Telemetry::disabled(),
        )
        .expect("record");
        let via_corpus = execute(
            &JobSpec::CorpusReplay {
                path: path.display().to_string(),
                entry: "mcf-aos".into(),
                mode: ReplayMode::Lint,
            },
            &Telemetry::disabled(),
        )
        .expect("replay")
        .to_string();
        let p = profile::by_name("mcf").expect("profile");
        let report = lint_stream(
            TraceGenerator::new(p, SafetyConfig::Aos, 0.004),
            PointerLayout::default(),
        );
        let expect = format!("\"report_digest\":\"{:016x}\"", report_digest(&report));
        assert!(via_corpus.contains(&expect), "{via_corpus} != {expect}");
    }

    #[test]
    fn corrupt_replay_is_a_typed_quarantine() {
        let (_dir, path) = temp("quarantine.aosc");
        execute(
            &JobSpec::CorpusRecord {
                path: path.display().to_string(),
                workloads: vec!["mcf".into()],
                systems: vec![SafetyConfig::Baseline],
                scale: 0.004,
            },
            &Telemetry::disabled(),
        )
        .expect("record");
        // Flip a bit in the first op block of the only entry.
        let reader = CorpusReader::open(&path, Telemetry::disabled()).expect("open");
        let offset = reader.entries()[0].offset;
        drop(reader);
        let mut bytes = std::fs::read(&path).expect("read");
        // entry header frame: 8 (len+crc) + 1 (kind) + payload; next
        // frame starts after it — flip inside its payload.
        let header_payload = u32::from_le_bytes(
            bytes[offset as usize..offset as usize + 4]
                .try_into()
                .unwrap(),
        );
        let block_payload_at = offset as usize + 8 + header_payload as usize + 8 + 1;
        bytes[block_payload_at + 5] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write");

        let t = Telemetry::enabled();
        let err = execute(
            &JobSpec::CorpusReplay {
                path: path.display().to_string(),
                entry: "mcf-baseline".into(),
                mode: ReplayMode::Sim,
            },
            &t,
        )
        .expect_err("corrupt replay must fail");
        assert!(matches!(err, AosError::Corruption { .. }), "{err}");
        assert!(t.snapshot().counter(Counter::CorpusCrcFailures) >= 1);

        // Verify reports the quarantine without failing the job.
        let verify = execute(
            &JobSpec::CorpusVerify {
                path: path.display().to_string(),
            },
            &Telemetry::disabled(),
        )
        .expect("verify is a report, not a gate")
        .to_string();
        assert!(verify.contains("\"quarantined\":1"));
        assert!(verify.contains("\"clean\":false"));
    }

    #[test]
    fn unknown_workload_is_invalid_input() {
        let err = execute(
            &JobSpec::Trace {
                workload: "doom".into(),
                system: SafetyConfig::Aos,
                scale: 0.01,
            },
            &Telemetry::disabled(),
        )
        .expect_err("unknown workload");
        assert!(matches!(err, AosError::InvalidInput { .. }));
    }
}
