//! The `aos-serve/v2` wire protocol: newline-delimited JSON, one
//! object per line in each direction.
//!
//! Requests are flat objects: `proto` and `kind` always, `id` for job
//! kinds, plus per-kind fields (see [`parse_request`]). Responses are
//! rendered with a **pinned key order** — `tests/serve_protocol_golden.rs`
//! snapshots the exact key sequence of every response shape, so a
//! reordering is an API break a golden diff catches:
//!
//! ```text
//! ready     {"proto","status"}
//! ok        {"proto","id","status","result"}
//! rejected  {"proto","id","status","error_kind","error","retry_after_ms"}
//! failed    {"proto","id","status","error_kind","error"}
//! shutdown  {"proto","status","jobs_completed"}
//! ```
//!
//! `rejected` means the service did not run the job (full queue,
//! unparsable line, bad fields) — `retry_after_ms` is non-null exactly
//! when retrying the same line later can succeed. `failed` means the
//! job ran and could not produce a result (`error_kind` of `panic`,
//! `timeout`, or an [`AosError`] class).

use aos_isa::SafetyConfig;
use aos_util::json::{Json, Layout};
use aos_util::AosError;

use crate::jobs::{JobSpec, ReplayMode};
use crate::json::{self, JsonObject, JsonValue};

/// The protocol identifier every line carries.
pub const PROTO: &str = "aos-serve/v2";

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a job and answer under `id`.
    Job {
        /// Caller-chosen correlation id, echoed on the response.
        id: String,
        /// What to run.
        spec: JobSpec,
    },
    /// Stop accepting, drain in-flight jobs, answer with `shutdown`.
    Shutdown,
}

fn bad(detail: impl std::fmt::Display) -> AosError {
    AosError::invalid_input("aos-serve request", detail)
}

fn string_field(object: &JsonObject, name: &str) -> Result<String, AosError> {
    match json::get(object, name) {
        Some(JsonValue::Str(s)) if !s.is_empty() => Ok(s.clone()),
        Some(_) => Err(bad(format!("field '{name}' must be a non-empty string"))),
        None => Err(bad(format!("missing field '{name}'"))),
    }
}

fn scale_field(object: &JsonObject) -> Result<f64, AosError> {
    match json::get(object, "scale") {
        None => Ok(1.0),
        Some(JsonValue::Num(s)) if *s > 0.0 && *s <= 1.0 => Ok(*s),
        Some(JsonValue::Num(s)) => Err(bad(format!("scale must be in (0, 1], got {s}"))),
        Some(_) => Err(bad("scale must be a number")),
    }
}

fn system_field(object: &JsonObject, name: &str) -> Result<SafetyConfig, AosError> {
    parse_system(&string_field(object, name)?)
}

/// Parses a system name (the CLI's spelling: case-insensitive,
/// `pa+aos` for the combined system).
pub fn parse_system(name: &str) -> Result<SafetyConfig, AosError> {
    SafetyConfig::parse(name).ok_or_else(|| {
        bad(format!(
            "unknown system '{}' (baseline, watchdog, pa, aos, pa+aos)",
            name.to_ascii_lowercase()
        ))
    })
}

/// Parses a comma-separated list of system names.
pub fn parse_systems(list: &str) -> Result<Vec<SafetyConfig>, AosError> {
    let systems: Result<Vec<_>, _> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse_system)
        .collect();
    let systems = systems?;
    if systems.is_empty() {
        return Err(bad("empty system list"));
    }
    Ok(systems)
}

fn comma_list(raw: &str) -> Vec<String> {
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Parses one request line.
///
/// `test_jobs` gates the `__sleep` / `__poison` kinds the robustness
/// tests use; a production service rejects them like any unknown
/// kind.
///
/// # Errors
///
/// [`AosError::InvalidInput`] describing exactly what was wrong — the
/// service turns it into a `rejected` response, it never tears down
/// the connection.
pub fn parse_request(line: &str, test_jobs: bool) -> Result<Request, AosError> {
    let object = json::parse_object(line)?;
    let proto = string_field(&object, "proto")?;
    if proto != PROTO {
        return Err(bad(format!("unsupported proto '{proto}' (want {PROTO})")));
    }
    let kind = string_field(&object, "kind")?;
    if kind == "shutdown" {
        return Ok(Request::Shutdown);
    }
    let id = string_field(&object, "id")?;
    let spec = match kind.as_str() {
        "trace" => JobSpec::Trace {
            workload: string_field(&object, "workload")?,
            system: system_field(&object, "system")?,
            scale: scale_field(&object)?,
        },
        "lint" => JobSpec::Lint {
            workload: string_field(&object, "workload")?,
            system: system_field(&object, "system")?,
            scale: scale_field(&object)?,
        },
        "campaign" => {
            let workloads = comma_list(&string_field(&object, "workloads")?);
            if workloads.is_empty() {
                return Err(bad("empty workload list"));
            }
            JobSpec::Campaign {
                workloads,
                systems: parse_systems(&string_field(&object, "systems")?)?,
                scale: scale_field(&object)?,
            }
        }
        "corpus_record" => {
            let workloads = comma_list(&string_field(&object, "workloads")?);
            if workloads.is_empty() {
                return Err(bad("empty workload list"));
            }
            JobSpec::CorpusRecord {
                path: string_field(&object, "corpus")?,
                workloads,
                systems: parse_systems(&string_field(&object, "systems")?)?,
                scale: scale_field(&object)?,
            }
        }
        "corpus_replay" => JobSpec::CorpusReplay {
            path: string_field(&object, "corpus")?,
            entry: string_field(&object, "entry")?,
            mode: match json::get(&object, "mode").and_then(JsonValue::as_str) {
                None | Some("sim") => ReplayMode::Sim,
                Some("lint") => ReplayMode::Lint,
                Some(other) => return Err(bad(format!("unknown mode '{other}' (sim, lint)"))),
            },
        },
        "corpus_verify" => JobSpec::CorpusVerify {
            path: string_field(&object, "corpus")?,
        },
        "__sleep" if test_jobs => JobSpec::Sleep {
            millis: json::get(&object, "millis")
                .and_then(JsonValue::as_f64)
                .map(|m| m as u64)
                .ok_or_else(|| bad("__sleep needs a numeric 'millis'"))?,
        },
        "__poison" if test_jobs => JobSpec::Poison,
        other => return Err(bad(format!("unknown job kind '{other}'"))),
    };
    Ok(Request::Job { id, spec })
}

/// The stable failure-class token a response's `error_kind` carries.
pub fn error_kind(error: &AosError) -> &'static str {
    match error {
        AosError::InvalidInput { .. } => "input",
        AosError::ResourceExhausted { .. } => "resource",
        AosError::SafetyViolation { .. } => "safety",
        AosError::Corruption { .. } => "corruption",
        AosError::TaskFailed { .. } => "task",
        AosError::Io { .. } => "io",
    }
}

/// A response line: one compact object, `proto` first.
fn line<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> String {
    let proto = [("proto", Json::str(PROTO))];
    Layout::Compact
        .object(proto.into_iter().chain(fields))
        .to_string()
}

/// The greeting line the service writes when it starts serving.
pub fn render_ready() -> String {
    line([("status", Json::str("ready"))])
}

/// A completed job's response carrying the job's `result` object.
pub fn render_ok(id: &str, result: Json) -> String {
    line([
        ("id", Json::str(id)),
        ("status", Json::str("ok")),
        ("result", result),
    ])
}

/// A request the service refused to run. `retry_after_ms` is the
/// explicit backpressure signal: non-null exactly when the same line
/// can succeed later (a full queue), null when it never will (a
/// malformed line).
pub fn render_rejected(
    id: Option<&str>,
    kind: &str,
    error: &str,
    retry_after_ms: Option<u64>,
) -> String {
    line([
        ("id", id.map_or(Json::Null, Json::str)),
        ("status", Json::str("rejected")),
        ("error_kind", Json::str(kind)),
        ("error", Json::str(error)),
        (
            "retry_after_ms",
            retry_after_ms.map_or(Json::Null, Json::num),
        ),
    ])
}

/// A job that ran and produced no result.
pub fn render_failed(id: &str, kind: &str, error: &str) -> String {
    line([
        ("id", Json::str(id)),
        ("status", Json::str("failed")),
        ("error_kind", Json::str(kind)),
        ("error", Json::str(error)),
    ])
}

/// The final line before the service exits: every accepted job has
/// been answered.
pub fn render_shutdown(jobs_completed: u64) -> String {
    line([
        ("status", Json::str("shutdown")),
        ("jobs_completed", Json::num(jobs_completed)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_job_kind() {
        let r = parse_request(
            r#"{"proto":"aos-serve/v2","id":"a","kind":"trace","workload":"mcf","system":"aos","scale":0.01}"#,
            false,
        )
        .expect("trace");
        assert!(matches!(
            r,
            Request::Job {
                spec: JobSpec::Trace { .. },
                ..
            }
        ));
        let r = parse_request(
            r#"{"proto":"aos-serve/v2","id":"b","kind":"campaign","workloads":"mcf, gcc","systems":"baseline,aos"}"#,
            false,
        )
        .expect("campaign");
        match r {
            Request::Job {
                spec:
                    JobSpec::Campaign {
                        workloads,
                        systems,
                        scale,
                    },
                ..
            } => {
                assert_eq!(workloads, vec!["mcf", "gcc"]);
                assert_eq!(systems, vec![SafetyConfig::Baseline, SafetyConfig::Aos]);
                assert!((scale - 1.0).abs() < f64::EPSILON);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(matches!(
            parse_request(r#"{"proto":"aos-serve/v2","kind":"shutdown"}"#, false),
            Ok(Request::Shutdown)
        ));
        let r = parse_request(
            r#"{"proto":"aos-serve/v2","id":"c","kind":"corpus_replay","corpus":"/tmp/x.aosc","entry":"mcf-aos","mode":"lint"}"#,
            false,
        )
        .expect("replay");
        assert!(matches!(
            r,
            Request::Job {
                spec: JobSpec::CorpusReplay {
                    mode: ReplayMode::Lint,
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn test_jobs_are_gated() {
        let line = r#"{"proto":"aos-serve/v2","id":"t","kind":"__sleep","millis":5}"#;
        assert!(parse_request(line, false).is_err(), "gated off by default");
        assert!(matches!(
            parse_request(line, true),
            Ok(Request::Job {
                spec: JobSpec::Sleep { millis: 5 },
                ..
            })
        ));
    }

    #[test]
    fn rejects_bad_requests_with_specific_messages() {
        for (line, needle) in [
            (r#"{"kind":"trace","id":"x"}"#, "missing field 'proto'"),
            (
                r#"{"proto":"aos-serve/v1","kind":"trace","id":"x"}"#,
                "unsupported proto",
            ),
            (
                r#"{"proto":"aos-serve/v2","kind":"explode","id":"x"}"#,
                "unknown job kind",
            ),
            (
                r#"{"proto":"aos-serve/v2","kind":"trace"}"#,
                "missing field 'id'",
            ),
            (
                r#"{"proto":"aos-serve/v2","kind":"trace","id":"x","workload":"mcf","system":"doom"}"#,
                "unknown system",
            ),
            (
                r#"{"proto":"aos-serve/v2","kind":"trace","id":"x","workload":"mcf","system":"aos","scale":7}"#,
                "scale must be in",
            ),
        ] {
            let e = parse_request(line, false).expect_err(line);
            assert!(e.to_string().contains(needle), "{line} -> {e}");
        }
    }

    #[test]
    fn responses_escape_hostile_ids() {
        let line = render_ok("a\"b\nc", Layout::Compact.object::<&str>([]));
        assert!(line.contains("a\\\"b\\nc"));
        assert!(!line.contains('\n'), "NDJSON lines must stay one line");
        let line = render_rejected(None, "input", "queue \"full\"", Some(25));
        assert!(line.contains("\"id\":null"));
        assert!(line.contains("\"retry_after_ms\":25"));
    }
}
