//! `aos serve` — a fault-tolerant, long-running job service for the
//! AOS pipeline, with persistent CRC-checked trace corpora.
//!
//! The reproduction's workloads (trace cells, campaign grids, lint
//! scans) were one-shot CLI invocations; this crate wraps them in a
//! service that accepts jobs as newline-delimited JSON
//! (`aos-serve/v2`) over stdin/stdout or a Unix socket and *stays up*
//! whatever a job does:
//!
//! - a **bounded queue** answers overload with an explicit
//!   `rejected` + `retry_after_ms` line — backpressure is part of the
//!   protocol, not an unbounded buffer;
//! - every job runs once under a guard: `catch_unwind` isolation (a
//!   poisoned job answers `failed`, the service keeps serving) and a
//!   per-job wall-clock deadline. A job is a pure function of its
//!   spec, so it is never retried;
//! - a corpus job that hits a CRC-failing block quarantines with a
//!   typed [`AosError::Corruption`](aos_util::AosError) and a
//!   `corpus_crc_failures` count — graceful degradation, never a
//!   crash, never a mis-replay;
//! - shutdown (explicit request or EOF) drains: in-flight and queued
//!   jobs complete and answer before the final `shutdown` line.
//!
//! Replays of a recorded corpus are **bit-identical** to the
//! in-process pipeline: results carry `stats_digest` /
//! `report_digest` fingerprints that match across processes and
//! sessions (pinned by this crate's tests and
//! `tests/serve_robustness.rs`).
//!
//! Module map: [`json`] (flat-object parser, no serde), [`proto`]
//! (request parsing, pinned-key-order responses), [`jobs`] (job
//! bodies over `aos-core` / `aos-isa::corpus`), [`service`] (queue,
//! guarded workers, single-writer collector, transports).
//!
//! # Examples
//!
//! ```
//! use std::io::Cursor;
//! use aos_serve::{serve, ServeOptions};
//!
//! let script = concat!(
//!     r#"{"proto":"aos-serve/v2","id":"j1","kind":"lint","#,
//!     r#""workload":"mcf","system":"aos","scale":0.004}"#,
//!     "\n",
//!     r#"{"proto":"aos-serve/v2","kind":"shutdown"}"#,
//!     "\n",
//! );
//! // The writer moves to the collector thread, so hand it something
//! // owned — a temp file here; a socket or stdout in real callers.
//! let dir = aos_util::scratch::ScratchDir::new("serve-doc")?;
//! let path = dir.join("answers.ndjson");
//! let file = std::fs::File::create(&path)?;
//! let summary = serve(Cursor::new(script), file, &ServeOptions::default())?;
//! assert_eq!(summary.succeeded, 1);
//! assert!(summary.shutdown_requested);
//! let answers = std::fs::read_to_string(&path)?;
//! assert!(answers.contains("\"id\":\"j1\",\"status\":\"ok\""));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod jobs;
pub mod json;
pub mod proto;
pub mod service;

pub use jobs::{digest64, entry_metadata, entry_name, execute, stats_digest, JobSpec, ReplayMode};
pub use proto::{parse_request, parse_system, parse_systems, Request, PROTO};
pub use service::{serve, ServeOptions, ServeSummary};

#[cfg(unix)]
pub use service::serve_unix;
