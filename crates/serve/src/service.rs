//! The service loop: a bounded job queue with explicit backpressure,
//! guarded worker threads, and a single collector thread that owns
//! the response writer and every telemetry write.
//!
//! Threading discipline:
//!
//! - the **caller's thread** reads request lines, parses them, and
//!   either enqueues (bounded — a full queue answers `rejected` with
//!   `retry_after_ms`, it never buffers unboundedly) or forwards the
//!   parse error;
//! - **worker threads** pop jobs and run them through
//!   [`aos_util::guard::run_guarded`] — `catch_unwind` isolation, a
//!   wall-clock deadline, bounded retries with exponential backoff —
//!   so a poisoned or wedged job costs one response, never the
//!   service;
//! - the **collector thread** is the *only* writer: every response
//!   line and every `serve_*` counter goes through it, honouring the
//!   single-writer contract of [`aos_util::telemetry`] without
//!   putting a lock on the hot path.
//!
//! Shutdown (a `shutdown` request or EOF) is a drain, not an abort:
//! accepting stops, queued and in-flight jobs complete and answer,
//! then the `shutdown` summary line flushes and the service returns.

use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use aos_util::guard::{run_guarded, Backoff, GuardOptions};
use aos_util::json::Json;
use aos_util::{AosError, Counter, Gauge, Telemetry};

use crate::jobs::{self, JobSpec};
use crate::proto::{self, Request};

/// Tuning for one [`serve`] session.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Queue slots; an arriving job beyond this is rejected with
    /// `retry_after_ms`, never buffered.
    pub queue_capacity: usize,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Per-attempt wall-clock deadline; `None` disables the watchdog.
    pub job_timeout: Option<Duration>,
    /// Extra attempts after a panicked or timed-out first attempt.
    pub retries: u32,
    /// Base of the exponential backoff between attempts
    /// (`base * 2^(attempt-1)`).
    pub backoff_base: Duration,
    /// The hint carried by queue-full rejections.
    pub retry_after_ms: u64,
    /// Accept the `__sleep` / `__poison` test kinds.
    pub test_jobs: bool,
    /// The service's telemetry handle (written only by the collector).
    pub telemetry: Telemetry,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            queue_capacity: 16,
            workers: 2,
            job_timeout: Some(Duration::from_secs(30)),
            retries: 1,
            backoff_base: Duration::from_millis(50),
            retry_after_ms: 25,
            test_jobs: false,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// What one [`serve`] session did, as counted by the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Jobs accepted into the queue.
    pub accepted: u64,
    /// Requests rejected (full queue or unparsable/invalid line).
    pub rejected: u64,
    /// Accepted jobs answered `ok`.
    pub succeeded: u64,
    /// Accepted jobs answered `failed`.
    pub failed: u64,
    /// Extra attempts spent on retries.
    pub retried: u64,
    /// Jobs whose final attempt timed out.
    pub timed_out: u64,
    /// Jobs whose final attempt panicked.
    pub panicked: u64,
    /// Whether an explicit `shutdown` request (vs EOF) ended the
    /// session.
    pub shutdown_requested: bool,
}

impl ServeSummary {
    /// Jobs that ran to an answer (`ok` + `failed`).
    pub fn completed(&self) -> u64 {
        self.succeeded + self.failed
    }
}

struct QueueState {
    jobs: VecDeque<(String, JobSpec)>,
    draining: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    available: Condvar,
}

enum Event {
    Accepted {
        /// Queue depth right after the push (sampled under the lock),
        /// so the gauge records the true high-water mark.
        depth: u64,
    },
    Rejected {
        id: Option<String>,
        kind: &'static str,
        error: String,
        retry_after_ms: Option<u64>,
    },
    Succeeded {
        id: String,
        attempts: u32,
        result: Json,
    },
    Failed {
        id: String,
        attempts: u32,
        kind: &'static str,
        error: String,
    },
    Drained {
        shutdown_requested: bool,
    },
}

fn collector_loop(
    events: mpsc::Receiver<Event>,
    mut writer: impl Write,
    telemetry: Telemetry,
) -> Result<ServeSummary, AosError> {
    let mut summary = ServeSummary::default();
    let write_line = |writer: &mut dyn Write, line: &str| -> Result<(), AosError> {
        writeln!(writer, "{line}")
            .and_then(|()| writer.flush())
            .map_err(|e| AosError::Io {
                context: "aos-serve response stream".to_string(),
                detail: e.to_string(),
            })
    };
    write_line(&mut writer, &proto::render_ready())?;
    while let Ok(event) = events.recv() {
        match event {
            Event::Accepted { depth } => {
                summary.accepted += 1;
                telemetry.count(Counter::ServeJobsAccepted);
                telemetry.gauge_max(Gauge::ServeQueueDepth, depth);
            }
            Event::Rejected {
                id,
                kind,
                error,
                retry_after_ms,
            } => {
                summary.rejected += 1;
                telemetry.count(Counter::ServeJobsRejected);
                write_line(
                    &mut writer,
                    &proto::render_rejected(id.as_deref(), kind, &error, retry_after_ms),
                )?;
            }
            Event::Succeeded {
                id,
                attempts,
                result,
            } => {
                summary.succeeded += 1;
                if attempts > 1 {
                    summary.retried += u64::from(attempts - 1);
                    for _ in 1..attempts {
                        telemetry.count(Counter::ServeJobsRetried);
                    }
                }
                write_line(&mut writer, &proto::render_ok(&id, attempts, result))?;
            }
            Event::Failed {
                id,
                attempts,
                kind,
                error,
            } => {
                summary.failed += 1;
                if attempts > 1 {
                    summary.retried += u64::from(attempts - 1);
                    for _ in 1..attempts {
                        telemetry.count(Counter::ServeJobsRetried);
                    }
                }
                match kind {
                    "timeout" => {
                        summary.timed_out += 1;
                        telemetry.count(Counter::ServeJobsTimedOut);
                    }
                    "panic" => {
                        summary.panicked += 1;
                        telemetry.count(Counter::ServeJobsPanicked);
                    }
                    // A corpus job quarantined by a CRC failure: the
                    // jobs layer ran with a disabled handle (workers
                    // are concurrent), so account the class here.
                    "corruption" => telemetry.count(Counter::CorpusCrcFailures),
                    _ => {}
                }
                write_line(
                    &mut writer,
                    &proto::render_failed(&id, attempts, kind, &error),
                )?;
            }
            Event::Drained { shutdown_requested } => {
                summary.shutdown_requested = shutdown_requested;
                write_line(&mut writer, &proto::render_shutdown(summary.completed()))?;
                return Ok(summary);
            }
        }
    }
    // Senders vanished without a drain marker — the read loop errored
    // out; report what was counted.
    Ok(summary)
}

fn worker_loop(shared: &Shared, events: &mpsc::Sender<Event>, guard: &GuardOptions) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("queue lock poisoned");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break Some(job);
                }
                if state.draining {
                    break None;
                }
                state = shared.available.wait(state).expect("queue lock poisoned");
            }
        };
        let Some((id, spec)) = job else { return };
        // Workers run concurrently, so the job body gets a disabled
        // telemetry handle (see the module docs); the collector does
        // all counting.
        let work: aos_util::guard::Work<Result<Json, AosError>> = {
            let spec = spec.clone();
            Arc::new(move || jobs::execute(&spec, &Telemetry::disabled()))
        };
        let event = match run_guarded(work, guard) {
            (Ok(Ok(result)), attempts) => Event::Succeeded {
                id,
                attempts,
                result,
            },
            (Ok(Err(error)), attempts) => Event::Failed {
                id,
                attempts,
                kind: proto::error_kind(&error),
                error: format!("{} failed: {error}", spec.label()),
            },
            (Err(guard_error), attempts) => Event::Failed {
                id,
                attempts,
                kind: guard_error.kind(),
                error: format!("{} {guard_error}", spec.label()),
            },
        };
        if events.send(event).is_err() {
            return; // collector gone; nothing left to answer to
        }
    }
}

/// Runs one service session: reads request lines from `reader` until
/// EOF or a `shutdown` request, answers on `writer`, drains, and
/// returns the session's counts.
///
/// # Errors
///
/// [`AosError::Io`] when the response stream itself dies — the one
/// failure a job service cannot degrade around.
pub fn serve(
    reader: impl BufRead,
    writer: impl Write + Send + 'static,
    options: &ServeOptions,
) -> Result<ServeSummary, AosError> {
    let shared = Arc::new(Shared {
        state: Mutex::new(QueueState {
            jobs: VecDeque::new(),
            draining: false,
        }),
        available: Condvar::new(),
    });
    let (events, event_rx) = mpsc::channel::<Event>();
    let guard = GuardOptions {
        timeout: options.job_timeout,
        retries: options.retries,
        backoff: Backoff::Exponential(options.backoff_base),
    };

    let collector = {
        let telemetry = options.telemetry.clone();
        std::thread::spawn(move || collector_loop(event_rx, writer, telemetry))
    };
    let workers: Vec<_> = (0..options.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            let events = events.clone();
            // GuardOptions is Copy: the move closure copies it.
            std::thread::spawn(move || worker_loop(&shared, &events, &guard))
        })
        .collect();

    let mut shutdown_requested = false;
    for line in reader.lines() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                // A dead request stream is an implicit EOF: drain.
                let _ = e;
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match proto::parse_request(&line, options.test_jobs) {
            Err(error) => {
                // Salvage the id if the line was at least JSON.
                let id = crate::json::parse_object(&line).ok().and_then(|o| {
                    crate::json::get(&o, "id")
                        .and_then(crate::json::JsonValue::as_str)
                        .map(str::to_string)
                });
                let _ = events.send(Event::Rejected {
                    id,
                    kind: "input",
                    error: error.to_string(),
                    retry_after_ms: None,
                });
            }
            Ok(Request::Shutdown) => {
                shutdown_requested = true;
                break;
            }
            Ok(Request::Job { id, spec }) => {
                let mut state = shared.state.lock().expect("queue lock poisoned");
                if state.jobs.len() >= options.queue_capacity {
                    drop(state);
                    let _ = events.send(Event::Rejected {
                        id: Some(id),
                        kind: "resource",
                        error: format!("queue full ({} jobs queued)", options.queue_capacity),
                        retry_after_ms: Some(options.retry_after_ms),
                    });
                } else {
                    state.jobs.push_back((id, spec));
                    let depth = state.jobs.len() as u64;
                    drop(state);
                    shared.available.notify_one();
                    let _ = events.send(Event::Accepted { depth });
                }
            }
        }
    }

    // Drain: stop accepting, let workers finish everything queued.
    {
        let mut state = shared.state.lock().expect("queue lock poisoned");
        state.draining = true;
    }
    shared.available.notify_all();
    for worker in workers {
        let _ = worker.join();
    }
    // All worker Done events are enqueued (send happens-before join
    // returns), so the drain marker lands last.
    let _ = events.send(Event::Drained { shutdown_requested });
    drop(events);
    collector
        .join()
        .map_err(|_| AosError::task_failed("aos-serve collector", "collector thread panicked"))?
}

/// Serves connections on a Unix socket at `path`, one at a time, each
/// through [`serve`]; returns after a connection ends with an
/// explicit `shutdown` request. The socket file is created fresh (an
/// existing file is removed) and unlinked on return.
///
/// # Errors
///
/// [`AosError::Io`] when the socket cannot be bound or a connection
/// cannot be accepted.
#[cfg(unix)]
pub fn serve_unix(
    path: &std::path::Path,
    options: &ServeOptions,
) -> Result<ServeSummary, AosError> {
    use std::os::unix::net::UnixListener;

    let sock_err = |detail: String| AosError::Io {
        context: path.display().to_string(),
        detail,
    };
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| sock_err(e.to_string()))?;
    let result = loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) => break Err(sock_err(e.to_string())),
        };
        let reader = std::io::BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(e) => break Err(sock_err(e.to_string())),
        });
        match serve(reader, stream, options) {
            Ok(summary) if summary.shutdown_requested => break Ok(summary),
            Ok(_) => continue, // client hung up; keep listening
            Err(e) => break Err(e),
        }
    };
    let _ = std::fs::remove_file(path);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A writer tests can read back after the service returns.
    #[derive(Clone, Default)]
    pub(crate) struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        pub(crate) fn contents(&self) -> String {
            String::from_utf8(self.0.lock().expect("buf lock").clone()).expect("utf8")
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

    fn run_script(script: &str, options: &ServeOptions) -> (ServeSummary, String) {
        let out = SharedBuf::default();
        let summary = serve(Cursor::new(script.to_string()), out.clone(), options).expect("serve");
        (summary, out.contents())
    }

    #[test]
    fn serves_jobs_and_drains_on_eof() {
        let script = concat!(
            r#"{"proto":"aos-serve/v1","id":"j1","kind":"lint","workload":"mcf","system":"aos","scale":0.004}"#,
            "\n",
            r#"{"proto":"aos-serve/v1","id":"j2","kind":"trace","workload":"mcf","system":"baseline","scale":0.004}"#,
            "\n",
        );
        let (summary, output) = run_script(script, &ServeOptions::default());
        assert_eq!(summary.accepted, 2);
        assert_eq!(summary.succeeded, 2);
        assert!(!summary.shutdown_requested, "EOF drain, not shutdown");
        assert!(output.contains("\"status\":\"ready\""));
        assert!(output.contains("\"id\":\"j1\",\"status\":\"ok\""));
        assert!(output.contains("\"id\":\"j2\",\"status\":\"ok\""));
        assert!(output.ends_with('\n'));
        let last = output.lines().last().expect("lines");
        assert!(last.contains("\"status\":\"shutdown\",\"jobs_completed\":2"));
    }

    #[test]
    fn malformed_lines_are_rejected_not_fatal() {
        let script = concat!(
            "this is not json\n",
            r#"{"proto":"aos-serve/v1","id":"bad","kind":"trace","workload":"mcf","system":"doom"}"#,
            "\n",
            r#"{"proto":"aos-serve/v1","id":"good","kind":"lint","workload":"mcf","system":"aos","scale":0.004}"#,
            "\n",
            r#"{"proto":"aos-serve/v1","kind":"shutdown"}"#,
            "\n",
        );
        let (summary, output) = run_script(script, &ServeOptions::default());
        assert_eq!(summary.rejected, 2);
        assert_eq!(summary.succeeded, 1);
        assert!(summary.shutdown_requested);
        // The malformed line has no salvageable id; the bad-field one does.
        assert!(output.contains("\"id\":null,\"status\":\"rejected\""));
        assert!(output.contains("\"id\":\"bad\",\"status\":\"rejected\""));
        assert!(
            output.contains("\"retry_after_ms\":null"),
            "malformed input is not retryable"
        );
        assert!(output.contains("\"id\":\"good\",\"status\":\"ok\""));
    }

    #[test]
    fn telemetry_counts_through_the_collector() {
        let telemetry = Telemetry::enabled();
        let options = ServeOptions {
            telemetry: telemetry.clone(),
            test_jobs: true,
            queue_capacity: 1,
            workers: 1,
            ..ServeOptions::default()
        };
        // Worker holds the first job; the queue (capacity 1) takes the
        // second; the third must reject.
        let script = concat!(
            r#"{"proto":"aos-serve/v1","id":"s1","kind":"__sleep","millis":150}"#,
            "\n",
            r#"{"proto":"aos-serve/v1","id":"s2","kind":"__sleep","millis":1}"#,
            "\n",
            r#"{"proto":"aos-serve/v1","id":"s3","kind":"__sleep","millis":1}"#,
            "\n",
            r#"{"proto":"aos-serve/v1","id":"s4","kind":"__sleep","millis":1}"#,
            "\n",
        );
        let (summary, _) = run_script(script, &options);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter(Counter::ServeJobsAccepted), summary.accepted);
        assert_eq!(snap.counter(Counter::ServeJobsRejected), summary.rejected);
        assert!(summary.rejected >= 1, "bounded queue must push back");
        assert!(snap.gauge(Gauge::ServeQueueDepth) >= 1);
        assert_eq!(summary.accepted + summary.rejected, 4);
        assert_eq!(summary.completed(), summary.accepted);
    }
}
