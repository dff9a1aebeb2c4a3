//! Guarded execution of untrusted units of work.
//!
//! One protection stack — `catch_unwind` per attempt, an optional
//! wall-clock watchdog, bounded retry with exponential backoff — for
//! the long-running service mode: a poisoned job must not take down
//! the process, a hung job must not wedge a worker forever, and a
//! transiently failing job deserves a bounded number of fresh
//! attempts. The campaign runner runs each of its deterministic cells
//! once through the same stack, with the default options
//! (`catch_unwind` only), so both execute work through one audited
//! implementation.
//!
//! A unit of work is a plain `Fn() -> T` closure behind an [`Arc`]
//! (shared because a timed-out attempt leaves a clone running on its
//! abandoned watchdog thread). [`run_guarded`] drives it through up to
//! `retries + 1` attempts and reports the outcome plus the attempts
//! consumed, with the failure kind preserved so callers can count
//! panics and timeouts separately.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use aos_util::guard::{run_guarded, GuardOptions};
//!
//! let (outcome, attempts) = run_guarded(Arc::new(|| 2 + 2), &GuardOptions::default());
//! assert_eq!(outcome.unwrap(), 4);
//! assert_eq!(attempts, 1);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use crate::error::panic_message;

/// The work a guard runs: shared so a timed-out attempt can keep its
/// abandoned clone without blocking the next attempt.
pub type Work<T> = Arc<dyn Fn() -> T + Send + Sync>;

/// The guard's knobs; the default is one attempt, no timeout.
#[derive(Debug, Clone, Copy)]
pub struct GuardOptions {
    /// Per-attempt wall-clock limit. `None` disables the watchdog and
    /// runs the attempt inline on the calling thread.
    pub timeout: Option<Duration>,
    /// Extra attempts after a failed one (0 = fail fast).
    pub retries: u32,
    /// Base of the exponential backoff between attempts: attempt `n`
    /// (1-based) sleeps `backoff * 2^(n-1)` before attempt `n + 1`.
    pub backoff: Duration,
}

impl Default for GuardOptions {
    fn default() -> Self {
        Self {
            timeout: None,
            retries: 0,
            backoff: Duration::ZERO,
        }
    }
}

impl GuardOptions {
    /// The sleep after `attempt` (1-based) failed.
    fn delay(&self, attempt: u32) -> Duration {
        self.backoff * 2u32.saturating_pow(attempt.saturating_sub(1))
    }
}

/// How the final attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardError {
    /// The work panicked; the payload is the captured message.
    Panicked(String),
    /// The work exceeded the per-attempt wall-clock limit.
    TimedOut(Duration),
}

impl GuardError {
    /// The stable wire name of the failure kind (`panic` / `timeout`).
    pub fn kind(&self) -> &'static str {
        match self {
            GuardError::Panicked(_) => "panic",
            GuardError::TimedOut(_) => "timeout",
        }
    }
}

impl std::fmt::Display for GuardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardError::Panicked(message) => write!(f, "panicked: {message}"),
            GuardError::TimedOut(limit) => {
                write!(f, "timed out after {:.3}s", limit.as_secs_f64())
            }
        }
    }
}

impl std::error::Error for GuardError {}

/// Runs `work` under the full protection stack and returns the final
/// outcome plus attempts consumed (1 = clean first run).
///
/// Every attempt runs under `catch_unwind`; with a timeout configured
/// the attempt runs on a watchdog thread instead — Rust threads cannot
/// be cancelled, so a timed-out attempt is *abandoned*: it keeps
/// running in the background and its eventual result is dropped with
/// the disconnected channel. Callers own that trade-off (acceptable
/// for campaign cells and service jobs, whose processes outlive any
/// straggler or exit wholesale).
pub fn run_guarded<T: Send + 'static>(
    work: Work<T>,
    options: &GuardOptions,
) -> (Result<T, GuardError>, u32) {
    let max_attempts = options.retries.saturating_add(1);
    let mut last_error = GuardError::Panicked(String::from("<no attempt ran>"));
    for attempt in 1..=max_attempts {
        let result = match options.timeout {
            None => catch_unwind(AssertUnwindSafe(|| work()))
                .map_err(|payload| GuardError::Panicked(panic_message(payload.as_ref()))),
            Some(limit) => run_attempt_with_timeout(&work, limit),
        };
        match result {
            Ok(value) => return (Ok(value), attempt),
            Err(error) => {
                last_error = error;
                if attempt < max_attempts && !options.backoff.is_zero() {
                    std::thread::sleep(options.delay(attempt));
                }
            }
        }
    }
    (Err(last_error), max_attempts)
}

/// One attempt on a watchdog thread (see [`run_guarded`] for the
/// abandonment semantics).
fn run_attempt_with_timeout<T: Send + 'static>(
    work: &Work<T>,
    limit: Duration,
) -> Result<T, GuardError> {
    let (tx, rx) = mpsc::channel();
    let work = Arc::clone(work);
    std::thread::spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(|| work()))
            .map_err(|payload| GuardError::Panicked(panic_message(payload.as_ref())));
        // The receiver may have timed out and gone away; ignore.
        let _ = tx.send(result);
    });
    match rx.recv_timeout(limit) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => Err(GuardError::TimedOut(limit)),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(GuardError::Panicked(String::from(
            "worker thread vanished without reporting",
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn clean_work_runs_once() {
        let (outcome, attempts) = run_guarded(Arc::new(|| 7u32), &GuardOptions::default());
        assert_eq!(outcome.unwrap(), 7);
        assert_eq!(attempts, 1);
    }

    #[test]
    fn panics_are_captured_not_propagated() {
        let (outcome, attempts) = run_guarded(
            Arc::new(|| -> u32 { panic!("poisoned job") }),
            &GuardOptions::default(),
        );
        match outcome {
            Err(GuardError::Panicked(message)) => assert!(message.contains("poisoned job")),
            other => panic!("expected a captured panic, got {other:?}"),
        }
        assert_eq!(attempts, 1);
    }

    #[test]
    fn transient_failures_recover_within_the_retry_budget() {
        let calls = Arc::new(AtomicU32::new(0));
        let calls_in_work = Arc::clone(&calls);
        let options = GuardOptions {
            retries: 2,
            ..GuardOptions::default()
        };
        let (outcome, attempts) = run_guarded(
            Arc::new(move || {
                if calls_in_work.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("transient");
                }
                42u32
            }),
            &options,
        );
        assert_eq!(outcome.unwrap(), 42);
        assert_eq!(attempts, 3);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn hung_work_times_out_with_the_typed_error() {
        let options = GuardOptions {
            timeout: Some(Duration::from_millis(20)),
            ..GuardOptions::default()
        };
        let (outcome, attempts) = run_guarded(
            Arc::new(|| std::thread::sleep(Duration::from_secs(60))),
            &options,
        );
        match outcome {
            Err(GuardError::TimedOut(limit)) => {
                assert_eq!(limit, Duration::from_millis(20));
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
        assert_eq!(attempts, 1);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let base = Duration::from_millis(10);
        let options = GuardOptions {
            backoff: base,
            ..GuardOptions::default()
        };
        assert_eq!(options.delay(1), base);
        assert_eq!(options.delay(3), Duration::from_millis(40));
        assert_eq!(GuardOptions::default().delay(3), Duration::ZERO);
    }

    #[test]
    fn guard_error_kinds_are_stable_wire_names() {
        assert_eq!(GuardError::Panicked(String::new()).kind(), "panic");
        assert_eq!(
            GuardError::TimedOut(Duration::from_secs(1)).kind(),
            "timeout"
        );
        assert!(GuardError::TimedOut(Duration::from_secs(1))
            .to_string()
            .contains("timed out after 1.000s"));
    }
}
