//! The campaign runner: every figure in the paper is a matrix of
//! `(workload × system)` simulations, and each cell is an independent
//! deterministic run — embarrassingly parallel work. This module fans
//! a cell list out across a scoped worker pool
//! ([`aos_util::par::ordered_parallel_catch`]), returns per-cell
//! [`CellResult`]s **in input order**, and renders a machine-readable
//! JSON report (`aos-campaign-report/v7`, with per-cell telemetry
//! counter columns) so perf trajectories can be tracked across PRs.
//!
//! Determinism: a cell's simulation consumes no shared mutable state
//! (each worker builds its own
//! [`TraceGenerator`](crate::workloads::TraceGenerator) and
//! [`Machine`](crate::sim::Machine) from the cell's profile and system), so the stats a cell produces
//! are identical whether the campaign runs on 1 thread or 64 — the
//! parallel path only changes wall-clock, never results.
//!
//! Degradation semantics: one poisoned cell must never sink a whole
//! figure. Each cell runs under `catch_unwind` (and optionally a
//! wall-clock timeout and bounded retry with linear backoff, see
//! [`CampaignOptions`]); a cell that still fails is recorded as
//! [`CellOutcome::Failed`] with the captured panic message while every
//! other cell completes normally. A cell that needed more than one
//! attempt completes but is marked *degraded* in the report.
//!
//! # Examples
//!
//! ```
//! use aos_core::experiment::campaign::{matrix, run_campaign, CampaignOptions};
//! use aos_core::experiment::SystemUnderTest;
//! use aos_core::isa::SafetyConfig;
//! use aos_core::workloads::profile;
//!
//! let cells = matrix(
//!     [*profile::by_name("mcf").unwrap()],
//!     [SystemUnderTest::scaled(SafetyConfig::Aos, 0.005)],
//! );
//! let report = run_campaign(&cells, &CampaignOptions::default());
//! assert_eq!(report.results.len(), 1);
//! assert!(report.results[0].stats().unwrap().cycles > 0);
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use aos_sim::RunStats;
use aos_util::guard::{run_guarded, Backoff, GuardOptions};
use aos_util::json::escape;
use aos_util::par::{effective_threads, ordered_parallel_map};
use aos_workloads::WorkloadProfile;

use super::SystemUnderTest;

/// One `(workload × system)` matrix cell.
#[derive(Debug, Clone, Copy)]
pub struct CampaignCell {
    /// The workload model driving the cell.
    pub profile: WorkloadProfile,
    /// The system configuration under test.
    pub sut: SystemUnderTest,
}

impl CampaignCell {
    /// `workload/system` — the cell's display and report key.
    pub fn label(&self) -> String {
        format!("{}/{}", self.profile.name, self.sut.safety)
    }
}

/// The cross product `profiles × systems` in row-major order
/// (workload-major, matching how the figures print).
pub fn matrix(
    profiles: impl IntoIterator<Item = WorkloadProfile>,
    systems: impl IntoIterator<Item = SystemUnderTest> + Clone,
) -> Vec<CampaignCell> {
    profiles
        .into_iter()
        .flat_map(|profile| {
            systems
                .clone()
                .into_iter()
                .map(move |sut| CampaignCell { profile, sut })
        })
        .collect()
}

/// What a cell runner produces: the machine statistics plus the
/// streaming-pipeline metering that backs the report's per-cell
/// `trace_ops`, `ops_per_sec` and `peak_trace_bytes` columns.
#[derive(Debug, Clone)]
pub struct CellOutput {
    /// The machine's statistics for the cell.
    pub stats: RunStats,
    /// Ops the cell's trace stream yielded into the machine.
    pub trace_ops: u64,
    /// Peak bytes of trace the pipeline held buffered — `O(window)`
    /// under the streaming path, where the old materialized path held
    /// the whole trace.
    pub peak_trace_bytes: u64,
}

/// A bare `RunStats` is a valid cell output with no metering —
/// used by custom runners that do not stream through a meter.
impl From<RunStats> for CellOutput {
    fn from(stats: RunStats) -> Self {
        Self {
            stats,
            trace_ops: 0,
            peak_trace_bytes: 0,
        }
    }
}

/// How a cell ended: with statistics, or with a captured failure.
// The Completed/Failed size gap is the telemetry snapshot embedded in
// `RunStats`; one outcome exists per cell and lives exactly as long as
// the report row, so boxing would trade a harmless stack copy for a
// per-cell allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The simulation ran to completion.
    Completed(CellOutput),
    /// Every attempt panicked or timed out; the cell was skipped so the
    /// rest of the campaign could finish.
    Failed {
        /// The captured panic message (or timeout description) of the
        /// final attempt.
        error: String,
    },
}

/// A finished cell: its outcome plus how long it took to simulate.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell that ran.
    pub cell: CampaignCell,
    /// How the cell ended.
    pub outcome: CellOutcome,
    /// Wall-clock spent on this cell, across all attempts.
    pub wall: Duration,
    /// Attempts consumed (1 = clean first run).
    pub attempts: u32,
}

impl CellResult {
    /// The machine statistics, when the cell completed.
    pub fn stats(&self) -> Option<&RunStats> {
        self.output().map(|o| &o.stats)
    }

    /// The full runner output (stats + stream metering), when the cell
    /// completed.
    pub fn output(&self) -> Option<&CellOutput> {
        match &self.outcome {
            CellOutcome::Completed(output) => Some(output),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// Ops the cell's trace stream yielded. Zero for failed cells and
    /// for custom runners that do not meter.
    pub fn trace_ops(&self) -> u64 {
        self.output().map(|o| o.trace_ops).unwrap_or(0)
    }

    /// Peak bytes of trace the cell's pipeline held buffered.
    pub fn peak_trace_bytes(&self) -> u64 {
        self.output().map(|o| o.peak_trace_bytes).unwrap_or(0)
    }

    /// Trace ops simulated per host second — the streaming throughput
    /// metric in `BENCH_streaming.json`. Zero for failed or unmetered
    /// cells.
    pub fn ops_per_sec(&self) -> f64 {
        self.trace_ops() as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// The final attempt's error, when the cell failed.
    pub fn error(&self) -> Option<&str> {
        match &self.outcome {
            CellOutcome::Completed(_) => None,
            CellOutcome::Failed { error } => Some(error),
        }
    }

    /// Completed, but only after at least one failed attempt.
    pub fn is_degraded(&self) -> bool {
        self.stats().is_some() && self.attempts > 1
    }

    /// Every attempt failed.
    pub fn is_failed(&self) -> bool {
        self.stats().is_none()
    }

    /// The report's per-cell status string: `completed`, `degraded`,
    /// or `failed`.
    pub fn status(&self) -> &'static str {
        if self.is_failed() {
            "failed"
        } else if self.is_degraded() {
            "degraded"
        } else {
            "completed"
        }
    }

    /// Simulated machine cycles per host second — the per-cell
    /// throughput metric in `BENCH_campaign.json`. Zero for failed
    /// cells.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        self.stats()
            .map(|s| s.cycles as f64 / self.wall.as_secs_f64().max(1e-12))
            .unwrap_or(0.0)
    }
}

/// Campaign execution knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignOptions {
    /// Worker-thread count. `None` defers to the `AOS_CAMPAIGN_THREADS`
    /// environment variable, then to the machine's available
    /// parallelism (see [`aos_util::par::effective_threads`]).
    pub threads: Option<usize>,
    /// Per-cell wall-clock limit. A cell that exceeds it counts as a
    /// failed attempt (subject to [`CampaignOptions::retries`]). `None`
    /// (the default) disables the limit. The timed-out simulation runs
    /// on a detached thread that cannot be cancelled; it is abandoned
    /// and its work discarded when it eventually finishes.
    pub cell_timeout: Option<Duration>,
    /// Extra attempts after a failed one (0 = fail fast, the default).
    pub retries: u32,
    /// Base backoff slept between attempts; attempt `n` waits
    /// `retry_backoff * n`. Default: no backoff.
    pub retry_backoff: Duration,
}

impl CampaignOptions {
    /// Options pinned to an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: Some(threads),
            ..Self::default()
        }
    }

    /// Sets a per-cell wall-clock limit.
    pub fn timeout(mut self, limit: Duration) -> Self {
        self.cell_timeout = Some(limit);
        self
    }

    /// Sets the retry budget and linear-backoff base.
    pub fn retry(mut self, retries: u32, backoff: Duration) -> Self {
        self.retries = retries;
        self.retry_backoff = backoff;
        self
    }
}

/// A finished-cell notification, delivered from worker threads.
#[derive(Debug, Clone, Copy)]
pub struct Progress<'a> {
    /// Input index of the finished cell.
    pub index: usize,
    /// Cells finished so far, including this one.
    pub completed: usize,
    /// Total cells in the campaign.
    pub total: usize,
    /// The finished cell.
    pub cell: &'a CampaignCell,
    /// Wall-clock the cell took.
    pub wall: Duration,
}

/// The whole campaign's results and timing.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-cell results, in the input order of the cell list.
    pub results: Vec<CellResult>,
    /// Wall-clock for the whole campaign.
    pub wall: Duration,
    /// Worker threads actually used.
    pub threads: usize,
    /// Extra top-level report fields as `(key, raw JSON value)` pairs,
    /// spliced verbatim into [`CampaignReport::to_json`]. Lets callers
    /// (e.g. the fault-injection harness) attach domain data without
    /// this crate knowing its shape.
    pub annotations: Vec<(String, String)>,
}

impl CampaignReport {
    /// Finished cells per host second (failed cells included: the rate
    /// measures campaign progress, not simulation success).
    pub fn cells_per_sec(&self) -> f64 {
        self.results.len() as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// Total simulated machine cycles across all completed cells.
    pub fn total_sim_cycles(&self) -> u64 {
        self.results
            .iter()
            .filter_map(|r| r.stats().map(|s| s.cycles))
            .sum()
    }

    /// The campaign-level telemetry aggregate: every completed cell's
    /// snapshot merged (counters summed, gauges peak-of-peaks).
    pub fn telemetry(&self) -> aos_util::TelemetrySnapshot {
        let mut merged = aos_util::TelemetrySnapshot::default();
        for r in &self.results {
            if let Some(stats) = r.stats() {
                merged.merge(&stats.telemetry);
            }
        }
        merged
    }

    /// Cells that completed on the first attempt.
    pub fn completed(&self) -> usize {
        self.results
            .iter()
            .filter(|r| !r.is_failed() && !r.is_degraded())
            .count()
    }

    /// Cells that completed, but needed more than one attempt.
    pub fn degraded(&self) -> usize {
        self.results.iter().filter(|r| r.is_degraded()).count()
    }

    /// Cells whose every attempt failed.
    pub fn failed(&self) -> usize {
        self.results.iter().filter(|r| r.is_failed()).count()
    }

    /// Attaches an extra top-level JSON field. `value` must already be
    /// valid JSON (number, string with quotes, object, ...).
    pub fn annotate(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.annotations.push((key.into(), value.into()));
    }

    /// The `aos-campaign-report/v7` JSON document (schema documented
    /// in DESIGN.md §11 and pinned by `tests/report_schema_golden.rs`):
    /// campaign wall-clock, cell-health counters and cells/sec at the
    /// top, then one record per cell with its status, attempts,
    /// wall-clock, (for completed cells) simulated cycles per second
    /// and the cell's telemetry counters — always present, all-zero
    /// when the cell ran with telemetry disabled, so consumers see a
    /// stable shape. Failed cells carry the captured error instead.
    /// v6 dropped the per-cell `model` token that v5 added alongside
    /// the stage-core stall/replay/flush counters; v7 dropped the two
    /// batch-transport counters when cells became per-op only.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"aos-campaign-report/v7\",\n");
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"cells\": {},\n", self.results.len()));
        out.push_str(&format!("  \"completed\": {},\n", self.completed()));
        out.push_str(&format!("  \"degraded\": {},\n", self.degraded()));
        out.push_str(&format!("  \"failed\": {},\n", self.failed()));
        out.push_str(&format!(
            "  \"wall_seconds\": {:.6},\n",
            self.wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"cells_per_sec\": {:.3},\n",
            self.cells_per_sec()
        ));
        out.push_str(&format!(
            "  \"total_sim_cycles\": {},\n",
            self.total_sim_cycles()
        ));
        for (key, value) in &self.annotations {
            out.push_str(&format!("  \"{}\": {},\n", escape(key), value));
        }
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let body = match &r.outcome {
                CellOutcome::Completed(output) => format!(
                    "\"sim_cycles\": {}, \"sim_cycles_per_sec\": {:.0}, \
                     \"trace_ops\": {}, \"ops_per_sec\": {:.0}, \"peak_trace_bytes\": {}, \
                     \"telemetry\": {}",
                    output.stats.cycles,
                    r.sim_cycles_per_sec(),
                    output.trace_ops,
                    r.ops_per_sec(),
                    output.peak_trace_bytes,
                    output.stats.telemetry.to_json("    "),
                ),
                CellOutcome::Failed { error } => {
                    format!("\"error\": \"{}\"", escape(error))
                }
            };
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"system\": \"{}\", \"scale\": {}, \
                 \"status\": \"{}\", \"attempts\": {}, \
                 \"wall_seconds\": {:.6}, {}}}{}\n",
                r.cell.profile.name,
                r.cell.sut.safety,
                r.cell.sut.scale,
                r.status(),
                r.attempts,
                r.wall.as_secs_f64(),
                body,
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`CampaignReport::to_json`] to `path`.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// The function a campaign invokes per cell. Shared (`Arc`) because a
/// timed-out attempt leaves a clone running on its abandoned thread.
/// Runners that do not meter their stream can return a bare
/// [`RunStats`] via `.into()`.
pub type CellRunner = Arc<dyn Fn(usize, &CampaignCell) -> CellOutput + Send + Sync>;

/// Runs every cell across the worker pool and collects results in
/// input order. See the [module docs](self) for the determinism
/// guarantee and failure isolation.
pub fn run_campaign(cells: &[CampaignCell], options: &CampaignOptions) -> CampaignReport {
    run_campaign_with_progress(cells, options, &|_| {})
}

/// [`run_campaign`] with a per-cell completion callback.
///
/// `progress` is invoked from worker threads (hence `Sync`), once per
/// finished cell (completed **or** failed), in completion order — not
/// input order.
pub fn run_campaign_with_progress(
    cells: &[CampaignCell],
    options: &CampaignOptions,
    progress: &(dyn Fn(Progress<'_>) + Sync),
) -> CampaignReport {
    run_campaign_custom(
        cells,
        options,
        progress,
        Arc::new(|_index, cell: &CampaignCell| super::run_metered(&cell.profile, &cell.sut)),
    )
}

/// [`run_campaign_with_progress`] with a caller-supplied per-cell
/// runner — the extension point the fault-injection harness uses to
/// simulate transformed traces under campaign isolation.
pub fn run_campaign_custom(
    cells: &[CampaignCell],
    options: &CampaignOptions,
    progress: &(dyn Fn(Progress<'_>) + Sync),
    runner: CellRunner,
) -> CampaignReport {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let threads = effective_threads(options.threads);
    let completed = AtomicUsize::new(0);
    let start = Instant::now();
    let results = ordered_parallel_map(cells, threads, |index, cell| {
        let cell_start = Instant::now();
        let (outcome, attempts) = run_cell_guarded(&runner, index, cell, options);
        let wall = cell_start.elapsed();
        progress(Progress {
            index,
            completed: completed.fetch_add(1, Ordering::Relaxed) + 1,
            total: cells.len(),
            cell,
            wall,
        });
        CellResult {
            cell: *cell,
            outcome,
            wall,
            attempts,
        }
    });
    CampaignReport {
        results,
        wall: start.elapsed(),
        threads,
        annotations: Vec::new(),
    }
}

/// One cell under the full protection stack
/// ([`aos_util::guard::run_guarded`]): `catch_unwind` per attempt,
/// optional wall-clock timeout on a watchdog thread (a timed-out
/// attempt is abandoned — it keeps simulating in the background and
/// its eventual result is dropped; acceptable for a campaign, whose
/// process exits when the campaign does), bounded retry with linear
/// backoff. Returns the final outcome and attempts consumed.
fn run_cell_guarded(
    runner: &CellRunner,
    index: usize,
    cell: &CampaignCell,
    options: &CampaignOptions,
) -> (CellOutcome, u32) {
    let work = {
        let runner = Arc::clone(runner);
        let cell = *cell;
        Arc::new(move || runner(index, &cell))
    };
    let guard = GuardOptions {
        timeout: options.cell_timeout,
        retries: options.retries,
        backoff: Backoff::Linear(options.retry_backoff),
    };
    match run_guarded(work, &guard) {
        (Ok(output), attempts) => (CellOutcome::Completed(output), attempts),
        (Err(error), attempts) => (
            CellOutcome::Failed {
                error: format!("cell {} {error}", cell.label()),
            },
            attempts,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_isa::SafetyConfig;
    use aos_workloads::profile::by_name;

    fn small_cells() -> Vec<CampaignCell> {
        matrix(
            ["mcf", "hmmer"].map(|n| *by_name(n).unwrap()),
            SafetyConfig::ALL.map(|s| SystemUnderTest::scaled(s, 0.004)),
        )
    }

    #[test]
    fn matrix_is_workload_major() {
        let cells = small_cells();
        assert_eq!(cells.len(), 10);
        assert_eq!(cells[0].label(), "mcf/Baseline");
        assert_eq!(cells[4].label(), "mcf/PA+AOS");
        assert_eq!(cells[5].label(), "hmmer/Baseline");
    }

    #[test]
    fn campaign_preserves_input_order_and_counts_progress() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cells = small_cells();
        let seen = AtomicUsize::new(0);
        let report = run_campaign_with_progress(
            &cells,
            &CampaignOptions::with_threads(4),
            &|p: Progress<'_>| {
                assert!(p.total == 10 && p.completed >= 1 && p.completed <= 10);
                seen.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(seen.load(Ordering::Relaxed), 10);
        assert_eq!(report.results.len(), 10);
        for (cell, result) in cells.iter().zip(&report.results) {
            assert_eq!(cell.label(), result.cell.label());
            assert_eq!(result.status(), "completed");
            assert_eq!(result.attempts, 1);
            assert!(result.stats().unwrap().cycles > 0);
        }
        assert_eq!(report.completed(), 10);
        assert_eq!(report.degraded() + report.failed(), 0);
    }

    #[test]
    fn report_json_is_well_formed() {
        let cells = small_cells()[..3].to_vec();
        let mut report = run_campaign(&cells, &CampaignOptions::with_threads(2));
        report.annotate("note", "{\"tag\": \"smoke\"}");
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"aos-campaign-report/v7\""));
        assert!(json.contains("\"cells\": 3"));
        assert!(json.contains("\"completed\": 3"));
        assert!(json.contains("\"failed\": 0"));
        assert!(json.contains("\"workload\": \"mcf\""));
        assert!(!json.contains("\"model\""));
        assert!(json.contains("\"note\": {\"tag\": \"smoke\"}"));
        assert_eq!(json.matches("sim_cycles_per_sec").count(), 3);
        assert_eq!(json.matches("\"trace_ops\": ").count(), 3);
        assert_eq!(json.matches("\"ops_per_sec\": ").count(), 3);
        assert_eq!(json.matches("\"peak_trace_bytes\": ").count(), 3);
        assert_eq!(json.matches("\"status\": \"completed\"").count(), 3);
        // v4+: every completed cell carries the full counter column
        // set, zero-valued here because telemetry was not enabled.
        assert_eq!(json.matches("\"telemetry\": {").count(), 3);
        assert_eq!(json.matches("\"enabled\": false").count(), 3);
        assert_eq!(json.matches("\"bwb_hits\": 0").count(), 3);
        assert_eq!(json.matches("\"mcq_peak_occupancy\": 0").count(), 3);
        // Balanced braces/brackets: cheap structural sanity without a
        // JSON parser in the dependency set.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn default_runner_meters_the_stream() {
        let cells = small_cells()[..2].to_vec();
        let report = run_campaign(&cells, &CampaignOptions::with_threads(1));
        for r in &report.results {
            assert!(r.trace_ops() > 0, "{}", r.cell.label());
            assert!(r.ops_per_sec() > 0.0);
            let peak = r.peak_trace_bytes();
            assert!(peak > 0, "the generator buffers at least one event");
            // Window-granular, not trace-granular: a per-op cell holds
            // only the generator's event buffer (about a dozen ops), so
            // a runner that buffers even one batch fails this bound.
            let bound = 64 * std::mem::size_of::<aos_isa::Op>() as u64;
            assert!(
                peak <= bound,
                "peak {peak} bytes looks like a materialized trace"
            );
        }
    }

    #[test]
    fn poisoned_cell_fails_without_sinking_the_campaign() {
        let cells = small_cells()[..4].to_vec();
        let report = run_campaign_custom(
            &cells,
            &CampaignOptions::with_threads(2),
            &|_| {},
            Arc::new(|index, cell: &CampaignCell| {
                if index == 1 {
                    panic!("deliberately poisoned cell");
                }
                crate::experiment::run(&cell.profile, &cell.sut).into()
            }),
        );
        assert_eq!(report.results.len(), 4);
        assert_eq!(report.failed(), 1);
        assert_eq!(report.completed(), 3);
        let poisoned = &report.results[1];
        assert_eq!(poisoned.status(), "failed");
        assert!(poisoned.error().unwrap().contains("deliberately poisoned"));
        let json = report.to_json();
        assert!(json.contains("\"status\": \"failed\""));
        assert!(json.contains("deliberately poisoned cell"));
    }

    #[test]
    fn flaky_cell_recovers_via_retry_and_is_marked_degraded() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cells = small_cells()[..1].to_vec();
        let calls = Arc::new(AtomicUsize::new(0));
        let calls_in_runner = Arc::clone(&calls);
        let options = CampaignOptions::with_threads(1).retry(2, Duration::from_millis(0));
        let report = run_campaign_custom(
            &cells,
            &options,
            &|_| {},
            Arc::new(move |_, cell: &CampaignCell| {
                if calls_in_runner.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient fault");
                }
                crate::experiment::run(&cell.profile, &cell.sut).into()
            }),
        );
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let cell = &report.results[0];
        assert_eq!(cell.status(), "degraded");
        assert_eq!(cell.attempts, 2);
        assert!(cell.stats().unwrap().cycles > 0);
        assert_eq!(report.degraded(), 1);
    }

    #[test]
    fn hung_cell_times_out_and_is_reported_failed() {
        let cells = small_cells()[..1].to_vec();
        let options = CampaignOptions::with_threads(1).timeout(Duration::from_millis(50));
        let report = run_campaign_custom(
            &cells,
            &options,
            &|_| {},
            Arc::new(|_, _: &CampaignCell| {
                std::thread::sleep(Duration::from_secs(60));
                unreachable!("the watchdog must have given up on us")
            }),
        );
        let cell = &report.results[0];
        assert!(cell.is_failed());
        assert!(cell.error().unwrap().contains("timed out after"));
    }
}
