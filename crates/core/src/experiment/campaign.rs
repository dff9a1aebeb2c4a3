//! The campaign runner: every figure in the paper is a matrix of
//! `(workload × system)` simulations, and each cell is an independent
//! deterministic run — embarrassingly parallel work. This module fans
//! a cell list out across a scoped worker pool
//! ([`aos_util::par::ordered_parallel_map`]), returns per-cell
//! [`CellResult`]s **in input order**, and renders a machine-readable
//! JSON report (`aos-campaign-report/v8`, with per-cell telemetry
//! counter columns) so perf trajectories can be tracked across PRs.
//!
//! Determinism: a cell's simulation consumes no shared mutable state
//! (each worker builds its own
//! [`TraceGenerator`](crate::workloads::TraceGenerator) and
//! [`Machine`](crate::sim::Machine) from the cell's profile and system), so the stats a cell produces
//! are identical whether the campaign runs on 1 thread or 64 — the
//! parallel path only changes wall-clock, never results.
//!
//! Failure isolation: one poisoned cell must never sink a whole
//! figure. Each cell runs once under `catch_unwind`; a cell that
//! panics is recorded as [`CellOutcome::Failed`] with the captured
//! panic message while every other cell completes normally. A runner
//! that returns an error fails its cell the same way, without a panic.
//! A cell is deterministic, so a retry would only rerun the same
//! failure, and none is made.
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

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use aos_sim::RunStats;
use aos_util::error::panic_message;
use aos_util::json::{Json, Layout};
use aos_util::par::{effective_threads, ordered_parallel_map};
use aos_util::AosError;
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
    /// The cell panicked or the runner returned an error; the cell was
    /// skipped so the rest of the campaign could finish.
    Failed {
        /// The captured panic message or runner error.
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
    /// Wall-clock spent on this cell.
    pub wall: Duration,
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

    /// Trace ops simulated per host second — the per-cell streaming
    /// throughput column in `BENCH_campaign.json`. Zero for failed or
    /// unmetered cells.
    pub fn ops_per_sec(&self) -> f64 {
        self.trace_ops() as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// The captured error, when the cell failed.
    pub fn error(&self) -> Option<&str> {
        match &self.outcome {
            CellOutcome::Completed(_) => None,
            CellOutcome::Failed { error } => Some(error),
        }
    }

    /// The cell panicked or its runner returned an error.
    pub fn is_failed(&self) -> bool {
        self.stats().is_none()
    }

    /// The report's per-cell status string: `completed` or `failed`.
    pub fn status(&self) -> &'static str {
        if self.is_failed() {
            "failed"
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

    /// The cell's report row: one inline object whose body is the
    /// simulation columns and telemetry, or the captured error.
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("workload", Json::str(self.cell.profile.name)),
            ("system", Json::str(self.cell.sut.safety.to_string())),
            ("scale", Json::num(self.cell.sut.scale)),
            ("status", Json::str(self.status())),
            ("wall_seconds", Json::fixed(self.wall.as_secs_f64(), 6)),
        ];
        match &self.outcome {
            CellOutcome::Completed(output) => fields.extend([
                ("sim_cycles", Json::num(output.stats.cycles)),
                (
                    "sim_cycles_per_sec",
                    Json::fixed(self.sim_cycles_per_sec(), 0),
                ),
                ("trace_ops", Json::num(output.trace_ops)),
                ("ops_per_sec", Json::fixed(self.ops_per_sec(), 0)),
                ("peak_trace_bytes", Json::num(output.peak_trace_bytes)),
                ("telemetry", output.stats.telemetry.to_json()),
            ]),
            CellOutcome::Failed { error } => fields.push(("error", Json::str(error.as_str()))),
        }
        Layout::Inline.object(fields)
    }
}

/// Campaign execution knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignOptions {
    /// Worker-thread count. `None` defers to the `AOS_CAMPAIGN_THREADS`
    /// environment variable, then to the machine's available
    /// parallelism (see [`aos_util::par::effective_threads`]).
    pub threads: Option<usize>,
}

impl CampaignOptions {
    /// Options pinned to an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: Some(threads),
        }
    }
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
    /// Extra top-level report fields as `(key, value)` pairs, written
    /// after `total_sim_cycles` by [`CampaignReport::to_json`]. Lets
    /// callers (e.g. the fault-injection harness) attach domain data
    /// without this crate knowing its shape.
    pub annotations: Vec<(String, Json)>,
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

    /// Cells that completed.
    pub fn completed(&self) -> usize {
        self.results.len() - self.failed()
    }

    /// Cells that failed.
    pub fn failed(&self) -> usize {
        self.results.iter().filter(|r| r.is_failed()).count()
    }

    /// Attaches an extra top-level JSON field.
    pub fn annotate(&mut self, key: impl Into<String>, value: Json) {
        self.annotations.push((key.into(), value));
    }

    /// The `aos-campaign-report/v8` JSON document (schema documented
    /// in DESIGN.md §11 and pinned by `tests/report_schema_golden.rs`):
    /// campaign wall-clock, cell-health counters and cells/sec at the
    /// top, then one record per cell with its status, wall-clock,
    /// (for completed cells) simulated cycles per second
    /// and the cell's telemetry counters — always present, all-zero
    /// when the cell ran with telemetry disabled, so consumers see a
    /// stable shape. Failed cells carry the captured error instead.
    /// v6 dropped the per-cell `model` token that v5 added alongside
    /// the stage-core stall/replay/flush counters; v7 dropped the two
    /// batch-transport counters when cells became per-op only; v8
    /// dropped the retry bookkeeping (a per-cell attempt count, a
    /// status and count for cells that needed a retry, and the
    /// service's retry counter), since every cell and job runs once.
    pub fn to_json(&self) -> String {
        let header = [
            ("schema", Json::str("aos-campaign-report/v8")),
            ("threads", Json::num(self.threads)),
            ("cells", Json::num(self.results.len())),
            ("completed", Json::num(self.completed())),
            ("failed", Json::num(self.failed())),
            ("wall_seconds", Json::fixed(self.wall.as_secs_f64(), 6)),
            ("cells_per_sec", Json::fixed(self.cells_per_sec(), 3)),
            ("total_sim_cycles", Json::num(self.total_sim_cycles())),
        ];
        let annotations = self
            .annotations
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()));
        let results = Layout::Pretty.array(self.results.iter().map(CellResult::to_json));
        let fields = header
            .into_iter()
            .chain(annotations)
            .chain([("results", results)]);
        format!("{}\n", Layout::Pretty.object(fields))
    }
}

/// The function a campaign invokes per cell, borrowed by every worker
/// thread. An `Err` is the cell's ordinary failure (a fault that
/// cannot be planned on the cell's trace, say): it fails the cell like
/// a panic does.
pub type CellRunner<'a> = dyn Fn(usize, &CampaignCell) -> Result<CellOutput, AosError> + Sync + 'a;

/// Runs every cell across the worker pool and collects results in
/// input order. See the [module docs](self) for the determinism
/// guarantee and failure isolation.
pub fn run_campaign(cells: &[CampaignCell], options: &CampaignOptions) -> CampaignReport {
    run_campaign_custom(cells, options, &|_index, cell| {
        Ok(super::run_metered(&cell.profile, &cell.sut))
    })
}

/// [`run_campaign`] with a caller-supplied per-cell runner — the
/// extension point the fault-injection harness uses to simulate
/// transformed traces under campaign isolation.
pub fn run_campaign_custom(
    cells: &[CampaignCell],
    options: &CampaignOptions,
    runner: &CellRunner<'_>,
) -> CampaignReport {
    let threads = effective_threads(options.threads);
    let start = Instant::now();
    let results = ordered_parallel_map(cells, threads, |index, cell| {
        let cell_start = Instant::now();
        // Once, under `catch_unwind`: a cell is deterministic, so a
        // retry would only repeat its failure.
        let outcome = match catch_unwind(AssertUnwindSafe(|| runner(index, cell))) {
            Ok(Ok(output)) => CellOutcome::Completed(output),
            Ok(Err(error)) => CellOutcome::Failed {
                error: format!("cell {} failed: {error}", cell.label()),
            },
            Err(payload) => CellOutcome::Failed {
                error: format!(
                    "cell {} panicked: {}",
                    cell.label(),
                    panic_message(payload.as_ref())
                ),
            },
        };
        CellResult {
            cell: *cell,
            outcome,
            wall: cell_start.elapsed(),
        }
    });
    CampaignReport {
        results,
        wall: start.elapsed(),
        threads,
        annotations: Vec::new(),
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
    fn campaign_preserves_input_order() {
        let cells = small_cells();
        let report = run_campaign(&cells, &CampaignOptions::with_threads(4));
        assert_eq!(report.results.len(), 10);
        for (cell, result) in cells.iter().zip(&report.results) {
            assert_eq!(cell.label(), result.cell.label());
            assert_eq!(result.status(), "completed");
            assert!(result.stats().unwrap().cycles > 0);
        }
        assert_eq!(report.completed(), 10);
        assert_eq!(report.failed(), 0);
    }

    #[test]
    fn report_json_is_well_formed() {
        let cells = small_cells()[..3].to_vec();
        let mut report = run_campaign(&cells, &CampaignOptions::with_threads(2));
        report.annotate("note", Layout::Inline.object([("tag", Json::str("smoke"))]));
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"aos-campaign-report/v8\""));
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
        let report =
            run_campaign_custom(&cells, &CampaignOptions::with_threads(2), &|index, cell| {
                if index == 1 {
                    panic!("deliberately poisoned cell");
                }
                Ok(crate::experiment::run_metered(&cell.profile, &cell.sut))
            });
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
    fn runner_errors_fail_the_cell_without_a_panic() {
        let cells = small_cells()[..2].to_vec();
        let report =
            run_campaign_custom(&cells, &CampaignOptions::with_threads(1), &|index, cell| {
                if index == 0 {
                    return Err(AosError::invalid_input("cell runner", "no anchor"));
                }
                Ok(crate::experiment::run_metered(&cell.profile, &cell.sut))
            });
        let failed = &report.results[0];
        assert_eq!(failed.status(), "failed");
        assert_eq!(
            failed.error(),
            Some("cell mcf/Baseline failed: invalid input in cell runner: no anchor")
        );
        assert_eq!(report.results[1].status(), "completed");
    }
}
