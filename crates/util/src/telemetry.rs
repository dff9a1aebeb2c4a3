//! A zero-cost-when-disabled metrics registry for the AOS pipeline.
//!
//! The paper's evaluation leans on microarchitectural *rates* — BWB
//! hit rate (Algorithm 2), MCQ occupancy and store-load replays
//! (Fig. 8), HBT way utilization and gradual-resizing migration
//! progress (Fig. 10) — that were previously computed ad hoc inside
//! individual subsystems. This module makes them first-class:
//!
//! - a fixed **taxonomy** of monotonic [`Counter`]s, high-watermark /
//!   level [`Gauge`]s and power-of-two bucketed [`Hist`]ograms, each
//!   with a stable wire name (the `aos-campaign-report/v8` counter
//!   keys);
//! - a [`Telemetry`] **handle**: the session accumulator that the
//!   lint scans, corpus frames, the fuzzer and the fault campaign
//!   count into, and into which a campaign merges the snapshots of the
//!   runs it made — no globals. A disabled handle is a `None` and
//!   every record call is a single branch; an enabled handle shares
//!   one [`TelemetrySnapshot`] behind a lock, so its `add`, `merge`
//!   and `snapshot` are the snapshot's own arithmetic. Callers record
//!   per scan, per corpus block or per scenario, never per op, so the
//!   lock stays off the hot path;
//! - an immutable [`TelemetrySnapshot`] for reporting: plain arrays,
//!   `PartialEq`/`Eq` for the bit-identity differential tests,
//!   [`TelemetrySnapshot::merge`] for campaign-level aggregation, and
//!   JSON / human-table renderers.
//!
//! A run's snapshot is a projection. Nothing on a signing, allocation
//! or simulation path holds a handle: the MCU, BWB and HBT, the
//! machine's run loop, the heap (its usage profile and size-class
//! counts) and the trace generator (its `pacma` signs) keep plain
//! `u64` stats — the ledger the figures read — and project them into
//! a snapshot when it is taken ([`TelemetrySnapshot::add`],
//! [`TelemetrySnapshot::add_hist`], [`TelemetrySnapshot::gauge_max`],
//! via each component's `record_telemetry`). The machine starts a
//! run's snapshot from [`TelemetrySnapshot::new`], and the runner that
//! drained the stream projects the stream into it, so every event is
//! counted once and the per-op paths carry no telemetry at all. The
//! job service's `ServeSummary` is projected the same way.
//!
//! Determinism contract: every counter in the taxonomy is driven by
//! the simulation's deterministic event stream, so two runs of the
//! same `(workload, system, scale)` produce bit-identical snapshots —
//! and a *disabled* run is bit-identical in everything else, because
//! recording never feeds back into simulated state.
//!
//! # Examples
//!
//! ```
//! use aos_util::telemetry::{Counter, Telemetry};
//!
//! let t = Telemetry::enabled();
//! t.count(Counter::PtrSigns);
//! t.add(Counter::PacComputations, 3);
//! let snap = t.snapshot();
//! assert_eq!(snap.counter(Counter::PtrSigns), 1);
//! assert_eq!(snap.counter(Counter::PacComputations), 3);
//! assert!(Telemetry::disabled().snapshot().is_empty());
//! ```

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};

use crate::json::{Json, Layout};

/// Monotonic event counters, one per instrumented pipeline event.
///
/// The discriminant is the cell index; [`Counter::NAMES`] (same
/// order) are the stable wire names used by the v8 campaign report
/// and `aos stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// QARMA-64 block-cipher invocations (PAC computations): one per
    /// `pacma` sign.
    PacComputations,
    /// `pacma` signs of the trace generator's AOS mallocs.
    PtrSigns,
    /// `xpacm` strips the machine retired (one per AOS free).
    PtrStrips,
    /// `autm` authentications the machine retired (one per PA+AOS
    /// pointer load).
    PtrAuths,
    /// Retired `autm`s of an unsigned pointer (failed
    /// authentications).
    AuthFailures,
    /// HBT bounds-check lookups: the MCU's table walks, projected from
    /// its check verdicts.
    HbtLookups,
    /// HBT lookups that found a validating bounds record.
    HbtHits,
    /// HBT lookups that fell through every way.
    HbtMisses,
    /// Bounds records inserted (MCU-driven slot writes of non-empty
    /// bounds).
    HbtInserts,
    /// Bounds records cleared (MCU-driven slot writes of empty bounds).
    HbtClears,
    /// `bndclr`s that found no matching record (double or invalid
    /// frees), counted when the MCU raises the failure.
    HbtFailedClears,
    /// Gradual resizes begun.
    HbtResizes,
    /// Rows moved by the background migration engine.
    HbtMigrationRows,
    /// BWB lookups that hit.
    BwbHits,
    /// BWB lookups that missed.
    BwbMisses,
    /// BWB fills/refreshes (`update` calls).
    BwbUpdates,
    /// BWB LRU evictions on fill.
    BwbEvictions,
    /// Operations enqueued into the MCQ.
    McqEnqueued,
    /// Store-to-load replays (§V-E).
    McqReplays,
    /// Store-to-load bounds forwards.
    McqForwards,
    /// AOS exceptions raised by MCQ FSMs.
    McqExceptions,
    /// MCQ entries retired clean.
    McqRetired,
    /// Violations the machine charged (exceptions minus resize
    /// retries).
    SimViolations,
    /// Heap allocations served.
    HeapAllocs,
    /// Heap frees served.
    HeapFrees,
    /// Ops scanned by the static protocol linter (`aos-lint`).
    LintOpsScanned,
    /// Diagnostics the linter emitted (all rules, all severities).
    LintDiagnostics,
    /// Jobs the service accepted into its bounded queue.
    ServeJobsAccepted,
    /// Jobs the service rejected with a retry-after backpressure
    /// reply because the queue was full.
    ServeJobsRejected,
    /// Jobs that exceeded the per-job deadline.
    ServeJobsTimedOut,
    /// Jobs that panicked (isolated by the guard; the service kept
    /// serving).
    ServeJobsPanicked,
    /// Corpus frames written (entry headers, op blocks, trailers).
    CorpusBlocksWritten,
    /// Corpus frames read and CRC-validated.
    CorpusBlocksRead,
    /// Corpus frames that failed their CRC / framing check and were
    /// quarantined with a typed error instead of replayed.
    CorpusCrcFailures,
    /// Cycles the stage-structured core could not dispatch because the
    /// reorder buffer was full.
    SimStallRob,
    /// Cycles the stage-structured core could not dispatch because the
    /// load/store queue was full.
    SimStallLsq,
    /// Cycles the stage-structured core could not dispatch because the
    /// memory check queue was full (MCU back-pressure, §V-B).
    SimStallMcq,
    /// Loads the LSQ replayed after a same-window older store resolved
    /// to an overlapping address (store→load ordering speculation).
    SimReplays,
    /// Pipeline flushes: precise-exception squashes of everything
    /// younger than a faulting op at commit (delayed retirement,
    /// §V-A).
    SimFlushes,
    /// Adversarial scenarios generated and replayed by the fuzzing
    /// engine (one per composed attack chain).
    FuzzScenarios,
    /// Individual attack steps composed into scenarios (base injector
    /// faults plus composite primitives).
    FuzzSteps,
    /// Differential findings: scenarios whose static/dynamic verdicts
    /// disagreed with the pinned expectation split.
    FuzzFindings,
    /// Discrepancy-triggering streams banked into regression corpora.
    FuzzCorpusBanked,
    /// Diagnostics emitted by non-AOS static policy verifiers
    /// (CryptSan/PACSan/PACTight models) in matrix scans.
    LintPolicyDiagnostics,
    /// Distinct coverage points (rules fired, violation sites
    /// reached) the fuzzing engine's coverage map accumulated.
    FuzzCoveragePoints,
}

impl Counter {
    /// Number of counters in the taxonomy.
    pub const COUNT: usize = 45;

    /// Every counter, in cell (and wire) order.
    pub const ALL: [Counter; Self::COUNT] = [
        Counter::PacComputations,
        Counter::PtrSigns,
        Counter::PtrStrips,
        Counter::PtrAuths,
        Counter::AuthFailures,
        Counter::HbtLookups,
        Counter::HbtHits,
        Counter::HbtMisses,
        Counter::HbtInserts,
        Counter::HbtClears,
        Counter::HbtFailedClears,
        Counter::HbtResizes,
        Counter::HbtMigrationRows,
        Counter::BwbHits,
        Counter::BwbMisses,
        Counter::BwbUpdates,
        Counter::BwbEvictions,
        Counter::McqEnqueued,
        Counter::McqReplays,
        Counter::McqForwards,
        Counter::McqExceptions,
        Counter::McqRetired,
        Counter::SimViolations,
        Counter::HeapAllocs,
        Counter::HeapFrees,
        Counter::LintOpsScanned,
        Counter::LintDiagnostics,
        Counter::ServeJobsAccepted,
        Counter::ServeJobsRejected,
        Counter::ServeJobsTimedOut,
        Counter::ServeJobsPanicked,
        Counter::CorpusBlocksWritten,
        Counter::CorpusBlocksRead,
        Counter::CorpusCrcFailures,
        Counter::SimStallRob,
        Counter::SimStallLsq,
        Counter::SimStallMcq,
        Counter::SimReplays,
        Counter::SimFlushes,
        Counter::FuzzScenarios,
        Counter::FuzzSteps,
        Counter::FuzzFindings,
        Counter::FuzzCorpusBanked,
        Counter::LintPolicyDiagnostics,
        Counter::FuzzCoveragePoints,
    ];

    /// Stable wire names, in the same order as [`Counter::ALL`].
    pub const NAMES: [&'static str; Self::COUNT] = [
        "pac_computations",
        "ptr_signs",
        "ptr_strips",
        "ptr_auths",
        "auth_failures",
        "hbt_lookups",
        "hbt_hits",
        "hbt_misses",
        "hbt_inserts",
        "hbt_clears",
        "hbt_failed_clears",
        "hbt_resizes",
        "hbt_migration_rows",
        "bwb_hits",
        "bwb_misses",
        "bwb_updates",
        "bwb_evictions",
        "mcq_enqueued",
        "mcq_replays",
        "mcq_forwards",
        "mcq_exceptions",
        "mcq_retired",
        "sim_violations",
        "heap_allocs",
        "heap_frees",
        "lint_ops_scanned",
        "lint_diagnostics",
        "serve_jobs_accepted",
        "serve_jobs_rejected",
        "serve_jobs_timed_out",
        "serve_jobs_panicked",
        "corpus_blocks_written",
        "corpus_blocks_read",
        "corpus_crc_failures",
        "sim_stall_rob",
        "sim_stall_lsq",
        "sim_stall_mcq",
        "sim_replays",
        "sim_flushes",
        "fuzz_scenarios",
        "fuzz_steps",
        "fuzz_findings",
        "fuzz_corpus_banked",
        "lint_policy_diagnostics",
        "fuzz_coverage_points",
    ];

    /// The counter's stable wire name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// Level / high-watermark cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Peak MCQ occupancy observed (Fig. 8's pressure signal).
    McqPeakOccupancy,
    /// Final HBT associativity (ways).
    HbtWays,
    /// Peak depth of the service's bounded job queue — the MCQ
    /// occupancy signal applied to the repo's own deployment shape.
    ServeQueueDepth,
}

impl Gauge {
    /// Number of gauges in the taxonomy.
    pub const COUNT: usize = 3;

    /// Every gauge, in cell (and wire) order.
    pub const ALL: [Gauge; Self::COUNT] = [
        Gauge::McqPeakOccupancy,
        Gauge::HbtWays,
        Gauge::ServeQueueDepth,
    ];

    /// Stable wire names, in the same order as [`Gauge::ALL`].
    pub const NAMES: [&'static str; Self::COUNT] =
        ["mcq_peak_occupancy", "hbt_ways", "serve_queue_depth"];

    /// The gauge's stable wire name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// Bucketed histograms (power-of-two buckets starting at 16 bytes,
/// matching the heap's 16-byte granule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Usable size of each heap allocation (size-class profile,
    /// Tables II/III flavor).
    HeapAllocSize,
}

impl Hist {
    /// Number of histograms in the taxonomy.
    pub const COUNT: usize = 1;

    /// Every histogram, in cell (and wire) order.
    pub const ALL: [Hist; Self::COUNT] = [Hist::HeapAllocSize];

    /// Stable wire names, in the same order as [`Hist::ALL`].
    pub const NAMES: [&'static str; Self::COUNT] = ["heap_alloc_size"];

    /// The histogram's stable wire name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// Buckets per histogram: `le_16`, `le_32`, …, `le_262144`, then one
/// overflow bucket for everything larger.
pub const HIST_BUCKETS: usize = 16;

/// The bucket a value lands in: bucket `i` holds values in
/// `(16·2^(i-1), 16·2^i]` (bucket 0 holds everything ≤ 16), the last
/// bucket everything beyond the covered range.
pub fn hist_bucket_index(value: u64) -> usize {
    let v = value.max(1);
    if v > 1 << 62 {
        return HIST_BUCKETS - 1;
    }
    let ceil_log2 = (v.next_power_of_two().trailing_zeros()) as usize;
    ceil_log2.saturating_sub(4).min(HIST_BUCKETS - 1)
}

/// The stable wire name of a histogram bucket.
pub fn hist_bucket_name(index: usize) -> String {
    if index + 1 < HIST_BUCKETS {
        format!("le_{}", 16u64 << index)
    } else {
        format!("gt_{}", 16u64 << (HIST_BUCKETS - 2))
    }
}

/// The session accumulator.
///
/// Cloning shares the snapshot: a campaign hands clones to its scans
/// and corpus readers and merges its runs' snapshots in, and every
/// part records into the same cells. The default handle is disabled;
/// [`Telemetry::enabled`] starts a fresh zeroed snapshot.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    shared: Option<Arc<Mutex<TelemetrySnapshot>>>,
}

impl Telemetry {
    /// A recording handle with a fresh, zeroed snapshot.
    pub fn enabled() -> Self {
        Self {
            shared: Some(Arc::new(Mutex::new(TelemetrySnapshot::new(true)))),
        }
    }

    /// A no-op handle: every record call is a single `None` branch.
    pub fn disabled() -> Self {
        Self { shared: None }
    }

    /// `enabled()` or `disabled()` by flag.
    pub fn new(enabled: bool) -> Self {
        if enabled {
            Self::enabled()
        } else {
            Self::disabled()
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Runs `f` on the shared snapshot; a no-op on a disabled handle.
    /// Every cell is a count on its own, so a snapshot a panicking
    /// recorder left half-merged is still valid and a poisoned lock is
    /// used as is.
    fn with<R>(&self, f: impl FnOnce(&mut TelemetrySnapshot) -> R) -> Option<R> {
        let shared = self.shared.as_ref()?;
        let mut snapshot = shared.lock().unwrap_or_else(PoisonError::into_inner);
        Some(f(&mut snapshot))
    }

    /// Adds 1 to a counter.
    pub fn count(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Adds `n` to a counter ([`TelemetrySnapshot::add`]).
    pub fn add(&self, counter: Counter, n: u64) {
        self.with(|snapshot| snapshot.add(counter, n));
    }

    /// Folds a snapshot in with [`TelemetrySnapshot::merge`] — how a
    /// campaign collects the snapshots of the machines it ran.
    pub fn merge(&self, other: &TelemetrySnapshot) {
        self.with(|snapshot| snapshot.merge(other));
    }

    /// A copy of the shared snapshot (an empty, disabled one for a
    /// disabled handle).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.with(|snapshot| snapshot.clone()).unwrap_or_default()
    }
}

/// A copy of a handle's cells, suitable for reports and the
/// bit-identity differential tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Whether the snapshot came from an enabled handle.
    pub enabled: bool,
    /// Counter cells, indexed by [`Counter`] discriminant.
    pub counters: [u64; Counter::COUNT],
    /// Gauge cells, indexed by [`Gauge`] discriminant.
    pub gauges: [u64; Gauge::COUNT],
    /// Histogram cells, indexed by [`Hist`] discriminant then bucket.
    pub hists: [[u64; HIST_BUCKETS]; Hist::COUNT],
}

impl Default for TelemetrySnapshot {
    fn default() -> Self {
        Self {
            enabled: false,
            counters: [0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
            hists: [[0; HIST_BUCKETS]; Hist::COUNT],
        }
    }
}

impl TelemetrySnapshot {
    /// An all-zero snapshot that records projections when `enabled`
    /// and stays empty otherwise — where a run's snapshot starts.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ..Self::default()
        }
    }

    /// One counter cell.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Adds `n` to a counter cell — how a component projects a plain
    /// stat it kept into the snapshot. A no-op on a disabled snapshot,
    /// so disabled runs stay empty.
    pub fn add(&mut self, counter: Counter, n: u64) {
        if self.enabled {
            self.counters[counter as usize] += n;
        }
    }

    /// Raises a gauge cell to `value` if `value` is higher. A no-op on
    /// a disabled snapshot.
    pub fn gauge_max(&mut self, gauge: Gauge, value: u64) {
        if self.enabled {
            let cell = &mut self.gauges[gauge as usize];
            *cell = (*cell).max(value);
        }
    }

    /// Adds per-bucket counts (bucketed by [`hist_bucket_index`]) to
    /// a histogram. A no-op on a disabled snapshot.
    pub fn add_hist(&mut self, hist: Hist, buckets: &[u64; HIST_BUCKETS]) {
        if self.enabled {
            for (cell, &n) in self.hists[hist as usize].iter_mut().zip(buckets) {
                *cell += n;
            }
        }
    }

    /// One gauge cell.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge as usize]
    }

    /// One histogram's buckets.
    pub fn hist(&self, hist: Hist) -> &[u64; HIST_BUCKETS] {
        &self.hists[hist as usize]
    }

    /// True when every cell is zero (always the case for a snapshot
    /// of a disabled handle).
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.gauges.iter().all(|&g| g == 0)
            && self.hists.iter().flatten().all(|&b| b == 0)
    }

    /// BWB hit rate over recorded lookups (0.0 when none).
    pub fn bwb_hit_rate(&self) -> f64 {
        let hits = self.counter(Counter::BwbHits);
        let total = hits + self.counter(Counter::BwbMisses);
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Folds another snapshot in: counters and histogram buckets sum,
    /// gauges take the maximum (peak-of-peaks), `enabled` ORs — the
    /// campaign-level aggregation.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.enabled |= other.enabled;
        for i in 0..Counter::COUNT {
            self.counters[i] += other.counters[i];
        }
        for i in 0..Gauge::COUNT {
            self.gauges[i] = self.gauges[i].max(other.gauges[i]);
        }
        for h in 0..Hist::COUNT {
            for b in 0..HIST_BUCKETS {
                self.hists[h][b] += other.hists[h][b];
            }
        }
    }

    /// The snapshot as a pretty JSON object: the campaign report's
    /// per-cell `telemetry` value and the `aos stats`/`aos run`
    /// documents' `telemetry` member. Keys keep taxonomy order.
    pub fn to_json(&self) -> Json {
        let named = |names: &[&str], values: &[u64]| {
            Layout::Pretty.object(
                names
                    .iter()
                    .zip(values)
                    .map(|(name, v)| (*name, Json::num(v))),
            )
        };
        let hists = Hist::NAMES.iter().zip(&self.hists).map(|(name, buckets)| {
            let buckets = buckets
                .iter()
                .enumerate()
                .map(|(b, v)| (hist_bucket_name(b), Json::num(v)));
            (*name, Layout::Pretty.object(buckets))
        });
        Layout::Pretty.object([
            ("enabled", Json::Bool(self.enabled)),
            ("counters", named(&Counter::NAMES, &self.counters)),
            ("gauges", named(&Gauge::NAMES, &self.gauges)),
            ("hists", Layout::Pretty.object(hists)),
        ])
    }

    /// The snapshot as an aligned human table.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "telemetry ({})",
            if self.enabled { "enabled" } else { "disabled" }
        );
        let _ = writeln!(s, "  {:<24} {:>16}", "counter", "value");
        for (i, name) in Counter::NAMES.iter().enumerate() {
            let _ = writeln!(s, "  {:<24} {:>16}", name, self.counters[i]);
        }
        for (i, name) in Gauge::NAMES.iter().enumerate() {
            let _ = writeln!(s, "  {:<24} {:>16}", name, self.gauges[i]);
        }
        let _ = writeln!(
            s,
            "  {:<24} {:>15.1}%",
            "bwb_hit_rate",
            self.bwb_hit_rate() * 100.0
        );
        for (h, name) in Hist::NAMES.iter().enumerate() {
            let total: u64 = self.hists[h].iter().sum();
            let _ = writeln!(s, "  {:<24} {:>16} observations", name, total);
            for b in 0..HIST_BUCKETS {
                if self.hists[h][b] > 0 {
                    let _ = writeln!(
                        s,
                        "    {:<22} {:>16}",
                        hist_bucket_name(b),
                        self.hists[h][b]
                    );
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An enabled snapshot with one of each kind of cell set.
    fn part() -> TelemetrySnapshot {
        let mut buckets = [0; HIST_BUCKETS];
        buckets[hist_bucket_index(64)] = 1;
        let mut part = TelemetrySnapshot::new(true);
        part.add(Counter::McqEnqueued, 5);
        part.gauge_max(Gauge::HbtWays, 4);
        part.add_hist(Hist::HeapAllocSize, &buckets);
        part
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        t.count(Counter::PtrSigns);
        t.merge(&part());
        assert!(!t.is_enabled());
        let snap = t.snapshot();
        assert!(snap.is_empty());
        assert!(!snap.enabled);
        assert_eq!(snap, TelemetrySnapshot::default());
        // Projecting stats into a disabled snapshot records nothing.
        let mut snap = TelemetrySnapshot::new(false);
        snap.add(Counter::PtrSigns, 3);
        snap.gauge_max(Gauge::McqPeakOccupancy, 10);
        snap.add_hist(Hist::HeapAllocSize, &[1; HIST_BUCKETS]);
        assert!(snap.is_empty());
    }

    #[test]
    fn clones_share_one_snapshot() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.count(Counter::HeapAllocs);
        u.add(Counter::HeapAllocs, 2);
        assert_eq!(t.snapshot().counter(Counter::HeapAllocs), 3);
        assert_eq!(t.snapshot(), u.snapshot());
    }

    #[test]
    fn concurrent_writers_lose_no_increment() {
        let t = Telemetry::enabled();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        t.count(Counter::LintOpsScanned);
                    }
                });
            }
        });
        assert_eq!(t.snapshot().counter(Counter::LintOpsScanned), 20_000);
    }

    #[test]
    fn merging_into_a_handle_matches_merging_snapshots() {
        let whole = Telemetry::enabled();
        whole.add(Counter::McqEnqueued, 2);
        let mut wider = TelemetrySnapshot::new(true);
        wider.gauge_max(Gauge::HbtWays, 8);
        whole.merge(&wider);
        let mut expected = whole.snapshot();
        expected.merge(&part());
        whole.merge(&part());
        assert_eq!(whole.snapshot(), expected);
        assert_eq!(whole.snapshot().counter(Counter::McqEnqueued), 7);
        assert_eq!(whole.snapshot().gauge(Gauge::HbtWays), 8);
    }

    #[test]
    fn gauge_max_keeps_the_high_watermark() {
        let t = Telemetry::enabled();
        for value in [5, 3] {
            let mut snap = TelemetrySnapshot::new(true);
            snap.gauge_max(Gauge::McqPeakOccupancy, value);
            t.merge(&snap);
        }
        assert_eq!(t.snapshot().gauge(Gauge::McqPeakOccupancy), 5);
        // The snapshot-side projection keeps the same semantics.
        let mut snap = t.snapshot();
        snap.gauge_max(Gauge::McqPeakOccupancy, 3);
        snap.gauge_max(Gauge::HbtWays, 8);
        snap.add(Counter::PtrSigns, 2);
        snap.add(Counter::PtrSigns, 1);
        assert_eq!(snap.gauge(Gauge::McqPeakOccupancy), 5);
        assert_eq!(snap.gauge(Gauge::HbtWays), 8);
        assert_eq!(snap.counter(Counter::PtrSigns), 3);
    }

    #[test]
    fn hist_buckets_are_power_of_two_from_16() {
        assert_eq!(hist_bucket_index(0), 0);
        assert_eq!(hist_bucket_index(1), 0);
        assert_eq!(hist_bucket_index(16), 0);
        assert_eq!(hist_bucket_index(17), 1);
        assert_eq!(hist_bucket_index(32), 1);
        assert_eq!(hist_bucket_index(33), 2);
        assert_eq!(hist_bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(hist_bucket_name(0), "le_16");
        assert_eq!(hist_bucket_name(1), "le_32");
        assert!(hist_bucket_name(HIST_BUCKETS - 1).starts_with("gt_"));
    }

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let mut m = TelemetrySnapshot::new(true);
        m.add(Counter::McqEnqueued, 2);
        m.gauge_max(Gauge::HbtWays, 7);
        m.merge(&part());
        m.merge(&part());
        assert_eq!(m.counter(Counter::McqEnqueued), 12);
        assert_eq!(m.gauge(Gauge::HbtWays), 7);
        assert_eq!(m.hist(Hist::HeapAllocSize)[hist_bucket_index(64)], 2);
        assert!(m.enabled);
    }

    #[test]
    fn taxonomy_names_are_unique_and_aligned() {
        let mut names: Vec<&str> = Counter::NAMES
            .iter()
            .chain(Gauge::NAMES.iter())
            .chain(Hist::NAMES.iter())
            .copied()
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate wire name");
        for c in Counter::ALL {
            assert_eq!(Counter::NAMES[c as usize], c.name());
        }
    }

    #[test]
    fn json_rendering_is_well_formed_and_ordered() {
        let t = Telemetry::enabled();
        t.count(Counter::PacComputations);
        let json = t.snapshot().to_json().to_string();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let pac = json.find("\"pac_computations\"").unwrap();
        let frees = json.find("\"heap_frees\"").unwrap();
        assert!(pac < frees, "counter keys must keep taxonomy order");
        assert!(json.contains("\"mcq_peak_occupancy\""));
        assert!(json.contains("\"heap_alloc_size\""));
    }
}
