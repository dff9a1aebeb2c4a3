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
//!   with a stable wire name (the `aos-campaign-report/v7` counter
//!   keys);
//! - a [`Telemetry`] **handle** threaded through construction of the
//!   software layers that have no stats of their own (signer/QARMA,
//!   heap, linter, service, corpus, fuzzer) — no globals, no locks on
//!   the hot path. A disabled handle is a `None` and every record call
//!   is a single branch; an enabled handle shares one [`Arc`] of plain
//!   `u64` cells (relaxed atomics, so the same registry can be read
//!   across the campaign runner's worker threads without
//!   synchronization);
//! - an immutable [`TelemetrySnapshot`] for reporting: plain arrays,
//!   `PartialEq`/`Eq` for the bit-identity differential tests,
//!   [`TelemetrySnapshot::merge`] for campaign-level aggregation, and
//!   JSON / human-table renderers.
//!
//! The simulated hardware holds no handle. The MCU, BWB and HBT and
//! the machine's run loop keep plain `u64` stats — the ledger the
//! figures read — and project them into a snapshot when it is taken
//! ([`TelemetrySnapshot::add`] / [`TelemetrySnapshot::gauge_max`], via
//! each component's `record_telemetry`), so every hardware event is
//! counted once and the per-op paths carry no telemetry at all.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::json::{Json, Layout};

/// Monotonic event counters, one per instrumented pipeline event.
///
/// The discriminant is the cell index; [`Counter::NAMES`] (same
/// order) are the stable wire names used by the v7 campaign report
/// and `aos stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// QARMA-64 block-cipher invocations (PAC computations).
    PacComputations,
    /// `pacma` sign operations performed by the signer.
    PtrSigns,
    /// `xpacm` strip operations performed by the signer.
    PtrStrips,
    /// `autm` authentication attempts performed by the signer.
    PtrAuths,
    /// `autm` attempts that failed authentication.
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
    /// Jobs that needed at least one retry before completing or
    /// finally failing.
    ServeJobsRetried,
    /// Jobs whose every attempt exceeded the per-job deadline.
    ServeJobsTimedOut,
    /// Jobs whose every attempt panicked (isolated by the guard; the
    /// service kept serving).
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
    pub const COUNT: usize = 46;

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
        Counter::ServeJobsRetried,
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
        "serve_jobs_retried",
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

/// The shared cell store behind an enabled handle.
#[derive(Debug)]
struct Registry {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    hists: [[AtomicU64; HIST_BUCKETS]; Hist::COUNT],
}

impl Registry {
    fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }
}

/// The handle threaded through construction.
///
/// Cloning shares the registry: a machine hands a clone to its trace
/// generator, which passes it to its signer and heap, and every part
/// records into the same cells. The default handle is disabled;
/// [`Telemetry::enabled`] allocates a fresh zeroed registry.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    registry: Option<Arc<Registry>>,
}

impl Telemetry {
    /// A recording handle with a fresh, zeroed registry.
    pub fn enabled() -> Self {
        Self {
            registry: Some(Arc::new(Registry::new())),
        }
    }

    /// A no-op handle: every record call is a single `None` branch.
    pub fn disabled() -> Self {
        Self { registry: None }
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
        self.registry.is_some()
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn count(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Adds `n` to a counter.
    ///
    /// Recording uses plain load+store on the cells rather than atomic
    /// read-modify-write: every cell has a single writer (the owner of
    /// the handle and the components it hands clones to — a cell's
    /// trace generator with its signer and heap — all on one thread),
    /// and dropping the `lock` prefix keeps the hot-path cost at a
    /// couple of cycles. Concurrent *snapshots* from other threads
    /// are safe; concurrent writers of one cell are not supported and
    /// would lose increments.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(r) = &self.registry {
            let cell = &r.counters[counter as usize];
            cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        }
    }

    /// Raises a gauge to `value` if `value` is higher (high-watermark
    /// semantics, e.g. the service's peak queue depth).
    #[inline]
    pub fn gauge_max(&self, gauge: Gauge, value: u64) {
        if let Some(r) = &self.registry {
            let cell = &r.gauges[gauge as usize];
            if value > cell.load(Ordering::Relaxed) {
                cell.store(value, Ordering::Relaxed);
            }
        }
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&self, hist: Hist, value: u64) {
        if let Some(r) = &self.registry {
            let cell = &r.hists[hist as usize][hist_bucket_index(value)];
            cell.store(cell.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
    }

    /// Folds a snapshot into the live cells with
    /// [`TelemetrySnapshot::merge`]'s arithmetic — how a campaign
    /// collects the snapshots of the machines it ran. A no-op on a
    /// disabled handle.
    pub fn merge(&self, other: &TelemetrySnapshot) {
        let Some(r) = &self.registry else { return };
        let cells = r.counters.iter().chain(r.hists.iter().flatten());
        let values = other.counters.iter().chain(other.hists.iter().flatten());
        for (cell, &n) in cells.zip(values) {
            cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        }
        for (&gauge, &value) in Gauge::ALL.iter().zip(&other.gauges) {
            self.gauge_max(gauge, value);
        }
    }

    /// An immutable copy of every cell.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        match &self.registry {
            None => TelemetrySnapshot::default(),
            Some(r) => TelemetrySnapshot {
                enabled: true,
                counters: std::array::from_fn(|i| r.counters[i].load(Ordering::Relaxed)),
                gauges: std::array::from_fn(|i| r.gauges[i].load(Ordering::Relaxed)),
                hists: std::array::from_fn(|h| {
                    std::array::from_fn(|b| r.hists[h][b].load(Ordering::Relaxed))
                }),
            },
        }
    }
}

/// An immutable copy of a registry's cells, suitable for reports and
/// the bit-identity differential tests.
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

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        t.count(Counter::PtrSigns);
        t.gauge_max(Gauge::McqPeakOccupancy, 10);
        t.observe(Hist::HeapAllocSize, 64);
        assert!(!t.is_enabled());
        let snap = t.snapshot();
        assert!(snap.is_empty());
        assert!(!snap.enabled);
        assert_eq!(snap, TelemetrySnapshot::default());
        // Projecting stats into a disabled snapshot records nothing.
        let mut snap = snap;
        snap.add(Counter::PtrSigns, 3);
        snap.gauge_max(Gauge::McqPeakOccupancy, 10);
        assert!(snap.is_empty());
    }

    #[test]
    fn clones_share_one_registry() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.count(Counter::HeapAllocs);
        u.add(Counter::HeapAllocs, 2);
        assert_eq!(t.snapshot().counter(Counter::HeapAllocs), 3);
        assert_eq!(t.snapshot(), u.snapshot());
    }

    #[test]
    fn merging_into_a_handle_matches_merging_snapshots() {
        let part = Telemetry::enabled();
        part.add(Counter::McqEnqueued, 5);
        part.gauge_max(Gauge::HbtWays, 4);
        part.observe(Hist::HeapAllocSize, 64);
        let whole = Telemetry::enabled();
        whole.add(Counter::McqEnqueued, 2);
        whole.gauge_max(Gauge::HbtWays, 8);
        let mut expected = whole.snapshot();
        expected.merge(&part.snapshot());
        whole.merge(&part.snapshot());
        assert_eq!(whole.snapshot(), expected);
        assert_eq!(whole.snapshot().counter(Counter::McqEnqueued), 7);
        let off = Telemetry::disabled();
        off.merge(&part.snapshot());
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn gauge_max_keeps_the_high_watermark() {
        let t = Telemetry::enabled();
        t.gauge_max(Gauge::McqPeakOccupancy, 5);
        t.gauge_max(Gauge::McqPeakOccupancy, 3);
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
        let a = Telemetry::enabled();
        a.add(Counter::HeapFrees, 2);
        a.gauge_max(Gauge::McqPeakOccupancy, 7);
        let b = Telemetry::enabled();
        b.add(Counter::HeapFrees, 3);
        b.gauge_max(Gauge::McqPeakOccupancy, 4);
        b.observe(Hist::HeapAllocSize, 100);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter(Counter::HeapFrees), 5);
        assert_eq!(m.gauge(Gauge::McqPeakOccupancy), 7);
        assert_eq!(m.hist(Hist::HeapAllocSize)[hist_bucket_index(100)], 1);
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
