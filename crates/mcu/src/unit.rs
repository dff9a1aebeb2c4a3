//! The memory check unit: issue, FSM stepping, replay, forwarding,
//! retirement.

use crate::bwb::BoundsWayBuffer;
use crate::mcq::{McqEntry, McqState, McuOp};
use aos_hbt::{CompressedBounds, HashedBoundsTable, BOUNDS_PER_WAY};
use aos_ptrauth::{bwb_tag, Ahc, PointerLayout};

/// The port through which the MCU reaches the memory hierarchy.
///
/// The timing simulator implements this with its cache model so bounds
/// traffic contends with (and pollutes) ordinary data accesses; the
/// functional machine uses [`ZeroLatencyMemory`].
pub trait BoundsMemory {
    /// Requests the 64-byte line at `addr`; returns the latency in
    /// cycles until the data is available.
    fn load_line(&mut self, addr: u64) -> u64;

    /// Writes the 64-byte line at `addr`; returns the occupancy
    /// latency in cycles.
    fn store_line(&mut self, addr: u64) -> u64;
}

/// A [`BoundsMemory`] that answers instantly — functional mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroLatencyMemory;

impl BoundsMemory for ZeroLatencyMemory {
    fn load_line(&mut self, _addr: u64) -> u64 {
        0
    }

    fn store_line(&mut self, _addr: u64) -> u64 {
        0
    }
}

/// MCU configuration (defaults from Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McuConfig {
    /// Memory check queue capacity.
    pub mcq_entries: usize,
    /// Bounds way buffer capacity.
    pub bwb_entries: usize,
    /// Whether the BWB is consulted (ablation knob).
    pub use_bwb: bool,
    /// Whether store→load bounds forwarding is enabled (§V-F2).
    pub bounds_forwarding: bool,
}

impl Default for McuConfig {
    fn default() -> Self {
        Self {
            mcq_entries: 48,
            bwb_entries: 64,
            use_bwb: true,
            bounds_forwarding: true,
        }
    }
}

/// The new exception class AOS introduces (paper §IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AosException {
    /// A signed load/store found no valid bounds: a spatial or
    /// temporal memory safety violation.
    BoundsCheckFailure {
        /// The faulting signed pointer.
        pointer: u64,
        /// `true` if the access was a store.
        is_store: bool,
    },
    /// `bndstr` found no empty slot: the OS must resize the table.
    BoundsStoreFailure {
        /// The row that overflowed.
        pac: u64,
    },
    /// `bndclr` found no matching bounds: double free or free of an
    /// invalid address.
    BoundsClearFailure {
        /// The pointer being freed.
        pointer: u64,
    },
    /// `bndstr` carried bounds the Fig. 9 scheme cannot encode — a
    /// misaligned base or a zero/oversized size. Real `malloc` never
    /// produces these, so the op came from a malformed or tampered
    /// trace; the entry fails without touching the table.
    MalformedBounds {
        /// The pointer whose bounds were rejected.
        pointer: u64,
        /// The rejected size.
        size: u64,
    },
}

impl std::fmt::Display for AosException {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AosException::BoundsCheckFailure { pointer, is_store } => write!(
                f,
                "bounds check failed for {} of {pointer:#x}",
                if *is_store { "store" } else { "load" }
            ),
            AosException::BoundsStoreFailure { pac } => {
                write!(f, "bounds store failed: row {pac:#x} full")
            }
            AosException::BoundsClearFailure { pointer } => {
                write!(f, "bounds clear failed for {pointer:#x}")
            }
            AosException::MalformedBounds { pointer, size } => {
                write!(f, "malformed bounds for {pointer:#x} (size {size})")
            }
        }
    }
}

impl std::error::Error for AosException {}

/// Events surfaced by [`MemoryCheckUnit::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McuEvent {
    /// A failed entry reached the MCQ head; the OS must handle it
    /// (then [`MemoryCheckUnit::retry`] or drop the entry).
    Exception {
        /// MCQ entry id.
        id: u64,
        /// What went wrong.
        exception: AosException,
    },
    /// An entry completed and left the queue.
    Retired {
        /// MCQ entry id.
        id: u64,
        /// Ways touched while checking (0 for unsigned/forwarded).
        ways_touched: u32,
    },
}

/// Result of a synchronous (functional) MCU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOutcome {
    /// `true` when the access was unsigned and skipped checking.
    pub skipped: bool,
    /// `true` when satisfied by store→load bounds forwarding.
    pub forwarded: bool,
    /// HBT way lines touched.
    pub ways_touched: u32,
}

/// Cumulative MCU statistics (Figs. 16 and 17 draw on these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct McuStats {
    /// Operations issued into the MCQ.
    pub issued: u64,
    /// Accesses that were unsigned (no checking needed).
    pub unsigned_accesses: u64,
    /// Accesses that required bounds checking.
    pub signed_accesses: u64,
    /// `bndstr` operations.
    pub bndstrs: u64,
    /// `bndclr` operations.
    pub bndclrs: u64,
    /// Checks satisfied by bounds forwarding.
    pub forwards: u64,
    /// Entries replayed by the store-load replay rule.
    pub replays: u64,
    /// HBT way lines loaded.
    pub line_loads: u64,
    /// HBT lines written (bounds stores/clears).
    pub line_stores: u64,
    /// Total ways touched across completed checks.
    pub way_iterations: u64,
    /// Checks that completed successfully against the table.
    pub completed_checks: u64,
    /// Exceptions raised.
    pub exceptions: u64,
    /// Entries that completed and left the queue cleanly.
    pub retired: u64,
    /// Highest queue occupancy ever reached.
    pub peak_occupancy: u64,
}

impl McuStats {
    /// Average HBT accesses per completed (non-forwarded) check — the
    /// per-workload series of Fig. 17.
    pub fn accesses_per_check(&self) -> f64 {
        if self.completed_checks == 0 {
            0.0
        } else {
            self.way_iterations as f64 / self.completed_checks as f64
        }
    }
}

/// The memory check unit. See the [crate docs](crate) for an overview
/// and an example.
#[derive(Debug, Clone)]
pub struct MemoryCheckUnit {
    config: McuConfig,
    layout: PointerLayout,
    queue: Vec<McqEntry>,
    /// In-flight `BndStr` entries — the forwarding scan in
    /// [`step_init`](Self::step_init) only matches bounds stores, so
    /// it is skipped outright while this is zero (the common case).
    bndstr_live: u32,
    /// Lower bound on the earliest `ready_at` of any non-terminal
    /// entry. While `now` is below it (and nothing is releasable or
    /// failing at the head), [`tick`](Self::tick) returns without
    /// touching the queue at all. Recomputed exactly whenever the
    /// step pass runs; mutations between ticks only ever lower it.
    ready_floor: u64,
    /// Whether a ROB commit since the last tick may have turned a
    /// `Done` bndstr/bndclr releasable. Entries that reach `Done`
    /// *during* a tick are released by that same tick's drain pass, so
    /// between ticks this flag is the only releasable-entry source.
    release_pending: bool,
    bwb: BoundsWayBuffer,
    next_id: u64,
    stats: McuStats,
    /// Bounds checks that found no covering record in any way — the
    /// miss verdicts [`record_telemetry`](Self::record_telemetry)
    /// projects beside `completed_checks`, the hits. Kept outside
    /// [`McuStats`]: a field there would change its `Debug` text, which
    /// the sim-stats golden digests.
    check_misses: u64,
    /// Whether [`tick`](Self::tick) reports clean completions as
    /// [`McuEvent::Retired`]. The timing simulator only consumes
    /// exception events, so it turns this off and saves one event
    /// push-and-scan per retired operation; the functional path
    /// ([`run_sync`](Self::run_sync)) forces it back on.
    emit_retired: bool,
    /// Scratch event buffer reused across [`MemoryCheckUnit::run_sync`]
    /// calls — the functional machine runs one `run_sync` per
    /// load/store, so a per-call `Vec` allocation is hot-path churn.
    sync_events: Vec<McuEvent>,
}

impl MemoryCheckUnit {
    /// Creates an empty unit.
    pub fn new(config: McuConfig, layout: PointerLayout) -> Self {
        Self {
            config,
            layout,
            queue: Vec::with_capacity(config.mcq_entries),
            bndstr_live: 0,
            ready_floor: u64::MAX,
            release_pending: false,
            bwb: BoundsWayBuffer::new(config.bwb_entries),
            next_id: 0,
            stats: McuStats::default(),
            check_misses: 0,
            emit_retired: true,
            sync_events: Vec::new(),
        }
    }

    /// Enables or disables [`McuEvent::Retired`] emission from
    /// [`tick`](Self::tick). Exception events are always emitted.
    pub fn set_emit_retired(&mut self, on: bool) {
        self.emit_retired = on;
    }

    /// Projects the unit's stats and its BWB's into a telemetry
    /// snapshot: the five `mcq_*` counters, the four `bwb_*` counters
    /// and `mcq_peak_occupancy`.
    ///
    /// The MCU reads bounds through the uncounted
    /// [`HashedBoundsTable::peek_way`], so the HBT lookup counters are
    /// added here from the unit's own check verdicts: each check that
    /// walked the table is one lookup, a hit when it completed and a
    /// miss when every way came up empty.
    pub fn record_telemetry(&self, snapshot: &mut aos_util::TelemetrySnapshot) {
        use aos_util::Counter;
        let (s, bwb) = (&self.stats, self.bwb.stats());
        let hits = s.completed_checks;
        snapshot.add(Counter::HbtLookups, hits + self.check_misses);
        snapshot.add(Counter::HbtHits, hits);
        snapshot.add(Counter::HbtMisses, self.check_misses);
        snapshot.add(Counter::McqEnqueued, s.issued);
        snapshot.add(Counter::McqRetired, s.retired);
        snapshot.add(Counter::McqForwards, s.forwards);
        snapshot.add(Counter::McqReplays, s.replays);
        snapshot.add(Counter::McqExceptions, s.exceptions);
        snapshot.add(Counter::BwbHits, bwb.hits);
        snapshot.add(Counter::BwbMisses, bwb.misses);
        snapshot.add(Counter::BwbUpdates, bwb.updates);
        snapshot.add(Counter::BwbEvictions, bwb.evictions);
        snapshot.gauge_max(aos_util::Gauge::McqPeakOccupancy, s.peak_occupancy);
    }

    /// The configuration in use.
    pub fn config(&self) -> &McuConfig {
        &self.config
    }

    /// Entries currently in the queue.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether another operation can be issued this cycle. When the
    /// queue is full the issue stage stalls — the back-pressure the
    /// paper notes can even *help* some workloads (§IX-A).
    pub fn has_capacity(&self) -> bool {
        self.queue.len() < self.config.mcq_entries
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> McuStats {
        self.stats
    }

    /// BWB statistics (Fig. 17's hit rate).
    pub fn bwb_stats(&self) -> crate::bwb::BwbStats {
        self.bwb.stats()
    }

    /// Enqueues an operation, returning its entry id.
    ///
    /// # Errors
    ///
    /// Returns `Err(op)` when the queue is full (the caller must stall
    /// and retry next cycle).
    pub fn issue(&mut self, op: McuOp, now: u64) -> Result<u64, McuOp> {
        if !self.has_capacity() {
            return Err(op);
        }
        let pointer = match op {
            McuOp::Access { pointer, .. }
            | McuOp::BndStr { pointer, .. }
            | McuOp::BndClr { pointer } => pointer,
        };
        let addr = self.layout.address(pointer);
        let pac = self.layout.pac(pointer);
        let ahc = Ahc::from_bits(self.layout.ahc(pointer));
        // A bndstr whose bounds the Fig. 9 scheme cannot encode (only
        // reachable from a malformed or tampered trace — malloc never
        // produces one) is accepted into the queue but fails in place:
        // it raises `MalformedBounds` at the head instead of panicking
        // here.
        let (bnd_data, malformed) = match op {
            McuOp::BndStr { size, .. } => match CompressedBounds::try_encode(addr, size) {
                Ok(b) => (b, false),
                Err(_) => (CompressedBounds::EMPTY, true),
            },
            _ => (CompressedBounds::EMPTY, false),
        };
        let id = self.next_id;
        self.next_id += 1;
        self.stats.issued += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.queue.len() as u64 + 1);
        match op {
            McuOp::Access { .. } if ahc.is_some() => self.stats.signed_accesses += 1,
            McuOp::Access { .. } => self.stats.unsigned_accesses += 1,
            McuOp::BndStr { .. } => {
                self.stats.bndstrs += 1;
                self.bndstr_live += 1;
            }
            McuOp::BndClr { .. } => self.stats.bndclrs += 1,
        }
        self.queue.push(McqEntry {
            id,
            op,
            addr,
            pac,
            ahc,
            bnd_data,
            way: 0,
            count: 0,
            start_way: 0,
            hit: None,
            committed: false,
            state: if malformed {
                McqState::Fail
            } else {
                McqState::Init
            },
            ready_at: now,
            reported: false,
            forwarded: false,
            malformed,
        });
        self.ready_floor = self.ready_floor.min(now);
        Ok(id)
    }

    /// Index of entry `id` in the queue. Ids are handed out in issue
    /// order and every removal preserves relative order, so the queue
    /// is always sorted by id and the lookup is a binary search — the
    /// per-retire cost the linear scans used to pay on a 48-deep MCQ.
    #[inline]
    fn index_of(&self, id: u64) -> Option<usize> {
        self.queue.binary_search_by_key(&id, |e| e.id).ok()
    }

    /// Marks an entry as committed by the ROB.
    pub fn mark_committed(&mut self, id: u64) {
        if let Some(i) = self.index_of(id) {
            self.queue[i].committed = true;
            self.release_pending = true;
        }
    }

    /// Current FSM state of an entry, if still queued.
    pub fn state_of(&self, id: u64) -> Option<McqState> {
        self.index_of(id).map(|i| self.queue[i].state)
    }

    /// Whether the instruction may retire from the ROB: its check is
    /// complete (or it never needed one). Entries no longer in the
    /// queue have retired already.
    pub fn check_complete(&self, id: u64) -> bool {
        match self.index_of(id) {
            Some(i) => self.queue[i].state == McqState::Done,
            None => true,
        }
    }

    /// Whether the ROB may retire this instruction: checks must be
    /// `Done` (delayed retirement, §III-C4), while `bndstr`/`bndclr`
    /// only need their occupancy check finished — their table store is
    /// sent *after* commit to preserve store ordering.
    pub fn can_retire(&self, id: u64) -> bool {
        match self.index_of(id) {
            None => true,
            Some(i) => Self::retirable(&self.queue[i]),
        }
    }

    #[inline]
    fn retirable(e: &McqEntry) -> bool {
        match e.op {
            McuOp::Access { .. } => e.state == McqState::Done,
            McuOp::BndStr { .. } | McuOp::BndClr { .. } => {
                matches!(e.state, McqState::BndStr | McqState::Done)
            }
        }
    }

    /// [`MemoryCheckUnit::can_retire`] and
    /// [`MemoryCheckUnit::mark_committed`] fused into one queue lookup
    /// — the ROB retire stage always performs them back to back, and on
    /// the hot path the second binary search is pure overhead. Returns
    /// whether the instruction retired (and was marked committed).
    pub fn commit_if_retirable(&mut self, id: u64) -> bool {
        match self.index_of(id) {
            None => true,
            Some(i) => {
                let ok = Self::retirable(&self.queue[i]);
                if ok {
                    self.queue[i].committed = true;
                    self.release_pending = true;
                }
                ok
            }
        }
    }

    /// The next cycle at which [`MemoryCheckUnit::tick`] can possibly
    /// make progress, or `u64::MAX` when every queued entry is waiting
    /// on an external stimulus (a ROB commit or an OS retry/drop). The
    /// timing simulator uses this to fast-forward over stall cycles
    /// without stepping the FSM through each one.
    pub fn next_wake(&self, now: u64) -> u64 {
        let mut wake = u64::MAX;
        for (i, e) in self.queue.iter().enumerate() {
            let w = match e.state {
                // A Done entry releases on the next tick — unless it is
                // a bndstr/bndclr still waiting for its ROB commit.
                McqState::Done => {
                    if matches!(e.op, McuOp::Access { .. }) || e.committed {
                        now + 1
                    } else {
                        u64::MAX
                    }
                }
                // A failed head raises its exception next tick; failed
                // entries elsewhere sit until the OS intervenes or the
                // head drains (itself a wake event).
                McqState::Fail => {
                    if i == 0 && !e.reported {
                        now + 1
                    } else {
                        u64::MAX
                    }
                }
                // The post-commit table store only runs once committed.
                McqState::BndStr => {
                    if e.committed {
                        e.ready_at.max(now + 1)
                    } else {
                        u64::MAX
                    }
                }
                McqState::Init | McqState::BndChk | McqState::OccChk => e.ready_at.max(now + 1),
            };
            wake = wake.min(w);
            if wake == now + 1 {
                break;
            }
        }
        wake
    }

    /// Resets a failed (or in-flight) entry to retry from scratch —
    /// the OS path after resizing the table on a `bndstr` failure.
    pub fn retry(&mut self, id: u64) {
        if let Some(i) = self.index_of(id) {
            let e = &mut self.queue[i];
            // A malformed bndstr can never succeed; it stays failed no
            // matter how often the OS retries.
            e.state = if e.malformed {
                McqState::Fail
            } else {
                McqState::Init
            };
            e.count = 0;
            e.way = 0;
            e.hit = None;
            e.reported = false;
            e.ready_at = 0;
            self.ready_floor = 0;
        }
    }

    /// Removes a failed head entry (OS chose to terminate/skip).
    pub fn drop_failed(&mut self, id: u64) {
        if let Some(i) = self.index_of(id) {
            let e = self.queue.remove(i);
            if matches!(e.op, McuOp::BndStr { .. }) {
                self.bndstr_live -= 1;
            }
        }
    }

    /// Removes every entry *younger* than `id` (strictly greater ids)
    /// — the pipeline-flush path when a precise exception at commit
    /// squashes all in-flight ops after the faulting one. The entry
    /// with `id` itself (and everything older) survives. Returns how
    /// many entries were squashed.
    pub fn squash_newer(&mut self, id: u64) -> usize {
        // The queue is always sorted by id, so the squash boundary is
        // a partition point and the removal a truncate.
        let keep = self.queue.partition_point(|e| e.id <= id);
        let squashed = self.queue.len() - keep;
        for e in &self.queue[keep..] {
            if matches!(e.op, McuOp::BndStr { .. }) {
                self.bndstr_live -= 1;
            }
        }
        self.queue.truncate(keep);
        if self.queue.is_empty() {
            self.ready_floor = u64::MAX;
            self.release_pending = false;
        }
        // `ready_floor` stays a valid lower bound after removals (the
        // true floor can only rise), so no recompute is needed.
        squashed
    }

    /// Clears the whole queue (process teardown).
    pub fn flush(&mut self) {
        self.queue.clear();
        self.bndstr_live = 0;
        self.ready_floor = u64::MAX;
        self.release_pending = false;
    }

    /// Advances every ready entry by one FSM step and retires
    /// completed head entries. Events are appended to `events` (an
    /// out-buffer so the per-cycle hot path does not allocate).
    pub fn tick<M: BoundsMemory + ?Sized>(
        &mut self,
        now: u64,
        hbt: &mut HashedBoundsTable,
        mem: &mut M,
        events: &mut Vec<McuEvent>,
    ) {
        // O(1) idle check: nothing can step before `ready_floor`, no
        // commit has armed a release since the last pass, and the head
        // has no unreported failure. Most cycles (entries waiting on
        // memory latencies or ROB commits) the tick ends right here
        // without touching the queue.
        let head_fail = self
            .queue
            .first()
            .is_some_and(|e| e.state == McqState::Fail && !e.reported);
        if now < self.ready_floor && !self.release_pending && !head_fail {
            return;
        }

        let ways = hbt.ways();
        let mut floor = u64::MAX;
        for i in 0..self.queue.len() {
            let e = &self.queue[i];
            if e.is_terminal() {
                continue;
            }
            if e.ready_at > now {
                floor = floor.min(e.ready_at);
                continue;
            }
            match e.state {
                McqState::Init => self.step_init(i, now, hbt, mem, ways),
                McqState::BndChk => self.step_bndchk(i, now, hbt, mem, ways),
                McqState::OccChk => self.step_occchk(i, now, hbt, mem, ways),
                McqState::BndStr => self.step_bndstr(i, now, hbt, mem),
                McqState::Fail | McqState::Done => {}
            }
            let e = &self.queue[i];
            if !e.is_terminal() {
                floor = floor.min(e.ready_at);
            }
        }
        self.ready_floor = floor;
        self.release_pending = false;

        // A failed entry at the head raises its exception (once).
        if let Some(head) = self.queue.first_mut() {
            if head.state == McqState::Fail && !head.reported {
                head.reported = true;
                self.stats.exceptions += 1;
                let exception = match head.op {
                    McuOp::Access { pointer, is_store } => {
                        AosException::BoundsCheckFailure { pointer, is_store }
                    }
                    McuOp::BndStr { pointer, size } if head.malformed => {
                        AosException::MalformedBounds { pointer, size }
                    }
                    McuOp::BndStr { .. } => AosException::BoundsStoreFailure { pac: head.pac },
                    McuOp::BndClr { pointer } => AosException::BoundsClearFailure { pointer },
                };
                events.push(McuEvent::Exception {
                    id: head.id,
                    exception,
                });
            }
        }

        // Deallocate completed entries. Done entries are excluded from
        // store-load replay by construction, so they may leave the
        // queue out of order; bndstr/bndclr additionally wait for ROB
        // commit because their table store is sent post-commit (and
        // commits arrive in program order, so bounds stores stay
        // ordered). One in-place compaction pass: a `Vec::remove` per
        // released entry would memmove the tail once per release.
        let len = self.queue.len();
        let mut write = 0;
        for read in 0..len {
            let e = &self.queue[read];
            let releasable = e.state == McqState::Done
                && (matches!(e.op, McuOp::Access { .. }) || e.committed);
            if !releasable {
                if write != read {
                    self.queue.swap(write, read);
                }
                write += 1;
                continue;
            }
            let (id, op, addr, pac, ahc, hit, count, forwarded, is_signed) = {
                let e = &self.queue[read];
                (
                    e.id,
                    e.op,
                    e.addr,
                    e.pac,
                    e.ahc,
                    e.hit,
                    e.count,
                    e.forwarded,
                    e.is_signed_access(),
                )
            };
            if matches!(op, McuOp::BndStr { .. }) {
                self.bndstr_live -= 1;
            }
            let ways_touched = if is_signed && !forwarded { count + 1 } else { 0 };
            if self.config.use_bwb && !forwarded {
                if let (Some(ahc), Some((way, _))) = (ahc, hit) {
                    if matches!(op, McuOp::Access { .. }) {
                        self.bwb.update(bwb_tag(addr, ahc, pac), way);
                    }
                }
            }
            self.stats.retired += 1;
            if self.emit_retired {
                events.push(McuEvent::Retired { id, ways_touched });
            }
        }
        self.queue.truncate(write);
    }

    fn step_init<M: BoundsMemory + ?Sized>(
        &mut self,
        i: usize,
        now: u64,
        hbt: &HashedBoundsTable,
        mem: &mut M,
        ways: u32,
    ) {
        match self.queue[i].op {
            McuOp::Access { .. } => {
                if self.queue[i].ahc.is_none() {
                    // Unsigned: no bounds checking (Fig. 6).
                    self.queue[i].state = McqState::Done;
                    return;
                }
                let (pac, addr) = (self.queue[i].pac, self.queue[i].addr);
                // Store→load bounds forwarding from an older in-flight
                // bndstr with the same PAC whose bounds cover us.
                if self.config.bounds_forwarding && self.bndstr_live > 0 {
                    let forwarded = self.queue[..i].iter().any(|e| {
                        matches!(e.op, McuOp::BndStr { .. })
                            && e.pac == pac
                            && e.state != McqState::Fail
                            && e.bnd_data.check(addr)
                    });
                    if forwarded {
                        self.stats.forwards += 1;
                        let e = &mut self.queue[i];
                        e.forwarded = true;
                        e.state = McqState::Done;
                        return;
                    }
                }
                let start_way = if self.config.use_bwb {
                    let ahc = self.queue[i].ahc.expect("signed access has an AHC");
                    self.bwb
                        .lookup(bwb_tag(addr, ahc, pac))
                        .map(|w| w % ways)
                        .unwrap_or(0)
                } else {
                    0
                };
                let e = &mut self.queue[i];
                e.start_way = start_way;
                e.way = start_way;
                e.count = 0;
                e.state = McqState::BndChk;
                let line = hbt.line_address(pac, start_way);
                self.stats.line_loads += 1;
                self.queue[i].ready_at = now + 1 + mem.load_line(line);
            }
            McuOp::BndStr { .. } | McuOp::BndClr { .. } => {
                let pac = self.queue[i].pac;
                let e = &mut self.queue[i];
                e.way = 0;
                e.count = 0;
                e.state = McqState::OccChk;
                let line = hbt.line_address(pac, 0);
                self.stats.line_loads += 1;
                self.queue[i].ready_at = now + 1 + mem.load_line(line);
            }
        }
    }

    fn step_bndchk<M: BoundsMemory + ?Sized>(
        &mut self,
        i: usize,
        now: u64,
        hbt: &HashedBoundsTable,
        mem: &mut M,
        ways: u32,
    ) {
        let (pac, addr, way) = (self.queue[i].pac, self.queue[i].addr, self.queue[i].way);
        let spw = hbt.slots_per_way() as usize;
        let line = hbt.peek_way(pac, way);
        if let Some(slot) = line[..spw].iter().position(|b| b.check(addr)) {
            let e = &mut self.queue[i];
            e.hit = Some((way, slot as u32));
            e.state = McqState::Done;
            self.stats.way_iterations += (e.count + 1) as u64;
            self.stats.completed_checks += 1;
            return;
        }
        // IncCnt: try the next way or fail.
        let count = self.queue[i].count + 1;
        if count == ways {
            self.queue[i].count = count - 1;
            self.queue[i].state = McqState::Fail;
            self.check_misses += 1;
            return;
        }
        let next_way = (self.queue[i].start_way + count) % ways;
        let e = &mut self.queue[i];
        e.count = count;
        e.way = next_way;
        let line_addr = hbt.line_address(pac, next_way);
        self.stats.line_loads += 1;
        self.queue[i].ready_at = now + 1 + mem.load_line(line_addr);
    }

    fn step_occchk<M: BoundsMemory + ?Sized>(
        &mut self,
        i: usize,
        now: u64,
        hbt: &HashedBoundsTable,
        mem: &mut M,
        ways: u32,
    ) {
        let (pac, addr, way) = (self.queue[i].pac, self.queue[i].addr, self.queue[i].way);
        let spw = hbt.slots_per_way() as usize;
        let line = hbt.peek_way(pac, way);
        let is_store = matches!(self.queue[i].op, McuOp::BndStr { .. });
        let slot = if is_store {
            line[..spw].iter().position(|b| b.is_empty())
        } else {
            line[..spw].iter().position(|b| b.matches_base(addr))
        };
        if let Some(slot) = slot {
            let e = &mut self.queue[i];
            e.hit = Some((way, slot as u32));
            e.state = McqState::BndStr;
            return;
        }
        let count = self.queue[i].count + 1;
        if count == ways {
            self.queue[i].count = count - 1;
            self.queue[i].state = McqState::Fail;
            return;
        }
        let e = &mut self.queue[i];
        e.count = count;
        e.way = count;
        let line_addr = hbt.line_address(pac, count);
        self.stats.line_loads += 1;
        self.queue[i].ready_at = now + 1 + mem.load_line(line_addr);
    }

    fn step_bndstr<M: BoundsMemory + ?Sized>(
        &mut self,
        i: usize,
        now: u64,
        hbt: &mut HashedBoundsTable,
        mem: &mut M,
    ) {
        if !self.queue[i].committed {
            // Bounds stores must preserve store ordering: wait for the
            // ROB to commit the instruction (paper §V-A1).
            return;
        }
        let (pac, way, slot) = {
            let e = &self.queue[i];
            let (way, slot) = e.hit.expect("BndStr state implies a found slot");
            (e.pac, way, slot)
        };
        let data = self.queue[i].bnd_data; // EMPTY for bndclr
        hbt.poke_slot(pac, way, slot, data);
        let line = hbt.line_address(pac, way);
        self.stats.line_stores += 1;
        let _occupancy = mem.store_line(line);
        self.queue[i].state = McqState::Done;
        self.queue[i].ready_at = now + 1;

        // Store-load replay (§V-E): newer entries with the same PAC
        // restart unless already Done — including younger bndstr
        // entries whose occupancy result may have been invalidated by
        // this store.
        for j in (i + 1)..self.queue.len() {
            let e = &mut self.queue[j];
            if e.pac == pac
                && !e.malformed
                && matches!(
                    e.state,
                    McqState::BndChk | McqState::OccChk | McqState::BndStr | McqState::Fail
                )
            {
                e.state = McqState::Init;
                e.count = 0;
                e.way = 0;
                e.hit = None;
                e.reported = false;
                e.ready_at = now + 1;
                self.stats.replays += 1;
            }
        }
    }

    /// Runs one operation to completion with zero-latency memory — the
    /// functional always-on machine. The queue must be empty (the
    /// functional machine executes one instruction at a time).
    ///
    /// # Errors
    ///
    /// Returns the [`AosException`] if the operation faults.
    ///
    /// # Panics
    ///
    /// Panics if the queue is not empty or the FSM fails to converge
    /// (which would be a bug).
    pub fn run_sync(
        &mut self,
        op: McuOp,
        hbt: &mut HashedBoundsTable,
    ) -> Result<CheckOutcome, AosException> {
        assert!(self.queue.is_empty(), "run_sync requires an idle MCU");
        let skipped = matches!(op, McuOp::Access { pointer, .. }
            if Ahc::from_bits(self.layout.ahc(pointer)).is_none());
        let id = self.issue(op, 0).expect("empty queue has capacity");
        self.mark_committed(id);
        let mut mem = ZeroLatencyMemory;
        let mut events = std::mem::take(&mut self.sync_events);
        events.clear();
        // The loop below keys off the Retired event, so emission must
        // be on regardless of how the owner configured the unit.
        let saved_emit = self.emit_retired;
        self.emit_retired = true;
        let mut outcome = None;
        for now in 0..BOUNDS_PER_WAY as u64 * 4096 {
            self.tick(now, hbt, &mut mem, &mut events);
            if let Some(ev) = events.drain(..).next() {
                outcome = Some(match ev {
                    McuEvent::Exception { exception, .. } => {
                        self.queue.clear();
                        self.bndstr_live = 0;
                        self.ready_floor = u64::MAX;
                        self.release_pending = false;
                        Err(exception)
                    }
                    McuEvent::Retired { ways_touched, .. } => Ok(CheckOutcome {
                        skipped,
                        forwarded: false,
                        ways_touched,
                    }),
                });
                break;
            }
        }
        self.sync_events = events;
        self.emit_retired = saved_emit;
        outcome.expect("MCQ FSM did not converge")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_hbt::HbtConfig;

    fn setup() -> (MemoryCheckUnit, HashedBoundsTable, PointerLayout) {
        let layout = PointerLayout::default();
        let hbt = HashedBoundsTable::new(HbtConfig {
            pac_size: 11,
            initial_ways: 1,
            max_ways: 16,
            base_addr: 0x1000_0000,
            compressed: true,
        });
        (
            MemoryCheckUnit::new(McuConfig::default(), layout),
            hbt,
            layout,
        )
    }

    fn signed(layout: PointerLayout, addr: u64, pac: u64) -> u64 {
        layout.compose(addr, pac, 1)
    }

    #[test]
    fn squash_newer_removes_exactly_the_younger_entries() {
        let (mut mcu, mut hbt, layout) = setup();
        let ptr = signed(layout, 0x4000, 7);
        let survivor = mcu
            .issue(McuOp::BndStr { pointer: ptr, size: 64 }, 0)
            .unwrap();
        let young_access = mcu
            .issue(
                McuOp::Access {
                    pointer: ptr,
                    is_store: false,
                },
                0,
            )
            .unwrap();
        let young_bndstr = mcu
            .issue(
                McuOp::BndStr {
                    pointer: signed(layout, 0x8000, 9),
                    size: 64,
                },
                0,
            )
            .unwrap();
        assert!(young_access > survivor && young_bndstr > young_access);
        assert_eq!(mcu.len(), 3);

        assert_eq!(mcu.squash_newer(survivor), 2);
        assert_eq!(mcu.len(), 1);
        assert!(mcu.state_of(survivor).is_some());
        assert!(mcu.state_of(young_access).is_none());
        assert!(mcu.state_of(young_bndstr).is_none());

        // The surviving bndstr still completes and retires cleanly —
        // bndstr_live accounting survived the squash.
        mcu.mark_committed(survivor);
        let mut events = Vec::new();
        let mut mem = ZeroLatencyMemory;
        for now in 1..64 {
            mcu.tick(now, &mut hbt, &mut mem, &mut events);
            if mcu.is_empty() {
                break;
            }
        }
        assert!(mcu.is_empty(), "survivor must drain: {events:?}");
        assert_eq!(mcu.squash_newer(survivor), 0, "empty queue squashes nothing");
    }

    #[test]
    fn unsigned_access_skips_checking() {
        let (mut mcu, mut hbt, _) = setup();
        let out = mcu
            .run_sync(
                McuOp::Access {
                    pointer: 0x9999,
                    is_store: false,
                },
                &mut hbt,
            )
            .unwrap();
        assert!(out.skipped);
        assert_eq!(out.ways_touched, 0);
        assert_eq!(mcu.stats().unsigned_accesses, 1);
    }

    #[test]
    fn store_then_check_succeeds() {
        let (mut mcu, mut hbt, layout) = setup();
        let ptr = signed(layout, 0x4000, 7);
        mcu.run_sync(McuOp::BndStr { pointer: ptr, size: 64 }, &mut hbt)
            .unwrap();
        let out = mcu
            .run_sync(
                McuOp::Access {
                    pointer: ptr + 32,
                    is_store: true,
                },
                &mut hbt,
            )
            .unwrap();
        assert!(!out.skipped);
        assert_eq!(out.ways_touched, 1);
    }

    #[test]
    fn out_of_bounds_access_faults() {
        let (mut mcu, mut hbt, layout) = setup();
        let ptr = signed(layout, 0x4000, 7);
        mcu.run_sync(McuOp::BndStr { pointer: ptr, size: 64 }, &mut hbt)
            .unwrap();
        let err = mcu
            .run_sync(
                McuOp::Access {
                    pointer: ptr + 64,
                    is_store: false,
                },
                &mut hbt,
            )
            .unwrap_err();
        assert_eq!(
            err,
            AosException::BoundsCheckFailure {
                pointer: ptr + 64,
                is_store: false
            }
        );
        assert!(mcu.is_empty(), "failed entry cleaned up in sync mode");
    }

    #[test]
    fn malformed_bndstr_raises_typed_exception() {
        let (mut mcu, mut hbt, layout) = setup();
        // A misaligned base: no real malloc produces this, so it can
        // only arrive via a crafted/tampered trace. It must surface as
        // a typed exception, not a panic, and not touch the table.
        let ptr = signed(layout, 0x4008, 7);
        let err = mcu
            .run_sync(McuOp::BndStr { pointer: ptr, size: 64 }, &mut hbt)
            .unwrap_err();
        assert_eq!(
            err,
            AosException::MalformedBounds {
                pointer: ptr,
                size: 64
            }
        );
        assert!(err.to_string().contains("malformed bounds"));
        assert!(mcu.is_empty(), "failed entry cleaned up in sync mode");
        assert_eq!(hbt.row_occupancy(7), 0, "table untouched");

        // Zero and oversized sizes take the same path.
        let ptr = signed(layout, 0x4000, 7);
        for bad_size in [0, 1 << 33] {
            let err = mcu
                .run_sync(
                    McuOp::BndStr {
                        pointer: ptr,
                        size: bad_size,
                    },
                    &mut hbt,
                )
                .unwrap_err();
            assert!(matches!(err, AosException::MalformedBounds { .. }), "{err}");
        }
    }

    #[test]
    fn malformed_bndstr_stays_failed_across_retry() {
        let (mut mcu, _hbt, layout) = setup();
        let ptr = signed(layout, 0x4008, 7);
        let id = mcu
            .issue(McuOp::BndStr { pointer: ptr, size: 64 }, 0)
            .unwrap();
        mcu.mark_committed(id);
        assert_eq!(mcu.state_of(id), Some(McqState::Fail));
        // An OS that mistakes this for a row overflow and retries gets
        // the same failure back instead of a corrupted table.
        mcu.retry(id);
        assert_eq!(mcu.state_of(id), Some(McqState::Fail));
        mcu.drop_failed(id);
        assert!(mcu.is_empty());
    }

    #[test]
    fn use_after_clear_faults() {
        let (mut mcu, mut hbt, layout) = setup();
        let ptr = signed(layout, 0x4000, 7);
        mcu.run_sync(McuOp::BndStr { pointer: ptr, size: 64 }, &mut hbt)
            .unwrap();
        mcu.run_sync(McuOp::BndClr { pointer: ptr }, &mut hbt)
            .unwrap();
        assert!(mcu
            .run_sync(
                McuOp::Access {
                    pointer: ptr,
                    is_store: false
                },
                &mut hbt
            )
            .is_err());
    }

    #[test]
    fn double_clear_faults() {
        let (mut mcu, mut hbt, layout) = setup();
        let ptr = signed(layout, 0x4000, 7);
        mcu.run_sync(McuOp::BndStr { pointer: ptr, size: 64 }, &mut hbt)
            .unwrap();
        mcu.run_sync(McuOp::BndClr { pointer: ptr }, &mut hbt)
            .unwrap();
        let err = mcu
            .run_sync(McuOp::BndClr { pointer: ptr }, &mut hbt)
            .unwrap_err();
        assert_eq!(err, AosException::BoundsClearFailure { pointer: ptr });
    }

    #[test]
    fn row_overflow_raises_store_failure() {
        let (mut mcu, mut hbt, layout) = setup();
        for i in 0..8u64 {
            let ptr = signed(layout, 0x4000 + i * 0x100, 7);
            mcu.run_sync(McuOp::BndStr { pointer: ptr, size: 64 }, &mut hbt)
                .unwrap();
        }
        let ptr = signed(layout, 0x9000, 7);
        let err = mcu
            .run_sync(McuOp::BndStr { pointer: ptr, size: 64 }, &mut hbt)
            .unwrap_err();
        assert_eq!(err, AosException::BoundsStoreFailure { pac: 7 });
        // OS resizes; retrying the operation then succeeds.
        hbt.begin_resize();
        mcu.run_sync(McuOp::BndStr { pointer: ptr, size: 64 }, &mut hbt)
            .unwrap();
    }

    #[test]
    fn bwb_hint_cuts_second_lookup_to_one_way() {
        let (mut mcu, mut hbt, layout) = setup();
        hbt.begin_resize();
        hbt.finish_migration(); // 2 ways
        // Fill way 0 so the target lands in way 1.
        for i in 0..8u64 {
            let ptr = signed(layout, 0x4000 + i * 0x100, 7);
            mcu.run_sync(McuOp::BndStr { pointer: ptr, size: 64 }, &mut hbt)
                .unwrap();
        }
        let target = signed(layout, 0x9000, 7);
        mcu.run_sync(McuOp::BndStr { pointer: target, size: 64 }, &mut hbt)
            .unwrap();
        let first = mcu
            .run_sync(
                McuOp::Access {
                    pointer: target,
                    is_store: false,
                },
                &mut hbt,
            )
            .unwrap();
        assert_eq!(first.ways_touched, 2, "cold lookup iterates");
        let second = mcu
            .run_sync(
                McuOp::Access {
                    pointer: target + 8,
                    is_store: false,
                },
                &mut hbt,
            )
            .unwrap();
        assert_eq!(second.ways_touched, 1, "BWB hint goes straight to way 1");
        assert!(mcu.bwb_stats().hits >= 1);
    }

    #[test]
    fn bwb_disabled_always_scans_from_way_zero() {
        let layout = PointerLayout::default();
        let mut hbt = HashedBoundsTable::new(HbtConfig {
            pac_size: 11,
            initial_ways: 2,
            max_ways: 16,
            base_addr: 0x1000_0000,
            compressed: true,
        });
        let mut mcu = MemoryCheckUnit::new(
            McuConfig {
                use_bwb: false,
                ..McuConfig::default()
            },
            layout,
        );
        for i in 0..8u64 {
            let ptr = signed(layout, 0x4000 + i * 0x100, 7);
            mcu.run_sync(McuOp::BndStr { pointer: ptr, size: 64 }, &mut hbt)
                .unwrap();
        }
        let target = signed(layout, 0x9000, 7);
        mcu.run_sync(McuOp::BndStr { pointer: target, size: 64 }, &mut hbt)
            .unwrap();
        for _ in 0..2 {
            let out = mcu
                .run_sync(
                    McuOp::Access {
                        pointer: target,
                        is_store: false,
                    },
                    &mut hbt,
                )
                .unwrap();
            assert_eq!(out.ways_touched, 2, "no hint without the BWB");
        }
        assert_eq!(mcu.bwb_stats().hits + mcu.bwb_stats().misses, 0);
    }

    #[test]
    fn timing_mode_gates_retirement_on_check() {
        // Drive tick() manually with a slow memory and verify the
        // access cannot retire before its check completes.
        struct SlowMemory;
        impl BoundsMemory for SlowMemory {
            fn load_line(&mut self, _addr: u64) -> u64 {
                10
            }
            fn store_line(&mut self, _addr: u64) -> u64 {
                10
            }
        }
        let (mut mcu, mut hbt, layout) = setup();
        let ptr = signed(layout, 0x4000, 3);
        // Prepare bounds functionally.
        mcu.run_sync(McuOp::BndStr { pointer: ptr, size: 64 }, &mut hbt)
            .unwrap();
        let id = mcu
            .issue(
                McuOp::Access {
                    pointer: ptr,
                    is_store: false,
                },
                0,
            )
            .unwrap();
        let mut events = Vec::new();
        let mut mem = SlowMemory;
        mcu.tick(0, &mut hbt, &mut mem, &mut events);
        assert!(!mcu.check_complete(id), "line load still in flight");
        for now in 1..=12 {
            mcu.tick(now, &mut hbt, &mut mem, &mut events);
        }
        assert!(mcu.check_complete(id), "check done after latency");
        mcu.mark_committed(id);
        mcu.tick(13, &mut hbt, &mut mem, &mut events);
        assert!(mcu.is_empty(), "entry retired after commit");
        assert!(events
            .iter()
            .any(|e| matches!(e, McuEvent::Retired { .. })));
    }

    #[test]
    fn store_load_replay_restarts_younger_checks() {
        struct SlowMemory;
        impl BoundsMemory for SlowMemory {
            fn load_line(&mut self, _addr: u64) -> u64 {
                5
            }
            fn store_line(&mut self, _addr: u64) -> u64 {
                5
            }
        }
        let layout = PointerLayout::default();
        let mut hbt = HashedBoundsTable::new(HbtConfig {
            pac_size: 11,
            initial_ways: 1,
            max_ways: 16,
            base_addr: 0x1000_0000,
            compressed: true,
        });
        let mut mcu = MemoryCheckUnit::new(
            McuConfig {
                bounds_forwarding: false, // force the replay path
                ..McuConfig::default()
            },
            layout,
        );
        let ptr = signed(layout, 0x4000, 3);
        let str_id = mcu.issue(McuOp::BndStr { pointer: ptr, size: 64 }, 0).unwrap();
        let chk_id = mcu
            .issue(
                McuOp::Access {
                    pointer: ptr + 8,
                    is_store: false,
                },
                0,
            )
            .unwrap();
        let mut events = Vec::new();
        let mut mem = SlowMemory;
        // Let both proceed; hold the bndstr back from commit so the
        // younger check finds an empty table and "fails" first.
        for now in 0..40 {
            mcu.tick(now, &mut hbt, &mut mem, &mut events);
        }
        assert_eq!(mcu.state_of(chk_id), Some(McqState::Fail));
        // Now the bndstr commits, sends its store, and replays the
        // younger check, which then succeeds.
        mcu.mark_committed(str_id);
        mcu.mark_committed(chk_id);
        for now in 40..120 {
            mcu.tick(now, &mut hbt, &mut mem, &mut events);
        }
        assert!(mcu.is_empty(), "both retired");
        assert!(mcu.stats().replays >= 1);
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, McuEvent::Exception { .. })),
            "replay rescued the check before it reached the head"
        );
    }

    #[test]
    fn bounds_forwarding_satisfies_younger_check_immediately() {
        struct SlowMemory;
        impl BoundsMemory for SlowMemory {
            fn load_line(&mut self, _addr: u64) -> u64 {
                50
            }
            fn store_line(&mut self, _addr: u64) -> u64 {
                50
            }
        }
        let (mut mcu, mut hbt, layout) = setup();
        let ptr = signed(layout, 0x4000, 3);
        let _str_id = mcu.issue(McuOp::BndStr { pointer: ptr, size: 64 }, 0).unwrap();
        let chk_id = mcu
            .issue(
                McuOp::Access {
                    pointer: ptr + 8,
                    is_store: false,
                },
                0,
            )
            .unwrap();
        let mut events = Vec::new();
        let mut mem = SlowMemory;
        mcu.tick(0, &mut hbt, &mut mem, &mut events);
        // The forwarded check completes (and may even deallocate)
        // without waiting for the table.
        assert!(mcu.check_complete(chk_id));
        assert_eq!(mcu.stats().forwards, 1);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let layout = PointerLayout::default();
        let mut mcu = MemoryCheckUnit::new(
            McuConfig {
                mcq_entries: 2,
                ..McuConfig::default()
            },
            layout,
        );
        assert!(mcu
            .issue(McuOp::Access { pointer: 1, is_store: false }, 0)
            .is_ok());
        assert!(mcu
            .issue(McuOp::Access { pointer: 2, is_store: false }, 0)
            .is_ok());
        assert!(!mcu.has_capacity());
        let rejected = mcu.issue(McuOp::Access { pointer: 3, is_store: false }, 0);
        assert!(rejected.is_err());
        assert_eq!(mcu.len(), 2);
    }

    #[test]
    fn stats_accumulate_across_ops() {
        let (mut mcu, mut hbt, layout) = setup();
        let ptr = signed(layout, 0x4000, 3);
        mcu.run_sync(McuOp::BndStr { pointer: ptr, size: 64 }, &mut hbt)
            .unwrap();
        mcu.run_sync(McuOp::Access { pointer: ptr, is_store: false }, &mut hbt)
            .unwrap();
        mcu.run_sync(McuOp::Access { pointer: 0x77, is_store: false }, &mut hbt)
            .unwrap();
        mcu.run_sync(McuOp::BndClr { pointer: ptr }, &mut hbt)
            .unwrap();
        let s = mcu.stats();
        assert_eq!(s.issued, 4);
        assert_eq!(s.bndstrs, 1);
        assert_eq!(s.bndclrs, 1);
        assert_eq!(s.signed_accesses, 1);
        assert_eq!(s.unsigned_accesses, 1);
        assert_eq!(s.completed_checks, 1);
        assert!((s.accesses_per_check() - 1.0).abs() < 1e-12);
        assert_eq!(McuStats::default().accesses_per_check(), 0.0);
    }

    #[test]
    fn exception_display_strings() {
        let e = AosException::BoundsCheckFailure {
            pointer: 0x10,
            is_store: true,
        };
        assert!(e.to_string().contains("store"));
        assert!(AosException::BoundsStoreFailure { pac: 1 }
            .to_string()
            .contains("full"));
        assert!(AosException::BoundsClearFailure { pointer: 2 }
            .to_string()
            .contains("clear"));
    }
}
