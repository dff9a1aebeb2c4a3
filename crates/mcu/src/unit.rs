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
    /// Whether store→load bounds forwarding is enabled (§V-F2).
    pub bounds_forwarding: bool,
}

impl Default for McuConfig {
    fn default() -> Self {
        Self {
            mcq_entries: 48,
            bwb_entries: 64,
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

/// The one event [`MemoryCheckUnit::tick`] reports: a failed entry
/// reached the MCQ head, and the OS must handle it (then
/// [`MemoryCheckUnit::retry`] or [`MemoryCheckUnit::drop_failed`] the
/// entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McuEvent {
    /// MCQ entry id.
    pub id: u64,
    /// What went wrong.
    pub exception: AosException,
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
    /// The earliest `ready_at` in the queue, exactly (`u64::MAX` when
    /// every entry is parked or the queue is empty). Every entry has
    /// one wake source, its `ready_at`, so while `now` is below this
    /// floor (and the head holds no unreported failure)
    /// [`tick`](Self::tick) returns without touching the queue, and
    /// [`next_wake`](Self::next_wake) reads it in O(1). The step pass
    /// recomputes it; `issue`, a ROB commit and `retry` lower it, and
    /// the removals recompute it.
    ready_floor: u64,
    bwb: BoundsWayBuffer,
    next_id: u64,
    stats: McuStats,
    /// Bounds checks that found no covering record in any way — the
    /// miss verdicts [`record_telemetry`](Self::record_telemetry)
    /// projects beside `completed_checks`, the hits. Kept outside
    /// [`McuStats`]: a field there would change its `Debug` text, which
    /// the sim-stats golden digests.
    check_misses: u64,
    /// `bndclr`s that found no matching record, counted when their
    /// [`AosException::BoundsClearFailure`] is raised at the queue head
    /// (so a clear that a replay rescues is never counted). Kept
    /// outside [`McuStats`] for the same reason as `check_misses`.
    clear_failures: u64,
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
            bwb: BoundsWayBuffer::new(config.bwb_entries),
            next_id: 0,
            stats: McuStats::default(),
            check_misses: 0,
            clear_failures: 0,
        }
    }

    /// Projects the unit's stats and its BWB's into a telemetry
    /// snapshot: the five `mcq_*` counters, the four `bwb_*` counters
    /// and `mcq_peak_occupancy`.
    ///
    /// The MCU runs every bounds check and `bndclr` against the table,
    /// so it also projects the HBT counters of those operations: each
    /// check that walked the table is one lookup, a hit when it
    /// completed and a miss when every way came up empty; each
    /// `bndclr` that raised a clear failure is one `hbt_failed_clears`.
    pub fn record_telemetry(&self, snapshot: &mut aos_util::TelemetrySnapshot) {
        use aos_util::Counter;
        let (s, bwb) = (&self.stats, self.bwb.stats());
        let hits = s.completed_checks;
        snapshot.add(Counter::HbtLookups, hits + self.check_misses);
        snapshot.add(Counter::HbtHits, hits);
        snapshot.add(Counter::HbtMisses, self.check_misses);
        snapshot.add(Counter::HbtFailedClears, self.clear_failures);
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
        // A malformed entry is born failed, so it is parked at once.
        let ready_at = if malformed { u64::MAX } else { now };
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
            ready_at,
            reported: false,
            forwarded: false,
            malformed,
        });
        self.ready_floor = self.ready_floor.min(ready_at);
        Ok(id)
    }

    /// Index of entry `id` in the queue. Ids are handed out in issue
    /// order and every removal preserves relative order, so the queue
    /// is always sorted by id, and the scan stops at the first id not
    /// below `id`. The ROB commits oldest first, and only committed
    /// `bndstr`/`bndclr` entries awaiting their next-tick store can be
    /// older than the head's entry, so a commit lookup ends within the
    /// first few entries, found or not.
    #[inline]
    fn index_of(&self, id: u64) -> Option<usize> {
        let i = self.queue.iter().position(|e| e.id >= id)?;
        (self.queue[i].id == id).then_some(i)
    }

    /// Marks an entry as committed whatever its state. The ROB commits
    /// only through [`commit_if_retirable`](Self::commit_if_retirable);
    /// this sets up the state of an entry the ROB committed before a
    /// replay or a retry restarted its FSM, which the FSM conformance
    /// tests build directly.
    pub fn mark_committed(&mut self, id: u64) {
        if let Some(i) = self.index_of(id) {
            self.commit(i);
        }
    }

    /// Records the ROB commit of entry `i`. A `BndStr` entry parked on
    /// this commit becomes due at once, so the next tick sends its
    /// table store. An entry committed before it reached `BndStr` (a
    /// replayed one) keeps its `ready_at` and does not park there.
    #[inline]
    fn commit(&mut self, i: usize) {
        let e = &mut self.queue[i];
        if e.state == McqState::BndStr && !e.committed {
            e.ready_at = 0;
            self.ready_floor = 0;
        }
        e.committed = true;
    }

    /// Current FSM state of an entry, if still queued.
    pub fn state_of(&self, id: u64) -> Option<McqState> {
        self.index_of(id).map(|i| self.queue[i].state)
    }

    /// The ROB's retire step for entry `id`: returns whether the
    /// instruction may retire, and if so records its commit. Checks
    /// must be `Done` (delayed retirement, §III-C4), while
    /// `bndstr`/`bndclr` only need their occupancy check finished —
    /// their table store is sent *after* commit to preserve store
    /// ordering. An entry no longer in the queue has retired already.
    pub fn commit_if_retirable(&mut self, id: u64) -> bool {
        let Some(i) = self.index_of(id) else {
            return true;
        };
        let e = &self.queue[i];
        let retirable = match e.op {
            McuOp::Access { .. } => e.state == McqState::Done,
            McuOp::BndStr { .. } | McuOp::BndClr { .. } => {
                matches!(e.state, McqState::BndStr | McqState::Done)
            }
        };
        if retirable {
            self.commit(i);
        }
        retirable
    }

    /// The next cycle at which [`MemoryCheckUnit::tick`] can possibly
    /// make progress, or `u64::MAX` when every queued entry is waiting
    /// on an external stimulus (a ROB commit or an OS retry/drop). The
    /// timing simulator uses this to fast-forward over stall cycles
    /// without stepping the FSM through each one. O(1): an unreported
    /// failure at the head is raised next tick, and otherwise
    /// `ready_floor` is the exact earliest due entry.
    pub fn next_wake(&self, now: u64) -> u64 {
        if self.head_failure_pending() {
            now + 1
        } else if self.ready_floor == u64::MAX {
            u64::MAX
        } else {
            self.ready_floor.max(now + 1)
        }
    }

    /// Whether the head entry has failed and not yet raised its
    /// exception — the one piece of work with no `ready_at`.
    #[inline]
    fn head_failure_pending(&self) -> bool {
        self.queue
            .first()
            .is_some_and(|e| e.state == McqState::Fail && !e.reported)
    }

    /// Recomputes `ready_floor` after entries leave the queue out of
    /// band (a drop or a squash).
    fn refloor(&mut self) {
        self.ready_floor = self
            .queue
            .iter()
            .map(|e| e.ready_at)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Resets a failed (or in-flight) entry to retry from scratch —
    /// the OS path after resizing the table on a `bndstr` failure.
    pub fn retry(&mut self, id: u64) {
        if let Some(i) = self.index_of(id) {
            let e = &mut self.queue[i];
            e.count = 0;
            e.way = 0;
            e.hit = None;
            e.reported = false;
            // A malformed bndstr can never succeed; it stays failed
            // (and parked) no matter how often the OS retries.
            if !e.malformed {
                e.state = McqState::Init;
                e.ready_at = 0;
                self.ready_floor = 0;
            }
        }
    }

    /// Removes a failed head entry (OS chose to terminate/skip).
    pub fn drop_failed(&mut self, id: u64) {
        if let Some(i) = self.index_of(id) {
            let e = self.queue.remove(i);
            if matches!(e.op, McuOp::BndStr { .. }) {
                self.bndstr_live -= 1;
            }
            self.refloor();
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
        self.refloor();
        squashed
    }

    /// Clears the whole queue (process teardown).
    pub fn flush(&mut self) {
        self.queue.clear();
        self.bndstr_live = 0;
        self.ready_floor = u64::MAX;
    }

    /// Advances every due entry by one FSM step and retires the
    /// entries that completed. A failed entry at the head appends its
    /// exception to `events` (an out-buffer so the per-cycle hot path
    /// does not allocate), at most one per tick.
    pub fn tick<M: BoundsMemory + ?Sized>(
        &mut self,
        now: u64,
        hbt: &mut HashedBoundsTable,
        mem: &mut M,
        events: &mut Vec<McuEvent>,
    ) {
        // O(1) idle check: no entry is due before `ready_floor`, and
        // the only work without a `ready_at` is raising a failure at
        // the head. Most cycles (entries waiting on memory latencies or
        // parked on ROB commits) the tick ends right here.
        if now < self.ready_floor && !self.head_failure_pending() {
            return;
        }
        debug_assert!(
            self.queue.iter().all(|e| e.state != McqState::Done),
            "a Done entry leaves the queue in the tick that completes it"
        );

        let ways = hbt.ways();
        let mut floor = u64::MAX;
        let mut completed = false;
        for i in 0..self.queue.len() {
            // Failed and parked entries hold `ready_at == u64::MAX`,
            // so only Init, BndChk, OccChk and committed BndStr entries
            // get past this check.
            let e = &self.queue[i];
            if e.ready_at > now {
                floor = floor.min(e.ready_at);
                continue;
            }
            match e.state {
                McqState::Init => self.step_init(i, now, hbt, mem, ways),
                McqState::BndChk => self.step_bndchk(i, now, hbt, mem, ways),
                McqState::OccChk => self.step_occchk(i, now, hbt, mem, ways),
                McqState::BndStr => self.step_bndstr(i, now, hbt, mem),
                McqState::Fail | McqState::Done => unreachable!("terminal entries are never due"),
            }
            let e = &self.queue[i];
            if e.state == McqState::Done {
                completed = true;
            } else {
                floor = floor.min(e.ready_at);
            }
        }
        self.ready_floor = floor;

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
                    McuOp::BndClr { pointer } => {
                        self.clear_failures += 1;
                        AosException::BoundsClearFailure { pointer }
                    }
                };
                events.push(McuEvent {
                    id: head.id,
                    exception,
                });
            }
        }

        // Deallocate the entries that completed this tick. Done entries
        // are excluded from store-load replay by construction, so they
        // may leave the queue out of order; a bndstr/bndclr only
        // reaches Done after its ROB commit, since its table store is
        // sent post-commit (and commits arrive in program order, so
        // bounds stores stay ordered). One in-place compaction pass
        // copies each kept entry down once; a `Vec::remove` per
        // released entry would memmove the tail once per release.
        if !completed {
            return;
        }
        let mut write = 0;
        for read in 0..self.queue.len() {
            if self.queue[read].state != McqState::Done {
                if write != read {
                    self.queue[write] = self.queue[read];
                }
                write += 1;
                continue;
            }
            let e = self.queue[read];
            debug_assert!(matches!(e.op, McuOp::Access { .. }) || e.committed);
            if matches!(e.op, McuOp::BndStr { .. }) {
                self.bndstr_live -= 1;
            }
            if !e.forwarded && matches!(e.op, McuOp::Access { .. }) {
                if let (Some(ahc), Some((way, _))) = (e.ahc, e.hit) {
                    self.bwb.update(bwb_tag(e.addr, ahc, e.pac), way);
                }
            }
            self.stats.retired += 1;
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
                let ahc = self.queue[i].ahc.expect("signed access has an AHC");
                let start_way = self
                    .bwb
                    .lookup(bwb_tag(addr, ahc, pac))
                    .map(|w| w % ways)
                    .unwrap_or(0);
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
            let e = &mut self.queue[i];
            e.count = count - 1;
            e.state = McqState::Fail;
            e.ready_at = u64::MAX;
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
            // Bounds stores must preserve store ordering: park until
            // the ROB commits the instruction (paper §V-A1). An entry
            // committed already (replayed after its commit) stays due.
            if !e.committed {
                e.ready_at = u64::MAX;
            }
            return;
        }
        let count = self.queue[i].count + 1;
        if count == ways {
            let e = &mut self.queue[i];
            e.count = count - 1;
            e.state = McqState::Fail;
            e.ready_at = u64::MAX;
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
        debug_assert!(self.queue[i].committed, "a parked entry is never due");
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
    /// functional always-on machine. The unit is driven as the stage
    /// core drives it: the op is issued, then each cycle the ROB tries
    /// to commit it ([`commit_if_retirable`](Self::commit_if_retirable))
    /// and the unit ticks, until the queue is empty. The queue must be
    /// empty to start (the functional machine executes one instruction
    /// at a time).
    ///
    /// # Errors
    ///
    /// Returns the [`AosException`] if the operation faults; the failed
    /// entry is flushed.
    ///
    /// # Panics
    ///
    /// Panics if the queue is not empty or the FSM fails to converge
    /// (which would be a bug).
    pub fn run_sync(&mut self, op: McuOp, hbt: &mut HashedBoundsTable) -> Result<(), AosException> {
        assert!(self.queue.is_empty(), "run_sync requires an idle MCU");
        let id = self.issue(op, 0).expect("empty queue has capacity");
        let mut events = Vec::new();
        for now in 0..BOUNDS_PER_WAY as u64 * 4096 {
            self.commit_if_retirable(id);
            self.tick(now, hbt, &mut ZeroLatencyMemory, &mut events);
            if let Some(event) = events.pop() {
                self.flush();
                return Err(event.exception);
            }
            if self.queue.is_empty() {
                return Ok(());
            }
        }
        panic!("MCQ FSM did not converge")
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
            .issue(
                McuOp::BndStr {
                    pointer: ptr,
                    size: 64,
                },
                0,
            )
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
        let mut events = Vec::new();
        let mut mem = ZeroLatencyMemory;
        for now in 1..64 {
            mcu.commit_if_retirable(survivor);
            mcu.tick(now, &mut hbt, &mut mem, &mut events);
            if mcu.is_empty() {
                break;
            }
        }
        assert!(mcu.is_empty(), "survivor must drain: {events:?}");
        assert_eq!(
            mcu.squash_newer(survivor),
            0,
            "empty queue squashes nothing"
        );
    }

    #[test]
    fn unsigned_access_skips_checking() {
        let (mut mcu, mut hbt, _) = setup();
        mcu.run_sync(
            McuOp::Access {
                pointer: 0x9999,
                is_store: false,
            },
            &mut hbt,
        )
        .unwrap();
        assert_eq!(mcu.stats().unsigned_accesses, 1);
        assert_eq!(mcu.stats().line_loads, 0);
        assert_eq!(mcu.stats().way_iterations, 0);
    }

    #[test]
    fn store_then_check_succeeds() {
        let (mut mcu, mut hbt, layout) = setup();
        let ptr = signed(layout, 0x4000, 7);
        mcu.run_sync(
            McuOp::BndStr {
                pointer: ptr,
                size: 64,
            },
            &mut hbt,
        )
        .unwrap();
        mcu.run_sync(
            McuOp::Access {
                pointer: ptr + 32,
                is_store: true,
            },
            &mut hbt,
        )
        .unwrap();
        assert_eq!(mcu.stats().signed_accesses, 1);
        assert_eq!(mcu.stats().way_iterations, 1);
    }

    #[test]
    fn out_of_bounds_access_faults() {
        let (mut mcu, mut hbt, layout) = setup();
        let ptr = signed(layout, 0x4000, 7);
        mcu.run_sync(
            McuOp::BndStr {
                pointer: ptr,
                size: 64,
            },
            &mut hbt,
        )
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
            .run_sync(
                McuOp::BndStr {
                    pointer: ptr,
                    size: 64,
                },
                &mut hbt,
            )
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
            .issue(
                McuOp::BndStr {
                    pointer: ptr,
                    size: 64,
                },
                0,
            )
            .unwrap();
        assert_eq!(mcu.state_of(id), Some(McqState::Fail));
        assert!(!mcu.commit_if_retirable(id), "a failed entry never retires");
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
        mcu.run_sync(
            McuOp::BndStr {
                pointer: ptr,
                size: 64,
            },
            &mut hbt,
        )
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
        mcu.run_sync(
            McuOp::BndStr {
                pointer: ptr,
                size: 64,
            },
            &mut hbt,
        )
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
            mcu.run_sync(
                McuOp::BndStr {
                    pointer: ptr,
                    size: 64,
                },
                &mut hbt,
            )
            .unwrap();
        }
        let ptr = signed(layout, 0x9000, 7);
        let err = mcu
            .run_sync(
                McuOp::BndStr {
                    pointer: ptr,
                    size: 64,
                },
                &mut hbt,
            )
            .unwrap_err();
        assert_eq!(err, AosException::BoundsStoreFailure { pac: 7 });
        // OS resizes; retrying the operation then succeeds.
        hbt.begin_resize();
        mcu.run_sync(
            McuOp::BndStr {
                pointer: ptr,
                size: 64,
            },
            &mut hbt,
        )
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
            mcu.run_sync(
                McuOp::BndStr {
                    pointer: ptr,
                    size: 64,
                },
                &mut hbt,
            )
            .unwrap();
        }
        let target = signed(layout, 0x9000, 7);
        mcu.run_sync(
            McuOp::BndStr {
                pointer: target,
                size: 64,
            },
            &mut hbt,
        )
        .unwrap();
        mcu.run_sync(
            McuOp::Access {
                pointer: target,
                is_store: false,
            },
            &mut hbt,
        )
        .unwrap();
        assert_eq!(mcu.stats().way_iterations, 2, "cold lookup iterates");
        mcu.run_sync(
            McuOp::Access {
                pointer: target + 8,
                is_store: false,
            },
            &mut hbt,
        )
        .unwrap();
        assert_eq!(
            mcu.stats().way_iterations,
            3,
            "BWB hint goes straight to way 1"
        );
        assert!(mcu.bwb_stats().hits >= 1);
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
        mcu.run_sync(
            McuOp::BndStr {
                pointer: ptr,
                size: 64,
            },
            &mut hbt,
        )
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
        assert!(!mcu.commit_if_retirable(id), "line load still in flight");
        for now in 1..=12 {
            mcu.tick(now, &mut hbt, &mut mem, &mut events);
        }
        assert_eq!(mcu.state_of(id), None, "check done after latency");
        assert!(mcu.commit_if_retirable(id), "the ROB retires it");
        assert!(events.is_empty());
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
        let str_id = mcu
            .issue(
                McuOp::BndStr {
                    pointer: ptr,
                    size: 64,
                },
                0,
            )
            .unwrap();
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
        assert!(mcu.commit_if_retirable(str_id));
        for now in 40..120 {
            mcu.tick(now, &mut hbt, &mut mem, &mut events);
        }
        assert!(mcu.is_empty(), "both retired");
        assert_eq!(mcu.state_of(chk_id), None);
        assert!(mcu.stats().replays >= 1);
        assert!(
            events.is_empty(),
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
        let _str_id = mcu
            .issue(
                McuOp::BndStr {
                    pointer: ptr,
                    size: 64,
                },
                0,
            )
            .unwrap();
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
        // The forwarded check completes and deallocates without
        // waiting for the table.
        assert_eq!(mcu.state_of(chk_id), None);
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
            .issue(
                McuOp::Access {
                    pointer: 1,
                    is_store: false
                },
                0
            )
            .is_ok());
        assert!(mcu
            .issue(
                McuOp::Access {
                    pointer: 2,
                    is_store: false
                },
                0
            )
            .is_ok());
        assert!(!mcu.has_capacity());
        let rejected = mcu.issue(
            McuOp::Access {
                pointer: 3,
                is_store: false,
            },
            0,
        );
        assert!(rejected.is_err());
        assert_eq!(mcu.len(), 2);
    }

    #[test]
    fn stats_accumulate_across_ops() {
        let (mut mcu, mut hbt, layout) = setup();
        let ptr = signed(layout, 0x4000, 3);
        mcu.run_sync(
            McuOp::BndStr {
                pointer: ptr,
                size: 64,
            },
            &mut hbt,
        )
        .unwrap();
        mcu.run_sync(
            McuOp::Access {
                pointer: ptr,
                is_store: false,
            },
            &mut hbt,
        )
        .unwrap();
        mcu.run_sync(
            McuOp::Access {
                pointer: 0x77,
                is_store: false,
            },
            &mut hbt,
        )
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
    fn an_event_stays_32_bytes() {
        // The stage core's event buffer is the machine's one allocation
        // at the first table resize; its element size is part of the
        // allocation sequence the memory measurements compare.
        assert_eq!(std::mem::size_of::<McuEvent>(), 32);
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
