//! The multi-way, PAC-indexed bounds table with gradual resizing.

use crate::compress::CompressedBounds;

/// Number of 8-byte bounds records per 64-byte table way with the
/// Fig. 9 compression enabled.
pub const BOUNDS_PER_WAY: u32 = 8;

/// Configuration of a [`HashedBoundsTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbtConfig {
    /// PAC width in bits; the table has `2^pac_size` rows.
    pub pac_size: u32,
    /// Associativity the process starts with (Table IV uses 1).
    pub initial_ways: u32,
    /// Upper bound on associativity growth.
    pub max_ways: u32,
    /// Virtual base address of the table region (`BND_BASE`).
    pub base_addr: u64,
    /// Whether the Fig. 9 bounds compression is enabled. Without it a
    /// record occupies 16 bytes, so a 64-byte way holds only four —
    /// the "no compression" arm of the Fig. 15 ablation.
    pub compressed: bool,
}

impl Default for HbtConfig {
    /// The evaluation configuration: 16-bit PACs, initial 1-way
    /// (a 4 MiB table), growth capped at 128 ways, compression on.
    fn default() -> Self {
        Self {
            pac_size: 16,
            initial_ways: 1,
            max_ways: 128,
            base_addr: 0x3800_0000_0000,
            compressed: true,
        }
    }
}

/// Location of a bounds record inside the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HbtSlot {
    /// The way (0-based) within the PAC's row.
    pub way: u32,
    /// The 8-byte slot (0..8) within the way.
    pub slot: u32,
}

/// Result of a successful bounds check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HbtLookup {
    /// Where the matching bounds were found.
    pub slot: HbtSlot,
    /// Number of ways (64-byte lines) touched to find them — the
    /// `Count` the MCQ FSM accumulates.
    pub ways_touched: u32,
    /// The bounds that matched.
    pub bounds: CompressedBounds,
}

/// `bndstr` failure: the PAC's row has no empty slot in any way, so
/// the OS must resize the table (paper §IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreError {
    /// The row that overflowed.
    pub pac: u64,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bounds store failed: row {:#x} is full", self.pac)
    }
}

impl std::error::Error for StoreError {}

/// `bndclr` failure: no record with a matching lower bound exists,
/// which the OS reports as a double free or a free of an invalid
/// address (paper §IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClearError {
    /// The row searched.
    pub pac: u64,
    /// The address whose bounds were not found.
    pub addr: u64,
}

impl std::fmt::Display for ClearError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bounds clear failed: no bounds for {:#x} in row {:#x}",
            self.addr, self.pac
        )
    }
}

impl std::error::Error for ClearError {}

/// Cumulative operation counters, used by the Fig. 17 analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HbtStats {
    /// `bndstr` operations performed.
    pub stores: u64,
    /// `bndclr` operations performed.
    pub clears: u64,
    /// Bounds checks performed.
    pub checks: u64,
    /// Total 64-byte way lines loaded across all operations.
    pub way_accesses: u64,
    /// Checks that found no valid bounds (safety violations).
    pub failed_checks: u64,
    /// Clears that found nothing (double/invalid frees).
    pub failed_clears: u64,
    /// Gradual resizes performed.
    pub resizes: u64,
    /// Bounds records written: successful `store`s plus non-empty
    /// [`poke_slot`](HashedBoundsTable::poke_slot) writes (the MCU's
    /// post-commit `bndstr`).
    pub records_inserted: u64,
    /// Bounds records removed: successful `clear`s plus empty
    /// [`poke_slot`](HashedBoundsTable::poke_slot) writes (the MCU's
    /// post-commit `bndclr`).
    pub records_cleared: u64,
    /// Rows moved by the background migration engine.
    pub migration_rows: u64,
}

/// In-flight state of a gradual resize.
#[derive(Debug, Clone)]
struct Migration {
    old_data: Vec<u64>,
    old_ways: u32,
    old_base: u64,
    /// Rows below this index have been migrated to the new table.
    row_ptr: u64,
}

/// The per-process hashed bounds table.
///
/// See the [crate docs](crate) for the design overview. All operations
/// record the 64-byte line addresses they touch; the timing simulator
/// drains them via [`HashedBoundsTable::drain_accesses`] to model the
/// cache traffic of metadata accesses.
#[derive(Debug, Clone)]
pub struct HashedBoundsTable {
    config: HbtConfig,
    ways: u32,
    data: Vec<u64>,
    base: u64,
    generation: u32,
    migration: Option<Migration>,
    stats: HbtStats,
    accesses: Vec<u64>,
}

impl HashedBoundsTable {
    /// Creates an empty table at the configured initial associativity.
    ///
    /// # Panics
    ///
    /// Panics if `initial_ways`/`max_ways` are not powers of two, are
    /// ordered incorrectly, or `pac_size` is outside `11..=32`.
    pub fn new(config: HbtConfig) -> Self {
        assert!(
            (11..=32).contains(&config.pac_size),
            "pac_size must be 11..=32"
        );
        assert!(config.initial_ways.is_power_of_two(), "ways must be 2^k");
        assert!(config.max_ways.is_power_of_two(), "max_ways must be 2^k");
        assert!(config.initial_ways <= config.max_ways);
        let rows = 1u64 << config.pac_size;
        let slots = rows * config.initial_ways as u64 * BOUNDS_PER_WAY as u64;
        Self {
            config,
            ways: config.initial_ways,
            data: vec![0; slots as usize],
            base: config.base_addr,
            generation: 0,
            migration: None,
            stats: HbtStats::default(),
            accesses: Vec::new(),
        }
    }

    /// Number of rows (`2^pac_size`).
    pub fn rows(&self) -> u64 {
        1u64 << self.config.pac_size
    }

    /// Current associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Current table footprint in bytes.
    pub fn table_bytes(&self) -> u64 {
        self.rows() * self.ways as u64 * 64
    }

    /// Operation counters.
    pub fn stats(&self) -> HbtStats {
        self.stats
    }

    /// Projects the table's stats into a telemetry snapshot: the eight
    /// `hbt_*` counters and the `hbt_ways` gauge. Lookups here are the
    /// table's own [`check`](Self::check) calls; the MCU adds the
    /// table walks it makes through [`peek_way`](Self::peek_way).
    pub fn record_telemetry(&self, snapshot: &mut aos_util::TelemetrySnapshot) {
        use aos_util::Counter;
        let s = &self.stats;
        snapshot.add(Counter::HbtLookups, s.checks);
        snapshot.add(Counter::HbtHits, s.checks - s.failed_checks);
        snapshot.add(Counter::HbtMisses, s.failed_checks);
        snapshot.add(Counter::HbtInserts, s.records_inserted);
        snapshot.add(Counter::HbtClears, s.records_cleared);
        snapshot.add(Counter::HbtFailedClears, s.failed_clears);
        snapshot.add(Counter::HbtResizes, s.resizes);
        snapshot.add(Counter::HbtMigrationRows, s.migration_rows);
        snapshot.gauge_max(aos_util::Gauge::HbtWays, self.ways as u64);
    }

    /// Whether a gradual resize is still migrating rows.
    pub fn in_migration(&self) -> bool {
        self.migration.is_some()
    }

    /// Capacity for records with a given PAC before a resize triggers.
    pub fn row_capacity(&self) -> u32 {
        self.ways * self.slots_per_way()
    }

    /// Records per 64-byte way: 8 with compression, 4 without
    /// (uncompressed records are 16 bytes).
    pub fn slots_per_way(&self) -> u32 {
        if self.config.compressed {
            BOUNDS_PER_WAY
        } else {
            BOUNDS_PER_WAY / 2
        }
    }

    /// Drains the 64-byte line addresses touched since the last call —
    /// the metadata traffic a cache model should replay.
    ///
    /// Allocates a fresh `Vec` per call; timing loops that drain every
    /// step should prefer [`HashedBoundsTable::drain_accesses_into`],
    /// which reuses a caller-provided buffer.
    pub fn drain_accesses(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.accesses)
    }

    /// Allocation-free variant of [`HashedBoundsTable::drain_accesses`]:
    /// appends the recorded line addresses to `out` (which the caller
    /// typically clears and reuses each step) and leaves the internal
    /// buffer empty with its capacity intact.
    pub fn drain_accesses_into(&mut self, out: &mut Vec<u64>) {
        out.append(&mut self.accesses);
    }

    /// Number of recorded-but-undrained line addresses — lets timing
    /// loops skip the drain call entirely on quiet steps.
    pub fn pending_accesses(&self) -> usize {
        self.accesses.len()
    }

    /// Discards recorded accesses (for callers that do not model
    /// timing) to keep the buffer from growing unboundedly.
    pub fn discard_accesses(&mut self) {
        self.accesses.clear();
    }

    /// The virtual address of the 64-byte line backing (pac, way),
    /// honouring migration routing (Fig. 10).
    pub fn line_address(&self, pac: u64, way: u32) -> u64 {
        let (base, table_ways) = self.route(pac, way);
        line_addr(base, table_ways, pac, way)
    }

    /// Decides which physical table (base, associativity) backs the
    /// given (pac, way) — the quadrant logic of Fig. 10.
    fn route(&self, pac: u64, way: u32) -> (u64, u32) {
        match &self.migration {
            Some(m) if way < m.old_ways && pac >= m.row_ptr => (m.old_base, m.old_ways),
            _ => (self.base, self.ways),
        }
    }

    fn slot_value(&self, pac: u64, way: u32, slot: u32) -> u64 {
        match &self.migration {
            Some(m) if way < m.old_ways && pac >= m.row_ptr => {
                m.old_data[flat_index(m.old_ways, pac, way, slot)]
            }
            _ => self.data[flat_index(self.ways, pac, way, slot)],
        }
    }

    fn set_slot_value(&mut self, pac: u64, way: u32, slot: u32, value: u64) {
        match &mut self.migration {
            Some(m) if way < m.old_ways && pac >= m.row_ptr => {
                m.old_data[flat_index(m.old_ways, pac, way, slot)] = value;
            }
            _ => self.data[flat_index(self.ways, pac, way, slot)] = value,
        }
    }

    fn touch_line(&mut self, pac: u64, way: u32) {
        let addr = self.line_address(pac, way);
        self.accesses.push(addr);
        self.stats.way_accesses += 1;
    }

    fn assert_pac(&self, pac: u64) {
        assert!(pac < self.rows(), "pac {pac:#x} out of range");
    }

    /// `bndstr`: finds the first empty slot in the PAC's row (scanning
    /// from way 0, as the hardware does) and stores the bounds.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when every slot is occupied; the OS
    /// handler responds by calling [`HashedBoundsTable::begin_resize`].
    ///
    /// # Panics
    ///
    /// Panics if `pac` exceeds the PAC space or `bounds` is empty.
    pub fn store(&mut self, pac: u64, bounds: CompressedBounds) -> Result<HbtSlot, StoreError> {
        self.assert_pac(pac);
        assert!(!bounds.is_empty(), "cannot store the empty encoding");
        self.stats.stores += 1;
        for way in 0..self.ways {
            self.touch_line(pac, way);
            for slot in 0..self.slots_per_way() {
                if self.slot_value(pac, way, slot) == 0 {
                    self.set_slot_value(pac, way, slot, bounds.to_raw());
                    self.stats.records_inserted += 1;
                    return Ok(HbtSlot { way, slot });
                }
            }
        }
        Err(StoreError { pac })
    }

    /// `bndclr`: finds the record whose lower bound matches `addr` and
    /// clears it.
    ///
    /// # Errors
    ///
    /// Returns [`ClearError`] when no record matches — the signal for
    /// double free or free of an invalid pointer.
    pub fn clear(&mut self, pac: u64, addr: u64) -> Result<HbtSlot, ClearError> {
        self.assert_pac(pac);
        self.stats.clears += 1;
        for way in 0..self.ways {
            self.touch_line(pac, way);
            for slot in 0..self.slots_per_way() {
                let raw = self.slot_value(pac, way, slot);
                if CompressedBounds::from_raw(raw).matches_base(addr) {
                    self.set_slot_value(pac, way, slot, 0);
                    self.stats.records_cleared += 1;
                    return Ok(HbtSlot { way, slot });
                }
            }
        }
        self.stats.failed_clears += 1;
        Err(ClearError { pac, addr })
    }

    /// Bounds check for a signed access: scans ways starting from
    /// `start_way` (the BWB's hint, or 0) and returns the first record
    /// containing `addr`.
    ///
    /// Returns `None` when no way holds valid bounds — a memory safety
    /// violation.
    pub fn check(&mut self, pac: u64, addr: u64, start_way: u32) -> Option<HbtLookup> {
        self.assert_pac(pac);
        self.stats.checks += 1;
        for i in 0..self.ways {
            let way = (start_way + i) % self.ways;
            self.touch_line(pac, way);
            for slot in 0..self.slots_per_way() {
                let bounds = CompressedBounds::from_raw(self.slot_value(pac, way, slot));
                if bounds.check(addr) {
                    return Some(HbtLookup {
                        slot: HbtSlot { way, slot },
                        ways_touched: i + 1,
                        bounds,
                    });
                }
            }
        }
        self.stats.failed_checks += 1;
        None
    }

    /// Starts a gradual resize: associativity doubles, and subsequent
    /// accesses route between the old and new tables by the Fig. 10
    /// quadrants until [`HashedBoundsTable::step_migration`] finishes.
    ///
    /// If a previous migration is still in flight it is completed
    /// synchronously first (the paper never observed this case; see
    /// DESIGN.md).
    ///
    /// # Panics
    ///
    /// Panics if the table is already at `max_ways`. Callers on an
    /// untrusted-input path (a workload with pathological PAC
    /// collisions) use [`HashedBoundsTable::try_begin_resize`].
    pub fn begin_resize(&mut self) {
        self.try_begin_resize()
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Whether another doubling still fits under `max_ways`.
    pub fn can_resize(&self) -> bool {
        self.ways * 2 <= self.config.max_ways
    }

    /// Fallible [`HashedBoundsTable::begin_resize`].
    ///
    /// # Errors
    ///
    /// Returns [`aos_util::AosError::ResourceExhausted`] when the
    /// table is already at `max_ways`; the table is left untouched
    /// (an in-flight migration is *not* completed) so the caller can
    /// degrade — drop the store, count a violation — instead of
    /// aborting the whole run.
    pub fn try_begin_resize(&mut self) -> Result<(), aos_util::AosError> {
        if !self.can_resize() {
            return Err(aos_util::AosError::exhausted(
                "HBT associativity",
                format!(
                    "HBT exceeded max associativity {}",
                    self.config.max_ways
                ),
            ));
        }
        if self.migration.is_some() {
            self.finish_migration();
        }
        let new_ways = self.ways * 2;
        let rows = self.rows();
        let new_slots = rows * new_ways as u64 * BOUNDS_PER_WAY as u64;
        // Each generation gets a disjoint address region so the old and
        // new tables can coexist during migration.
        let region_stride = rows * self.config.max_ways as u64 * 64;
        let new_base = self.config.base_addr + (self.generation as u64 + 1) * region_stride;
        let old_data = std::mem::replace(&mut self.data, vec![0; new_slots as usize]);
        self.migration = Some(Migration {
            old_data,
            old_ways: self.ways,
            old_base: self.base,
            row_ptr: 0,
        });
        self.ways = new_ways;
        self.base = new_base;
        self.generation += 1;
        self.stats.resizes += 1;
        Ok(())
    }

    /// Migrates up to `rows` rows from the old table into the new one,
    /// returning how many were actually moved. The table manager in
    /// hardware does this in the background; the simulator calls it a
    /// few rows per cycle.
    pub fn step_migration(&mut self, rows: u64) -> u64 {
        let Some(m) = &mut self.migration else {
            return 0;
        };
        let total_rows = 1u64 << self.config.pac_size;
        let end = (m.row_ptr + rows).min(total_rows);
        let moved = end - m.row_ptr;
        let old_ways = m.old_ways;
        for pac in m.row_ptr..end {
            for way in 0..old_ways {
                for slot in 0..BOUNDS_PER_WAY {
                    let v = m.old_data[flat_index(old_ways, pac, way, slot)];
                    if v != 0 {
                        self.data[flat_index(self.ways, pac, way, slot)] = v;
                    }
                }
            }
        }
        let m = self.migration.as_mut().expect("migration checked above");
        m.row_ptr = end;
        if end == total_rows {
            self.migration = None;
        }
        self.stats.migration_rows += moved;
        moved
    }

    /// Completes any in-flight migration.
    pub fn finish_migration(&mut self) {
        self.step_migration(self.rows());
    }

    /// Raw read of one way's eight bounds records, without recording
    /// an access — the memory check unit drives its own cache traffic
    /// and statistics when it steps the FSMs way by way.
    pub fn peek_way(&self, pac: u64, way: u32) -> [CompressedBounds; BOUNDS_PER_WAY as usize] {
        self.assert_pac(pac);
        assert!(way < self.ways, "way {way} out of range");
        // Route once for the whole line — the eight slots of a way are
        // contiguous, so this is one migration decision and one index
        // computation instead of eight of each.
        let (data, ways): (&[u64], u32) = match &self.migration {
            Some(m) if way < m.old_ways && pac >= m.row_ptr => (&m.old_data, m.old_ways),
            _ => (&self.data, self.ways),
        };
        let base = flat_index(ways, pac, way, 0);
        let mut out = [CompressedBounds::EMPTY; BOUNDS_PER_WAY as usize];
        for (slot, rec) in out.iter_mut().enumerate() {
            *rec = CompressedBounds::from_raw(data[base + slot]);
        }
        out
    }

    /// Raw write of one slot (the `bndstr`/`bndclr` store the MCU
    /// sends after commit). Writing [`CompressedBounds::EMPTY`] clears
    /// the slot.
    ///
    /// # Panics
    ///
    /// Panics if `pac`, `way` or `slot` are out of range.
    pub fn poke_slot(&mut self, pac: u64, way: u32, slot: u32, bounds: CompressedBounds) {
        self.assert_pac(pac);
        assert!(way < self.ways, "way {way} out of range");
        assert!(slot < BOUNDS_PER_WAY, "slot {slot} out of range");
        // The MCU's post-commit slot writes bypass store()/clear(), so
        // count the insert/clear here to keep the record stats
        // complete on the timing path.
        if bounds.is_empty() {
            self.stats.records_cleared += 1;
        } else {
            self.stats.records_inserted += 1;
        }
        self.set_slot_value(pac, way, slot, bounds.to_raw());
    }

    /// Number of live (non-empty) records in a row, across both tables
    /// if migrating.
    pub fn row_occupancy(&self, pac: u64) -> u32 {
        self.assert_pac(pac);
        (0..self.ways)
            .map(|way| {
                (0..BOUNDS_PER_WAY)
                    .filter(|&slot| self.slot_value(pac, way, slot) != 0)
                    .count() as u32
            })
            .sum()
    }
}

/// Flat index of a slot inside a table with `table_ways` ways.
fn flat_index(table_ways: u32, pac: u64, way: u32, slot: u32) -> usize {
    ((pac * table_ways as u64 + way as u64) * BOUNDS_PER_WAY as u64 + slot as u64) as usize
}

/// Eq. 1–2: the 64-byte-aligned address of one table way.
fn line_addr(base: u64, table_ways: u32, pac: u64, way: u32) -> u64 {
    let assoc_shift = table_ways.trailing_zeros() + 6;
    base + (pac << assoc_shift) + ((way as u64) << 6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> HashedBoundsTable {
        HashedBoundsTable::new(HbtConfig {
            pac_size: 11,
            initial_ways: 1,
            max_ways: 8,
            base_addr: 0x1000_0000,
            compressed: true,
        })
    }

    fn bounds(base: u64, size: u64) -> CompressedBounds {
        CompressedBounds::encode(base, size)
    }

    #[test]
    fn default_matches_paper_initial_size() {
        let t = HashedBoundsTable::new(HbtConfig::default());
        assert_eq!(t.table_bytes(), 4 << 20, "initial 1-way table is 4 MiB");
        assert_eq!(t.rows(), 65536);
        assert_eq!(t.row_capacity(), 8);
    }

    #[test]
    fn store_then_check_roundtrip() {
        let mut t = small_table();
        t.store(5, bounds(0x4000, 128)).unwrap();
        let hit = t.check(5, 0x4040, 0).unwrap();
        assert_eq!(hit.slot, HbtSlot { way: 0, slot: 0 });
        assert_eq!(hit.ways_touched, 1);
        assert!(t.check(5, 0x4080, 0).is_none(), "past the end");
        assert!(t.check(6, 0x4040, 0).is_none(), "different PAC row");
    }

    #[test]
    fn clear_then_check_fails() {
        let mut t = small_table();
        t.store(9, bounds(0x8000, 64)).unwrap();
        t.clear(9, 0x8000).unwrap();
        assert!(t.check(9, 0x8010, 0).is_none(), "temporal safety");
        assert_eq!(t.stats().failed_checks, 1);
    }

    #[test]
    fn clear_of_missing_bounds_is_reported() {
        let mut t = small_table();
        let err = t.clear(3, 0x9000).unwrap_err();
        assert_eq!(err, ClearError { pac: 3, addr: 0x9000 });
        assert_eq!(t.stats().failed_clears, 1);
    }

    #[test]
    fn colliding_pacs_share_a_row() {
        let mut t = small_table();
        for i in 0..8u64 {
            t.store(7, bounds(0x1_0000 + i * 0x100, 64)).unwrap();
        }
        // All eight in way 0; the row is now full.
        assert_eq!(t.row_occupancy(7), 8);
        let err = t.store(7, bounds(0x9_0000, 64)).unwrap_err();
        assert_eq!(err.pac, 7);
        // Each collided record remains individually findable.
        for i in 0..8u64 {
            assert!(t.check(7, 0x1_0000 + i * 0x100 + 8, 0).is_some());
        }
    }

    #[test]
    fn resize_doubles_ways_and_preserves_records() {
        let mut t = small_table();
        for i in 0..8u64 {
            t.store(7, bounds(0x1_0000 + i * 0x100, 64)).unwrap();
        }
        assert!(t.store(7, bounds(0x9_0000, 64)).is_err());
        t.begin_resize();
        assert_eq!(t.ways(), 2);
        assert!(t.in_migration());
        // The overflow store now succeeds (way 1 lives in the new table).
        let slot = t.store(7, bounds(0x9_0000, 64)).unwrap();
        assert_eq!(slot.way, 1);
        // Old records still reachable through the routing.
        for i in 0..8u64 {
            assert!(t.check(7, 0x1_0000 + i * 0x100, 0).is_some());
        }
        // Finish migration; everything still reachable.
        t.finish_migration();
        assert!(!t.in_migration());
        for i in 0..8u64 {
            assert!(t.check(7, 0x1_0000 + i * 0x100, 0).is_some());
        }
        assert!(t.check(7, 0x9_0000, 0).is_some());
        assert_eq!(t.stats().resizes, 1);
    }

    #[test]
    fn migration_steps_move_rows_incrementally() {
        let mut t = small_table();
        t.store(0, bounds(0x4000, 16)).unwrap();
        t.store(2000, bounds(0x5000, 16)).unwrap();
        t.begin_resize();
        assert_eq!(t.step_migration(1024), 1024);
        assert!(t.in_migration());
        // Row 0 migrated, row 2000 not yet; both must stay visible.
        assert!(t.check(0, 0x4000, 0).is_some());
        assert!(t.check(2000, 0x5000, 0).is_some());
        assert_eq!(t.step_migration(10_000), 2048 - 1024);
        assert!(!t.in_migration());
        assert!(t.check(2000, 0x5000, 0).is_some());
    }

    #[test]
    fn stores_during_migration_survive_completion() {
        let mut t = small_table();
        t.begin_resize();
        // Unmigrated row, way 0 → routed to the old table.
        t.store(1500, bounds(0x6000, 32)).unwrap();
        t.finish_migration();
        assert!(t.check(1500, 0x6000, 0).is_some());
    }

    #[test]
    fn bwb_hint_reduces_ways_touched() {
        let mut t = small_table();
        // Fill way 0 with other chunks, target in way 1.
        for i in 0..8u64 {
            t.store(7, bounds(0x1_0000 + i * 0x100, 64)).unwrap();
        }
        t.begin_resize();
        t.finish_migration();
        t.store(7, bounds(0x9_0000, 64)).unwrap();
        let cold = t.check(7, 0x9_0000, 0).unwrap();
        assert_eq!(cold.ways_touched, 2);
        let hinted = t.check(7, 0x9_0000, cold.slot.way).unwrap();
        assert_eq!(hinted.ways_touched, 1, "hint lands on the right way");
    }

    #[test]
    fn line_addresses_are_64b_aligned_and_distinct() {
        let mut t = small_table();
        for i in 0..8u64 {
            t.store(3, bounds(0x2_0000 + i * 0x40, 64)).unwrap();
        }
        t.begin_resize();
        let a0 = t.line_address(3, 0);
        let a1 = t.line_address(3, 1);
        assert_eq!(a0 % 64, 0);
        assert_eq!(a1 % 64, 0);
        assert_ne!(a0, a1);
        // Way 0 routes to the old table, way 1 to the new one.
        assert!(a0 < 0x1000_0000 + t.rows() * 8 * 64);
        assert!(a1 >= 0x1000_0000 + t.rows() * 8 * 64);
    }

    #[test]
    fn accesses_are_recorded_and_drainable() {
        let mut t = small_table();
        t.store(1, bounds(0x4000, 16)).unwrap();
        t.check(1, 0x4000, 0).unwrap();
        let acc = t.drain_accesses();
        assert_eq!(acc.len(), 2, "one line per store, one per check");
        assert!(t.drain_accesses().is_empty());
        t.check(1, 0x4000, 0).unwrap();
        t.discard_accesses();
        assert!(t.drain_accesses().is_empty());
    }

    #[test]
    fn drain_into_reuses_buffer_and_matches_drain() {
        let mut t = small_table();
        t.store(1, bounds(0x4000, 16)).unwrap();
        t.check(1, 0x4000, 0).unwrap();
        let expected = t.clone().drain_accesses();

        let mut out = Vec::with_capacity(8);
        assert_eq!(t.pending_accesses(), expected.len());
        t.drain_accesses_into(&mut out);
        assert_eq!(out, expected);
        assert_eq!(t.pending_accesses(), 0);

        // Repeated drains append into the same buffer without losing
        // what the caller already collected, and a cleared buffer
        // keeps its capacity.
        t.check(1, 0x4000, 0).unwrap();
        t.drain_accesses_into(&mut out);
        assert_eq!(out.len(), expected.len() + 1);
        let capacity = out.capacity();
        out.clear();
        t.drain_accesses_into(&mut out);
        assert!(out.is_empty());
        assert_eq!(out.capacity(), capacity);
    }

    #[test]
    fn stats_accumulate() {
        let mut t = small_table();
        t.store(1, bounds(0x4000, 16)).unwrap();
        t.check(1, 0x4000, 0).unwrap();
        t.check(1, 0x9000, 0);
        t.clear(1, 0x4000).unwrap();
        let s = t.stats();
        assert_eq!(s.stores, 1);
        assert_eq!(s.checks, 2);
        assert_eq!(s.clears, 1);
        assert_eq!(s.failed_checks, 1);
        assert!(s.way_accesses >= 4);
        assert_eq!((s.records_inserted, s.records_cleared), (1, 1));
        // A failed clear moves no record; the MCU's slot writes do.
        assert!(t.clear(1, 0x4000).is_err());
        t.poke_slot(2, 0, 3, bounds(0x8000, 32));
        t.poke_slot(2, 0, 3, CompressedBounds::EMPTY);
        let s = t.stats();
        assert_eq!((s.records_inserted, s.records_cleared), (2, 2));
        assert_eq!(s.failed_clears, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_pac_rejected() {
        let mut t = small_table();
        t.store(1 << 11, bounds(0x4000, 16)).ok();
    }

    #[test]
    fn uncompressed_mode_halves_row_capacity() {
        let mut t = HashedBoundsTable::new(HbtConfig {
            pac_size: 11,
            initial_ways: 1,
            max_ways: 8,
            base_addr: 0x1000_0000,
            compressed: false,
        });
        assert_eq!(t.slots_per_way(), 4, "16-byte records, 4 per 64B way");
        assert_eq!(t.row_capacity(), 4);
        for i in 0..4u64 {
            t.store(9, bounds(0x1_0000 + i * 0x100, 64)).unwrap();
        }
        // The fifth record overflows a row that holds 8 when
        // compression is on.
        assert!(t.store(9, bounds(0x9_0000, 64)).is_err());
        // Everything stored remains findable.
        for i in 0..4u64 {
            assert!(t.check(9, 0x1_0000 + i * 0x100 + 8, 0).is_some());
        }
    }

    #[test]
    fn uncompressed_mode_survives_resize() {
        let mut t = HashedBoundsTable::new(HbtConfig {
            pac_size: 11,
            initial_ways: 1,
            max_ways: 8,
            base_addr: 0x1000_0000,
            compressed: false,
        });
        for i in 0..4u64 {
            t.store(9, bounds(0x1_0000 + i * 0x100, 64)).unwrap();
        }
        t.begin_resize();
        t.store(9, bounds(0x9_0000, 64)).unwrap();
        t.finish_migration();
        assert_eq!(t.row_capacity(), 8, "2 ways x 4 slots");
        for i in 0..4u64 {
            assert!(t.check(9, 0x1_0000 + i * 0x100, 0).is_some());
        }
        assert!(t.check(9, 0x9_0000, 0).is_some());
    }

    #[test]
    #[should_panic(expected = "max associativity")]
    fn resize_beyond_max_panics() {
        let mut t = HashedBoundsTable::new(HbtConfig {
            pac_size: 11,
            initial_ways: 1,
            max_ways: 2,
            base_addr: 0x1000_0000,
            compressed: true,
        });
        t.begin_resize();
        t.begin_resize();
    }

    #[test]
    fn try_resize_degrades_instead_of_panicking() {
        let mut t = HashedBoundsTable::new(HbtConfig {
            pac_size: 11,
            initial_ways: 1,
            max_ways: 2,
            base_addr: 0x1000_0000,
            compressed: true,
        });
        assert!(t.can_resize());
        t.try_begin_resize().unwrap();
        t.finish_migration();
        assert_eq!(t.ways(), 2);
        assert!(!t.can_resize());
        let err = t.try_begin_resize().unwrap_err();
        assert!(err.to_string().contains("max associativity 2"), "{err}");
        // The failed attempt left the table usable at its current size.
        assert_eq!(t.ways(), 2);
        t.store(9, CompressedBounds::encode(0x9_0000, 64)).unwrap();
        assert!(t.check(9, 0x9_0000, 0).is_some());
    }
}
