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

/// Cumulative table counters, projected into telemetry by
/// [`HashedBoundsTable::record_telemetry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HbtStats {
    /// Gradual resizes performed.
    pub resizes: u64,
    /// Bounds records written: non-empty
    /// [`poke_slot`](HashedBoundsTable::poke_slot) writes (the MCU's
    /// post-commit `bndstr`).
    pub records_inserted: u64,
    /// Bounds records removed: empty
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
/// See the [crate docs](crate) for the design overview.
#[derive(Debug, Clone)]
pub struct HashedBoundsTable {
    config: HbtConfig,
    ways: u32,
    data: Vec<u64>,
    base: u64,
    generation: u32,
    migration: Option<Migration>,
    stats: HbtStats,
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

    /// Projects the table's stats into a telemetry snapshot: the four
    /// `hbt_*` counters of the table's own writes, resizes and
    /// migration, and the `hbt_ways` gauge. The lookup and failed-clear
    /// counters come from the MCU, which runs those operations.
    pub fn record_telemetry(&self, snapshot: &mut aos_util::TelemetrySnapshot) {
        use aos_util::Counter;
        let s = &self.stats;
        snapshot.add(Counter::HbtInserts, s.records_inserted);
        snapshot.add(Counter::HbtClears, s.records_cleared);
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

    fn assert_pac(&self, pac: u64) {
        assert!(pac < self.rows(), "pac {pac:#x} out of range");
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
        self.try_begin_resize().unwrap_or_else(|e| panic!("{e}"));
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
                format!("HBT exceeded max associativity {}", self.config.max_ways),
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

    /// Raw read of one way's eight bounds records — the line the
    /// memory check unit's FSMs inspect as they step way by way (the
    /// MCU charges the cache traffic itself).
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
        if bounds.is_empty() {
            self.stats.records_cleared += 1;
        } else {
            self.stats.records_inserted += 1;
        }
        let (data, ways) = match &mut self.migration {
            Some(m) if way < m.old_ways && pac >= m.row_ptr => (&mut m.old_data, m.old_ways),
            _ => (&mut self.data, self.ways),
        };
        data[flat_index(ways, pac, way, slot)] = bounds.to_raw();
    }

    /// Number of live (non-empty) records in a row, across both tables
    /// if migrating.
    pub fn row_occupancy(&self, pac: u64) -> u32 {
        (0..self.ways)
            .map(|way| {
                self.peek_way(pac, way)
                    .iter()
                    .filter(|b| !b.is_empty())
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
    //! Storage, routing and resize mechanics. The `bndstr`, `bndclr`
    //! and bounds-check behaviour of the table is tested through the
    //! MCU that implements it, in `crates/mcu/tests/table_ops.rs`.
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

    #[test]
    fn default_matches_paper_initial_size() {
        let t = HashedBoundsTable::new(HbtConfig::default());
        assert_eq!(t.table_bytes(), 4 << 20, "initial 1-way table is 4 MiB");
        assert_eq!(t.rows(), 65536);
        assert_eq!(t.row_capacity(), 8);
    }

    #[test]
    fn line_addresses_are_64b_aligned_and_distinct() {
        let mut t = small_table();
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
    fn line_addresses_stay_disjoint_across_generations() {
        let mut t = HashedBoundsTable::new(HbtConfig {
            max_ways: 64,
            ..small_table().config
        });
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            for pac in [0u64, 1, 2047] {
                for way in 0..t.ways() {
                    let addr = t.line_address(pac, way);
                    assert_eq!(addr % 64, 0);
                    assert!(seen.insert(addr), "line {addr:#x} reused across tables");
                }
            }
            t.begin_resize();
            t.finish_migration();
            seen.clear(); // only require disjointness within one generation
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut t = small_table();
        let record = CompressedBounds::encode(0x8000, 32);
        t.poke_slot(2, 0, 3, record);
        assert_eq!(t.peek_way(2, 0)[3], record);
        assert_eq!(t.row_occupancy(2), 1);
        t.poke_slot(2, 0, 3, CompressedBounds::EMPTY);
        assert_eq!(t.row_occupancy(2), 0);
        t.begin_resize();
        t.finish_migration();
        let s = t.stats();
        assert_eq!((s.records_inserted, s.records_cleared), (1, 1));
        assert_eq!((s.resizes, s.migration_rows), (1, t.rows()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_pac_rejected() {
        let mut t = small_table();
        t.poke_slot(1 << 11, 0, 0, CompressedBounds::encode(0x4000, 16));
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
}
