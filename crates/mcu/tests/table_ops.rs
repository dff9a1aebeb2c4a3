//! The bounds table's `bndstr`, `bndclr` and bounds-check behaviour,
//! run through the MCU's Fig. 8 FSMs — the only implementation of the
//! three operations. Each operation is one `run_sync` call (see
//! `common`); the table's own unit tests cover its storage, routing
//! and resize mechanics.

mod common;

use aos_hbt::{CompressedBounds, HbtConfig};
use aos_mcu::AosException;
use aos_util::Counter;
use common::Bounds;

fn config(compressed: bool) -> HbtConfig {
    HbtConfig {
        pac_size: 11,
        initial_ways: 1,
        max_ways: 8,
        base_addr: 0x1000_0000,
        compressed,
    }
}

fn small_table() -> Bounds {
    Bounds::new(config(true))
}

#[test]
fn store_then_check_roundtrip() {
    let mut t = small_table();
    t.store(5, 0x4000, 128).unwrap();
    assert_eq!(
        t.hbt.peek_way(5, 0)[0],
        CompressedBounds::encode(0x4000, 128),
        "first empty slot of way 0"
    );
    assert_eq!(t.check(5, 0x4040), Some(1), "one way touched");
    assert_eq!(t.check(5, 0x4080), None, "past the end");
    assert_eq!(t.check(6, 0x4040), None, "different PAC row");
}

#[test]
fn clear_then_check_fails() {
    let mut t = small_table();
    t.store(9, 0x8000, 64).unwrap();
    t.clear(9, 0x8000).unwrap();
    assert_eq!(t.check(9, 0x8010), None, "temporal safety");
    assert_eq!(t.snapshot().counter(Counter::HbtMisses), 1);
}

#[test]
fn clear_of_missing_bounds_is_reported() {
    let mut t = small_table();
    let err = t.clear(3, 0x9000).unwrap_err();
    assert_eq!(
        err,
        AosException::BoundsClearFailure {
            pointer: t.pointer(3, 0x9000)
        }
    );
    assert_eq!(t.snapshot().counter(Counter::HbtFailedClears), 1);
}

#[test]
fn colliding_pacs_share_a_row() {
    let mut t = small_table();
    for i in 0..8u64 {
        t.store(7, 0x1_0000 + i * 0x100, 64).unwrap();
    }
    // All eight in way 0; the row is now full.
    assert_eq!(t.hbt.row_occupancy(7), 8);
    let err = t.store(7, 0x9_0000, 64).unwrap_err();
    assert_eq!(err, AosException::BoundsStoreFailure { pac: 7 });
    // Each collided record remains individually findable.
    for i in 0..8u64 {
        assert!(t.check(7, 0x1_0000 + i * 0x100 + 8).is_some());
    }
}

#[test]
fn resize_doubles_ways_and_preserves_records() {
    let mut t = small_table();
    for i in 0..8u64 {
        t.store(7, 0x1_0000 + i * 0x100, 64).unwrap();
    }
    assert!(t.store(7, 0x9_0000, 64).is_err());
    t.hbt.begin_resize();
    assert_eq!(t.hbt.ways(), 2);
    assert!(t.hbt.in_migration());
    // The overflow store now succeeds (way 1 lives in the new table).
    t.store(7, 0x9_0000, 64).unwrap();
    assert_eq!(
        t.hbt.peek_way(7, 1)[0],
        CompressedBounds::encode(0x9_0000, 64)
    );
    // Old records still reachable through the routing.
    for i in 0..8u64 {
        assert!(t.check(7, 0x1_0000 + i * 0x100).is_some());
    }
    // Finish migration; everything still reachable.
    t.hbt.finish_migration();
    assert!(!t.hbt.in_migration());
    for i in 0..8u64 {
        assert!(t.check(7, 0x1_0000 + i * 0x100).is_some());
    }
    assert!(t.check(7, 0x9_0000).is_some());
    assert_eq!(t.hbt.stats().resizes, 1);
}

#[test]
fn migration_steps_move_rows_incrementally() {
    let mut t = small_table();
    t.store(0, 0x4000, 16).unwrap();
    t.store(2000, 0x5000, 16).unwrap();
    t.hbt.begin_resize();
    assert_eq!(t.hbt.step_migration(1024), 1024);
    assert!(t.hbt.in_migration());
    // Row 0 migrated, row 2000 not yet; both must stay visible.
    assert!(t.check(0, 0x4000).is_some());
    assert!(t.check(2000, 0x5000).is_some());
    assert_eq!(t.hbt.step_migration(10_000), 2048 - 1024);
    assert!(!t.hbt.in_migration());
    assert!(t.check(2000, 0x5000).is_some());
}

#[test]
fn stores_during_migration_survive_completion() {
    let mut t = small_table();
    t.hbt.begin_resize();
    // Unmigrated row, way 0 → routed to the old table.
    t.store(1500, 0x6000, 32).unwrap();
    t.hbt.finish_migration();
    assert!(t.check(1500, 0x6000).is_some());
}

#[test]
fn bwb_hint_reduces_ways_touched() {
    let mut t = small_table();
    // Fill way 0 with other chunks, target in way 1.
    for i in 0..8u64 {
        t.store(7, 0x1_0000 + i * 0x100, 64).unwrap();
    }
    t.hbt.begin_resize();
    t.hbt.finish_migration();
    t.store(7, 0x9_0000, 64).unwrap();
    assert_eq!(
        t.check(7, 0x9_0000),
        Some(2),
        "cold: way 0 misses, way 1 hits"
    );
    assert_eq!(t.check(7, 0x9_0000), Some(1), "hint lands on the right way");
}

#[test]
fn stats_accumulate() {
    let mut t = small_table();
    t.store(1, 0x4000, 16).unwrap();
    assert!(t.check(1, 0x4000).is_some());
    assert!(t.check(1, 0x9000).is_none());
    t.clear(1, 0x4000).unwrap();
    let snap = t.snapshot();
    assert_eq!(snap.counter(Counter::HbtLookups), 2);
    assert_eq!(snap.counter(Counter::HbtHits), 1);
    assert_eq!(snap.counter(Counter::HbtMisses), 1);
    assert_eq!(snap.counter(Counter::HbtInserts), 1);
    assert_eq!(snap.counter(Counter::HbtClears), 1);
    let s = t.mcu.stats();
    assert_eq!((s.bndstrs, s.bndclrs), (1, 1));
    assert!(s.line_loads >= 4, "one way line per operation");
    // A failed clear moves no record.
    assert!(t.clear(1, 0x4000).is_err());
    let snap = t.snapshot();
    assert_eq!(snap.counter(Counter::HbtInserts), 1);
    assert_eq!(snap.counter(Counter::HbtClears), 1);
    assert_eq!(snap.counter(Counter::HbtFailedClears), 1);
}

#[test]
#[should_panic(expected = "out of range")]
fn oversized_pac_rejected() {
    let mut t = small_table();
    t.store(1 << 11, 0x4000, 16).ok();
}

#[test]
fn uncompressed_mode_halves_row_capacity() {
    let mut t = Bounds::new(config(false));
    assert_eq!(t.hbt.slots_per_way(), 4, "16-byte records, 4 per 64B way");
    assert_eq!(t.hbt.row_capacity(), 4);
    for i in 0..4u64 {
        t.store(9, 0x1_0000 + i * 0x100, 64).unwrap();
    }
    // The fifth record overflows a row that holds 8 when compression
    // is on.
    assert_eq!(
        t.store(9, 0x9_0000, 64),
        Err(AosException::BoundsStoreFailure { pac: 9 })
    );
    // Everything stored remains findable.
    for i in 0..4u64 {
        assert!(t.check(9, 0x1_0000 + i * 0x100 + 8).is_some());
    }
}

#[test]
fn uncompressed_mode_survives_resize() {
    let mut t = Bounds::new(config(false));
    for i in 0..4u64 {
        t.store(9, 0x1_0000 + i * 0x100, 64).unwrap();
    }
    t.hbt.begin_resize();
    t.store(9, 0x9_0000, 64).unwrap();
    t.hbt.finish_migration();
    assert_eq!(t.hbt.row_capacity(), 8, "2 ways x 4 slots");
    for i in 0..4u64 {
        assert!(t.check(9, 0x1_0000 + i * 0x100).is_some());
    }
    assert!(t.check(9, 0x9_0000).is_some());
}

#[test]
fn try_resize_degrades_instead_of_panicking() {
    let mut t = Bounds::new(HbtConfig {
        max_ways: 2,
        ..config(true)
    });
    assert!(t.hbt.can_resize());
    t.hbt.try_begin_resize().unwrap();
    t.hbt.finish_migration();
    assert_eq!(t.hbt.ways(), 2);
    assert!(!t.hbt.can_resize());
    let err = t.hbt.try_begin_resize().unwrap_err();
    assert!(err.to_string().contains("max associativity 2"), "{err}");
    // The failed attempt left the table usable at its current size.
    assert_eq!(t.hbt.ways(), 2);
    t.store(9, 0x9_0000, 64).unwrap();
    assert!(t.check(9, 0x9_0000).is_some());
}
