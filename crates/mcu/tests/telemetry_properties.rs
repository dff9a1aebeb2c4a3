//! Property tests for the HBT's telemetry counters.
//!
//! The table and the MCU that operates on it keep plain stats and
//! project them into one snapshot: the table its writes, resizes and
//! migration, the MCU its lookups and failed clears. The contract: the
//! projected counters are pure bookkeeping over the table's observable
//! behaviour, so for *any* sequence of stores, clears, checks and
//! resizes the accounting identities hold exactly —
//!
//! - every lookup is either a hit or a miss, never both or neither;
//! - successful inserts minus successful clears equals the number of
//!   live records in the table;
//! - the migration-row counter is bounded by `rows × resizes` and
//!   reaches it exactly once every migration drains.
//!
//! The sequences interleave resizes, so the identities are exercised
//! under both the initial and the doubled associativity. Every
//! operation runs through the MCU's FSMs (see `common`).

mod common;

use proptest::prelude::*;

use aos_hbt::HbtConfig;
use aos_isa::strategy::action_script;
use aos_util::{Counter, Gauge};
use common::Bounds;

/// The smallest legal table (11-bit PACs, 2048 rows) keeps each case
/// cheap while leaving plenty of room for collisions.
const PAC_SIZE: u32 = 11;
const ROWS: u64 = 1 << PAC_SIZE;

fn table() -> Bounds {
    Bounds::new(HbtConfig {
        pac_size: PAC_SIZE,
        initial_ways: 1,
        max_ways: 8,
        ..HbtConfig::default()
    })
}

/// One scripted table operation: `(kind, pac, arg)` decodes to a
/// store / clear / check / resize-and-partially-migrate — the shared
/// `aos_isa::strategy` action-script shape.
type ScriptOp = (u8, u64, u64);

fn script() -> impl Strategy<Value = Vec<ScriptOp>> {
    action_script(0u8..4, 0u64..ROWS, 0u64..48, 1..160)
}

/// Counts derived only from the operations' observable results,
/// never from the counters.
struct Model {
    inserts: u64,
    clears: u64,
    failed_clears: u64,
    resizes: u64,
}

/// Replays a script against a fresh table and returns it with its
/// model.
fn replay(ops: &[ScriptOp]) -> (Bounds, Model) {
    let mut t = table();
    let mut model = Model {
        inserts: 0,
        clears: 0,
        failed_clears: 0,
        resizes: 0,
    };
    for &(kind, pac, arg) in ops {
        // Bases are 16-aligned and nonzero; a small shared pool makes
        // clears and checks land on live records often enough to
        // exercise both outcome arms.
        let addr = (arg + 1) * 16;
        match kind {
            0 => {
                if t.store(pac, addr, 32).is_ok() {
                    model.inserts += 1;
                }
            }
            1 => match t.clear(pac, addr) {
                Ok(()) => model.clears += 1,
                Err(_) => model.failed_clears += 1,
            },
            2 => {
                let _ = t.check(pac, addr);
            }
            _ => {
                if t.hbt.try_begin_resize().is_ok() {
                    model.resizes += 1;
                    // Migrate only part of the table so later ops run
                    // against the split old/new-quadrant state.
                    t.hbt.step_migration(arg + 1);
                }
            }
        }
    }
    (t, model)
}

/// Live records, counted from the table itself.
fn live_records(t: &Bounds) -> u64 {
    (0..ROWS).map(|pac| t.hbt.row_occupancy(pac) as u64).sum()
}

proptest! {
    /// Every check is recorded as exactly one lookup and exactly one
    /// of hit / miss, across resizes and partial migrations.
    #[test]
    fn lookups_decompose_into_hits_plus_misses(ops in script()) {
        let (t, _model) = replay(&ops);
        let snap = t.snapshot();
        prop_assert_eq!(
            snap.counter(Counter::HbtLookups),
            snap.counter(Counter::HbtHits) + snap.counter(Counter::HbtMisses)
        );
        let checks = ops.iter().filter(|(k, _, _)| *k == 2).count() as u64;
        prop_assert_eq!(snap.counter(Counter::HbtLookups), checks);
    }

    /// Successful inserts minus successful clears equals the number of
    /// live records — the counters only fire on operations that
    /// actually changed the table.
    #[test]
    fn inserts_minus_clears_equals_live_entries(ops in script()) {
        let (t, model) = replay(&ops);
        let snap = t.snapshot();
        prop_assert_eq!(snap.counter(Counter::HbtInserts), model.inserts);
        prop_assert_eq!(snap.counter(Counter::HbtClears), model.clears);
        prop_assert_eq!(snap.counter(Counter::HbtFailedClears), model.failed_clears);
        prop_assert_eq!(
            snap.counter(Counter::HbtInserts) - snap.counter(Counter::HbtClears),
            live_records(&t)
        );
    }

    /// The migration-row counter never exceeds `rows × resizes`, and
    /// lands on it exactly once every in-flight migration drains. Live
    /// accounting survives the migration: records are moved, not
    /// duplicated or dropped.
    #[test]
    fn migration_rows_are_bounded_and_exact_when_drained(ops in script()) {
        let (mut t, model) = replay(&ops);
        let mid = t.snapshot();
        prop_assert_eq!(mid.counter(Counter::HbtResizes), model.resizes);
        prop_assert!(
            mid.counter(Counter::HbtMigrationRows) <= ROWS * model.resizes,
            "{} rows counted for {} resizes of a {}-row table",
            mid.counter(Counter::HbtMigrationRows),
            model.resizes,
            ROWS
        );

        t.hbt.finish_migration();
        let done = t.snapshot();
        prop_assert_eq!(done.counter(Counter::HbtMigrationRows), ROWS * model.resizes);
        prop_assert!(!t.hbt.in_migration());
        prop_assert_eq!(
            done.counter(Counter::HbtInserts) - done.counter(Counter::HbtClears),
            live_records(&t)
        );
    }

    /// The identities hold identically when every operation runs at
    /// the doubled, post-resize associativity (resize first, drain the
    /// migration, then replay).
    #[test]
    fn identities_hold_at_post_resize_associativity(ops in script()) {
        let mut t = table();
        t.hbt.begin_resize();
        t.hbt.finish_migration();
        let pre = t.snapshot();
        prop_assert_eq!(pre.counter(Counter::HbtMigrationRows), ROWS);
        prop_assert_eq!(pre.gauge(Gauge::HbtWays), 2);

        let mut inserts = 0u64;
        let mut clears = 0u64;
        for &(kind, pac, arg) in &ops {
            let addr = (arg + 1) * 16;
            match kind % 3 {
                0 => {
                    if t.store(pac, addr, 32).is_ok() {
                        inserts += 1;
                    }
                }
                1 => {
                    if t.clear(pac, addr).is_ok() {
                        clears += 1;
                    }
                }
                _ => {
                    let _ = t.check(pac, addr);
                }
            }
        }
        let snap = t.snapshot();
        prop_assert_eq!(
            snap.counter(Counter::HbtLookups),
            snap.counter(Counter::HbtHits) + snap.counter(Counter::HbtMisses)
        );
        prop_assert_eq!(snap.counter(Counter::HbtInserts), inserts);
        prop_assert_eq!(
            snap.counter(Counter::HbtInserts) - snap.counter(Counter::HbtClears),
            live_records(&t)
        );
        prop_assert_eq!(snap.counter(Counter::HbtClears), clears);
    }
}
