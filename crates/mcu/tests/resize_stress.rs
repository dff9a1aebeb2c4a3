//! Stress tests for gradual resizing: interleave stores, clears and
//! checks with in-flight migrations across multiple generations and
//! verify the table never loses or fabricates a record. Every
//! operation runs through the MCU's FSMs (see `common`), and a
//! `HashMap` shadow model is the independent oracle.

mod common;

use std::collections::HashMap;

use aos_hbt::HbtConfig;
use aos_mcu::AosException;
use common::Bounds;

fn table() -> Bounds {
    Bounds::new(HbtConfig {
        pac_size: 11,
        initial_ways: 1,
        max_ways: 64,
        base_addr: 0x1000_0000,
        compressed: true,
    })
}

/// A simple deterministic generator (LCG) for the stress schedule.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

#[test]
fn shadow_model_agrees_across_generations() {
    let mut t = table();
    let mut shadow: HashMap<u64, (u64, u64)> = HashMap::new(); // base -> (pac, size)
    let mut rng = Lcg(42);
    let mut next_base = 0x10_0000u64;
    let mut resizes = 0;

    for step in 0..60_000u64 {
        let action = rng.next() % 10;
        if action < 6 {
            // Store a fresh record.
            let pac = rng.next() % 2048;
            let size = (rng.next() % 64 + 1) * 16;
            let base = next_base;
            next_base += 1 << 14;
            match t.store(pac, base, size) {
                Ok(()) => {
                    shadow.insert(base, (pac, size));
                }
                Err(_) => {
                    t.hbt.begin_resize();
                    resizes += 1;
                    t.store(pac, base, size)
                        .expect("store succeeds after resize");
                    shadow.insert(base, (pac, size));
                }
            }
        } else if action < 8 {
            // Clear a random live record.
            if let Some((&base, &(pac, _))) = shadow.iter().next() {
                t.clear(pac, base).expect("live record clears");
                shadow.remove(&base);
            }
        } else {
            // Step any in-flight migration a little.
            t.hbt.step_migration(rng.next() % 64);
        }
        // Spot-check a live record every few steps.
        if step % 97 == 0 {
            if let Some((&base, &(pac, size))) = shadow.iter().next() {
                let hit = t.check(pac, base + size / 2);
                assert!(hit.is_some(), "live record lost at step {step}");
            }
        }
    }
    assert!(resizes >= 2, "stress must cross generations: {resizes}");

    // Full final audit: every shadow record present, every cleared one
    // absent.
    t.hbt.finish_migration();
    for (&base, &(pac, size)) in &shadow {
        assert!(t.check(pac, base).is_some(), "{base:#x} lost");
        assert!(t.check(pac, base + size - 1).is_some());
        assert!(t.check(pac, base + size).is_none(), "{base:#x} too wide");
    }
    // Clear everything and verify emptiness.
    for (&base, &(pac, _)) in &shadow {
        t.clear(pac, base).expect("final clears succeed");
    }
    for (&base, &(pac, _)) in &shadow {
        assert!(t.check(pac, base).is_none());
        assert_eq!(
            t.clear(pac, base),
            Err(AosException::BoundsClearFailure {
                pointer: t.pointer(pac, base)
            })
        );
    }
}

#[test]
fn migration_preserves_row_occupancy_counts() {
    let mut t = table();
    // Load three rows with known occupancy.
    for i in 0..5u64 {
        t.store(100, 0x20_0000 + i * 0x1000, 32).unwrap();
    }
    for i in 0..8u64 {
        t.store(200, 0x40_0000 + i * 0x1000, 32).unwrap();
    }
    t.store(300, 0x60_0000, 32).unwrap();

    let hbt = &mut t.hbt;
    hbt.begin_resize();
    // Occupancy must be stable at every migration step.
    while hbt.in_migration() {
        assert_eq!(hbt.row_occupancy(100), 5);
        assert_eq!(hbt.row_occupancy(200), 8);
        assert_eq!(hbt.row_occupancy(300), 1);
        hbt.step_migration(100);
    }
    assert_eq!(hbt.row_occupancy(100), 5);
    assert_eq!(hbt.row_occupancy(200), 8);
    assert_eq!(hbt.row_occupancy(300), 1);
}

#[test]
fn back_to_back_resizes_reach_max_ways() {
    let mut t = table();
    let mut stored = 0u64;
    // Keep hammering one PAC row; every overflow doubles the ways.
    for ways_target in [2u32, 4, 8, 16, 32, 64] {
        loop {
            let base = 0x100_0000 + stored * 0x1000;
            match t.store(42, base, 16) {
                Ok(()) => stored += 1,
                Err(_) => {
                    t.hbt.begin_resize();
                    assert_eq!(t.hbt.ways(), ways_target);
                    break;
                }
            }
        }
    }
    assert_eq!(stored, 8 * 32, "8 slots per way, filled through 32 ways");
    // All records remain checkable at 64 ways.
    t.hbt.finish_migration();
    for i in 0..stored {
        let base = 0x100_0000 + i * 0x1000;
        assert!(t.check(42, base + 8).is_some(), "record {i} lost");
    }
}
