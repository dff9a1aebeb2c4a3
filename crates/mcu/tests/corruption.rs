//! Physical corruption of stored bounds records, checked through the
//! MCU: the CRC-3 field makes a flipped record fail closed, and a lost
//! way surfaces as detected misses rather than silently widened
//! bounds. The residue rule for the one double-flip escape is pinned
//! in `crates/hbt/tests/bitflip_properties.rs`.

mod common;

use aos_hbt::{CompressedBounds, HbtConfig, BOUNDS_PER_WAY};
use common::Bounds;

#[test]
fn single_bit_tamper_fails_closed_through_the_mcu() {
    let mut t = Bounds::new(HbtConfig::default());
    let pac = 0x42;
    t.store(pac, 0x1000, 64).unwrap();
    assert!(t.check(pac, 0x1000 + 8).is_some());
    let record = t.hbt.peek_way(pac, 0)[0];
    for bit in 0..64 {
        let flipped = CompressedBounds::from_raw(record.to_raw() ^ (1 << bit));
        t.hbt.poke_slot(pac, 0, 0, flipped);
        assert_eq!(
            t.check(pac, 0x1000 + 8),
            None,
            "bit {bit} flip must not validate the access"
        );
    }
    t.hbt.poke_slot(pac, 0, 0, record);
    assert!(
        t.check(pac, 0x1000 + 8).is_some(),
        "restored record validates again"
    );
}

#[test]
fn lost_way_turns_valid_accesses_into_detected_misses() {
    let mut t = Bounds::new(HbtConfig::default());
    let pac = 0x17;
    t.store(pac, 0x2000, 128).unwrap();
    assert_eq!(t.hbt.row_occupancy(pac), 1);
    for slot in 0..BOUNDS_PER_WAY {
        t.hbt.poke_slot(pac, 0, slot, CompressedBounds::EMPTY);
    }
    assert_eq!(t.check(pac, 0x2000), None);
    assert_eq!(t.hbt.row_occupancy(pac), 0);
}
