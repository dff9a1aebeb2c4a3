//! Physical corruption of bounds-table state: single- and multi-bit
//! flips in stored records, and "lost way" events where a whole way's
//! records vanish (a dropped line, a botched migration).
//!
//! The HBT's CRC-3 field makes corruption *fail closed*: a flipped
//! record no longer validates any access, so the corruption surfaces
//! as a detected bounds violation rather than a silently widened (or
//! narrowed) object. The one documented escape is a double flip whose
//! two bits fall in the same CRC residue class — see [`crc_class`] —
//! which the property tests in `crates/hbt` pin exactly.

use aos_hbt::{CompressedBounds, HashedBoundsTable, BOUNDS_PER_WAY};

/// Payload width of a compressed record; bits at and above this index
/// hold the CRC-3 field.
pub const PAYLOAD_BITS: u32 = 61;

/// The CRC-3 residue class of a bit position in the raw 64-bit
/// record: `x^p mod g` for payload bits, and the check-bit identity
/// for the CRC field itself (check bit `c` cancels payload
/// contributions of class `c`).
///
/// Two flipped bits cancel in the syndrome — the only way corruption
/// can go undetected — exactly when their classes match.
pub fn crc_class(bit: u32) -> u32 {
    assert!(bit < 64, "bit {bit} out of range");
    if bit < PAYLOAD_BITS {
        bit % 7
    } else {
        (bit - PAYLOAD_BITS) % 7
    }
}

/// Whether a double flip at `a` and `b` is the documented CRC-3
/// escape (undetectable by the integrity check alone).
pub fn double_flip_escapes(a: u32, b: u32) -> bool {
    a != b && crc_class(a) == crc_class(b)
}

/// Returns the record with one bit flipped.
pub fn flip_bit(record: CompressedBounds, bit: u32) -> CompressedBounds {
    assert!(bit < 64, "bit {bit} out of range");
    CompressedBounds::from_raw(record.to_raw() ^ (1u64 << bit))
}

/// Returns the record with every listed bit flipped.
pub fn flip_bits(record: CompressedBounds, bits: &[u32]) -> CompressedBounds {
    bits.iter().fold(record, |r, &b| flip_bit(r, b))
}

/// Flips one bit of the stored record at `(pac, way, slot)` in place.
pub fn tamper_slot(table: &mut HashedBoundsTable, pac: u64, way: u32, slot: u32, bit: u32) {
    let record = table.peek_way(pac, way)[slot as usize];
    table.poke_slot(pac, way, slot, flip_bit(record, bit));
}

/// Erases every record in one way of a row — the "lost way" fault
/// (e.g. a dropped dirty line during migration). Returns how many
/// live records were lost.
pub fn lose_way(table: &mut HashedBoundsTable, pac: u64, way: u32) -> u32 {
    let mut lost = 0;
    for slot in 0..BOUNDS_PER_WAY {
        let record = table.peek_way(pac, way)[slot as usize];
        if !record.is_empty() {
            lost += 1;
            table.poke_slot(pac, way, slot, CompressedBounds::EMPTY);
        }
    }
    lost
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_core::mcu::{McuConfig, McuOp, MemoryCheckUnit};
    use aos_core::ptrauth::PointerLayout;
    use aos_hbt::HbtConfig;

    /// A table and the MCU that stores into and checks against it.
    struct Checked {
        table: HashedBoundsTable,
        mcu: MemoryCheckUnit,
        layout: PointerLayout,
    }

    impl Checked {
        fn new() -> Self {
            let layout = PointerLayout::default();
            Self {
                table: HashedBoundsTable::new(HbtConfig::default()),
                mcu: MemoryCheckUnit::new(McuConfig::default(), layout),
                layout,
            }
        }

        fn store(&mut self, pac: u64, base: u64, size: u64) {
            let pointer = self.layout.compose(base, pac, 1);
            self.mcu
                .run_sync(McuOp::BndStr { pointer, size }, &mut self.table)
                .expect("bounds store");
        }

        /// Whether a signed load of `addr` passes its bounds check.
        fn passes(&mut self, pac: u64, addr: u64) -> bool {
            let pointer = self.layout.compose(addr, pac, 1);
            let access = McuOp::Access {
                pointer,
                is_store: false,
            };
            self.mcu.run_sync(access, &mut self.table).is_ok()
        }
    }

    #[test]
    fn single_bit_tamper_fails_closed_at_the_table() {
        let mut c = Checked::new();
        let pac = 0x42;
        c.store(pac, 0x1000, 64);
        assert!(c.passes(pac, 0x1000 + 8));
        for bit in 0..64 {
            tamper_slot(&mut c.table, pac, 0, 0, bit);
            assert!(
                !c.passes(pac, 0x1000 + 8),
                "bit {bit} flip must not validate the access"
            );
            tamper_slot(&mut c.table, pac, 0, 0, bit); // restore
        }
        assert!(c.passes(pac, 0x1000 + 8), "restored record validates again");
    }

    #[test]
    fn lost_way_turns_valid_accesses_into_detected_misses() {
        let mut c = Checked::new();
        let pac = 0x17;
        c.store(pac, 0x2000, 128);
        assert_eq!(lose_way(&mut c.table, pac, 0), 1);
        assert!(!c.passes(pac, 0x2000));
        assert_eq!(c.table.row_occupancy(pac), 0);
    }

    #[test]
    fn escape_predicate_matches_residue_arithmetic() {
        // Pure-payload pairs escape iff their distance is 0 mod 7.
        assert!(double_flip_escapes(0, 7));
        assert!(double_flip_escapes(3, 59)); // 59 - 3 = 56 = 8*7
        assert!(!double_flip_escapes(0, 1));
        // CRC bit 61 has class 0, cancelling payload class-0 bits.
        assert!(double_flip_escapes(61, 0));
        assert!(double_flip_escapes(62, 1));
        assert!(double_flip_escapes(63, 2));
        assert!(!double_flip_escapes(61, 1));
        // A bit never escapes with itself (that is "no flip at all").
        assert!(!double_flip_escapes(5, 5));
    }
}
