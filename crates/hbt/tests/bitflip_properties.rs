//! Property tests for the CRC-3 integrity field of compressed bounds
//! records under single- and double-bit corruption.
//!
//! The contract: a corrupted record must **fail closed** — it may
//! never validate an access the uncorrupted record would have
//! rejected. Single-bit flips are always caught (every bit position
//! has a nonzero syndrome contribution). Double-bit flips are caught
//! exactly when the two positions fall in *different* CRC residue
//! classes; the same-class escape is the documented limit of a 3-bit
//! code and is pinned here so it cannot silently widen.

use proptest::prelude::*;

use aos_hbt::CompressedBounds;

/// CRC-3 residue class of a raw-record bit position: payload bit `p`
/// contributes `x^p mod g`, check bit `c` (bits 61..64) cancels
/// payload class `c - 61`.
fn crc_class(bit: u32) -> u32 {
    if bit < 61 {
        bit % 7
    } else {
        (bit - 61) % 7
    }
}

fn flip(record: CompressedBounds, bit: u32) -> CompressedBounds {
    CompressedBounds::from_raw(record.to_raw() ^ (1u64 << bit))
}

proptest! {
    /// Encoding round-trips exactly for every legal (base, size), and
    /// the untampered record validates its own range.
    #[test]
    fn encode_roundtrips_and_validates(
        base16 in 1u64..(1 << 28),
        size in 1u64..=(u32::MAX as u64),
    ) {
        let base = base16 * 16;
        let b = CompressedBounds::encode(base, size);
        prop_assert!(b.integrity_ok());
        prop_assert_eq!(b.size(), size);
        prop_assert_eq!(b.lower(), base & (((1u64 << 29) - 1) << 4));
        prop_assert!(b.check(base));
        prop_assert!(b.matches_base(base));
    }

    /// Any single-bit flip anywhere in the 64-bit record is caught:
    /// the record validates nothing at all afterwards.
    #[test]
    fn single_bit_flips_never_validate_anything(
        base16 in 1u64..(1 << 28),
        size in 1u64..=(u32::MAX as u64),
        bit in 0u32..64,
        probe in 0u64..(1 << 20),
    ) {
        let base = base16 * 16;
        let b = flip(CompressedBounds::encode(base, size), bit);
        prop_assert!(!b.integrity_ok() || b.is_empty());
        // Fail closed: in-bounds, boundary and arbitrary addresses
        // all refuse to validate.
        prop_assert!(!b.check(base));
        prop_assert!(!b.check(base + probe % size));
        prop_assert!(!b.matches_base(base));
    }

    /// A double flip across *different* CRC residue classes is always
    /// caught — the corrupted record never validates an access that
    /// is out of bounds for the original record, and in fact
    /// validates nothing.
    #[test]
    fn cross_class_double_flips_never_validate_oob(
        base16 in 1u64..(1 << 28),
        size in 1u64..=(u32::MAX as u64),
        a in 0u32..64,
        b in 0u32..64,
        probe in 0u64..(1 << 33),
    ) {
        if a == b || crc_class(a) == crc_class(b) {
            return Ok(());
        }
        let base = base16 * 16;
        let original = CompressedBounds::encode(base, size);
        let corrupted = flip(flip(original, a), b);
        prop_assert!(!corrupted.integrity_ok());
        let oob = !original.check(probe);
        if oob {
            prop_assert!(!corrupted.check(probe), "bits {a},{b} validated an OOB probe");
        }
        // Stronger: a cross-class corruption validates nothing.
        prop_assert!(!corrupted.check(probe));
        prop_assert!(!corrupted.matches_base(base));
    }

    /// The range test runs before the CRC, so at an address inside a
    /// corrupted record's own (corrupted) range only the CRC stands
    /// between the record and a match. A single flip (`a == b`) or a
    /// cross-class double flip still fails closed there, and never
    /// matches the record's own lower bound either.
    #[test]
    fn corrupted_records_fail_closed_inside_their_own_range(
        base16 in 1u64..(1 << 28),
        size in 1u64..=(u32::MAX as u64),
        a in 0u32..64,
        b in 0u32..64,
        offset in any::<u64>(),
    ) {
        if a != b && crc_class(a) == crc_class(b) {
            return Ok(());
        }
        let original = CompressedBounds::encode(base16 * 16, size);
        let corrupted = if a == b {
            flip(original, a)
        } else {
            flip(flip(original, a), b)
        };
        let addr = corrupted.lower() + offset % corrupted.size().max(1);
        if corrupted.size() == 0 || addr >= 1 << 33 {
            // An empty range, or one past the 33-bit compare domain.
            return Ok(());
        }
        prop_assert!(!corrupted.integrity_ok());
        prop_assert!(corrupted.lower() <= addr && addr < corrupted.upper());
        prop_assert!(!corrupted.check(addr), "bits {a},{b} validated {addr:#x}");
        prop_assert!(!corrupted.matches_base(corrupted.lower()));
    }

    /// The documented escape, pinned: a double flip inside one residue
    /// class keeps the CRC syndrome at zero, so the integrity check
    /// alone cannot see it. This is the exact (and only) blind spot.
    #[test]
    fn same_class_double_flips_are_the_only_crc_escape(
        base16 in 1u64..(1 << 28),
        size in 1u64..=(u32::MAX as u64),
        a in 0u32..64,
        b in 0u32..64,
    ) {
        if a == b {
            return Ok(());
        }
        let corrupted = flip(flip(CompressedBounds::encode(base16 * 16, size), a), b);
        prop_assert_eq!(
            corrupted.integrity_ok(),
            crc_class(a) == crc_class(b),
            "escape predicate must match residue arithmetic for bits {} and {}",
            a,
            b
        );
    }
}
