//! The QARMA component operations from the Armv8.3 `ComputePAC`
//! pseudocode, working directly on a 64-bit state viewed as sixteen
//! 4-bit cells (cell *n* occupies bits `[4n+3:4n]`).
//!
//! These cell-by-cell ops are the readable form of the cipher. The
//! forward datapath runs on byte-indexed tables that [`crate::tables`]
//! builds from them at compile time (which is why the ops it needs are
//! `const fn`); the ops themselves serve [`crate::Qarma64::invert`] and
//! are the oracle the tables are tested against.

/// Extracts the 4-bit cell `n`.
#[inline]
const fn cell(state: u64, n: u32) -> u64 {
    (state >> (4 * n)) & 0xF
}

/// Rotates a 4-bit cell left by `n` (1..=3).
#[inline]
const fn rot_cell(cell: u64, n: u32) -> u64 {
    debug_assert!(n >= 1 && n < 4);
    ((cell << n) | (cell >> (4 - n))) & 0xF
}

/// Gathers output cell `n` from input cell `src[n]`.
const fn permute_cells(i: u64, src: &[u32; 16]) -> u64 {
    let mut o = 0u64;
    let mut n = 0;
    while n < 16 {
        o |= cell(i, src[n]) << (4 * n);
        n += 1;
    }
    o
}

/// Applies a 4-bit S-box to every cell.
const fn sub_cells(i: u64, sbox: &[u64; 16]) -> u64 {
    let mut o = 0u64;
    let mut n = 0;
    while n < 16 {
        o |= sbox[cell(i, n) as usize] << (4 * n);
        n += 1;
    }
    o
}

/// `PACCellShuffle`: the QARMA cell permutation τ.
pub(crate) const fn cell_shuffle(i: u64) -> u64 {
    // Source cell index, per output cell 0..15.
    const SRC: [u32; 16] = [13, 6, 11, 0, 7, 12, 1, 10, 8, 3, 14, 5, 2, 9, 4, 15];
    permute_cells(i, &SRC)
}

/// `PACCellInvShuffle`: inverse of [`cell_shuffle`].
pub(crate) const fn cell_inv_shuffle(i: u64) -> u64 {
    const SRC: [u32; 16] = [3, 6, 12, 9, 14, 11, 1, 4, 8, 13, 7, 2, 5, 0, 10, 15];
    permute_cells(i, &SRC)
}

/// `PACSub`: the σ2 S-box applied to every cell.
pub(crate) const fn sub(i: u64) -> u64 {
    const SUB: [u64; 16] = [
        0xB, 0x6, 0x8, 0xF, 0xC, 0x0, 0x9, 0xE, 0x3, 0x7, 0x4, 0x5, 0xD, 0x2, 0x1, 0xA,
    ];
    sub_cells(i, &SUB)
}

/// `PACInvSub`: inverse of [`sub`].
pub(crate) const fn inv_sub(i: u64) -> u64 {
    const INV: [u64; 16] = [
        0x5, 0xE, 0xD, 0x8, 0xA, 0xB, 0x1, 0x9, 0x2, 0x6, 0xF, 0x0, 0x4, 0xC, 0x7, 0x3,
    ];
    sub_cells(i, &INV)
}

/// `PACMult`: MixColumns with the involutory circulant matrix
/// M = circ(0, 1, 2, 1) over the four cells of each column (cells n,
/// n+4, n+8, n+12).
pub(crate) const fn mult(i: u64) -> u64 {
    let mut o = 0u64;
    let mut b = 0;
    while b < 4 {
        let i0 = cell(i, b);
        let i4 = cell(i, b + 4);
        let i8 = cell(i, b + 8);
        let ic = cell(i, b + 12);

        let t0 = rot_cell(i8, 1) ^ rot_cell(i4, 2) ^ rot_cell(i0, 1);
        let t1 = rot_cell(ic, 1) ^ rot_cell(i4, 1) ^ rot_cell(i0, 2);
        let t2 = rot_cell(ic, 2) ^ rot_cell(i8, 1) ^ rot_cell(i0, 1);
        let t3 = rot_cell(ic, 1) ^ rot_cell(i8, 2) ^ rot_cell(i4, 1);

        o |= t3 << (4 * b);
        o |= t2 << (4 * (b + 4));
        o |= t1 << (4 * (b + 8));
        o |= t0 << (4 * (b + 12));
        b += 1;
    }
    o
}

/// The ω LFSR clocked forward: (b3,b2,b1,b0) → (b0⊕b1, b3, b2, b1).
#[inline]
fn tweak_cell_rot(cell: u64) -> u64 {
    (cell >> 1) | (((cell ^ (cell >> 1)) & 1) << 3)
}

/// Inverse of [`tweak_cell_rot`]. The production datapath derives the
/// whole tweak sequence forward (the schedule keeps every tᵢ), so the
/// inverse direction survives only as the tests' oracle.
#[cfg_attr(not(test), allow(dead_code))]
#[inline]
fn tweak_cell_inv_rot(cell: u64) -> u64 {
    ((cell << 1) & 0xF) | ((cell & 1) ^ (cell >> 3))
}

/// The forward tweak update (`TweakShuffle` ∘ ω on selected cells).
pub(crate) fn tweak_shuffle(i: u64) -> u64 {
    // (source cell, whether ω is applied), per output cell 0..15.
    const SRC: [(u32, bool); 16] = [
        (4, false),
        (5, false),
        (6, true),
        (7, false),
        (11, true),
        (2, false),
        (3, false),
        (8, true),
        (12, false),
        (13, false),
        (14, false),
        (15, true),
        (0, true),
        (1, false),
        (10, true),
        (9, true),
    ];
    let mut o = 0u64;
    for (n, &(s, rot)) in SRC.iter().enumerate() {
        let c = cell(i, s);
        let c = if rot { tweak_cell_rot(c) } else { c };
        o |= c << (4 * n);
    }
    o
}

/// Inverse of [`tweak_shuffle`], kept as the oracle proving the forward
/// schedule in [`crate::Qarma64`] replays the same tweak sequence the
/// pseudocode's interleaved inverse walk would.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn tweak_inv_shuffle(i: u64) -> u64 {
    const SRC: [(u32, bool); 16] = [
        (12, true),
        (13, false),
        (5, false),
        (6, false),
        (0, false),
        (1, false),
        (2, true),
        (3, false),
        (7, true),
        (15, true),
        (14, true),
        (4, true),
        (8, false),
        (9, false),
        (10, false),
        (11, true),
    ];
    let mut o = 0u64;
    for (n, &(s, rot)) in SRC.iter().enumerate() {
        let c = cell(i, s);
        let c = if rot { tweak_cell_inv_rot(c) } else { c };
        o |= c << (4 * n);
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: [u64; 5] = [
        0,
        u64::MAX,
        0x0123_4567_89AB_CDEF,
        0xFEDC_BA98_7654_3210,
        0xDEAD_BEEF_CAFE_F00D,
    ];

    #[test]
    fn cell_shuffle_roundtrips() {
        for s in SAMPLES {
            assert_eq!(cell_inv_shuffle(cell_shuffle(s)), s);
            assert_eq!(cell_shuffle(cell_inv_shuffle(s)), s);
        }
    }

    #[test]
    fn sub_roundtrips() {
        for s in SAMPLES {
            assert_eq!(inv_sub(sub(s)), s);
            assert_eq!(sub(inv_sub(s)), s);
        }
    }

    #[test]
    fn mult_is_involutory() {
        for s in SAMPLES {
            assert_eq!(mult(mult(s)), s);
        }
        assert_ne!(mult(SAMPLES[2]), SAMPLES[2]);
    }

    #[test]
    fn tweak_shuffle_roundtrips() {
        for s in SAMPLES {
            assert_eq!(tweak_inv_shuffle(tweak_shuffle(s)), s);
            assert_eq!(tweak_shuffle(tweak_inv_shuffle(s)), s);
        }
    }

    #[test]
    fn tweak_cell_rot_roundtrips_all_nibbles() {
        for x in 0u64..16 {
            assert_eq!(tweak_cell_inv_rot(tweak_cell_rot(x)), x);
        }
    }

    #[test]
    fn lfsr_has_period_15_on_nonzero() {
        let mut x = 1u64;
        let mut period = 0;
        loop {
            x = tweak_cell_rot(x);
            period += 1;
            if x == 1 {
                break;
            }
        }
        assert_eq!(period, 15);
        assert_eq!(tweak_cell_rot(0), 0);
    }

    #[test]
    fn shuffles_preserve_cell_multiset() {
        // A permutation of cells must keep the sorted cell list intact.
        let s = 0x0123_4567_89AB_CDEFu64;
        let mut before: Vec<u64> = (0..16).map(|n| (s >> (4 * n)) & 0xF).collect();
        let shuffled = cell_shuffle(s);
        let mut after: Vec<u64> = (0..16).map(|n| (shuffled >> (4 * n)) & 0xF).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }
}
