//! Byte-indexed tables for the forward `ComputePAC` datapath, built at
//! compile time from the cell ops in [`crate::ops`].
//!
//! Each op in a QARMA round either maps every cell on its own (the
//! S-boxes) or is linear over GF(2) (the cell shuffles and `PACMult`).
//! Viewing the 64-bit state as eight bytes:
//!
//! - a cell-wise S-box maps each byte on its own, so one 256-entry
//!   table per S-box replaces sixteen nibble lookups with eight byte
//!   lookups;
//! - a linear map `L` satisfies `L(x) = ⊕ⱼ L(byteⱼ(x) << 8j)`, so eight
//!   256-entry tables of `u64` — one per byte position — evaluate it
//!   in eight lookups and seven XORs. A cell-wise S-box applied
//!   *before* a linear map folds into the same tables.
//!
//! Two such fused tables cover every round: `mult ∘ cell_shuffle` (the
//! forward rounds and the reflector's first half) and
//! `cell_inv_shuffle ∘ mult ∘ inv_sub` (the backward rounds and the
//! reflector's second half).

use crate::ops::{cell_inv_shuffle, cell_shuffle, inv_sub, mult, sub};

/// Eight per-byte-position tables evaluating one 64-bit map.
pub(crate) type ByteTables = [[u64; 256]; 8];

/// Byte S-box for [`sub`].
pub(crate) static SUB: [u8; 256] = sbox(false);
/// Byte S-box for [`inv_sub`].
pub(crate) static INV_SUB: [u8; 256] = sbox(true);
/// `mult ∘ cell_shuffle`.
pub(crate) static SHUFFLE_MULT: ByteTables = byte_tables(false);
/// `cell_inv_shuffle ∘ mult ∘ inv_sub`.
pub(crate) static INV_SUB_MULT_SHUFFLE: ByteTables = byte_tables(true);

const fn sbox(inverse: bool) -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = if inverse {
            inv_sub(b as u64)
        } else {
            sub(b as u64)
        } as u8;
        b += 1;
    }
    t
}

const fn byte_tables(inverse: bool) -> ByteTables {
    let mut t = [[0u64; 256]; 8];
    let mut j = 0;
    while j < 8 {
        let mut b = 0;
        while b < 256 {
            let x = (b as u64) << (8 * j);
            t[j][b] = if inverse {
                cell_inv_shuffle(mult(inv_sub(x) & (0xFF << (8 * j))))
            } else {
                mult(cell_shuffle(x))
            };
            b += 1;
        }
        j += 1;
    }
    t
}

/// Applies a byte S-box to all eight bytes.
#[inline(always)]
pub(crate) fn substitute(sbox: &[u8; 256], x: u64) -> u64 {
    u64::from_le_bytes(x.to_le_bytes().map(|b| sbox[b as usize]))
}

/// Evaluates the map `tables` stands for.
#[inline(always)]
pub(crate) fn apply(tables: &ByteTables, x: u64) -> u64 {
    let b = x.to_le_bytes();
    (tables[0][b[0] as usize] ^ tables[1][b[1] as usize])
        ^ (tables[2][b[2] as usize] ^ tables[3][b[3] as usize])
        ^ ((tables[4][b[4] as usize] ^ tables[5][b[5] as usize])
            ^ (tables[6][b[6] as usize] ^ tables[7][b[7] as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: [u64; 6] = [
        0,
        u64::MAX,
        0x0123_4567_89AB_CDEF,
        0xFEDC_BA98_7654_3210,
        0xDEAD_BEEF_CAFE_F00D,
        0x8000_0000_0000_0001,
    ];

    #[test]
    fn tables_evaluate_their_ops() {
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let samples = SAMPLES.into_iter().chain((0..4096).map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        }));
        for s in samples {
            assert_eq!(substitute(&SUB, s), sub(s), "{s:#x}");
            assert_eq!(substitute(&INV_SUB, s), inv_sub(s), "{s:#x}");
            assert_eq!(apply(&SHUFFLE_MULT, s), mult(cell_shuffle(s)), "{s:#x}");
            assert_eq!(
                apply(&INV_SUB_MULT_SHUFFLE, s),
                cell_inv_shuffle(mult(inv_sub(s))),
                "{s:#x}"
            );
        }
    }
}
