//! QARMA-64 as specified for Arm Pointer Authentication (`ComputePAC`).
//!
//! AOS computes each pointer authentication code (PAC) by running the
//! pointer through the Armv8.3-A `ComputePAC` function — a five-round
//! QARMA-64 instance with the σ2 S-box — keyed by a 128-bit key held in
//! system registers and tweaked by a 64-bit *modifier* (paper §II-B).
//! This crate implements that function bit-exactly per the Arm
//! Architecture Reference Manual pseudocode.
//!
//! Validation: the test suite pins the implementation to reference
//! vectors generated from QEMU's independent implementation of the same
//! pseudocode (`target/arm/pauth_helper.c`), including the vector for
//! the key `0x84be85ce9804e94b_ec2802d4e0a488e9` and context
//! `0x477d469dec0b8762` that the AOS paper uses for its Fig. 11 PAC
//! distribution study (output `0xc003b93999b33765` for the canonical
//! QARMA plaintext).
//!
//! # Examples
//!
//! ```
//! use aos_qarma::{PacKey, Qarma64};
//!
//! let key = PacKey::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9);
//! let cipher = Qarma64::new(key);
//! let out = cipher.compute(0xfb623599da6e8127, 0x477d469dec0b8762);
//! assert_eq!(out, 0xc003b93999b33765);
//! // The cipher is a (tweaked) permutation, so it is invertible:
//! assert_eq!(cipher.invert(out, 0x477d469dec0b8762), 0xfb623599da6e8127);
//! ```

mod ops;
mod pac;
mod tables;

pub use pac::{PacKey, Qarma64};

/// Truncates a 64-bit QARMA output to a `bits`-wide PAC (the low `bits`
/// bits), as a PA core does before inserting the PAC into a pointer's
/// unused upper bits.
///
/// # Panics
///
/// Panics unless `1 <= bits <= 32`, the PAC size range the paper cites
/// for typical virtual address schemes.
///
/// # Examples
///
/// ```
/// assert_eq!(aos_qarma::truncate_pac(0xABCD_1234_5678_9ABC, 16), 0x9ABC);
/// ```
pub fn truncate_pac(cipher_output: u64, bits: u32) -> u64 {
    assert!(
        (1..=32).contains(&bits),
        "PAC size must be 1..=32 bits, got {bits}"
    );
    cipher_output & ((1u64 << bits) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_pac_masks_low_bits() {
        assert_eq!(truncate_pac(u64::MAX, 11), 0x7FF);
        assert_eq!(truncate_pac(u64::MAX, 32), 0xFFFF_FFFF);
        assert_eq!(truncate_pac(0, 16), 0);
    }

    #[test]
    #[should_panic(expected = "PAC size")]
    fn truncate_pac_rejects_zero_width() {
        truncate_pac(1, 0);
    }

    #[test]
    #[should_panic(expected = "PAC size")]
    fn truncate_pac_rejects_wide() {
        truncate_pac(1, 33);
    }
}
