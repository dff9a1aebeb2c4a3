//! The 8-byte bounds compression of paper Fig. 9.
//!
//! `malloc` returns 16-byte-aligned pointers and takes a 32-bit size,
//! so a bounds record can drop the lower bound's low 4 bits and its
//! bits above 32: 29 bits of partial lower bound plus the 32-bit size
//! fit in one 8-byte word, halving the metadata footprint of a naive
//! (lower, upper) pair and letting one 64-byte cache line carry eight
//! bounds for parallel checking.
//!
//! The three bits Fig. 9 leaves reserved (`[63:61]`) carry a CRC-3
//! integrity code here (generator `x³+x+1`, primitive) over the 61
//! payload bits. A record whose CRC does not verify **fails closed**:
//! [`CompressedBounds::check`] and [`CompressedBounds::matches_base`]
//! treat it as matching nothing, so a bit-flipped table entry surfaces
//! as a bounds-check/clear failure (the AOS exception path) rather
//! than silently validating a rogue access. CRC-3 detects every
//! single-bit flip and all double-bit flips except pairs of bits in
//! the same residue class mod 7 (because `x` has order 7 modulo the
//! generator) — see DESIGN.md "Fault model & error taxonomy".

/// Why a (base, size) pair cannot be encoded as [`CompressedBounds`].
///
/// Raised by [`CompressedBounds::try_encode`] when the input violates
/// one of the `malloc` properties the compression scheme relies on —
/// the typed form of what a crafted or replayed trace can get wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MalformedBounds {
    /// The rejected lower bound.
    pub base: u64,
    /// The rejected size.
    pub size: u64,
    /// Which encoding property failed.
    pub reason: &'static str,
}

impl std::fmt::Display for MalformedBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot encode bounds base={:#x} size={}: {}",
            self.base, self.size, self.reason
        )
    }
}

impl std::error::Error for MalformedBounds {}

/// One compressed bounds record.
///
/// Bit layout (Fig. 9a): `[63:61]` CRC-3 over the payload (reserved
/// in the paper), `[60:32]` = lower-bound bits `[32:4]`, `[31:0]` =
/// size. The all-zero word is reserved as the *empty* encoding
/// (`bndclr` writes it), which is unambiguous because a real record
/// always has a nonzero size — and self-consistent, since the CRC of
/// zero is zero.
///
/// # Examples
///
/// ```
/// use aos_hbt::CompressedBounds;
/// let b = CompressedBounds::encode(0x4000_0010, 64);
/// assert!(b.check(0x4000_0010));
/// assert!(b.check(0x4000_004F));
/// assert!(!b.check(0x4000_0050));
/// assert!(!b.check(0x4000_000F));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CompressedBounds(u64);

impl CompressedBounds {
    /// The empty (cleared) encoding.
    pub const EMPTY: CompressedBounds = CompressedBounds(0);

    /// Encodes the bounds of a chunk at `base` spanning `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 16-byte aligned or `size` is zero or
    /// does not fit 32 bits — the `malloc` properties the scheme
    /// relies on. Untrusted inputs (decoded traces, injected faults)
    /// go through [`CompressedBounds::try_encode`] instead.
    pub fn encode(base: u64, size: u64) -> Self {
        match Self::try_encode(base, size) {
            Ok(b) => b,
            Err(e) => panic!("{}", e.reason),
        }
    }

    /// Fallible [`CompressedBounds::encode`] for untrusted inputs.
    ///
    /// # Errors
    ///
    /// Returns [`MalformedBounds`] naming the violated property when
    /// `base` is misaligned or `size` is zero or wider than 32 bits.
    pub fn try_encode(base: u64, size: u64) -> Result<Self, MalformedBounds> {
        let reason = if !base.is_multiple_of(16) {
            Some("base must be 16-byte aligned")
        } else if size == 0 {
            Some("size must be nonzero")
        } else if size > u32::MAX as u64 {
            Some("size must fit 32 bits")
        } else {
            None
        };
        if let Some(reason) = reason {
            return Err(MalformedBounds { base, size, reason });
        }
        let low_partial = (base >> 4) & ((1 << 29) - 1);
        let payload = (low_partial << 32) | size;
        Ok(Self((crc3(payload) << PAYLOAD_BITS) | payload))
    }

    /// Reconstructs a record from its raw 8-byte representation (e.g.
    /// read back out of the table memory).
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw 8-byte representation stored in the HBT.
    pub fn to_raw(self) -> u64 {
        self.0
    }

    /// Returns `true` for the cleared encoding.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Verifies the CRC-3 in bits `[63:61]` against the 61-bit
    /// payload. Every record produced by `encode` verifies; a record
    /// read back from table memory after a bit flip (almost) never
    /// does — see the module docs for the exact guarantee.
    pub fn integrity_ok(self) -> bool {
        (self.0 >> PAYLOAD_BITS) == crc3(self.0 & PAYLOAD_MASK)
    }

    /// The decompressed 33-bit-domain lower bound (`dLowBnd`,
    /// Fig. 9b).
    pub fn lower(self) -> u64 {
        ((self.0 >> 32) & ((1 << 29) - 1)) << 4
    }

    /// The decompressed upper bound (`dUppBnd` = lower + size,
    /// exclusive).
    pub fn upper(self) -> u64 {
        self.lower() + self.size()
    }

    /// The stored 32-bit size.
    pub fn size(self) -> u64 {
        self.0 & 0xFFFF_FFFF
    }

    /// The truncated address compared against the decompressed bounds:
    /// `tAddr = C ‖ addr[32:0]` with the carry-compensation bit
    /// `C = LowBnd[32] & !addr[32]` (Fig. 9b).
    fn truncated_addr(self, addr: u64) -> u64 {
        let low_bit32 = (self.0 >> 60) & 1; // LowBnd[32] sits at raw bit 60.
        let addr_bit32 = (addr >> 32) & 1;
        let c = low_bit32 & (1 ^ addr_bit32);
        (c << 33) | (addr & 0x1_FFFF_FFFF)
    }

    /// Bounds check: is `addr` inside `[lower, upper)`?
    ///
    /// Only the low 33 address bits participate (plus the carry
    /// compensation), so addresses exactly 8 GiB apart with the same
    /// PAC would false-positively pass — the aliasing the paper argues
    /// is unexploitable (§V-D, §VII-E).
    ///
    /// A record whose CRC does not verify fails closed: it matches no
    /// address, so the enclosing access raises the bounds-check
    /// exception instead of trusting corrupted bounds. The range test
    /// runs first, so the CRC is only computed for a record that
    /// would otherwise match (the empty record's range is empty).
    pub fn check(self, addr: u64) -> bool {
        let t = self.truncated_addr(addr);
        self.lower() <= t && t < self.upper() && self.integrity_ok()
    }

    /// Returns `true` if `addr` is exactly this record's (partial)
    /// lower bound — the occupancy test `bndclr` performs before
    /// clearing (paper §V-A2). Fails closed on a bad CRC, like
    /// [`CompressedBounds::check`], which it also only computes for a
    /// matching record.
    pub fn matches_base(self, addr: u64) -> bool {
        !self.is_empty()
            && ((addr >> 4) & ((1 << 29) - 1)) == (self.0 >> 32) & ((1 << 29) - 1)
            && self.integrity_ok()
    }
}

/// Payload width: everything below the CRC field.
const PAYLOAD_BITS: u64 = 61;
/// Mask selecting the payload bits `[60:0]`.
const PAYLOAD_MASK: u64 = (1 << PAYLOAD_BITS) - 1;

/// CRC-3 of the 61-bit payload, generator `g(x) = x³ + x + 1`
/// (primitive, so `x` has multiplicative order 7 modulo `g`).
///
/// Computed as `payload(x) mod g` by residue-class folding rather
/// than a bit-serial shift: payload bit `i` contributes `x^i mod g`,
/// which depends only on `i mod 7`, so the payload folds into seven
/// parity bits that are combined with the seven precomputed residues
/// — O(7) popcounts instead of a 61-step loop, cheap enough for the
/// MCU check path.
fn crc3(payload: u64) -> u64 {
    // RESIDUE[c] = x^c mod g: 1, x, x², x+1, x²+x, x²+x+1, x²+1.
    const RESIDUE: [u64; 7] = [0b001, 0b010, 0b100, 0b011, 0b110, 0b111, 0b101];
    const fn class_mask(c: u64) -> u64 {
        let mut mask = 0u64;
        let mut i = 0;
        while i < PAYLOAD_BITS {
            if i % 7 == c {
                mask |= 1 << i;
            }
            i += 1;
        }
        mask
    }
    const MASKS: [u64; 7] = [
        class_mask(0),
        class_mask(1),
        class_mask(2),
        class_mask(3),
        class_mask(4),
        class_mask(5),
        class_mask(6),
    ];
    let mut crc = 0;
    let mut c = 0;
    while c < 7 {
        crc ^= RESIDUE[c] * (u64::from((payload & MASKS[c]).count_ones()) & 1);
        c += 1;
    }
    crc
}

impl std::fmt::Display for CompressedBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            write!(f, "[empty]")
        } else if !self.integrity_ok() {
            write!(f, "[corrupt raw={:#018x}]", self.0)
        } else {
            write!(f, "[{:#x}, {:#x})", self.lower(), self.upper())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_raw() {
        let b = CompressedBounds::encode(0x1234_5670, 4096);
        assert_eq!(CompressedBounds::from_raw(b.to_raw()), b);
    }

    #[test]
    fn empty_is_all_zero_and_never_matches() {
        assert!(CompressedBounds::EMPTY.is_empty());
        assert_eq!(CompressedBounds::EMPTY.to_raw(), 0);
        assert!(!CompressedBounds::EMPTY.check(0));
        assert!(!CompressedBounds::EMPTY.matches_base(0));
    }

    #[test]
    fn check_is_half_open() {
        let b = CompressedBounds::encode(0x8000, 256);
        assert!(b.check(0x8000));
        assert!(b.check(0x80FF));
        assert!(!b.check(0x8100));
        assert!(!b.check(0x7FFF));
    }

    #[test]
    fn single_granule_chunk() {
        let b = CompressedBounds::encode(0x10, 16);
        assert!(b.check(0x10));
        assert!(b.check(0x1F));
        assert!(!b.check(0x20));
        assert!(!b.check(0x00));
    }

    #[test]
    fn carry_compensation_across_8gib_boundary() {
        // Chunk starting just below 2^33 and spilling past it: the
        // upper part of the address loses bit 33, and the C bit must
        // compensate.
        let base = (1u64 << 33) - 64;
        let b = CompressedBounds::encode(base, 128);
        assert!(b.check(base));
        assert!(b.check(base + 64), "address past the 2^33 wrap");
        assert!(b.check(base + 127));
        assert!(!b.check(base + 128));
    }

    #[test]
    fn aliasing_at_8gib_multiples_is_the_documented_false_positive() {
        let b = CompressedBounds::encode(0x4000_0010, 64);
        // Same low 33 bits, 8 GiB away: the check cannot distinguish.
        let alias = 0x4000_0010 + (1u64 << 34);
        assert!(b.check(alias + 8), "documented aliasing limitation");
    }

    #[test]
    fn matches_base_exact_only() {
        let b = CompressedBounds::encode(0xA000, 256);
        assert!(b.matches_base(0xA000));
        assert!(!b.matches_base(0xA010));
        assert!(!b.matches_base(0x9FF0));
    }

    #[test]
    fn size_and_bounds_accessors() {
        let b = CompressedBounds::encode(0x20_0000, 1000);
        assert_eq!(b.size(), 1000);
        assert_eq!(b.lower(), 0x20_0000);
        assert_eq!(b.upper(), 0x20_0000 + 1000);
    }

    #[test]
    fn max_size_fits() {
        let b = CompressedBounds::encode(0x10, u32::MAX as u64);
        assert_eq!(b.size(), u32::MAX as u64);
        assert!(b.check(0x10));
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_base_rejected() {
        CompressedBounds::encode(0x11, 16);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_size_rejected() {
        CompressedBounds::encode(0x10, 0);
    }

    #[test]
    #[should_panic(expected = "32 bits")]
    fn oversized_rejected() {
        CompressedBounds::encode(0x10, 1 << 33);
    }

    #[test]
    fn display_shows_range() {
        let b = CompressedBounds::encode(0x100, 16);
        assert_eq!(b.to_string(), "[0x100, 0x110)");
        assert_eq!(CompressedBounds::EMPTY.to_string(), "[empty]");
    }

    /// Bit-serial long division, the textbook reference the folded
    /// implementation must agree with.
    fn crc3_reference(payload: u64) -> u64 {
        let mut rem = 0u64;
        for i in (0..61).rev() {
            rem = (rem << 1) | ((payload >> i) & 1);
            if rem & 0b1000 != 0 {
                rem ^= 0b1011;
            }
        }
        rem & 0b111
    }

    #[test]
    fn folded_crc_matches_bit_serial_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            // SplitMix64-style scramble for coverage of the domain.
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (x >> 27);
            let payload = x & ((1 << 61) - 1);
            assert_eq!(
                crc3(payload),
                crc3_reference(payload),
                "payload={payload:#x}"
            );
        }
        assert_eq!(crc3(0), 0, "EMPTY must stay self-consistent");
    }

    #[test]
    fn encoded_records_verify_and_empty_is_consistent() {
        assert!(CompressedBounds::encode(0x4000_0010, 64).integrity_ok());
        assert!(CompressedBounds::encode(0x10, u32::MAX as u64).integrity_ok());
        assert!(CompressedBounds::EMPTY.integrity_ok());
    }

    #[test]
    fn try_encode_rejects_what_encode_panics_on() {
        assert!(CompressedBounds::try_encode(0x4000_0010, 64).is_ok());
        let e = CompressedBounds::try_encode(0x11, 16).unwrap_err();
        assert!(e.reason.contains("aligned"), "{e}");
        let e = CompressedBounds::try_encode(0x10, 0).unwrap_err();
        assert!(e.reason.contains("nonzero"), "{e}");
        let e = CompressedBounds::try_encode(0x10, 1 << 33).unwrap_err();
        assert!(e.reason.contains("32 bits"), "{e}");
        assert!(e.to_string().contains("cannot encode bounds"));
    }

    #[test]
    fn single_bit_flips_always_fail_closed() {
        let b = CompressedBounds::encode(0x4000_0010, 64);
        for bit in 0..64 {
            let flipped = CompressedBounds::from_raw(b.to_raw() ^ (1 << bit));
            assert!(!flipped.integrity_ok(), "bit {bit} escaped the CRC");
            // Fail-closed: the corrupted record validates nothing, not
            // even the formerly in-bounds base address.
            assert!(!flipped.check(0x4000_0010), "bit {bit}");
            assert!(!flipped.check(0x4000_004F), "bit {bit}");
            assert!(!flipped.matches_base(0x4000_0010), "bit {bit}");
        }
    }

    #[test]
    fn corrupt_record_displays_raw() {
        let b = CompressedBounds::encode(0x100, 16);
        let corrupt = CompressedBounds::from_raw(b.to_raw() ^ 1);
        assert!(corrupt.to_string().starts_with("[corrupt raw="));
    }
}
