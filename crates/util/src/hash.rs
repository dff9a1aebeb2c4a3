//! FNV-1a 64: the one stable, dependency-free hash behind the
//! workload seeds, the serve protocol's result digests and the fuzz
//! coverage fingerprints. Changing it moves every generated trace.

/// The FNV-1a 64 offset basis: the hash of no bytes.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a 64 round over `bytes`, continuing from `hash` (start
/// from [`FNV1A64_OFFSET`]).
///
/// # Examples
///
/// ```
/// use aos_util::hash::{fnv1a64, FNV1A64_OFFSET};
///
/// let whole = fnv1a64(FNV1A64_OFFSET, b"ab");
/// assert_eq!(fnv1a64(fnv1a64(FNV1A64_OFFSET, b"a"), b"b"), whole);
/// ```
pub fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(fnv1a64(FNV1A64_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(FNV1A64_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(FNV1A64_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }
}
