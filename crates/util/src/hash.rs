//! FNV-1a 64: the one stable, dependency-free hash behind the
//! workload seeds, the serve protocol's result digests and the fuzz
//! coverage fingerprints. Changing it moves every generated trace.
//!
//! Also [`PacMap`], the map every per-PAC state table keys by PAC.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

/// A map keyed by PAC (or any other `u64` the program computes
/// itself), hashed with one multiply instead of SipHash.
///
/// The static verifiers and the fault planner probe such a map on
/// every signed op. A PAC is at most 16 bits wide and computed by the
/// program, so SipHash's flood resistance buys nothing there while its
/// rounds cost time on every probe. The multiply mixes every key
/// bit into the high bits the table's tag byte reads, and being odd
/// it keeps distinct low bits distinct in the bucket index. Iteration
/// order is unspecified, as with any `HashMap`: sort before output.
/// Keys chosen by an adversary could make every key collide, so keep
/// input from outside the program out of it.
///
/// # Examples
///
/// ```
/// use aos_util::hash::PacMap;
///
/// let mut live: PacMap<u32> = PacMap::default();
/// *live.entry(0xbeef).or_default() += 1;
/// assert_eq!(live.get(&0xbeef), Some(&1));
/// ```
pub type PacMap<V> = HashMap<u64, V, BuildHasherDefault<PacHasher>>;

/// The [`PacMap`] hasher: a multiplicative (Fibonacci) hash of the
/// key's words.
#[derive(Debug, Default, Clone, Copy)]
pub struct PacHasher(u64);

/// 2^64 divided by the golden ratio, rounded to odd.
const FIBONACCI_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for PacHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FIBONACCI_MULTIPLIER);
    }

    fn finish(&self) -> u64 {
        self.0
    }
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

    #[test]
    fn pac_hash_spreads_small_keys_into_the_tag_bits() {
        // hashbrown's tag byte is the hash's top 7 bits: 16-bit keys
        // must not all land on a few tags.
        let tags: std::collections::BTreeSet<u64> = (0..1u64 << 16)
            .map(|pac| {
                let mut h = PacHasher::default();
                h.write_u64(pac);
                h.finish() >> 57
            })
            .collect();
        assert_eq!(tags.len(), 128);
    }
}
