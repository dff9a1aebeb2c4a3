//! The `ComputePAC` datapath: whitening, five forward rounds, the
//! reflector, five backward rounds.

use crate::ops::{cell_inv_shuffle, cell_shuffle, inv_sub, mult, sub, tweak_shuffle};
use crate::tables::{apply, substitute, INV_SUB, INV_SUB_MULT_SHUFFLE, SHUFFLE_MULT, SUB};

/// Round constants c₀..c₄ (leading digits of π, shared with PRINCE).
const RC: [u64; 5] = [
    0x0000_0000_0000_0000,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
    0x4528_21E6_38D0_1377,
];

/// The α constant XORed into every backward-round key.
const ALPHA: u64 = 0xC0AC_29B7_C97C_50DD;

/// A 128-bit pointer-authentication key, split as the architecture
/// does: `hi` holds key bits ⟨127:64⟩, `lo` holds bits ⟨63:0⟩.
///
/// In hardware these live in privileged system registers
/// (`APIAKey`, `APDAKey`, …) and are invisible to user space — the AOS
/// threat model (paper §III-D) assumes the attacker cannot read them.
///
/// # Examples
///
/// ```
/// use aos_qarma::PacKey;
/// let key = PacKey::from_u128(0x84be85ce9804e94b_ec2802d4e0a488e9);
/// assert_eq!(key.hi(), 0x84be85ce9804e94b);
/// assert_eq!(key.lo(), 0xec2802d4e0a488e9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PacKey {
    hi: u64,
    lo: u64,
}

impl PacKey {
    /// Creates a key from its two 64-bit halves.
    pub fn new(hi: u64, lo: u64) -> Self {
        Self { hi, lo }
    }

    /// Creates a key from a single 128-bit value.
    pub fn from_u128(key: u128) -> Self {
        Self {
            hi: (key >> 64) as u64,
            lo: key as u64,
        }
    }

    /// Key bits ⟨127:64⟩.
    pub fn hi(self) -> u64 {
        self.hi
    }

    /// Key bits ⟨63:0⟩.
    pub fn lo(self) -> u64 {
        self.lo
    }
}

impl From<u128> for PacKey {
    fn from(key: u128) -> Self {
        Self::from_u128(key)
    }
}

/// The Armv8.3 `ComputePAC` function: QARMA-64 with five rounds and the
/// σ2 S-box, keyed by a [`PacKey`] and tweaked by a 64-bit modifier.
///
/// # Examples
///
/// ```
/// use aos_qarma::{PacKey, Qarma64};
/// let q = Qarma64::new(PacKey::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9));
/// assert_eq!(q.compute(0xfb623599da6e8127, 0x477d469dec0b8762), 0xc003b93999b33765);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Qarma64 {
    key: PacKey,
    /// `o(key0)`: the orthomorphism-derived whitening key.
    modk0: u64,
    /// Forward round keys `key1 ⊕ cᵢ`.
    fwd_keys: [u64; 5],
    /// Backward round keys `c₄₋ᵢ ⊕ key1 ⊕ α`, in application order.
    bwd_keys: [u64; 5],
}

impl Qarma64 {
    /// Creates an instance with the given key, precomputing the
    /// whitening and per-round key material that is constant across
    /// calls — `compute` sits on the pointer-signing hot path and runs
    /// once per simulated malloc/load/store, so the schedule is built
    /// here instead of per invocation.
    pub fn new(key: PacKey) -> Self {
        let key0 = key.hi;
        let key1 = key.lo;
        let mut fwd_keys = [0u64; 5];
        let mut bwd_keys = [0u64; 5];
        for i in 0..RC.len() {
            fwd_keys[i] = key1 ^ RC[i];
            bwd_keys[i] = RC[RC.len() - 1 - i] ^ key1 ^ ALPHA;
        }
        Self {
            key,
            modk0: (key0 << 63) | ((key0 >> 1) ^ (key0 >> 63)),
            fwd_keys,
            bwd_keys,
        }
    }

    /// The configured key.
    pub fn key(&self) -> PacKey {
        self.key
    }

    /// The tweak sequence t₀..t₅ a single `ComputePAC` invocation walks
    /// through: t₀ is the modifier, tᵢ₊₁ = `tweak_shuffle(tᵢ)`. Forward
    /// round *i* consumes tᵢ, the central construction t₅, and backward
    /// round *i* re-consumes t₄₋ᵢ — so with the sequence in hand no
    /// inverse shuffles are needed at all.
    #[inline]
    fn tweak_schedule(modifier: u64) -> [u64; 6] {
        let mut t = [modifier; 6];
        for i in 1..t.len() {
            t[i] = tweak_shuffle(t[i - 1]);
        }
        t
    }

    /// The cipher datapath over `L` independent lanes sharing one tweak
    /// schedule, on the byte-indexed tables of [`crate::tables`]. The
    /// round structure is the outer loop and the lanes the inner one,
    /// so the table lookups of `L` lanes are independent loads the core
    /// can overlap, with no per-call setup.
    #[inline]
    fn compute_lanes<const L: usize>(&self, data: &[u64; L], tweaks: &[u64; 6]) -> [u64; L] {
        let key0 = self.key.hi;
        let key1 = self.key.lo;
        let mut w = *data;

        // Round 0 has no shuffle or MixColumns; rounds 1..=4 apply
        // `mult ∘ cell_shuffle` before the S-box.
        let k = key0 ^ self.fwd_keys[0] ^ tweaks[0];
        for lane in &mut w {
            *lane = substitute(&SUB, *lane ^ k);
        }
        for (i, round_key) in self.fwd_keys.iter().enumerate().skip(1) {
            let k = round_key ^ tweaks[i];
            for lane in &mut w {
                *lane = substitute(&SUB, apply(&SHUFFLE_MULT, *lane ^ k));
            }
        }

        // Central construction: full forward round keyed by
        // o(key0) ⊕ tweak, the keyed reflector, full backward round
        // keyed by key0 ⊕ tweak. After the reflector's key the
        // pseudocode runs `cell_inv_shuffle` twice around `mult` and
        // `inv_sub`; the fused table covers the last three steps, and
        // the leading shuffle runs as the cell op.
        let center_key = self.modk0 ^ tweaks[5];
        let exit_key = key0 ^ tweaks[5];
        for lane in &mut w {
            let mut x = apply(&SHUFFLE_MULT, *lane ^ center_key);
            x = apply(&SHUFFLE_MULT, substitute(&SUB, x)) ^ key1;
            x = apply(&INV_SUB_MULT_SHUFFLE, cell_inv_shuffle(x));
            *lane = x ^ exit_key;
        }

        // Backward rounds 0..=3 undo a forward round with
        // `cell_inv_shuffle ∘ mult ∘ inv_sub`; the last one only
        // inverts the S-box.
        let (last_key, keys) = self.bwd_keys.split_last().expect("five backward rounds");
        for (i, round_key) in keys.iter().enumerate() {
            let k = round_key ^ tweaks[RC.len() - 1 - i];
            for lane in &mut w {
                *lane = apply(&INV_SUB_MULT_SHUFFLE, *lane) ^ k;
            }
        }
        let k = last_key ^ tweaks[0] ^ self.modk0;
        for lane in &mut w {
            *lane = substitute(&INV_SUB, *lane) ^ k;
        }
        w
    }

    /// Runs `ComputePAC(data, modifier)`: the full 64-bit cipher
    /// output, before PAC truncation.
    pub fn compute(&self, data: u64, modifier: u64) -> u64 {
        self.compute_lanes(&[data], &Self::tweak_schedule(modifier))[0]
    }

    /// How many pointers [`Qarma64::compute_batch_uniform`] ciphers
    /// per inner lane group. Chosen to fill 512-bit vector units
    /// (8 × u64) while keeping the lane state register-resident.
    pub const BATCH_LANES: usize = 8;

    /// Runs `ComputePAC` over a batch that shares one modifier
    /// (pointer signing under a fixed context): `out[i] =
    /// compute(data[i], modifier)`, bit-identical to the per-call path.
    /// The tweak schedule is derived once for the whole batch and the
    /// cipher runs [`Qarma64::BATCH_LANES`] lanes at a time.
    ///
    /// # Panics
    ///
    /// Panics if `data` and `out` differ in length.
    ///
    /// # Examples
    ///
    /// ```
    /// use aos_qarma::{PacKey, Qarma64};
    /// let q = Qarma64::new(PacKey::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9));
    /// let data = [0xfb623599da6e8127u64; 3];
    /// let mut out = [0u64; 3];
    /// q.compute_batch_uniform(&data, 0x477d469dec0b8762, &mut out);
    /// assert_eq!(out, [0xc003b93999b33765; 3]);
    /// ```
    pub fn compute_batch_uniform(&self, data: &[u64], modifier: u64, out: &mut [u64]) {
        assert_eq!(data.len(), out.len(), "data/out length mismatch");
        let tweaks = Self::tweak_schedule(modifier);
        let mut chunks = data.chunks_exact(Self::BATCH_LANES);
        let mut outs = out.chunks_exact_mut(Self::BATCH_LANES);
        for (d, o) in (&mut chunks).zip(&mut outs) {
            let lanes: &[u64; Self::BATCH_LANES] =
                d.try_into().expect("chunks_exact yields full chunks");
            o.copy_from_slice(&self.compute_lanes(lanes, &tweaks));
        }
        for (&d, o) in chunks.remainder().iter().zip(outs.into_remainder()) {
            *o = self.compute_lanes(&[d], &tweaks)[0];
        }
    }

    /// Inverts [`Qarma64::compute`] for a given modifier.
    ///
    /// Hardware never needs this direction — a PAC is verified by
    /// recomputation — but the inverse both documents that `ComputePAC`
    /// is a permutation of the 64-bit space for every modifier and lets
    /// the tests prove it.
    pub fn invert(&self, output: u64, modifier: u64) -> u64 {
        let key0 = self.key.hi;
        let key1 = self.key.lo;
        let modk0 = self.modk0;

        // Reconstruct the tweak sequence: t0..t5 forward.
        let mut tweaks = [0u64; 6];
        tweaks[0] = modifier;
        for i in 1..6 {
            tweaks[i] = tweak_shuffle(tweaks[i - 1]);
        }

        let mut w = output ^ modk0;
        // Undo the backward half (it ran i = 0..=4 with tweaks
        // t4..t0 after inverse updates).
        for i in (0..RC.len()).rev() {
            let t = tweaks[RC.len() - 1 - i];
            w ^= RC[RC.len() - 1 - i] ^ key1 ^ t ^ ALPHA;
            if i < RC.len() - 1 {
                w = cell_shuffle(w);
                w = mult(w);
            }
            w = sub(w);
        }

        // Undo the central construction (each line inverts the
        // corresponding forward line, in reverse order).
        w ^= key0 ^ tweaks[5];
        w = cell_shuffle(w);
        w = mult(w);
        w = sub(w);
        w = cell_shuffle(w);
        w ^= key1;
        w = mult(w);
        w = cell_inv_shuffle(w);
        w = inv_sub(w);
        w = mult(w);
        w = cell_inv_shuffle(w);
        w ^= modk0 ^ tweaks[5];

        // Undo the forward rounds, highest round first.
        for i in (0..RC.len()).rev() {
            w = inv_sub(w);
            if i > 0 {
                w = mult(w);
                w = cell_inv_shuffle(w);
            }
            w ^= key1 ^ tweaks[i] ^ RC[i];
        }
        w ^ key0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::tweak_inv_shuffle;

    /// Reference vectors generated from QEMU's independent
    /// implementation of the Armv8.3 `ComputePAC` pseudocode
    /// (`target/arm/pauth_helper.c`): (data, modifier, key_hi, key_lo,
    /// expected).
    const VECTORS: [(u64, u64, u64, u64, u64); 8] = [
        (
            0xfb623599da6e8127,
            0x477d469dec0b8762,
            0x84be85ce9804e94b,
            0xec2802d4e0a488e9,
            0xc003b93999b33765,
        ),
        (0, 0, 0, 0, 0x76243b953592993d),
        (
            0,
            0,
            0x84be85ce9804e94b,
            0xec2802d4e0a488e9,
            0x47723a1bff2218da,
        ),
        (
            0xffffffffffffffff,
            0xffffffffffffffff,
            0xffffffffffffffff,
            0xffffffffffffffff,
            0x56b6776df0bf2ec3,
        ),
        (
            0x0000aaaabbbb0010,
            0,
            0x0123456789abcdef,
            0xfedcba9876543210,
            0x3c94e68f1b50a375,
        ),
        (
            0x0000aaaabbbb0020,
            0x00007ffff0001234,
            0x0123456789abcdef,
            0xfedcba9876543210,
            0x24245ee40e4adda5,
        ),
        (
            0x123456789abcdef0,
            0xdeadbeefcafef00d,
            0x0123456789abcdef,
            0xfedcba9876543210,
            0x0255863301394ec1,
        ),
        (
            0x0000ffff00001000,
            0x477d469dec0b8762,
            0x84be85ce9804e94b,
            0xec2802d4e0a488e9,
            0x97e69e78011b56b8,
        ),
    ];

    #[test]
    fn matches_qemu_reference_vectors() {
        for &(data, modifier, hi, lo, want) in &VECTORS {
            let q = Qarma64::new(PacKey::new(hi, lo));
            assert_eq!(
                q.compute(data, modifier),
                want,
                "data={data:#x} modifier={modifier:#x}"
            );
        }
    }

    #[test]
    fn invert_undoes_compute_on_vectors() {
        for &(data, modifier, hi, lo, want) in &VECTORS {
            let q = Qarma64::new(PacKey::new(hi, lo));
            assert_eq!(q.invert(want, modifier), data);
        }
    }

    #[test]
    fn invert_undoes_compute_on_random_inputs() {
        let q = Qarma64::new(PacKey::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9));
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for i in 0..512 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let modifier = x.rotate_left((i % 63) + 1);
            let y = q.compute(x, modifier);
            assert_eq!(q.invert(y, modifier), x);
        }
    }

    #[test]
    fn modifier_changes_output() {
        let q = Qarma64::new(PacKey::new(1, 2));
        assert_ne!(q.compute(42, 0), q.compute(42, 1));
    }

    #[test]
    fn key_changes_output() {
        let a = Qarma64::new(PacKey::new(1, 2));
        let b = Qarma64::new(PacKey::new(1, 3));
        assert_ne!(a.compute(42, 0), b.compute(42, 0));
    }

    #[test]
    fn avalanche_on_single_bit_flip() {
        let q = Qarma64::new(PacKey::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9));
        let base = q.compute(0xfb623599da6e8127, 0x477d469dec0b8762);
        let flipped = q.compute(0xfb623599da6e8127 ^ 1, 0x477d469dec0b8762);
        let differing = (base ^ flipped).count_ones();
        assert!(differing >= 16, "only {differing} bits differ");
    }

    /// `ComputePAC` as the pseudocode walks it: the cell-by-cell ops,
    /// `modk0` and every round key derived inline per call, the tweak
    /// run forward and back. The oracle for both the precomputed key
    /// schedule of [`Qarma64::new`] and the table kernel.
    fn reference_compute(key: PacKey, data: u64, modifier: u64) -> u64 {
        let key0 = key.hi();
        let key1 = key.lo();
        let modk0 = (key0 << 63) | ((key0 >> 1) ^ (key0 >> 63));
        let mut running_mod = modifier;
        let mut w = data ^ key0;

        for (i, rc) in RC.iter().enumerate() {
            w ^= key1 ^ running_mod ^ rc;
            if i > 0 {
                w = cell_shuffle(w);
                w = mult(w);
            }
            w = sub(w);
            running_mod = tweak_shuffle(running_mod);
        }

        w ^= modk0 ^ running_mod;
        w = cell_shuffle(w);
        w = mult(w);
        w = sub(w);
        w = cell_shuffle(w);
        w = mult(w);
        w ^= key1;
        w = cell_inv_shuffle(w);
        w = inv_sub(w);
        w = mult(w);
        w = cell_inv_shuffle(w);
        w ^= key0 ^ running_mod;

        for i in 0..RC.len() {
            w = inv_sub(w);
            if i < RC.len() - 1 {
                w = mult(w);
                w = cell_inv_shuffle(w);
            }
            running_mod = tweak_inv_shuffle(running_mod);
            w ^= RC[RC.len() - 1 - i] ^ key1 ^ running_mod ^ ALPHA;
        }
        w ^ modk0
    }

    #[test]
    fn precomputed_schedule_matches_per_call_derivation() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..256 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(round);
            let key = PacKey::new(x.rotate_left(17), x.rotate_right(23));
            let q = Qarma64::new(key);
            for probe in 0..4u64 {
                let data = x ^ (probe << 40);
                let modifier = x.wrapping_add(probe.wrapping_mul(0x0123_4567));
                assert_eq!(
                    q.compute(data, modifier),
                    reference_compute(key, data, modifier),
                    "key={key:?} data={data:#x} modifier={modifier:#x}"
                );
            }
        }
    }

    #[test]
    fn section_vi_reference_vector_survives_precompute() {
        // The §VI signing example the paper's walkthrough uses; pinned
        // explicitly so a schedule regression cannot hide behind the
        // vector table.
        let q = Qarma64::new(PacKey::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9));
        let pac = q.compute(0xfb623599da6e8127, 0x477d469dec0b8762);
        assert_eq!(pac, 0xc003b93999b33765);
        assert_eq!(q.invert(pac, 0x477d469dec0b8762), 0xfb623599da6e8127);
    }

    #[test]
    fn instances_with_equal_keys_stay_equal() {
        // The precomputed material is a pure function of the key, so
        // the derived PartialEq/Hash still mean "same key".
        let a = Qarma64::new(PacKey::new(7, 9));
        let b = Qarma64::new(PacKey::new(7, 9));
        let c = Qarma64::new(PacKey::new(7, 10));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.key(), PacKey::new(7, 9));
    }

    #[test]
    fn compute_batch_matches_per_call_uniform_modifier() {
        // The lane-parallel fast path: one modifier shared by the whole
        // batch, lengths that exercise full lane groups, the scalar
        // remainder, and the empty batch.
        let q = Qarma64::new(PacKey::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9));
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for len in [0usize, 1, 7, 8, 9, 16, 37] {
            let data: Vec<u64> = (0..len)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    x
                })
                .collect();
            let modifier = 0x477d_469d_ec0b_8762u64;
            let mut out = vec![0u64; len];
            q.compute_batch_uniform(&data, modifier, &mut out);
            for i in 0..len {
                assert_eq!(out[i], q.compute(data[i], modifier), "len={len} i={i}");
            }
        }
    }

    #[test]
    fn compute_batch_hits_qemu_vectors() {
        for &(data, modifier, hi, lo, want) in &VECTORS {
            let q = Qarma64::new(PacKey::new(hi, lo));
            let mut out = [0u64; Qarma64::BATCH_LANES + 3];
            let d = [data; Qarma64::BATCH_LANES + 3];
            q.compute_batch_uniform(&d, modifier, &mut out);
            assert!(out.iter().all(|&o| o == want), "data={data:#x}");
        }
    }

    proptest::proptest! {
        /// The table kernel against the cell-by-cell oracle for random
        /// keys, data and modifiers: the scalar path, full 8-lane
        /// groups, and every partial tail of a batch.
        #[test]
        fn table_kernel_matches_the_oracle_ops(
            key in (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
            data in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..3 * Qarma64::BATCH_LANES),
            modifier in proptest::prelude::any::<u64>(),
        ) {
            let key = PacKey::new(key.0, key.1);
            let q = Qarma64::new(key);
            let want: Vec<u64> = data.iter().map(|&d| reference_compute(key, d, modifier)).collect();
            for (&d, &w) in data.iter().zip(&want) {
                proptest::prop_assert_eq!(q.compute(d, modifier), w);
            }
            let mut out = vec![0u64; data.len()];
            q.compute_batch_uniform(&data, modifier, &mut out);
            proptest::prop_assert_eq!(&out, &want);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn compute_batch_rejects_mismatched_lengths() {
        let q = Qarma64::new(PacKey::new(1, 2));
        let mut out = [0u64; 2];
        q.compute_batch_uniform(&[1, 2, 3], 0, &mut out);
    }

    #[test]
    fn pac_key_accessors_roundtrip() {
        let k = PacKey::from_u128(0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210);
        assert_eq!(k.hi(), 0x0123_4567_89AB_CDEF);
        assert_eq!(k.lo(), 0xFEDC_BA98_7654_3210);
        assert_eq!(PacKey::from(1u128), PacKey::new(0, 1));
        assert_eq!(PacKey::default(), PacKey::new(0, 0));
    }
}
