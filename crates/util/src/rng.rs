//! Deterministic pseudo-random number generation.
//!
//! The workload generator, the allocator fuzz tests and the PAC
//! distribution microbenchmark all need reproducible randomness. We use
//! the public-domain SplitMix64 and xoshiro256** generators (Blackman &
//! Vigna) rather than an external crate so that seeds produce identical
//! streams on every platform and toolchain.

use std::cell::RefCell;
use std::sync::Arc;

/// SplitMix64: a tiny 64-bit generator, mainly used to seed
/// [`Xoshiro256StarStar`] and to derive per-stream sub-seeds.
///
/// # Examples
///
/// ```
/// use aos_util::rng::SplitMix64;
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Any seed is valid.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        Self::new(0)
    }
}

/// xoshiro256**: the workhorse generator for workload synthesis.
///
/// 256 bits of state, excellent statistical quality, and — because it is
/// implemented here — byte-for-byte reproducible streams for a given
/// seed, forever.
///
/// # Examples
///
/// ```
/// use aos_util::rng::Xoshiro256StarStar;
/// let mut rng = Xoshiro256StarStar::seed_from_u64(1);
/// let v: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
/// let mut rng2 = Xoshiro256StarStar::seed_from_u64(1);
/// let w: Vec<u64> = (0..3).map(|_| rng2.next_u64()).collect();
/// assert_eq!(v, w);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seeds the full 256-bit state by running SplitMix64 from `seed`,
    /// the procedure recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // The all-zero state is a fixed point; SplitMix64 cannot produce
        // four zero outputs in a row, so `s` is always valid.
        Self { s }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_range bound must be nonzero");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_range(bound as u64) as usize
    }

    /// Uniform integer in `[0, 2⁵³)`: the draw behind [`next_f64`] and
    /// [`chance`].
    ///
    /// [`next_f64`]: Self::next_f64
    /// [`chance`]: Self::chance
    pub fn next_u53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        self.next_u53() as f64 * (1.0 / UNIT as f64)
    }

    /// Bernoulli trial: returns `true` with the probability `c` was
    /// built from. It consumes one draw and returns exactly what
    /// `next_f64() < p` would.
    pub fn chance(&mut self, c: Chance) -> bool {
        c.admits(self.next_u53())
    }

    /// Derives an independent generator for a named sub-stream, so that
    /// e.g. address choice and size choice do not perturb each other.
    pub fn fork(&mut self, stream: u64) -> Self {
        let mut sm = SplitMix64::new(self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }
}

/// The number of distinct [`Xoshiro256StarStar::next_u53`] draws, 2⁵³.
const UNIT: u64 = 1 << 53;

/// A probability precomputed as an integer threshold over the 53-bit
/// draws behind [`Xoshiro256StarStar::next_f64`], so a Bernoulli trial
/// is one integer compare.
///
/// `Chance::new(p)` holds `t = ⌈p·2⁵³⌉`, clamped to `[0, 2⁵³]`; `p ≤ 0`
/// and NaN give 0, `p ≥ 1` gives 2⁵³. A draw `k` is admitted when
/// `k < t`. This is exactly `next_f64() < p`: `next_f64()` is `k·2⁻⁵³`,
/// scaling by a power of two is exact in `f64`, and for an integer `k`,
/// `k < x ⇔ k < ⌈x⌉`.
///
/// # Examples
///
/// ```
/// use aos_util::rng::{Chance, Xoshiro256StarStar};
/// let mut a = Xoshiro256StarStar::seed_from_u64(5);
/// let mut b = a.clone();
/// let c = Chance::new(0.3);
/// for _ in 0..100 {
///     assert_eq!(a.chance(c), b.next_f64() < 0.3);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Chance(u64);

impl Chance {
    /// Precomputes the threshold of probability `p`.
    pub const fn new(p: f64) -> Self {
        if p >= 1.0 {
            Self(UNIT)
        } else if p > 0.0 {
            Self((p * UNIT as f64).ceil() as u64)
        } else {
            Self(0)
        }
    }

    /// Whether the 53-bit draw `k` falls below the threshold.
    pub const fn admits(self, k: u64) -> bool {
        k < self.0
    }
}

/// Sampler for a (truncated) Zipf distribution over `[0, n)`.
///
/// Used to model temporal locality: low ranks are chosen much more often
/// than high ranks, which is how real programs revisit hot heap objects.
/// Sampling uses a precomputed CDF and takes a bound on the ranks the
/// caller can use ([`sample_below`](Self::sample_below)): a draw past
/// the bound's CDF entry is rejected with one compare, and any other
/// is binary-searched within the bound, so per-sample cost is
/// `O(log min(n, bound))`.
///
/// Building the CDF costs one `powf` per rank — 150k of them for the
/// largest workload profile — and every trace generator builds one, so
/// the table is shared: it is held as an `Arc<[f64]>`, and each thread
/// remembers the last table it built, keyed by `(n, exponent)`. A
/// sampler built with the same key on that thread reuses the table
/// instead of rebuilding it. The memo holds one table at most; a new
/// key evicts the old one before its table is built, so the memo never
/// keeps more than one CDF alive.
///
/// # Examples
///
/// ```
/// use aos_util::rng::{Xoshiro256StarStar, Zipf};
/// let mut rng = Xoshiro256StarStar::seed_from_u64(3);
/// let zipf = Zipf::new(100, 1.0);
/// let r = zipf.sample_below(&mut rng, 100).expect("the bound covers every rank");
/// assert!(r < 100);
/// assert!(zipf.sample_below(&mut rng, 10).is_none_or(|r| r < 10));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Arc<[f64]>,
}

/// Memo key of a Zipf table: the support size and the exponent's bits.
type ZipfKey = (usize, u64);

thread_local! {
    /// The last Zipf table this thread built.
    static ZIPF_MEMO: RefCell<Option<(ZipfKey, Arc<[f64]>)>> = const { RefCell::new(None) };
}

impl Zipf {
    /// Creates a sampler over `[0, n)` with the given exponent
    /// (`exponent == 0.0` degenerates to uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf support must be nonempty");
        let key = (n, exponent.to_bits());
        ZIPF_MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            if let Some((k, cdf)) = memo.as_ref() {
                if *k == key {
                    return Self {
                        cdf: Arc::clone(cdf),
                    };
                }
            }
            *memo = None;
            let cdf = Self::build_cdf(n, exponent);
            *memo = Some((key, Arc::clone(&cdf)));
            Self { cdf }
        })
    }

    /// The normalized CDF of ranks `0..n`.
    fn build_cdf(n: usize, exponent: f64) -> Arc<[f64]> {
        let mut cdf: Arc<[f64]> = std::iter::repeat_n(0.0, n).collect();
        let slots = Arc::get_mut(&mut cdf).expect("fresh table has one owner");
        let mut acc = 0.0;
        for (k, slot) in slots.iter_mut().enumerate() {
            acc += 1.0 / ((k + 1) as f64).powf(exponent);
            *slot = acc;
        }
        let total = acc;
        for v in slots {
            *v /= total;
        }
        cdf
    }

    /// Number of ranks in the support.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the support is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `[0, n)` and returns it if it is below `bound`,
    /// else `None`. It consumes one [`next_f64`] whatever it returns.
    ///
    /// The rank is the first whose CDF entry reaches the draw, so a
    /// draw past `cdf[bound - 1]` is rejected without a search, and
    /// any other is found by a binary search of `cdf[..bound]` alone.
    ///
    /// [`next_f64`]: Xoshiro256StarStar::next_f64
    pub fn sample_below(&self, rng: &mut Xoshiro256StarStar, bound: usize) -> Option<usize> {
        let u = rng.next_f64();
        let live = &self.cdf[..bound.min(self.cdf.len())];
        match live.last() {
            Some(&last) if u <= last => Some(live.partition_point(|&c| c < u)),
            _ => None,
        }
    }
}

/// A discrete distribution over arbitrary items with fixed weights.
///
/// Used for allocation-size histograms (e.g. "70% of chunks are ≤64 B").
///
/// # Examples
///
/// ```
/// use aos_util::rng::{DiscreteTable, Xoshiro256StarStar};
/// let mut rng = Xoshiro256StarStar::seed_from_u64(9);
/// let table = DiscreteTable::new(vec![(16u64, 3.0), (256, 1.0)]);
/// let v = *table.sample(&mut rng);
/// assert!(v == 16 || v == 256);
/// ```
#[derive(Debug, Clone)]
pub struct DiscreteTable<T> {
    items: Vec<T>,
    cdf: Vec<f64>,
}

impl<T> DiscreteTable<T> {
    /// Builds the table from `(item, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or all weights are zero/negative.
    pub fn new(entries: Vec<(T, f64)>) -> Self {
        assert!(!entries.is_empty(), "discrete table must be nonempty");
        let mut items = Vec::with_capacity(entries.len());
        let mut cdf = Vec::with_capacity(entries.len());
        let mut acc = 0.0;
        for (item, w) in entries {
            acc += w.max(0.0);
            items.push(item);
            cdf.push(acc);
        }
        assert!(acc > 0.0, "discrete table weights must sum to > 0");
        for v in &mut cdf {
            *v /= acc;
        }
        Self { items, cdf }
    }

    /// Draws an item reference according to the weights.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> &T {
        let u = rng.next_f64();
        let i = match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("CDF contains no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.items.len() - 1),
        };
        &self.items[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_known() {
        // Reference values generated from the public-domain
        // splitmix64.c (seed 1234567).
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 0x599E_D017_FB08_FC85);
        assert_eq!(sm.next_u64(), 0x2C73_F084_5854_0FA5);
    }

    #[test]
    fn xoshiro_streams_are_reproducible() {
        let mut a = Xoshiro256StarStar::seed_from_u64(99);
        let mut b = Xoshiro256StarStar::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_range_is_in_bounds_and_covers() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = rng.next_range(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn next_range_zero_panics() {
        Xoshiro256StarStar::seed_from_u64(0).next_range(0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bernoulli_matches_probability_roughly() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let quarter = Chance::new(0.25);
        let hits = (0..100_000).filter(|_| rng.chance(quarter)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate was {rate}");
    }

    /// `chance(Chance::new(p))` on one stream answers what
    /// `next_f64() < p` answers on a clone, and both streams advance
    /// alike.
    fn assert_chance_matches_f64_compare(p: f64, seed: u64, draws: usize) {
        let mut by_threshold = Xoshiro256StarStar::seed_from_u64(seed);
        let mut by_compare = by_threshold.clone();
        let c = Chance::new(p);
        for i in 0..draws {
            assert_eq!(
                by_threshold.chance(c),
                by_compare.next_f64() < p,
                "p = {p:e} ({:#x}), draw {i}",
                p.to_bits()
            );
        }
        assert_eq!(by_threshold, by_compare, "p = {p:e}");
    }

    /// Every draw `k·2⁻⁵³` lies on either side of `p` exactly as `k`
    /// lies on either side of the threshold.
    fn assert_threshold_splits_draws(p: f64) {
        let Chance(t) = Chance::new(p);
        let unit = 1.0 / UNIT as f64;
        for k in [t.saturating_sub(1), t, t + 1] {
            if k < UNIT {
                assert_eq!(
                    Chance(t).admits(k),
                    k as f64 * unit < p,
                    "p = {p:e}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn chance_matches_f64_compare_at_edges() {
        let step = 1.0 / UNIT as f64;
        let edges = [
            0.0,
            -0.0,
            f64::NAN,
            -1.0,
            (-60f64).exp2(),
            step,
            3.0 * step,
            0.25,
            0.8,
            0.5,
            0.85,
            0.7,
            0.95,
            0.6,
            12345.0 * step,
            1.0 - step,
            1.0,
            1.5,
            f64::INFINITY,
        ];
        for (i, &p) in edges.iter().enumerate() {
            assert_chance_matches_f64_compare(p, i as u64, 2_000);
            assert_threshold_splits_draws(p);
        }
        assert_eq!(Chance::new(0.0), Chance::new(f64::NAN));
        assert_eq!(Chance::new(1.0), Chance::new(1.5));
        assert_eq!(Chance::new((-60f64).exp2()), Chance(1));
    }

    #[test]
    fn chance_matches_f64_compare_at_random_p() {
        let mut ps = Xoshiro256StarStar::seed_from_u64(0xC4A7);
        for i in 0..400 {
            // Uniform p, p on the draw grid, and p with arbitrary low
            // bits below 2⁻⁵³ resolution.
            let p = match i % 3 {
                0 => ps.next_f64(),
                1 => ps.next_u53() as f64 / UNIT as f64,
                _ => f64::from_bits(ps.next_range(1.0f64.to_bits())),
            };
            assert_chance_matches_f64_compare(p, i, 500);
            assert_threshold_splits_draws(p);
        }
    }

    #[test]
    fn forked_streams_differ() {
        let mut base = Xoshiro256StarStar::seed_from_u64(11);
        let mut f1 = base.fork(1);
        let mut f2 = base.fork(2);
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(21);
        let zipf = Zipf::new(1000, 1.0);
        let mut low = 0usize;
        let n = 50_000;
        for _ in 0..n {
            if zipf.sample_below(&mut rng, 10).is_some() {
                low += 1;
            }
        }
        // Under Zipf(1.0) over 1000 ranks, the top-10 mass is ~39%;
        // uniform would give 1%.
        assert!(low as f64 / n as f64 > 0.25, "low mass {low}/{n}");
    }

    #[test]
    fn zipf_uniform_when_exponent_zero() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(23);
        let zipf = Zipf::new(4, 0.0);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[zipf
                .sample_below(&mut rng, 4)
                .expect("every rank is below 4")] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 700.0, "counts {counts:?}");
        }
    }

    #[test]
    fn zipf_memo_shares_one_table_per_key() {
        let a = Zipf::new(10, 1.2);
        let b = Zipf::new(10, 1.2);
        assert!(Arc::ptr_eq(&a.cdf, &b.cdf), "same key reuses the table");
        assert_eq!(a.len(), 10);
        assert!(!a.is_empty());

        // A new key evicts the memo's table; samplers still holding it
        // keep it, and rebuilding the first key reproduces it exactly.
        let c = Zipf::new(3, 1.2);
        assert_eq!(c.len(), 3);
        let memo_holds_c = ZIPF_MEMO.with(|m| {
            m.borrow()
                .as_ref()
                .is_some_and(|(_, t)| Arc::ptr_eq(t, &c.cdf))
        });
        assert!(memo_holds_c);
        assert_eq!(
            Arc::strong_count(&a.cdf),
            2,
            "only a and b hold the old table"
        );
        let d = Zipf::new(10, 1.2);
        assert!(!Arc::ptr_eq(&a.cdf, &d.cdf), "the old table was evicted");
        assert_eq!(a.cdf, d.cdf);

        // The exponent is part of the key, bit for bit.
        let e = Zipf::new(10, 1.2000000000000002);
        assert_ne!(d.cdf, e.cdf);
        let mut rng = Xoshiro256StarStar::seed_from_u64(29);
        for _ in 0..100 {
            assert!(c.sample_below(&mut rng, 3).is_some_and(|r| r < 3));
        }
    }

    /// The unbounded search `sample_below` replaced: a binary search
    /// of the whole CDF, clamped to the last rank.
    fn unbounded_sample(zipf: &Zipf, rng: &mut Xoshiro256StarStar) -> usize {
        let u = rng.next_f64();
        match zipf
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("CDF contains no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(zipf.cdf.len() - 1),
        }
    }

    #[test]
    fn sample_below_is_the_unbounded_search_filtered_by_the_bound() {
        let mut bounds = Xoshiro256StarStar::seed_from_u64(0x21BF);
        for (n, exponent) in [(1, 1.0), (2, 0.0), (97, 0.9), (1000, 0.25), (150_000, 0.8)] {
            let zipf = Zipf::new(n, exponent);
            let mut chosen = vec![0, 1, n - 1, n, n + 7];
            chosen.extend((0..6).map(|_| 1 + bounds.next_index(n + 8)));
            for (i, &bound) in chosen.iter().enumerate() {
                let mut bounded = Xoshiro256StarStar::seed_from_u64(i as u64 ^ n as u64);
                let mut oracle = bounded.clone();
                for draw in 0..3_000 {
                    let want = Some(unbounded_sample(&zipf, &mut oracle)).filter(|&r| r < bound);
                    assert_eq!(
                        zipf.sample_below(&mut bounded, bound),
                        want,
                        "n {n}, exponent {exponent}, bound {bound}, draw {draw}"
                    );
                }
                assert_eq!(bounded, oracle, "one draw per sample");
            }
        }
    }

    #[test]
    fn discrete_table_respects_weights() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(31);
        let table = DiscreteTable::new(vec![("a", 9.0), ("b", 1.0)]);
        let hits = (0..20_000)
            .filter(|_| *table.sample(&mut rng) == "a")
            .count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.9).abs() < 0.02, "rate was {rate}");
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn discrete_table_empty_panics() {
        let _ = DiscreteTable::<u8>::new(vec![]);
    }
}
