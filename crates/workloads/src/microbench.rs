//! The Fig. 11 microbenchmark: PAC distribution under QARMA.
//!
//! The paper validates its first assumption — that the PA block cipher
//! behaves like a good hash — by calling `malloc` one million times,
//! computing a 16-bit PAC for every returned address with a fixed key
//! and context, and plotting the occurrences of each PAC value
//! (reported: Avg 16.0, Max 36, Min 3, Stdev 3.99).

use aos_heap::{HeapAllocator, HeapConfig};
use aos_ptrauth::PointerLayout;
use aos_qarma::{truncate_pac, PacKey, Qarma64};
use aos_util::rng::{DiscreteTable, Xoshiro256StarStar};
use aos_util::stats::Histogram;

use crate::generator::{SIGNING_CONTEXT, SIGNING_KEY};

/// Runs the microbenchmark: `allocations` mallocs (never freed, as in
/// the paper's loop), PACs computed over the returned addresses with
/// the paper's key and context, binned into a histogram over the full
/// 16-bit PAC space.
///
/// # Examples
///
/// ```
/// let h = aos_workloads::microbench::pac_distribution(10_000, 16);
/// assert_eq!(h.total(), 10_000);
/// ```
pub fn pac_distribution(allocations: u64, pac_bits: u32) -> Histogram {
    let mut heap = HeapAllocator::new(HeapConfig {
        limit_bytes: 1 << 44,
        ..HeapConfig::default()
    });
    let qarma = Qarma64::new(PacKey::from_u128(SIGNING_KEY));
    let layout = PointerLayout::default();
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x000F_1611);
    // Small-object mix, as a malloc-heavy program would produce.
    let sizes = DiscreteTable::new(vec![
        (16u64, 2.0),
        (32, 3.0),
        (64, 2.0),
        (128, 1.0),
        (512, 0.5),
    ]);
    let mut histogram = Histogram::new(1usize << pac_bits);
    // Allocate in runs, then cipher each run through the multi-lane
    // batch path — every address shares SIGNING_CONTEXT, so the tweak
    // schedule is derived once per run instead of once per malloc.
    const RUN: usize = 1024;
    let mut addrs = Vec::with_capacity(RUN);
    let mut pacs = [0u64; RUN];
    let mut remaining = allocations;
    while remaining > 0 {
        let n = remaining.min(RUN as u64) as usize;
        addrs.clear();
        for _ in 0..n {
            let size = *sizes.sample(&mut rng);
            let a = heap.malloc(size).expect("microbench fits in the heap");
            addrs.push(layout.address(a.base));
        }
        qarma.compute_batch_uniform(&addrs, SIGNING_CONTEXT, &mut pacs[..n]);
        for &pac in &pacs[..n] {
            histogram.record(truncate_pac(pac, pac_bits));
        }
        remaining -= n as u64;
    }
    histogram
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_is_uniformish() {
        // 100k allocations over 2^16 bins: mean ~1.53; the QARMA
        // outputs should look Poisson, i.e. stdev close to sqrt(mean)
        // and no pathological clustering.
        let h = pac_distribution(100_000, 16);
        let s = h.occupancy_summary();
        assert_eq!(h.total(), 100_000);
        assert!((s.mean - 100_000.0 / 65536.0).abs() < 1e-9);
        assert!(s.max < 12, "max bin {} suggests clustering", s.max);
        let poisson_stdev = s.mean.sqrt();
        assert!(
            (s.stdev - poisson_stdev).abs() < poisson_stdev * 0.3,
            "stdev {} vs Poisson {}",
            s.stdev,
            poisson_stdev
        );
    }

    #[test]
    fn deterministic() {
        let a = pac_distribution(5_000, 16);
        let b = pac_distribution(5_000, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn smaller_pac_spaces_collide_more() {
        let h11 = pac_distribution(20_000, 11);
        let h16 = pac_distribution(20_000, 16);
        assert!(h11.occupancy_summary().mean > h16.occupancy_summary().mean);
    }
}
