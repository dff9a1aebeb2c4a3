//! PAC-collision analysis (paper §VI).
//!
//! The HBT's viability rests on two claims: QARMA distributes PACs
//! like a good hash (Fig. 11), and live sets are small enough that few
//! rows overflow their capacity. This module quantifies both: it
//! *measures* row occupancy by signing real allocator addresses, and
//! compares against the Poisson model a uniform hash predicts —
//! including the expected number of gradual resizes for a given live
//! set, which is how the §IX-A1 counts (sphinx3: 1, omnetpp: 2) can be
//! predicted before simulating a single cycle.

use aos_heap::{HeapAllocator, HeapConfig};
use aos_ptrauth::PointerLayout;
use aos_qarma::{truncate_pac, PacKey, Qarma64};
use aos_util::rng::{DiscreteTable, Xoshiro256StarStar};
use aos_util::stats::Histogram;

use crate::generator::{SIGNING_CONTEXT, SIGNING_KEY};

/// Result of a collision study for one live-set size.
#[derive(Debug, Clone, PartialEq)]
pub struct CollisionStudy {
    /// Live chunks signed.
    pub live_chunks: u64,
    /// PAC width in bits.
    pub pac_bits: u32,
    /// Largest measured row occupancy.
    pub max_row_occupancy: u64,
    /// Number of rows exceeding the initial 8-record capacity.
    pub rows_over_initial_capacity: u64,
    /// Measured mean row occupancy (= λ of the Poisson model).
    pub mean_row_occupancy: f64,
    /// Resizes the measured maximum implies, starting from one way of
    /// eight records and doubling capacity per resize.
    pub implied_resizes: u32,
}

/// Signs `live_chunks` simultaneously-live allocations (drawn from a
/// realistic small-object mix) and reports the PAC row-occupancy
/// statistics.
///
/// # Examples
///
/// ```
/// let s = aos_workloads::collisions::study(10_000, 16);
/// assert_eq!(s.live_chunks, 10_000);
/// assert!(s.max_row_occupancy >= 1);
/// ```
pub fn study(live_chunks: u64, pac_bits: u32) -> CollisionStudy {
    let mut heap = HeapAllocator::new(HeapConfig {
        limit_bytes: 1 << 44,
        ..HeapConfig::default()
    });
    let qarma = Qarma64::new(PacKey::from_u128(SIGNING_KEY));
    let layout = PointerLayout::default();
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xC0_111D);
    let sizes = DiscreteTable::new(vec![(24u64, 3.0), (48, 2.0), (128, 1.0), (1024, 0.3)]);
    let mut rows = Histogram::new(1usize << pac_bits);
    // Same batching as the Fig. 11 microbenchmark: the whole live set
    // signs under one context, so runs of allocator addresses go
    // through the uniform-modifier QARMA lanes.
    const RUN: usize = 1024;
    let mut addrs = Vec::with_capacity(RUN);
    let mut pacs = [0u64; RUN];
    let mut remaining = live_chunks;
    while remaining > 0 {
        let n = remaining.min(RUN as u64) as usize;
        addrs.clear();
        for _ in 0..n {
            let size = *sizes.sample(&mut rng);
            let a = heap.malloc(size).expect("study fits in the heap");
            addrs.push(layout.address(a.base));
        }
        qarma.compute_batch_uniform(&addrs, SIGNING_CONTEXT, &mut pacs[..n]);
        for &pac in &pacs[..n] {
            rows.record(truncate_pac(pac, pac_bits));
        }
        remaining -= n as u64;
    }
    let summary = rows.occupancy_summary();
    let rows_over = rows.iter().filter(|&c| c > 8).count() as u64;
    CollisionStudy {
        live_chunks,
        pac_bits,
        max_row_occupancy: summary.max,
        rows_over_initial_capacity: rows_over,
        mean_row_occupancy: summary.mean,
        implied_resizes: implied_resizes(summary.max),
    }
}

/// Number of capacity doublings needed so a row of eight records can
/// hold `max_occupancy`.
pub fn implied_resizes(max_occupancy: u64) -> u32 {
    let mut capacity = 8u64;
    let mut resizes = 0;
    while capacity < max_occupancy {
        capacity *= 2;
        resizes += 1;
    }
    resizes
}

/// The Poisson tail `P(X > capacity)` for occupancy `lambda` — the
/// uniform-hash model of a row overflowing.
pub fn poisson_overflow_probability(lambda: f64, capacity: u64) -> f64 {
    // P(X > c) = 1 - sum_{k=0..c} e^-λ λ^k / k!
    let mut term = (-lambda).exp();
    let mut cumulative = term;
    for k in 1..=capacity {
        term *= lambda / k as f64;
        cumulative += term;
    }
    (1.0 - cumulative).max(0.0)
}

/// Expected number of rows (out of `2^pac_bits`) that exceed
/// `capacity` records when `live` chunks hash uniformly.
pub fn expected_overflowing_rows(live: u64, pac_bits: u32, capacity: u64) -> f64 {
    let rows = (1u64 << pac_bits) as f64;
    let lambda = live as f64 / rows;
    rows * poisson_overflow_probability(lambda, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implied_resizes_thresholds() {
        assert_eq!(implied_resizes(0), 0);
        assert_eq!(implied_resizes(8), 0);
        assert_eq!(implied_resizes(9), 1);
        assert_eq!(implied_resizes(16), 1);
        assert_eq!(implied_resizes(17), 2);
        assert_eq!(implied_resizes(33), 3);
    }

    #[test]
    fn poisson_tail_sanity() {
        // λ = 1: P(X > 8) is tiny; P(X > 0) = 1 - e^-1.
        assert!(poisson_overflow_probability(1.0, 8) < 1e-5);
        let p0 = poisson_overflow_probability(1.0, 0);
        assert!((p0 - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        // Monotone in λ.
        assert!(poisson_overflow_probability(6.0, 8) > poisson_overflow_probability(3.0, 8));
    }

    #[test]
    fn measured_occupancy_tracks_poisson() {
        // 100K live chunks over 2^16 rows: λ ≈ 1.53. The measured
        // overflowing-row count should be within a small factor of the
        // Poisson expectation if QARMA hashes well.
        let s = study(100_000, 16);
        assert!((s.mean_row_occupancy - 100_000.0 / 65536.0).abs() < 1e-9);
        let expected = expected_overflowing_rows(100_000, 16, 8);
        let measured = s.rows_over_initial_capacity as f64;
        assert!(
            measured <= expected * 4.0 + 4.0,
            "measured {measured} vs Poisson {expected:.2}"
        );
    }

    #[test]
    fn paper_resize_counts_are_predicted() {
        // §IX-A1: sphinx3 (live ≈ 135K in-window) resizes once;
        // omnetpp (≈ 400K) resizes twice. The Poisson model plus the
        // measured occupancy should agree.
        let sphinx3 = study(135_000, 16);
        assert_eq!(sphinx3.implied_resizes, 1, "{sphinx3:?}");
        let omnetpp = study(400_000, 16);
        assert_eq!(omnetpp.implied_resizes, 2, "{omnetpp:?}");
        // And small live sets never resize.
        let gcc = study(60_000, 16);
        assert_eq!(gcc.implied_resizes, 0, "{gcc:?}");
    }

    #[test]
    fn smaller_pac_spaces_overflow_sooner() {
        let wide = study(30_000, 16);
        let narrow = study(30_000, 11);
        assert!(narrow.max_row_occupancy > wide.max_row_occupancy);
        assert!(narrow.implied_resizes >= 1);
    }
}
