//! The memory hierarchy: L1-D, optional L1-B (bounds cache), shared
//! L2, DRAM, and inter-level traffic accounting (Fig. 18's metric).

use crate::cache::{Cache, CacheConfig, Lookup};

/// Bytes moved between levels — the paper's network-traffic metric
/// counts "bytes transferred between caches and between the LLC and
/// DRAM".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficStats {
    /// Bytes moved between the private L1s and the L2 (fills plus
    /// writebacks).
    pub l1_l2_bytes: u64,
    /// Bytes moved between the L2 and DRAM.
    pub l2_dram_bytes: u64,
}

impl TrafficStats {
    /// Total bytes over both links.
    pub fn total_bytes(&self) -> u64 {
        self.l1_l2_bytes + self.l2_dram_bytes
    }
}

/// The hierarchy of Table IV.
///
/// Data accesses go L1-D → L2 → DRAM. Bounds accesses go through the
/// L1-B when configured (the §V-F1 optimization), otherwise they share
/// the L1-D — polluting it, which is exactly the effect the Fig. 15
/// ablation measures.
///
/// # Examples
///
/// ```
/// use aos_sim::MemoryHierarchy;
/// let mut h = MemoryHierarchy::table_iv(true);
/// let cold = h.access_data(0x4000, 4, false);
/// let warm = h.access_data(0x4000, 4, false);
/// assert!(cold > warm, "second access hits the L1");
/// ```
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1d: Cache,
    l1b: Option<Cache>,
    l2: Cache,
    /// `log2` of the line size all three caches share.
    line_shift: u32,
    /// Extra cycles when the line's L2 slice is remote (Table IV:
    /// 8-cycle local, 16-cycle remote — a two-slice NUCA L2).
    l2_remote_penalty: u64,
    dram_latency: u64,
    traffic: TrafficStats,
}

impl MemoryHierarchy {
    /// Builds the Table IV hierarchy: 64 KiB/8-way L1-D (1 cycle),
    /// optional 32 KiB/4-way L1-B (1 cycle), 8 MiB/16-way L2
    /// (8 cycles), 100-cycle DRAM (50 ns at 2 GHz).
    pub fn table_iv(with_l1b: bool) -> Self {
        Self::new(
            CacheConfig {
                size_bytes: 64 << 10,
                ways: 8,
                line_bytes: 64,
                hit_latency: 1,
            },
            with_l1b.then_some(CacheConfig {
                size_bytes: 32 << 10,
                ways: 4,
                line_bytes: 64,
                hit_latency: 1,
            }),
            CacheConfig {
                size_bytes: 8 << 20,
                ways: 16,
                line_bytes: 64,
                hit_latency: 8,
            },
            8,
            100,
        )
    }

    /// Builds a hierarchy from explicit cache configurations.
    /// `l2_remote_penalty` is added on top of the L2 hit latency for
    /// lines homed in the remote NUCA slice (Table IV's 8-cycle local
    /// / 16-cycle remote L2).
    ///
    /// # Panics
    ///
    /// Panics unless all three caches share one valid line size.
    pub fn new(
        l1d: CacheConfig,
        l1b: Option<CacheConfig>,
        l2: CacheConfig,
        l2_remote_penalty: u64,
        dram_latency: u64,
    ) -> Self {
        let line_bytes = l1d.line_bytes;
        let shared = l1b.iter().chain([&l2]).all(|c| c.line_bytes == line_bytes);
        assert!(shared, "caches must share the L1-D's {line_bytes}B lines");
        Self {
            line_shift: line_bytes.trailing_zeros(),
            l1d: Cache::new(l1d),
            l1b: l1b.map(Cache::new),
            l2: Cache::new(l2),
            l2_remote_penalty,
            dram_latency,
            traffic: TrafficStats::default(),
        }
    }

    /// Whether `line_addr` is homed in the remote L2 slice: lines
    /// interleave across the two slices by line address.
    fn is_remote_slice(&self, line_addr: u64) -> bool {
        self.l2_remote_penalty > 0 && (line_addr >> self.line_shift) & 1 == 1
    }

    /// Inter-level traffic so far.
    pub fn traffic(&self) -> TrafficStats {
        self.traffic
    }

    /// L1-D statistics.
    pub fn l1d_stats(&self) -> crate::cache::CacheStats {
        self.l1d.stats()
    }

    /// L1-B statistics, if the bounds cache is present.
    pub fn l1b_stats(&self) -> Option<crate::cache::CacheStats> {
        self.l1b.as_ref().map(Cache::stats)
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> crate::cache::CacheStats {
        self.l2.stats()
    }

    /// A data access of `bytes` bytes at `addr`; returns total latency
    /// in cycles. Accesses spanning multiple 64-byte lines touch each
    /// line.
    pub fn access_data(&mut self, addr: u64, bytes: u32, is_write: bool) -> u64 {
        self.access_through_l1(addr, bytes, is_write, /*bounds=*/ false)
    }

    /// A bounds (HBT) access, routed through the L1-B when present.
    pub fn access_bounds(&mut self, addr: u64, bytes: u32, is_write: bool) -> u64 {
        self.access_through_l1(addr, bytes, is_write, /*bounds=*/ true)
    }

    fn access_through_l1(&mut self, addr: u64, bytes: u32, is_write: bool, bounds: bool) -> u64 {
        let first = addr >> self.line_shift;
        let last = (addr + bytes.max(1) as u64 - 1) >> self.line_shift;
        let mut latency = 0u64;
        for line in first..=last {
            let line_addr = line << self.line_shift;
            latency = latency.max(self.one_line(line_addr, is_write, bounds));
        }
        latency
    }

    fn one_line(&mut self, line_addr: u64, is_write: bool, bounds: bool) -> u64 {
        let line_bytes = 1u64 << self.line_shift;
        let l1 = match &mut self.l1b {
            Some(c) if bounds => c,
            _ => &mut self.l1d,
        };
        let l1_hit_latency = l1.config().hit_latency;
        match l1.access(line_addr, is_write) {
            Lookup::Hit => l1_hit_latency,
            Lookup::Miss { writeback } => {
                // Fill from L2 (and possibly DRAM).
                self.traffic.l1_l2_bytes += line_bytes;
                if let Some(wb) = writeback {
                    self.traffic.l1_l2_bytes += line_bytes;
                    if self.l2.install(wb, true).is_some() {
                        self.traffic.l2_dram_bytes += 2 * line_bytes;
                    }
                }
                let slice_penalty = if self.is_remote_slice(line_addr) {
                    self.l2_remote_penalty
                } else {
                    0
                };
                let l2_latency = match self.l2.access(line_addr, false) {
                    Lookup::Hit => self.l2.config().hit_latency + slice_penalty,
                    Lookup::Miss { writeback: l2_wb } => {
                        self.traffic.l2_dram_bytes += line_bytes;
                        if l2_wb.is_some() {
                            self.traffic.l2_dram_bytes += line_bytes;
                        }
                        self.l2.config().hit_latency + slice_penalty + self.dram_latency
                    }
                };
                l1_hit_latency + l2_latency
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_are_hierarchical() {
        let mut h = MemoryHierarchy::table_iv(false);
        // 0x10_0000 is an even line: local slice.
        let dram = h.access_data(0x10_0000, 8, false);
        assert_eq!(dram, 1 + 8 + 100, "cold access reaches DRAM");
        let l1 = h.access_data(0x10_0000, 8, false);
        assert_eq!(l1, 1, "warm access hits L1");
        // Evict from L1 by touching more lines of the same set than
        // its associativity, forcing an L2 hit path.
        let sets = 64 * 1024 / (8 * 64); // 128 sets
        let stride = sets as u64 * 64;
        for i in 1..=8 {
            h.access_data(0x10_0000 + i * stride, 8, false);
        }
        let l2 = h.access_data(0x10_0000, 8, false);
        assert_eq!(l2, 1 + 8, "L1 victim still in the local L2 slice");
    }

    #[test]
    fn remote_l2_slice_costs_more() {
        let mut h = MemoryHierarchy::table_iv(false);
        // Odd line (0x40 offset): remote slice.
        let remote_cold = h.access_data(0x10_0040, 8, false);
        assert_eq!(remote_cold, 1 + 8 + 8 + 100, "remote slice adds 8");
        // Force both lines out of L1, keeping them in L2.
        let sets = 64 * 1024 / (8 * 64);
        let stride = sets as u64 * 64;
        h.access_data(0x10_0000, 8, false);
        for i in 1..=8 {
            h.access_data(0x10_0000 + i * stride, 8, false);
            h.access_data(0x10_0040 + i * stride, 8, false);
        }
        let local = h.access_data(0x10_0000, 8, false);
        let remote = h.access_data(0x10_0040, 8, false);
        assert_eq!(local, 1 + 8, "local slice: 8-cycle L2");
        assert_eq!(remote, 1 + 16, "remote slice: 16-cycle L2");
    }

    #[test]
    fn traffic_counts_fills_and_dram() {
        let mut h = MemoryHierarchy::table_iv(false);
        h.access_data(0x0, 8, false);
        let t = h.traffic();
        assert_eq!(t.l1_l2_bytes, 64, "one fill");
        assert_eq!(t.l2_dram_bytes, 64, "one DRAM fetch");
        h.access_data(0x0, 8, false);
        assert_eq!(h.traffic().total_bytes(), 128, "hits add no traffic");
    }

    #[test]
    fn bounds_route_through_l1b_when_present() {
        let mut h = MemoryHierarchy::table_iv(true);
        h.access_bounds(0x5000, 64, false);
        assert_eq!(h.l1b_stats().unwrap().misses, 1);
        assert_eq!(h.l1d_stats().misses, 0, "L1-D untouched by bounds");
        let warm = h.access_bounds(0x5000, 64, false);
        assert_eq!(warm, 1);
        assert_eq!(h.l1b_stats().unwrap().hits, 1);
    }

    #[test]
    fn bounds_pollute_l1d_without_l1b() {
        let mut h = MemoryHierarchy::table_iv(false);
        h.access_bounds(0x5000, 64, false);
        assert_eq!(h.l1d_stats().misses, 1, "bounds share the L1-D");
        assert!(h.l1b_stats().is_none());
    }

    #[test]
    fn wide_access_touches_multiple_lines() {
        let mut h = MemoryHierarchy::table_iv(false);
        // 24 bytes starting 4 below a line boundary → two lines.
        h.access_data(0x1000 - 4, 24, true);
        assert_eq!(h.l1d_stats().misses, 2);
    }

    #[test]
    fn zero_byte_access_touches_one_line() {
        let mut h = MemoryHierarchy::table_iv(false);
        h.access_data(0x1000, 0, false);
        assert_eq!(h.l1d_stats().misses, 1, "clamped to one byte");
    }

    #[test]
    fn three_line_span_touches_three_lines() {
        let mut h = MemoryHierarchy::table_iv(false);
        h.access_data(0x1000 - 8, 130, false);
        assert_eq!(h.l1d_stats().misses, 3);
    }

    #[test]
    fn dirty_writebacks_add_traffic() {
        let mut h = MemoryHierarchy::new(
            CacheConfig {
                size_bytes: 128, // 1 set × 2 ways
                ways: 2,
                line_bytes: 64,
                hit_latency: 1,
            },
            None,
            CacheConfig {
                size_bytes: 1024,
                ways: 2,
                line_bytes: 64,
                hit_latency: 8,
            },
            0,
            100,
        );
        h.access_data(0x000, 8, true); // dirty
        h.access_data(0x040, 8, false);
        let before = h.traffic().l1_l2_bytes;
        h.access_data(0x080, 8, false); // evicts dirty 0x000
        let after = h.traffic().l1_l2_bytes;
        assert_eq!(after - before, 128, "fill + writeback");
    }

    #[test]
    #[should_panic(expected = "64B lines")]
    fn mixed_line_sizes_rejected() {
        let config = |line_bytes| CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes,
            hit_latency: 1,
        };
        MemoryHierarchy::new(config(64), Some(config(32)), config(64), 0, 100);
    }
}
