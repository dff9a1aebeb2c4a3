//! A set-associative, write-back, write-allocate cache with LRU
//! replacement.

/// Geometry and latency of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (64 throughout Table IV).
    pub line_bytes: u32,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * self.line_bytes as u64)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; zero when idle.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line was present.
    Hit,
    /// The line was filled; `writeback` carries the address of a dirty
    /// victim that must go to the next level.
    Miss {
        /// Evicted dirty line, if any.
        writeback: Option<u64>,
    },
}

/// The dirty bit of a packed tag.
const DIRTY: u64 = 1 << 63;

/// The cache proper.
///
/// # Examples
///
/// ```
/// use aos_sim::{Cache, CacheConfig};
/// use aos_sim::cache::Lookup;
///
/// let mut c = Cache::new(CacheConfig {
///     size_bytes: 1024,
///     ways: 2,
///     line_bytes: 64,
///     hit_latency: 1,
/// });
/// assert!(matches!(c.access(0x1000, false), Lookup::Miss { .. }));
/// assert_eq!(c.access(0x1000, false), Lookup::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Every set in one flat allocation: `ways` packed tags per set,
    /// most recent first, so fills enter at the front and the back is
    /// the LRU victim. A packed tag is `(tag + 1) | dirty << 63`, and 0
    /// marks an invalid way, so a zeroed allocation is an empty cache.
    /// The geometry is asserted power-of-two, so the per-access address
    /// split is a shift and a mask instead of three integer divisions.
    tags: Vec<u64>,
    ways: usize,
    line_shift: u32,
    set_mask: u64,
    set_shift: u32,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics unless the geometry is power-of-two sets with at least
    /// one way.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.ways >= 1, "cache needs at least one way");
        assert!(config.line_bytes.is_power_of_two(), "line size must be 2^k");
        let sets = config.sets();
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be 2^k, got {sets}"
        );
        Self {
            config,
            tags: vec![0; (sets * config.ways as u64) as usize],
            ways: config.ways as usize,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        (set, tag)
    }

    #[inline]
    fn victim_address(&self, tag: u64, set_idx: usize) -> u64 {
        ((tag << self.set_shift) | set_idx as u64) << self.line_shift
    }

    /// The hit/fill body shared by [`access`](Self::access) and
    /// [`install`](Self::install). Returns `(hit, writeback)`.
    #[inline]
    fn touch(&mut self, addr: u64, is_write: bool) -> (bool, Option<u64>) {
        let (set_idx, tag) = self.set_and_tag(addr);
        let packed = tag + 1;
        let dirty = if is_write { DIRTY } else { 0 };
        let ways = self.ways;
        let set = &mut self.tags[ways * set_idx..ways * (set_idx + 1)];
        if let Some(way) = set.iter().position(|&t| t & !DIRTY == packed) {
            let line = set[way] | dirty;
            set.copy_within(..way, 1);
            set[0] = line;
            return (true, None);
        }
        // Victim: the back tag, the LRU line or an invalid 0.
        let victim = set[ways - 1];
        set.copy_within(..ways - 1, 1);
        set[0] = packed | dirty;
        let writeback = if victim & DIRTY != 0 {
            self.stats.writebacks += 1;
            // Reconstruct the victim's address.
            Some(self.victim_address((victim & !DIRTY) - 1, set_idx))
        } else {
            None
        };
        (false, writeback)
    }

    /// Accesses the line containing `addr`, allocating on miss.
    pub fn access(&mut self, addr: u64, is_write: bool) -> Lookup {
        let (hit, writeback) = self.touch(addr, is_write);
        if hit {
            self.stats.hits += 1;
            Lookup::Hit
        } else {
            self.stats.misses += 1;
            Lookup::Miss { writeback }
        }
    }

    /// Marks the line containing `addr` present without statistics —
    /// used to install writeback data arriving from an upper level.
    pub fn install(&mut self, addr: u64, dirty: bool) -> Option<u64> {
        let (_, writeback) = self.touch(addr, dirty);
        writeback
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64B = 512B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().sets(), 4);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(matches!(
            c.access(0x100, false),
            Lookup::Miss { writeback: None }
        ));
        assert_eq!(c.access(0x100, false), Lookup::Hit);
        assert_eq!(c.access(0x13F, false), Lookup::Hit, "same 64B line");
        assert!(matches!(c.access(0x140, false), Lookup::Miss { .. }));
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Three lines mapping to set 0 (stride = sets * 64 = 256).
        c.access(0x000, false);
        c.access(0x100, false);
        c.access(0x000, false); // refresh
        c.access(0x200, false); // evicts 0x100
        assert_eq!(c.access(0x000, false), Lookup::Hit);
        assert!(matches!(c.access(0x100, false), Lookup::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x100, false);
        let result = c.access(0x200, false); // evicts dirty 0x000
        assert_eq!(
            result,
            Lookup::Miss {
                writeback: Some(0x000)
            }
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x100, false);
        assert_eq!(c.access(0x200, false), Lookup::Miss { writeback: None });
    }

    #[test]
    fn write_marks_dirty_on_hit() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x000, true); // dirty now
        c.access(0x100, false);
        let r = c.access(0x200, false);
        assert_eq!(
            r,
            Lookup::Miss {
                writeback: Some(0x000)
            }
        );
    }

    #[test]
    fn sixteen_way_set_evicts_in_recency_order() {
        // 2 sets × 16 ways × 64B; lines of set 0 are 128B apart.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 2048,
            ways: 16,
            line_bytes: 64,
            hit_latency: 1,
        });
        let line = |i: u64| i * 128;
        for i in 0..16 {
            assert_eq!(c.access(line(i), true), Lookup::Miss { writeback: None });
        }
        assert_eq!(c.access(line(0), false), Lookup::Hit, "re-touch the oldest");
        let evicted: Vec<Lookup> = (16..32).map(|i| c.access(line(i), false)).collect();
        let want: Vec<Lookup> = (1..16)
            .chain([0])
            .map(|i| Lookup::Miss {
                writeback: Some(line(i)),
            })
            .collect();
        assert_eq!(evicted, want);
        assert_eq!(c.stats().writebacks, 16);
    }

    #[test]
    fn install_places_line_without_stats() {
        let mut c = tiny();
        let before = c.stats();
        c.install(0x300, true);
        assert_eq!(c.stats().hits, before.hits);
        assert_eq!(c.stats().misses, before.misses);
        assert_eq!(c.access(0x300, false), Lookup::Hit);
    }

    #[test]
    fn miss_rate() {
        let mut c = tiny();
        c.access(0x0, false);
        c.access(0x0, false);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn non_power_of_two_sets_rejected() {
        Cache::new(CacheConfig {
            size_bytes: 192,
            ways: 1,
            line_bytes: 64,
            hit_latency: 1,
        });
    }
}
