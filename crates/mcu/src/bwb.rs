//! The bounds way buffer (paper §V-C): a small LRU tag buffer mapping
//! object-region tags to the HBT way where the object's bounds were
//! last found, so repeated checks skip the way iteration.

/// Statistics for the Fig. 17 analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BwbStats {
    /// Lookups that found a way hint.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Way recordings (one per completed check retirement).
    pub updates: u64,
    /// Updates that displaced the least recently used entry.
    pub evictions: u64,
}

impl BwbStats {
    /// Hit rate in `[0, 1]`; zero when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A fully-associative, LRU-replaced tag buffer (64 entries in
/// Table IV; each entry is a 32-bit tag from
/// [`aos_ptrauth::bwb_tag`] plus a way number).
///
/// # Examples
///
/// ```
/// use aos_mcu::BoundsWayBuffer;
/// let mut bwb = BoundsWayBuffer::new(4);
/// bwb.update(0xABCD, 3);
/// assert_eq!(bwb.lookup(0xABCD), Some(3));
/// assert_eq!(bwb.lookup(0x1234), None);
/// ```
#[derive(Debug, Clone)]
pub struct BoundsWayBuffer {
    capacity: usize,
    /// (tag, way) pairs in recency order, most recently used first:
    /// a hit moves its entry to the front and a full buffer drops the
    /// back one, the same idiom as a `Cache` set (DESIGN §15.5).
    entries: Vec<(u32, u32)>,
    stats: BwbStats,
}

impl BoundsWayBuffer {
    /// Creates a buffer with the given entry count.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "BWB capacity must be nonzero");
        Self {
            capacity,
            entries: Vec::with_capacity(capacity),
            stats: BwbStats::default(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Moves the entry holding `tag`, if any, to the front and returns
    /// it.
    #[inline]
    fn promote(&mut self, tag: u32) -> Option<&mut (u32, u32)> {
        let i = self.entries.iter().position(|&(t, _)| t == tag)?;
        let entry = self.entries[i];
        self.entries.copy_within(..i, 1);
        self.entries[0] = entry;
        Some(&mut self.entries[0])
    }

    /// Looks up a tag, refreshing its LRU position on hit.
    #[inline]
    pub fn lookup(&mut self, tag: u32) -> Option<u32> {
        let way = self.promote(tag).map(|&mut (_, way)| way);
        if way.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        way
    }

    /// Records that `tag`'s bounds were found in `way`, evicting the
    /// least recently used entry if full.
    #[inline]
    pub fn update(&mut self, tag: u32, way: u32) {
        self.stats.updates += 1;
        if let Some(entry) = self.promote(tag) {
            entry.1 = way;
            return;
        }
        if self.entries.len() == self.capacity {
            self.stats.evictions += 1;
            self.entries.pop();
        }
        self.entries.insert(0, (tag, way));
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> BwbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_then_lookup_hits() {
        let mut b = BoundsWayBuffer::new(8);
        b.update(1, 5);
        assert_eq!(b.lookup(1), Some(5));
        assert_eq!(b.stats().hits, 1);
        assert_eq!(b.stats().misses, 0);
    }

    #[test]
    fn miss_is_counted() {
        let mut b = BoundsWayBuffer::new(8);
        assert_eq!(b.lookup(42), None);
        assert_eq!(b.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut b = BoundsWayBuffer::new(2);
        b.update(1, 0);
        b.update(2, 0);
        b.update(3, 0); // evicts 1
        assert_eq!(b.lookup(1), None);
        assert_eq!(b.lookup(2), Some(0));
        assert_eq!(b.lookup(3), Some(0));
    }

    #[test]
    fn lookup_refreshes_lru_position() {
        let mut b = BoundsWayBuffer::new(2);
        b.update(1, 0);
        b.update(2, 0);
        b.lookup(1); // 1 becomes MRU
        b.update(3, 0); // evicts 2
        assert_eq!(b.lookup(2), None);
        assert_eq!(b.lookup(1), Some(0));
    }

    #[test]
    fn update_existing_changes_way() {
        let mut b = BoundsWayBuffer::new(4);
        b.update(1, 0);
        b.update(1, 7);
        assert_eq!(b.lookup(1), Some(7));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn hit_rate_computation() {
        let mut b = BoundsWayBuffer::new(4);
        b.update(1, 0);
        b.lookup(1);
        b.lookup(2);
        assert!((b.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(BwbStats::default().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        BoundsWayBuffer::new(0);
    }

    /// The recency-ordered buffer against the obvious move-to-back
    /// list (least recently used first, the reverse order): every
    /// lookup result, the length and all four counters must agree
    /// under a randomized stream, for several capacities, the default
    /// sweep's 16, 64 and 128 among them.
    #[test]
    fn matches_naive_lru_model() {
        for capacity in [1usize, 2, 3, 8, 16, 64, 128] {
            let mut fast = BoundsWayBuffer::new(capacity);
            let mut model: Vec<(u32, u32)> = Vec::new();
            let mut counts = BwbStats::default();
            let mut x = 0x9E3779B9u32 ^ capacity as u32;
            for step in 0..20_000u32 {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                let tag = x % (capacity as u32 * 3 + 5);
                if x & 0x10000 == 0 {
                    let expected = model.iter().position(|&(t, _)| t == tag).map(|p| {
                        let e = model.remove(p);
                        model.push(e);
                        e.1
                    });
                    if expected.is_some() {
                        counts.hits += 1;
                    } else {
                        counts.misses += 1;
                    }
                    assert_eq!(fast.lookup(tag), expected, "step {step} cap {capacity}");
                } else {
                    let way = step % 8;
                    counts.updates += 1;
                    if let Some(p) = model.iter().position(|&(t, _)| t == tag) {
                        model.remove(p);
                    } else if model.len() == capacity {
                        counts.evictions += 1;
                        model.remove(0);
                    }
                    model.push((tag, way));
                    fast.update(tag, way);
                }
                assert_eq!(fast.len(), model.len());
            }
            assert_eq!(fast.stats(), counts, "cap {capacity}");
        }
    }
}
