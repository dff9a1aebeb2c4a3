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
    /// Entry storage; index `i` is one (tag, way) pair.
    tags: Vec<u32>,
    ways: Vec<u32>,
    /// Intrusive doubly-linked recency list over entry indices:
    /// `head` is least recently used, `tail` most recently used. This
    /// is the same exact-LRU order a move-to-back list keeps, at O(1)
    /// per touch instead of a memmove.
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    /// Open-addressed tag index: slot holds `entry index + 1`, zero
    /// means empty. Sized to at most half full, so probes stay short
    /// and lookups cost O(1) instead of a linear scan.
    slots: Vec<u32>,
    slot_mask: usize,
    stats: BwbStats,
}

/// Null link in the recency list.
const NONE: u32 = u32::MAX;

impl BoundsWayBuffer {
    /// Creates a buffer with the given entry count.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "BWB capacity must be nonzero");
        let slot_count = (capacity * 2).next_power_of_two().max(4);
        Self {
            capacity,
            tags: Vec::with_capacity(capacity),
            ways: Vec::with_capacity(capacity),
            prev: Vec::with_capacity(capacity),
            next: Vec::with_capacity(capacity),
            head: NONE,
            tail: NONE,
            slots: vec![0; slot_count],
            slot_mask: slot_count - 1,
            stats: BwbStats::default(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    #[inline]
    fn slot_home(&self, tag: u32) -> usize {
        // Fibonacci hashing: the tag already concentrates entropy in
        // its PAC half, the multiply spreads it across the table.
        ((tag as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize & self.slot_mask
    }

    /// The slot where `tag` lives or would be inserted: probes from
    /// its home slot, returning the first match or empty slot.
    #[inline]
    fn probe(&self, tag: u32) -> usize {
        let mut s = self.slot_home(tag);
        loop {
            let e = self.slots[s];
            if e == 0 || self.tags[(e - 1) as usize] == tag {
                return s;
            }
            s = (s + 1) & self.slot_mask;
        }
    }

    /// Empties slot `s` and compacts the probe chain behind it
    /// (standard linear-probing deletion).
    fn vacate(&mut self, mut s: usize) {
        self.slots[s] = 0;
        let mut j = s;
        loop {
            j = (j + 1) & self.slot_mask;
            let e = self.slots[j];
            if e == 0 {
                return;
            }
            let home = self.slot_home(self.tags[(e - 1) as usize]);
            // Move `e` back iff its home does not lie in the cyclic
            // interval (s, j] — i.e. probing from `home` would pass
            // through the hole at `s`.
            let dist_home = j.wrapping_sub(home) & self.slot_mask;
            let dist_hole = j.wrapping_sub(s) & self.slot_mask;
            if dist_home >= dist_hole {
                self.slots[s] = e;
                self.slots[j] = 0;
                s = j;
            }
        }
    }

    /// Unlinks entry `i` from the recency list.
    #[inline]
    fn unlink(&mut self, i: u32) {
        let (p, n) = (self.prev[i as usize], self.next[i as usize]);
        if p == NONE {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NONE {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    /// Appends entry `i` at the most-recently-used end.
    #[inline]
    fn push_mru(&mut self, i: u32) {
        self.prev[i as usize] = self.tail;
        self.next[i as usize] = NONE;
        if self.tail == NONE {
            self.head = i;
        } else {
            self.next[self.tail as usize] = i;
        }
        self.tail = i;
    }

    #[inline]
    fn touch(&mut self, i: u32) {
        if self.tail != i {
            self.unlink(i);
            self.push_mru(i);
        }
    }

    /// Looks up a tag, refreshing its LRU position on hit.
    #[inline]
    pub fn lookup(&mut self, tag: u32) -> Option<u32> {
        let e = self.slots[self.probe(tag)];
        if e != 0 {
            let i = e - 1;
            self.touch(i);
            self.stats.hits += 1;
            Some(self.ways[i as usize])
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Records that `tag`'s bounds were found in `way`, evicting the
    /// least recently used entry if full.
    #[inline]
    pub fn update(&mut self, tag: u32, way: u32) {
        self.stats.updates += 1;
        let s = self.probe(tag);
        let e = self.slots[s];
        if e != 0 {
            let i = e - 1;
            self.ways[i as usize] = way;
            self.touch(i);
        } else if self.tags.len() == self.capacity {
            self.stats.evictions += 1;
            let lru = self.head;
            let old = self.tags[lru as usize];
            self.vacate(self.probe(old));
            self.tags[lru as usize] = tag;
            self.ways[lru as usize] = way;
            // Re-probe: compacting the old tag's chain may have moved
            // entries over `s`.
            let s = self.probe(tag);
            self.slots[s] = lru + 1;
            self.touch(lru);
        } else {
            let i = self.tags.len() as u32;
            self.tags.push(tag);
            self.ways.push(way);
            self.prev.push(NONE);
            self.next.push(NONE);
            self.slots[s] = i + 1;
            self.push_mru(i);
        }
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

    /// The hash-indexed buffer against the obvious move-to-back list:
    /// every lookup result and every hit/miss count must agree under a
    /// randomized stream, for several capacities.
    #[test]
    fn matches_naive_lru_model() {
        for capacity in [1usize, 2, 3, 8, 64] {
            let mut fast = BoundsWayBuffer::new(capacity);
            let mut model: Vec<(u32, u32)> = Vec::new();
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
                    assert_eq!(fast.lookup(tag), expected, "step {step} cap {capacity}");
                } else {
                    let way = step % 8;
                    if let Some(p) = model.iter().position(|&(t, _)| t == tag) {
                        model.remove(p);
                    } else if model.len() == capacity {
                        model.remove(0);
                    }
                    model.push((tag, way));
                    fast.update(tag, way);
                }
                assert_eq!(fast.len(), model.len());
            }
        }
    }
}
