//! Property tests for the cache model against two reference
//! implementations: a map of sets to LRU-ordered tag lists, and the
//! stamp-based set logic the cache used before it kept each set in
//! recency order.

use proptest::prelude::*;
use std::collections::HashMap;

use aos_sim::cache::Lookup;
use aos_sim::{Cache, CacheConfig};

/// A straightforward reference cache: per set, a vector of (tag,
/// dirty) in LRU order (most recent last).
struct ReferenceCache {
    sets: u64,
    ways: usize,
    line: u64,
    content: HashMap<u64, Vec<(u64, bool)>>,
}

impl ReferenceCache {
    fn new(config: CacheConfig) -> Self {
        Self {
            sets: config.sets(),
            ways: config.ways as usize,
            line: config.line_bytes as u64,
            content: HashMap::new(),
        }
    }

    /// Returns (hit, writeback address).
    fn access(&mut self, addr: u64, write: bool) -> (bool, Option<u64>) {
        let line_no = addr / self.line;
        let set = line_no % self.sets;
        let tag = line_no / self.sets;
        let entries = self.content.entry(set).or_default();
        if let Some(pos) = entries.iter().position(|&(t, _)| t == tag) {
            let (t, d) = entries.remove(pos);
            entries.push((t, d || write));
            return (true, None);
        }
        let mut writeback = None;
        if entries.len() == self.ways {
            let (victim_tag, dirty) = entries.remove(0);
            if dirty {
                writeback = Some((victim_tag * self.sets + set) * self.line);
            }
        }
        entries.push((tag, write));
        (false, writeback)
    }
}

/// The dirty bit of a packed tag in [`StampCache`].
const DIRTY: u64 = 1 << 63;

/// The stamp-based set logic: one block per set of `ways` packed tags
/// (`(tag + 1) | dirty << 63`, 0 = invalid) followed by `ways` LRU
/// stamps, one global tick per touch. The victim is the first invalid
/// way, else the lowest stamp.
struct StampCache {
    blocks: Vec<u64>,
    sets: u64,
    ways: usize,
    line: u64,
    tick: u64,
}

impl StampCache {
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.ways as usize;
        Self {
            blocks: vec![0; 2 * ways * sets as usize],
            sets,
            ways,
            line: config.line_bytes as u64,
            tick: 0,
        }
    }

    /// Returns (hit, writeback address).
    fn touch(&mut self, addr: u64, write: bool) -> (bool, Option<u64>) {
        self.tick += 1;
        let line_no = addr / self.line;
        let set = line_no % self.sets;
        let packed = line_no / self.sets + 1;
        let dirty = if write { DIRTY } else { 0 };
        let ways = self.ways;
        let base = 2 * ways * set as usize;
        let (tags, stamps) = self.blocks[base..base + 2 * ways].split_at_mut(ways);
        if let Some(way) = tags.iter().position(|&t| t & !DIRTY == packed) {
            stamps[way] = self.tick;
            tags[way] |= dirty;
            return (true, None);
        }
        let victim_way = tags.iter().position(|&t| t == 0).unwrap_or_else(|| {
            (1..ways).fold(0, |min, w| if stamps[w] < stamps[min] { w } else { min })
        });
        let victim = std::mem::replace(&mut tags[victim_way], packed | dirty);
        stamps[victim_way] = self.tick;
        let writeback =
            (victim & DIRTY != 0).then(|| (((victim & !DIRTY) - 1) * self.sets + set) * self.line);
        (false, writeback)
    }
}

/// The associativities the machine uses — the L1-B (4-way), the L1-D
/// (8-way) and the L2 (16-way) — each with few sets, so sets fill and
/// evict often.
const GEOMETRIES: [(u32, u64); 3] = [(4, 4), (8, 2), (16, 2)];

proptest! {
    /// Hit/miss/writeback behaviour matches both references on every
    /// step, for any interleaving of `access` and `install` over a
    /// small address space.
    #[test]
    fn cache_matches_reference_model(
        geometry in 0usize..GEOMETRIES.len(),
        steps in proptest::collection::vec((0u64..64, any::<bool>(), 0u8..4), 1..600),
    ) {
        let (ways, sets) = GEOMETRIES[geometry];
        let config = CacheConfig {
            size_bytes: sets * ways as u64 * 64,
            ways,
            line_bytes: 64,
            hit_latency: 1,
        };
        let mut cache = Cache::new(config);
        let mut reference = ReferenceCache::new(config);
        let mut stamped = StampCache::new(config);
        let mut writebacks = 0;
        for (line_index, write, op) in steps {
            let addr = line_index * 64 + 8;
            let want = reference.access(addr, write);
            prop_assert_eq!(stamped.touch(addr, write), want, "stamp oracle divergence");
            let got = if op == 0 {
                // An upper level's writeback arriving: no hit/miss
                // result, only the victim it displaces.
                let writeback = cache.install(addr, write);
                prop_assert_eq!(writeback, want.1, "install writeback divergence");
                writeback
            } else {
                match cache.access(addr, write) {
                    Lookup::Hit => {
                        prop_assert!(want.0, "cache hit, references missed");
                        None
                    }
                    Lookup::Miss { writeback } => {
                        prop_assert!(!want.0, "cache missed, references hit");
                        prop_assert_eq!(writeback, want.1, "writeback divergence");
                        writeback
                    }
                }
            };
            writebacks += u64::from(got.is_some());
        }
        prop_assert_eq!(cache.stats().writebacks, writebacks);
    }

    /// Counter invariant: hits + misses equals accesses; writebacks
    /// never exceed misses.
    #[test]
    fn counters_are_consistent(
        accesses in proptest::collection::vec((0u64..256, any::<bool>()), 1..400),
    ) {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 2048,
            ways: 4,
            line_bytes: 64,
            hit_latency: 1,
        });
        let n = accesses.len() as u64;
        for (line_index, write) in accesses {
            cache.access(line_index * 64, write);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, n);
        prop_assert!(stats.writebacks <= stats.misses);
    }
}
