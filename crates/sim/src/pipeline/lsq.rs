//! The load/store queue: split load and store queues whose entries are
//! held from dispatch until retirement, with a store→load forwarding
//! and store-load replay path over the store queue.
//!
//! Store entries record their address, width, and the cycle their data
//! is produced. A later load that is fully covered by an older
//! in-flight store *forwards* — it completes one cycle after both its
//! own start and the store's data are available, never slower than an
//! L1 hit. A load dispatched in the same cycle as an overlapping older
//! store speculated past an unresolved store address and *replays*
//! (one bubble); a partial overlap cannot forward and replays too.
//! The cache access is still performed either way, so the memory
//! hierarchy observes every architectural access.
//!
//! Most loads share no cache line with any in-flight store. The queue
//! keeps an exact count of in-flight stores per line bucket, so such a
//! load returns [`LoadPath::Normal`] without scanning the store queue.

use std::collections::VecDeque;

/// One store-queue entry. Loads keep only their sequence number.
#[derive(Debug, Clone, Copy)]
pub struct LsqEntry {
    /// ROB sequence number of the owning op.
    pub seq: u64,
    /// Byte address of the access.
    pub addr: u64,
    /// Access width in bytes.
    pub bytes: u32,
    /// Cycle the op dispatched.
    pub dispatched_at: u64,
    /// Cycle the store's data value is produced.
    pub data_ready_at: u64,
}

/// How a load interacts with the older stores in the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadPath {
    /// No older in-flight store overlaps: ordinary cache access.
    Normal,
    /// Fully covered by an older resolved store: forward the data.
    Forward {
        /// Cycle the forwarding store's data is available.
        data_ready_at: u64,
    },
    /// Overlaps an older store it cannot forward from (same-cycle
    /// dispatch — the store address was still unresolved when the
    /// load issued — or a partial overlap): replay after the store.
    Replay,
}

/// Log2 of the cache-line size the store filter buckets addresses by.
const LINE_SHIFT: u32 = 6;
/// Line buckets in the store filter. A span of this many consecutive
/// lines already touches every bucket.
const LINE_BUCKETS: usize = 256;

/// The filter buckets a byte range touches: one per cache line it
/// spans, at most [`LINE_BUCKETS`]. Width 0 counts as one byte,
/// matching `classify_load`'s overlap test, under which a zero-width
/// access strictly inside another range overlaps it.
fn line_buckets(addr: u64, bytes: u32) -> impl Iterator<Item = usize> {
    let first = addr >> LINE_SHIFT;
    let last = addr.saturating_add(u64::from(bytes.max(1)) - 1) >> LINE_SHIFT;
    let end = last.min(first + LINE_BUCKETS as u64 - 1) + 1;
    (first..end).map(|line| line as usize % LINE_BUCKETS)
}

/// The split load/store queues.
#[derive(Debug)]
pub struct LoadStoreQueue {
    /// Sequence numbers of the in-flight loads, oldest first. Nothing
    /// else about a load is read after dispatch.
    loads: VecDeque<u64>,
    stores: VecDeque<LsqEntry>,
    /// In-flight stores covering each line bucket (`line % 256`). Two
    /// overlapping accesses share a byte, hence a line, hence a
    /// bucket, so a load whose buckets are all zero overlaps no store.
    store_lines: [u32; LINE_BUCKETS],
    load_cap: usize,
    store_cap: usize,
}

impl LoadStoreQueue {
    /// Empty queues with the given capacities.
    pub fn new(load_cap: usize, store_cap: usize) -> Self {
        Self {
            loads: VecDeque::with_capacity(load_cap),
            stores: VecDeque::with_capacity(store_cap),
            store_lines: [0; LINE_BUCKETS],
            load_cap,
            store_cap,
        }
    }

    /// Whether a load can allocate.
    pub fn loads_full(&self) -> bool {
        self.loads.len() >= self.load_cap
    }

    /// Whether a store can allocate.
    pub fn stores_full(&self) -> bool {
        self.stores.len() >= self.store_cap
    }

    /// In-flight loads.
    pub fn loads_len(&self) -> usize {
        self.loads.len()
    }

    /// In-flight stores.
    pub fn stores_len(&self) -> usize {
        self.stores.len()
    }

    /// Allocates a load entry (dispatch order = program order).
    pub fn push_load(&mut self, seq: u64) {
        debug_assert!(!self.loads_full());
        self.loads.push_back(seq);
    }

    /// Allocates a store entry.
    pub fn push_store(&mut self, entry: LsqEntry) {
        debug_assert!(!self.stores_full());
        self.count_store_lines(&entry, true);
        self.stores.push_back(entry);
    }

    /// Adds or removes a store's lines in the filter.
    fn count_store_lines(&mut self, store: &LsqEntry, add: bool) {
        for bucket in line_buckets(store.addr, store.bytes) {
            let count = &mut self.store_lines[bucket];
            if add {
                *count += 1;
            } else {
                *count -= 1;
            }
        }
    }

    /// Classifies a load about to dispatch against the older stores in
    /// the window. Scans youngest-first so the forwarding source is
    /// the most recent overlapping store, as in hardware. A load whose
    /// lines hold no in-flight store skips the scan. The core counts
    /// replays off the returned path (`lsq_replays`).
    pub fn classify_load(&self, addr: u64, bytes: u32, now: u64) -> LoadPath {
        if line_buckets(addr, bytes).all(|bucket| self.store_lines[bucket] == 0) {
            return LoadPath::Normal;
        }
        let load_end = addr + bytes as u64;
        for store in self.stores.iter().rev() {
            let store_end = store.addr + store.bytes as u64;
            if addr >= store_end || store.addr >= load_end {
                continue; // disjoint
            }
            let covers = store.addr <= addr && store_end >= load_end;
            if covers && store.dispatched_at < now {
                return LoadPath::Forward {
                    data_ready_at: store.data_ready_at,
                };
            }
            // Same-cycle dispatch (address unresolved when the load
            // issued) or partial overlap: the load replays.
            return LoadPath::Replay;
        }
        LoadPath::Normal
    }

    /// Releases the head entry at commit. Commit is in order, so the
    /// retiring op's entry is always at the front of its queue.
    pub fn release(&mut self, seq: u64, is_store: bool) {
        let front = if is_store {
            self.stores.pop_front().map(|store| {
                self.count_store_lines(&store, false);
                store.seq
            })
        } else {
            self.loads.pop_front()
        };
        debug_assert_eq!(front, Some(seq), "LSQ commit order");
    }

    /// Squashes every entry younger than `seq` (flush path).
    pub fn squash_newer(&mut self, seq: u64) {
        while self.loads.back().is_some_and(|&s| s > seq) {
            self.loads.pop_back();
        }
        while let Some(store) = self.stores.back().copied().filter(|e| e.seq > seq) {
            self.stores.pop_back();
            self.count_store_lines(&store, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(seq: u64, addr: u64, bytes: u32, dispatched_at: u64) -> LsqEntry {
        LsqEntry {
            seq,
            addr,
            bytes,
            dispatched_at,
            data_ready_at: dispatched_at + 1,
        }
    }

    #[test]
    fn covered_load_forwards_from_an_older_resolved_store() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.push_store(store(1, 0x1000, 16, 5));
        // Dispatched a later cycle, fully inside the store's range.
        let path = lsq.classify_load(0x1008, 8, 6);
        assert_eq!(path, LoadPath::Forward { data_ready_at: 6 });
    }

    #[test]
    fn same_cycle_overlap_replays_instead_of_forwarding() {
        // The load issued in the same cycle as the older store, before
        // the store's address resolved — classic store-load replay.
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.push_store(store(1, 0x1000, 16, 5));
        assert_eq!(lsq.classify_load(0x1000, 8, 5), LoadPath::Replay);
    }

    #[test]
    fn partial_overlap_replays() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.push_store(store(1, 0x1000, 8, 5));
        // Load straddles past the store's end: cannot forward.
        assert_eq!(lsq.classify_load(0x1004, 8, 9), LoadPath::Replay);
    }

    #[test]
    fn disjoint_stores_leave_loads_on_the_normal_path() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.push_store(store(1, 0x1000, 8, 5));
        assert_eq!(lsq.classify_load(0x2000, 8, 6), LoadPath::Normal);
    }

    #[test]
    fn youngest_overlapping_store_wins() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.push_store(store(1, 0x1000, 64, 2));
        lsq.push_store(store(2, 0x1000, 64, 4));
        let path = lsq.classify_load(0x1010, 8, 7);
        assert_eq!(
            path,
            LoadPath::Forward { data_ready_at: 5 },
            "forward from seq 2, the youngest older store"
        );
    }

    #[test]
    fn released_and_squashed_stores_leave_the_filter() {
        let mut lsq = LoadStoreQueue::new(4, 4);
        lsq.push_store(store(1, 0x3c, 8, 0)); // straddles two lines
        lsq.push_store(store(2, 0x10, 300 * 64, 0)); // every bucket
        lsq.push_store(store(3, 0x4000, 0, 0));
        assert!(lsq.store_lines.iter().all(|&c| c >= 1));
        lsq.squash_newer(1);
        lsq.release(1, true);
        assert_eq!(lsq.store_lines, [0; LINE_BUCKETS]);
    }

    #[test]
    fn squash_and_release_maintain_the_windows() {
        let mut lsq = LoadStoreQueue::new(2, 2);
        lsq.push_load(1);
        lsq.push_store(store(2, 0x20, 8, 0));
        lsq.push_store(store(3, 0x40, 8, 1));
        assert!(lsq.stores_full());
        lsq.squash_newer(2);
        assert_eq!(lsq.stores_len(), 1, "seq 3 squashed");
        assert_eq!(lsq.loads_len(), 1, "older load survives");
        lsq.release(1, false);
        lsq.release(2, true);
        assert_eq!(lsq.loads_len() + lsq.stores_len(), 0);
    }
}
