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

use std::collections::VecDeque;

/// One queue entry.
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
    /// For stores: cycle the store's data value is produced.
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

/// The split load/store queues.
#[derive(Debug)]
pub struct LoadStoreQueue {
    loads: VecDeque<LsqEntry>,
    stores: VecDeque<LsqEntry>,
    load_cap: usize,
    store_cap: usize,
}

impl LoadStoreQueue {
    /// Empty queues with the given capacities.
    pub fn new(load_cap: usize, store_cap: usize) -> Self {
        Self {
            loads: VecDeque::with_capacity(load_cap),
            stores: VecDeque::with_capacity(store_cap),
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
    pub fn push_load(&mut self, entry: LsqEntry) {
        debug_assert!(!self.loads_full());
        self.loads.push_back(entry);
    }

    /// Allocates a store entry.
    pub fn push_store(&mut self, entry: LsqEntry) {
        debug_assert!(!self.stores_full());
        self.stores.push_back(entry);
    }

    /// Classifies a load about to dispatch against the older stores in
    /// the window. Scans youngest-first so the forwarding source is
    /// the most recent overlapping store, as in hardware. The core
    /// counts replays off the returned path (`lsq_replays`).
    pub fn classify_load(&self, addr: u64, bytes: u32, now: u64) -> LoadPath {
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
        let queue = if is_store {
            &mut self.stores
        } else {
            &mut self.loads
        };
        let front = queue.pop_front();
        debug_assert_eq!(front.map(|e| e.seq), Some(seq), "LSQ commit order");
        let _ = front;
    }

    /// Squashes every entry younger than `seq` (flush path).
    pub fn squash_newer(&mut self, seq: u64) {
        while self.loads.back().is_some_and(|e| e.seq > seq) {
            self.loads.pop_back();
        }
        while self.stores.back().is_some_and(|e| e.seq > seq) {
            self.stores.pop_back();
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
    fn squash_and_release_maintain_the_windows() {
        let mut lsq = LoadStoreQueue::new(2, 2);
        lsq.push_load(LsqEntry {
            seq: 1,
            addr: 0x10,
            bytes: 8,
            dispatched_at: 0,
            data_ready_at: 0,
        });
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
