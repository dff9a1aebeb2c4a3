//! The reorder buffer: a fixed-capacity ring (`VecDeque`) of in-flight
//! ops in program order.
//!
//! Every dispatched op allocates the tail entry and receives a
//! monotonically increasing sequence number; commit retires from the
//! head, and a precise-exception flush pops from the tail. An entry
//! carries the cycle its result is ready, which commit compares
//! against the clock.

use std::collections::VecDeque;

use aos_isa::Op;

/// One in-flight op.
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// Program-order sequence number (globally unique per machine).
    pub seq: u64,
    /// The op itself — kept so a flush can refetch it.
    pub op: Op,
    /// Cycle the op's result is (or will be) available; the entry is
    /// complete once the core's clock reaches it.
    pub complete_at: u64,
    /// A precise AOS exception latched on this entry, to be raised
    /// when the entry reaches the commit point (delayed retirement).
    pub faulted: bool,
    /// The MCU queue entry coupled to this op, when AOS is checking.
    pub mcq_id: Option<u64>,
    /// Whether the op holds a load-queue entry until retirement.
    pub is_load: bool,
    /// Whether the op holds a store-queue entry until retirement.
    pub is_store: bool,
    /// For a chained load, the chain-ready cycle it overwrote at
    /// dispatch, which a flush restores.
    pub chain_restore: Option<u64>,
}

/// The circular reorder buffer.
#[derive(Debug)]
pub struct ReorderBuffer {
    entries: VecDeque<RobEntry>,
    capacity: usize,
    /// Sequence number the next allocated entry receives.
    next_seq: u64,
}

impl ReorderBuffer {
    /// An empty buffer with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB needs at least one entry");
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            next_seq: 0,
        }
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether dispatch must stall.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocates the tail entry, assigning and returning its sequence
    /// number.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — the dispatch stage checks
    /// [`ReorderBuffer::is_full`] first.
    pub fn alloc(&mut self, mut entry: RobEntry) -> u64 {
        assert!(!self.is_full(), "ROB overflow: dispatch must check first");
        let seq = self.next_seq;
        self.next_seq += 1;
        entry.seq = seq;
        self.entries.push_back(entry);
        seq
    }

    /// The sequence number the next allocation will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The oldest in-flight entry.
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Retires the oldest entry.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn pop_head(&mut self) -> RobEntry {
        self.entries.pop_front().expect("commit from an empty ROB")
    }

    /// Squashes the youngest entry (precise-exception flush walks the
    /// tail toward the head).
    pub fn pop_tail(&mut self) -> Option<RobEntry> {
        self.entries.pop_back()
    }

    /// Mutable program-order iteration, oldest first (the exception
    /// latch path scans for the entry coupled to a faulting MCQ id —
    /// rare enough that a walk beats carrying an id→slot map).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut RobEntry> {
        self.entries.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(complete_at: u64) -> RobEntry {
        RobEntry {
            seq: 0,
            op: Op::IntAlu,
            complete_at,
            faulted: false,
            mcq_id: None,
            is_load: false,
            is_store: false,
            chain_restore: None,
        }
    }

    #[test]
    fn wraps_around_the_circular_storage() {
        // A 4-entry ROB cycled through 100 allocations: the head/tail
        // indices wrap many times while seq stays monotonic and
        // program order is preserved.
        let mut rob = ReorderBuffer::new(4);
        let mut expected_head = 0u64;
        for i in 0..100u64 {
            let seq = rob.alloc(entry(i));
            assert_eq!(seq, i);
            if rob.is_full() {
                let head = rob.pop_head();
                assert_eq!(head.seq, expected_head, "FIFO order across wrap");
                assert_eq!(head.complete_at, expected_head);
                expected_head += 1;
            }
        }
        while !rob.is_empty() {
            assert_eq!(rob.pop_head().seq, expected_head);
            expected_head += 1;
        }
        assert_eq!(expected_head, 100);
        assert_eq!(rob.next_seq(), 100);
    }

    #[test]
    fn iter_mut_walks_oldest_first_across_wrap() {
        let mut rob = ReorderBuffer::new(3);
        rob.alloc(entry(0));
        rob.alloc(entry(1));
        rob.pop_head();
        rob.alloc(entry(2));
        rob.alloc(entry(3)); // wraps into slot 0
        let seqs: Vec<u64> = rob.iter_mut().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }
}
