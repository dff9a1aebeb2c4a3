//! Decode/rename: the register alias table (RAT) and physical
//! register file.
//!
//! The trace vocabulary carries no architectural register numbers, so
//! the logical register space is the minimal one the timing model
//! needs: one *chain* register threading pointer-traversal dependences
//! (a chained load reads the previous link's result and writes its
//! own) and a rotating set of scratch destinations for ordinary loads.
//! What the structure buys over the old scalar `last_chain_complete`
//! is rollback: a precise-exception flush restores the mapping each
//! squashed op overwrote, so a refetched chained load re-reads the
//! value the wrong-path rename clobbered.

/// Logical register count: the chain register plus the scratch ring.
pub const LOGICAL_REGS: usize = 9;

/// The pointer-chase dependence register.
pub const CHAIN_REG: u8 = 0;

/// One rename, with everything needed to undo or retire it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rename {
    /// The logical destination.
    pub logical: u8,
    /// The physical register the op writes.
    pub new_phys: u16,
    /// The physical register the logical name previously mapped to.
    pub old_phys: u16,
}

/// The RAT plus the physical register file's ready times.
#[derive(Debug)]
pub struct RegisterAliasTable {
    map: [u16; LOGICAL_REGS],
    ready_at: Vec<u64>,
    free: Vec<u16>,
    next_scratch: u8,
}

impl RegisterAliasTable {
    /// A table backed by `LOGICAL_REGS + window` physical registers —
    /// with `window` at least the ROB capacity, allocation can never
    /// fail (each in-flight op holds at most one physical register).
    pub fn new(window: usize) -> Self {
        let total = LOGICAL_REGS + window;
        assert!(
            total <= u16::MAX as usize,
            "physical register file too large"
        );
        let mut map = [0u16; LOGICAL_REGS];
        for (logical, phys) in map.iter_mut().enumerate() {
            *phys = logical as u16;
        }
        Self {
            map,
            ready_at: vec![0; total],
            free: (LOGICAL_REGS as u16..total as u16).rev().collect(),
            next_scratch: 1,
        }
    }

    /// Cycle at which the current value of `logical` is available.
    pub fn ready_at(&self, logical: u8) -> u64 {
        self.ready_at[self.map[logical as usize] as usize]
    }

    /// Renames `logical` to a fresh physical register whose value
    /// becomes available at `ready_at`, returning the rollback record.
    ///
    /// # Panics
    ///
    /// Panics if the freelist is empty — impossible when the file is
    /// sized for the ROB window (see [`RegisterAliasTable::new`]).
    pub fn rename(&mut self, logical: u8, ready_at: u64) -> Rename {
        let new_phys = self
            .free
            .pop()
            .expect("physical register file sized for the ROB window");
        let old_phys = self.map[logical as usize];
        self.map[logical as usize] = new_phys;
        self.ready_at[new_phys as usize] = ready_at;
        Rename {
            logical,
            new_phys,
            old_phys,
        }
    }

    /// Undoes a rename during a flush: the logical name maps back to
    /// the previous physical register and the speculative one returns
    /// to the freelist. Flushes walk the ROB youngest-first, so the
    /// mapping being undone is always the current one.
    pub fn rollback(&mut self, rename: &Rename) {
        debug_assert_eq!(self.map[rename.logical as usize], rename.new_phys);
        self.map[rename.logical as usize] = rename.old_phys;
        self.free.push(rename.new_phys);
    }

    /// Retires a rename at commit: the overwritten physical register
    /// can never be read again and returns to the freelist.
    pub fn commit(&mut self, rename: &Rename) {
        self.free.push(rename.old_phys);
    }

    /// The next scratch destination for an unchained load — a rotating
    /// ring over the non-chain logical registers.
    pub fn next_scratch(&mut self) -> u8 {
        let reg = self.next_scratch;
        self.next_scratch += 1;
        if self.next_scratch as usize >= LOGICAL_REGS {
            self.next_scratch = 1;
        }
        reg
    }

    /// Free physical registers (diagnostics/tests).
    pub fn free_regs(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_threads_the_chain_dependence() {
        let mut rat = RegisterAliasTable::new(8);
        assert_eq!(rat.ready_at(CHAIN_REG), 0);
        let r1 = rat.rename(CHAIN_REG, 105);
        assert_eq!(rat.ready_at(CHAIN_REG), 105, "reader sees the new link");
        let r2 = rat.rename(CHAIN_REG, 230);
        assert_eq!(rat.ready_at(CHAIN_REG), 230);
        assert_ne!(r1.new_phys, r2.new_phys);
        assert_eq!(r2.old_phys, r1.new_phys, "renames chain through the map");
    }

    #[test]
    fn rollback_restores_the_clobbered_mapping() {
        // The satellite test: rename twice, flush the younger rename,
        // and the reader must see the older value again — exactly what
        // a refetched chained load needs after a precise exception.
        let mut rat = RegisterAliasTable::new(8);
        let free_before = rat.free_regs();
        let older = rat.rename(CHAIN_REG, 50);
        let younger = rat.rename(CHAIN_REG, 90);
        assert_eq!(rat.ready_at(CHAIN_REG), 90);
        rat.rollback(&younger);
        assert_eq!(rat.ready_at(CHAIN_REG), 50, "flush re-exposes the old link");
        rat.rollback(&older);
        assert_eq!(rat.ready_at(CHAIN_REG), 0);
        assert_eq!(rat.free_regs(), free_before, "no physical register leaks");
    }

    #[test]
    fn commit_frees_the_overwritten_register() {
        let mut rat = RegisterAliasTable::new(4);
        let free_before = rat.free_regs();
        let r = rat.rename(CHAIN_REG, 10);
        assert_eq!(rat.free_regs(), free_before - 1);
        rat.commit(&r);
        assert_eq!(rat.free_regs(), free_before, "old phys recycled at commit");
        assert_eq!(rat.ready_at(CHAIN_REG), 10, "mapping survives commit");
    }

    #[test]
    fn scratch_ring_rotates_over_non_chain_registers() {
        let mut rat = RegisterAliasTable::new(4);
        let first: Vec<u8> = (0..LOGICAL_REGS - 1).map(|_| rat.next_scratch()).collect();
        assert!(first.iter().all(|&r| r != CHAIN_REG));
        assert_eq!(rat.next_scratch(), first[0], "ring wraps");
    }
}
