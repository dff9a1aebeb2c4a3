//! A bounds table driven the way the hardware drives it: every
//! `bndstr`, `bndclr` and bounds check is one MCQ entry run to
//! completion through the Fig. 8 FSMs by
//! [`MemoryCheckUnit::run_sync`]. Operations name a table row by its
//! PAC and a chunk by its address.

#![allow(dead_code)] // each test binary uses its own subset

use aos_hbt::{HashedBoundsTable, HbtConfig};
use aos_mcu::{AosException, McuConfig, McuOp, MemoryCheckUnit};
use aos_ptrauth::PointerLayout;
use aos_util::TelemetrySnapshot;

/// Any nonzero AHC makes a pointer signed, so its accesses are checked.
const AHC: u8 = 1;

/// A table and the MCU that operates on it.
pub struct Bounds {
    pub mcu: MemoryCheckUnit,
    pub hbt: HashedBoundsTable,
    layout: PointerLayout,
}

impl Bounds {
    /// A fresh table under the Table IV MCU configuration.
    pub fn new(config: HbtConfig) -> Self {
        let layout = PointerLayout::default();
        Self {
            mcu: MemoryCheckUnit::new(McuConfig::default(), layout),
            hbt: HashedBoundsTable::new(config),
            layout,
        }
    }

    /// The signed pointer to `addr` carrying `pac`.
    pub fn pointer(&self, pac: u64, addr: u64) -> u64 {
        self.layout.compose(addr, pac, AHC)
    }

    /// `bndstr`: stores the bounds `[base, base + size)` in row `pac`.
    pub fn store(&mut self, pac: u64, base: u64, size: u64) -> Result<(), AosException> {
        let pointer = self.pointer(pac, base);
        self.run(McuOp::BndStr { pointer, size })
    }

    /// `bndclr`: clears the record of row `pac` whose lower bound is
    /// `base`.
    pub fn clear(&mut self, pac: u64, base: u64) -> Result<(), AosException> {
        let pointer = self.pointer(pac, base);
        self.run(McuOp::BndClr { pointer })
    }

    /// A signed load of `addr`: the number of ways the check walked,
    /// or `None` when no record in row `pac` covers it.
    pub fn check(&mut self, pac: u64, addr: u64) -> Option<u32> {
        let pointer = self.pointer(pac, addr);
        let before = self.mcu.stats().way_iterations;
        self.run(McuOp::Access {
            pointer,
            is_store: false,
        })
        .ok()
        .map(|()| (self.mcu.stats().way_iterations - before) as u32)
    }

    fn run(&mut self, op: McuOp) -> Result<(), AosException> {
        self.mcu.run_sync(op, &mut self.hbt)
    }

    /// The table's and the MCU's stats, projected into one snapshot as
    /// a machine or a process projects them.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new(true);
        self.hbt.record_telemetry(&mut snap);
        self.mcu.record_telemetry(&mut snap);
        snap
    }
}
