//! The memory check unit (MCU): AOS's in-core bounds-checking engine.
//!
//! AOS removes explicit check instructions by adding a functional unit
//! next to the load-store unit (paper §V-A). Every memory instruction
//! is also enqueued here; if its pointer is signed (nonzero AHC), the
//! unit walks the hashed bounds table until it finds — or fails to
//! find — valid bounds, and the instruction may not retire until the
//! walk succeeds (precise exceptions, §III-C4).
//!
//! The unit comprises:
//!
//! - the **memory check queue** ([`mcq`]) — 48 entries, each running
//!   one of the two FSMs of Fig. 8 (`load/store` checking, or
//!   `bndstr`/`bndclr` occupancy + store);
//! - the **bounds way buffer** ([`bwb`]) — a 64-entry LRU tag buffer
//!   remembering which HBT way held a pointer's bounds (§V-C);
//! - **bounds forwarding** from in-flight `bndstr` entries to younger
//!   checks (§V-F2);
//! - **store-load replay** to preserve ordering between bounds stores
//!   and younger checks with the same PAC (§V-E).
//!
//! These FSMs are the only implementation of `bndstr`, `bndclr` and
//! the bounds check: the table itself only stores records, routes
//! ways during a resize and migrates rows. The same FSM code serves
//! two drivers, and both drive it the same way: each cycle the ROB
//! retires through [`MemoryCheckUnit::commit_if_retirable`] and the
//! unit steps through [`MemoryCheckUnit::tick`]. The timing simulator
//! does so with a real cache model behind the [`BoundsMemory`] port;
//! the functional machine calls [`MemoryCheckUnit::run_sync`], which
//! runs one op that way with zero-latency memory until the queue is
//! empty. The one signal the unit sends back is a [`McuEvent`]: the
//! exception of a failed entry at the queue head (§IV-D), at most one
//! per tick.
//!
//! # Examples
//!
//! ```
//! use aos_hbt::{CompressedBounds, HashedBoundsTable, HbtConfig};
//! use aos_mcu::{McuConfig, McuOp, MemoryCheckUnit};
//! use aos_ptrauth::PointerLayout;
//!
//! let layout = PointerLayout::default();
//! let mut hbt = HashedBoundsTable::new(HbtConfig::default());
//! let mut mcu = MemoryCheckUnit::new(McuConfig::default(), layout);
//!
//! // Sign-free setup: store bounds for a chunk, then check an access.
//! let ptr = layout.compose(0x4000_0010, 0xBEEF, 1);
//! mcu.run_sync(McuOp::BndStr { pointer: ptr, size: 64 }, &mut hbt).unwrap();
//! mcu.run_sync(McuOp::Access { pointer: ptr + 8, is_store: false }, &mut hbt).unwrap();
//! // Out of bounds → exception.
//! assert!(mcu
//!     .run_sync(McuOp::Access { pointer: ptr + 64, is_store: true }, &mut hbt)
//!     .is_err());
//! ```

pub mod bwb;
pub mod mcq;
mod unit;

pub use bwb::{BoundsWayBuffer, BwbStats};
pub use mcq::{McqState, McuOp};
pub use unit::{
    AosException, BoundsMemory, McuConfig, McuEvent, McuStats, MemoryCheckUnit, ZeroLatencyMemory,
};
