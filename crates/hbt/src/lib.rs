//! The hashed bounds table (HBT): AOS's metadata store.
//!
//! AOS keeps one bounds record per live heap chunk in a per-process
//! table indexed *directly by PAC* (paper §V-B) — the embedded PAC is
//! the hash, so the metadata address is just
//! `BND_BASE + (PAC << (log2(assoc) + 6)) + (way << 6)` (Eqs. 1–2),
//! replacing Intel MPX's multi-level walks with one add.
//!
//! This crate holds the table's storage, addressing and growth:
//!
//! - [`CompressedBounds`] — the 8-byte bounds encoding of Fig. 9
//!   (29-bit partial lower bound + 32-bit size), which packs eight
//!   bounds into each 64-byte table way;
//! - [`HashedBoundsTable`] — the multi-way table: raw way reads
//!   ([`peek_way`](HashedBoundsTable::peek_way)), slot writes
//!   ([`poke_slot`](HashedBoundsTable::poke_slot)) and the line
//!   address of each way, routed between the old and new tables by
//!   the Fig. 10 quadrants while a resize migrates;
//! - **gradual resizing** (§V-B, §V-F3): on row overflow the table
//!   doubles its associativity, and a row-by-row migration manager
//!   keeps both tables live so accesses are never blocked (Fig. 10).
//!
//! The three operations on the table — `bndstr`, `bndclr` and the
//! bounds check — are the memory check unit's Fig. 8 FSMs
//! (`aos_mcu::MemoryCheckUnit`), which step through a row way by way
//! over `peek_way` and write through `poke_slot`.
//!
//! # Examples
//!
//! ```
//! use aos_hbt::{CompressedBounds, HashedBoundsTable, HbtConfig};
//!
//! let mut hbt = HashedBoundsTable::new(HbtConfig::default());
//! let bounds = CompressedBounds::encode(0x4000_0010, 64);
//! hbt.poke_slot(0xBEEF, 0, 0, bounds);
//! // A resize doubles the ways; until row 0xBEEF migrates, way 0
//! // still reads from the old table.
//! hbt.begin_resize();
//! assert_eq!(hbt.ways(), 2);
//! assert_eq!(hbt.peek_way(0xBEEF, 0)[0], bounds);
//! hbt.finish_migration();
//! assert_eq!(hbt.peek_way(0xBEEF, 0)[0], bounds);
//! assert!(hbt.peek_way(0xBEEF, 0)[0].check(0x4000_0030));
//! ```

mod compress;
mod table;

pub use compress::{CompressedBounds, MalformedBounds};
pub use table::{HashedBoundsTable, HbtConfig, HbtStats, BOUNDS_PER_WAY};
