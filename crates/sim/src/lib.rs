//! The evaluation machine: a stage-structured out-of-order model of
//! the Table IV core with its cache hierarchy, DRAM, and the AOS
//! hardware attached.
//!
//! The paper evaluates AOS in gem5 on an 8-wide out-of-order AArch64
//! core (2 GHz, 192-entry ROB, 32-entry load and store queues, 48-entry
//! MCQ, 64 KiB L1-D, optional 32 KiB L1-B, 8 MiB L2, 50 ns DRAM). This
//! crate rebuilds that substrate from scratch at the level of detail
//! the paper's *relative* results depend on:
//!
//! - [`cache`] — set-associative, write-back, write-allocate caches
//!   with LRU replacement and per-level byte-traffic counters;
//! - [`hierarchy`] — L1-D (+ optional L1-B for bounds), shared L2,
//!   fixed-latency DRAM; bounds traffic routes through the L1-B when
//!   present, otherwise it contends with data in the L1-D — the
//!   mechanism behind the Fig. 15 ablation;
//! - [`pipeline`] — the out-of-order core: fetch, dispatch with a
//!   pointer-chase chain register, execute, a
//!   load/store queue with store→load forwarding and store-load
//!   replay, a circular reorder buffer with delayed retirement for
//!   precise AOS exceptions (fault latched in the ROB, raised at
//!   commit, everything younger squashed and refetched), and in-order
//!   commit — with the MCU/MCQ and BWB attached as structural units
//!   (MCQ full ⇒ dispatch stall);
//! - [`machine`] — configuration, statistics, and [`Machine::run`].
//!
//! The model is not RTL: it reproduces the throughput effects (extra
//! µops, metadata cache pressure, delayed retirement, crypto latency)
//! that produce the paper's normalized results, as documented in
//! `DESIGN.md`.
//!
//! # Examples
//!
//! ```
//! use aos_isa::{Op, SafetyConfig};
//! use aos_sim::{Machine, MachineConfig};
//!
//! let mut machine = Machine::new(MachineConfig::table_iv(SafetyConfig::Baseline));
//! let trace = (0..1000).map(|i| {
//!     if i % 4 == 0 {
//!         Op::Load { pointer: 0x4000 + (i % 64) * 8, bytes: 8, chained: false }
//!     } else {
//!         Op::IntAlu
//!     }
//! });
//! let stats = machine.run(trace);
//! assert!(stats.cycles > 0);
//! assert_eq!(stats.retired_ops, 1000);
//! ```

pub mod cache;
pub mod hierarchy;
pub mod machine;
pub mod pipeline;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::{MemoryHierarchy, TrafficStats};
pub use machine::{Machine, MachineConfig, RunStats, SimConfig};
