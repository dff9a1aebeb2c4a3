//! The stage-structured out-of-order core behind
//! [`Machine::run`](crate::Machine::run): the pipeline decomposed into
//! first-class components.
//!
//! - [`fetch::FetchUnit`] — the trace tap, structural-hazard parking
//!   slot, post-flush refetch buffer, and redirect timer.
//! - [`lsq::LoadStoreQueue`] — split load/store queues with a
//!   store→load forwarding and store-load replay path.
//! - [`rob::ReorderBuffer`] — circular ROB; an entry is complete once
//!   the clock reaches the `complete_at` cycle fixed at dispatch.
//!   Precise AOS exceptions are
//!   latched on the faulting entry and raised when it reaches the
//!   commit point (delayed retirement, paper §V-B), squashing younger
//!   ops and refetching them.
//! - [`core::StageCore`] — the assembled core plus the cycle loop
//!   (`Machine::run_stage`) wiring the stages to the MCU/BWB and the
//!   memory hierarchy. It holds the one chain register that threads
//!   the pointer-chase dependence, which a flush restores. The MCU's
//!   check queue is a structural unit of this pipeline: a full MCQ
//!   back-pressures dispatch exactly like a full ROB or LSQ.

pub mod core;
pub mod fetch;
pub mod lsq;
pub mod rob;

pub use self::core::StageCore;
