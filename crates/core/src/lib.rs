//! AOS: hardware-based always-on heap memory safety (MICRO 2020) —
//! the top-level crate of the reproduction.
//!
//! This crate ties the substrates together and exposes the two ways to
//! use the system:
//!
//! - **Functional:** [`AosProcess`] is an always-on memory-safety
//!   machine. Allocate with [`AosProcess::malloc`], access memory with
//!   [`AosProcess::load`]/[`AosProcess::store`], release with
//!   [`AosProcess::free`] — every access by a signed pointer is bounds
//!   checked exactly as the hardware MCU would, and spatial violations,
//!   use-after-free, double free and invalid free all surface as
//!   [`MemorySafetyError`]s. The [`security`] module packages the
//!   paper's §VII attack scenarios against it.
//!
//! - **Timing:** [`experiment`] drives the Table IV machine
//!   ([`aos_sim`]) over calibrated workload models
//!   ([`aos_workloads`]) to regenerate every figure and table of the
//!   paper's evaluation; [`hwcost`] reproduces the Table I hardware
//!   overhead estimates.
//!
//! # Quickstart
//!
//! ```
//! use aos_core::{AosProcess, MemorySafetyError};
//!
//! let mut process = AosProcess::new();
//! let p = process.malloc(64).unwrap();
//!
//! // In-bounds accesses work like normal memory.
//! process.store(p + 8, 0xDEAD_BEEF).unwrap();
//! assert_eq!(process.load(p + 8).unwrap(), 0xDEAD_BEEF);
//!
//! // One byte past the allocation faults.
//! assert!(matches!(
//!     process.load(p + 64),
//!     Err(MemorySafetyError::OutOfBounds { .. })
//! ));
//!
//! // Use-after-free faults too: the pointer stays signed but its
//! // bounds are gone.
//! process.free(p).unwrap();
//! assert!(process.load(p).is_err());
//! ```

pub mod experiment;
pub mod hwcost;
mod memory;
mod process;
pub mod security;

pub use memory::SparseMemory;
pub use process::{AosProcess, MemorySafetyError, ProcessConfig};

// Re-export the substrate crates so downstream users need a single
// dependency.
pub use aos_hbt as hbt;
pub use aos_heap as heap;
pub use aos_isa as isa;
pub use aos_mcu as mcu;
pub use aos_ptrauth as ptrauth;
pub use aos_qarma as qarma;
pub use aos_sim as sim;
pub use aos_util as util;
pub use aos_workloads as workloads;
