//! `aos-suite`: the umbrella package of the AOS reproduction.
//!
//! This crate exists to host the runnable examples (`examples/`) and
//! the cross-crate integration tests (`tests/`); it re-exports
//! [`aos_core`] — the crate downstream users should depend on — plus
//! each substrate crate under its short name.
//!
//! See `README.md` for the project overview, `DESIGN.md` for the
//! system inventory and `EXPERIMENTS.md` for paper-versus-measured
//! results.
//!
//! # Examples
//!
//! ```
//! use aos_suite::core::AosProcess;
//! let mut p = AosProcess::new();
//! let ptr = p.malloc(32)?;
//! assert!(p.load(ptr).is_ok());
//! # Ok::<(), aos_suite::heap::HeapError>(())
//! ```

pub use aos_core as core;
pub use aos_fault as fault;
pub use aos_hbt as hbt;
pub use aos_heap as heap;
pub use aos_isa as isa;
pub use aos_lint as lint;
pub use aos_mcu as mcu;
pub use aos_ptrauth as ptrauth;
pub use aos_qarma as qarma;
pub use aos_sim as sim;
pub use aos_util as util;
pub use aos_workloads as workloads;
