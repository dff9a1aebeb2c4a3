//! Workload models: calibrated stand-ins for the paper's benchmarks.
//!
//! The paper evaluates SPEC CPU 2006 (first 3 billion instructions,
//! reference inputs) plus six real-world programs. SPEC binaries and
//! inputs cannot be redistributed, so this crate provides *synthetic
//! workload models*, one per benchmark, that reproduce the properties
//! every experiment in the paper actually depends on:
//!
//! - the **allocation schedule** — total `malloc`/`free` counts and
//!   the peak live-chunk count (Tables II and III), replayed against
//!   the real allocator by [`schedule`];
//! - the **instruction mix** — memory intensity, the fraction of
//!   accesses that hit heap objects (= signed pointers under AOS,
//!   Fig. 16), branch/call/FP rates;
//! - the **locality structure** — hot-set sizes and reuse skew that
//!   determine cache behaviour, and with it the cache-pollution
//!   sensitivity that drives Figs. 14, 15 and 18;
//! - the **live-set trajectory** inside the simulated window, which
//!   determines PAC-collision row pressure and therefore HBT resizes
//!   (§IX-A1: one resize in sphinx3, two in omnetpp).
//!
//! [`generator::TraceGenerator`] turns a profile into a deterministic
//! micro-op stream for any [`aos_isa::SafetyConfig`]; the *program*
//! events (addresses, sizes, branch outcomes) are identical across
//! configurations, so normalized execution times compare like with
//! like. [`microbench`] reproduces the Fig. 11 QARMA PAC-distribution
//! study.
//!
//! # Examples
//!
//! ```
//! use aos_isa::stream::OpStream;
//! use aos_isa::SafetyConfig;
//! use aos_workloads::{generator::TraceGenerator, profile};
//!
//! let p = profile::by_name("mcf").unwrap();
//! // A generator is an op *stream*: drain it through a meter instead
//! // of collecting it, and the trace is never materialized.
//! let mut ops = TraceGenerator::new(p, SafetyConfig::Aos, 0.01).metered();
//! for _ in &mut ops {}
//! assert!(ops.ops() > 0);
//! ```

pub mod collisions;
pub mod generator;
pub mod microbench;
pub mod profile;
pub mod schedule;

pub use generator::TraceGenerator;
pub use profile::{WorkloadProfile, REAL_WORLD, SPEC2006};
