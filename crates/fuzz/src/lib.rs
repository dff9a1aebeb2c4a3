//! Adversarial scenario engine + differential fuzzing of the static
//! (`aos-lint`) and dynamic (fault oracle) verdicts.
//!
//! The paper's §VII evaluation probes AOS with *single-step* attacks;
//! real heap exploitation composes primitives. This crate generates
//! seeded multi-step attack scenarios — chains of the six base fault
//! injectors plus five composite primitives (heap spray, PAC
//! brute-force over the 2^16 key space, AHC size-class confusion,
//! dangling re-sign abuse, and a TOCTOU race timed against the
//! in-flight Fig. 10 gradual HBT resize migration) — splices them
//! into a clean generated trace as a streaming
//! [`aos_isa::stream::SpliceMany`] transform, and then *differentially
//! replays* every scenario through both oracles on all five systems.
//!
//! Any verdict that falls outside the pinned static/dynamic
//! expectation split is a **finding**: a bug in the linter, the
//! machine model, or the scenario itself. Finding-triggering streams
//! are banked into CRC-checked [`aos_isa::corpus`] files as permanent
//! regression inputs.
//!
//! The layering mirrors `aos-fault`:
//!
//! - [`primitive`] — the composite attack primitives and their
//!   pinned static/dynamic expectations, including the per-policy
//!   rule splits of the cross-paper detection matrix;
//! - [`scenario`] — seeded scenario specs and the planner that turns
//!   one into concrete [`Splice`](aos_isa::stream::Splice) edits
//!   against a trace;
//! - [`differential`] — the five-system replay against *all four*
//!   static policies (one [`aos_lint::MatrixScan`] pass) and the
//!   finding classification;
//! - [`coverage`] — the campaign coverage map (step kinds × policy
//!   rules × dynamic verdicts) that feeds the engine's
//!   coverage-guided scheduler;
//! - [`engine`] — the budgeted campaign driver, corpus banking, and
//!   the `aos-fuzz-report/v1` JSON emitter.

pub mod coverage;
pub mod differential;
pub mod engine;
pub mod primitive;
pub mod scenario;

pub use coverage::CoverageMap;
pub use differential::{DifferentialOutcome, Finding, FindingKind, PolicyVerdict};
pub use engine::{bank_scenarios, replay_corpus, run_fuzz, FuzzConfig, FuzzReport, ReplayReport};
pub use primitive::CompositeKind;
pub use scenario::{ScenarioPlan, ScenarioSpec, StepKind};
