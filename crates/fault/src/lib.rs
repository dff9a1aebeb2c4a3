//! Deterministic fault injection for the AOS reproduction.
//!
//! The paper's security claim (§VII) is binary: a heap overflow,
//! underflow, use-after-free or double free — and any attempt to
//! forge the pointer metadata that encodes them — raises an AOS
//! exception, while an unprotected machine executes the same access
//! stream silently. This crate turns that claim into a measurable,
//! regression-testable artifact:
//!
//! - [`inject::plan_fault`] scans a clean stream once in `O(window)`
//!   memory and plans one seeded fault (see [`FaultKind`]) as one
//!   [`Splice`](aos_isa::stream::Splice) edit;
//!   [`FaultPlan::apply`](inject::FaultPlan::apply) splices it into a
//!   fresh stream without materializing the trace;
//! - [`oracle`] is the only code that turns a workload and a plan
//!   into measurements: a [`Trial`] (profile, scale, edits) yields
//!   the AOS stream the planners read and runs one guarded campaign
//!   cell, and [`measure`] replays any stream on a set of
//!   [`Machine`](aos_sim::Machine)s and scans it under a set of
//!   static policies. The fault campaign, the fuzz harness
//!   (`aos-fuzz`) and `aos matrix` all measure through it;
//! - [`campaign`] fans a `kind × seed × system` grid through the
//!   hardened campaign runner and annotates the
//!   `aos-campaign-report/v8` document with detection rates.
//!
//! Every fault is a pure function of `(workload, kind, seed)` — two
//! runs of the same spec inject the identical op at the identical
//! trace position, so detection verdicts can be pinned in tests.

pub mod campaign;
pub mod inject;
pub mod oracle;

pub use campaign::{
    expected_policy_class, expected_policy_rules, run_fault_campaign, FaultCampaignConfig,
    FaultCampaignOutcome, LintClass, PolicyCrossCheck, PolicyKindCheck,
};
pub use inject::{plan_fault, FaultKind, FaultPlan, FaultSpec, UAF_DELAY_OPS};
pub use oracle::{fault_sweep, measure, Measurement, SystemTrial, Trial, TrialMatrix, Verdict};
