//! Deterministic fault injection for the AOS reproduction.
//!
//! The paper's security claim (§VII) is binary: a heap overflow,
//! underflow, use-after-free or double free — and any attempt to
//! forge the pointer metadata that encodes them — raises an AOS
//! exception, while an unprotected machine executes the same access
//! stream silently. This crate turns that claim into a measurable,
//! regression-testable artifact:
//!
//! - [`inject::plan_fault`] scans a
//!   [`TraceGenerator`](aos_workloads::TraceGenerator) stream once in
//!   `O(window)` memory and plans one seeded fault (see
//!   [`FaultKind`]); [`FaultPlan::apply`](inject::FaultPlan::apply)
//!   splices it into a fresh stream without materializing the trace;
//! - [`oracle`] replays clean and faulted streams through
//!   [`Machine`](aos_sim::Machine) configurations and classifies each
//!   trial as detected / missed / false positive;
//! - [`corrupt`] models physical bounds-record corruption (bit flips,
//!   lost ways) against the HBT's CRC-3 fail-closed design;
//! - [`corpus`] injects storage faults into persistent trace corpora
//!   (bit rot inside a stored op block, power-loss truncation
//!   mid-frame) and pins the quarantine-not-crash contract of
//!   [`aos_isa::corpus`];
//! - [`campaign`] fans a `kind × seed × system` grid through the
//!   hardened campaign runner and annotates the
//!   `aos-campaign-report/v7` document with detection rates.
//!
//! Every fault is a pure function of `(workload, kind, seed)` — two
//! runs of the same spec inject the identical op at the identical
//! trace position, so detection verdicts can be pinned in tests.

pub mod campaign;
pub mod corpus;
pub mod corrupt;
pub mod inject;
pub mod oracle;

pub use campaign::{
    expected_policy_class, expected_policy_rules, run_fault_campaign, FaultCampaignConfig,
    FaultCampaignOutcome, LintClass, PolicyCrossCheck, PolicyKindCheck,
};
pub use inject::{plan_fault, FaultKind, FaultPlan, FaultSpec, UAF_DELAY_OPS};
pub use oracle::{FaultTrial, TrialMatrix, Verdict};
