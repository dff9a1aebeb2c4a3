//! Seeded attack scenarios: compositions of base injector faults and
//! composite primitives, planned into concrete stream edits.
//!
//! A [`ScenarioSpec`] is pure data — `(seed, steps)` — and planning
//! one against a workload trace is a pure function: the same spec
//! against the same `(workload, scale)` yields bit-identical edits,
//! which is what lets finding corpora replay exactly and report
//! digests pin across runs.
//!
//! Planning walks the clean trace twice: once through
//! [`PreScan`] (length + signed-PAC census, shared by every
//! composite step), then once per base-injector step through
//! [`plan_fault`]'s own `O(window)` scan. Every step's edit is
//! expressed in *original* trace indices, so the whole chain applies
//! in one [`SpliceMany`] pass.

use aos_fault::campaign::expected_policy_rules;
use aos_fault::{plan_fault, FaultAction, FaultKind, FaultSpec};
use aos_lint::Policy;
use aos_isa::stream::{Splice, SpliceMany};
use aos_isa::Op;
use aos_ptrauth::PointerLayout;
use aos_util::rng::Xoshiro256StarStar;
use aos_util::AosError;

use crate::primitive::{plan_composite, CompositeKind, PreScan, REGION_STRIDE, SYNTHETIC_REGION};

/// One step of an attack chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// One of the six seeded base injectors.
    Base(FaultKind),
    /// One of the five composite primitives.
    Composite(CompositeKind),
}

impl StepKind {
    /// Every step kind the engine can draw, base kinds first.
    pub const COUNT: usize = FaultKind::ALL.len() + CompositeKind::ALL.len();

    /// All step kinds in wire order.
    pub fn all() -> impl Iterator<Item = StepKind> {
        FaultKind::ALL
            .into_iter()
            .map(StepKind::Base)
            .chain(CompositeKind::ALL.into_iter().map(StepKind::Composite))
    }

    /// Stable wire name (the base injectors' names are reused as-is).
    pub fn name(self) -> &'static str {
        match self {
            StepKind::Base(kind) => kind.name(),
            StepKind::Composite(kind) => kind.name(),
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<StepKind> {
        FaultKind::parse(name)
            .ok()
            .map(StepKind::Base)
            .or_else(|| CompositeKind::parse(name).map(StepKind::Composite))
    }

    /// The exact number of extra violations the step adds on an AOS
    /// machine. Base anchors live in the workload trace; their exact
    /// violation arithmetic is the trace's business, so chains
    /// containing them pin only `delta >= 1` (`None`).
    pub fn exact_delta(self) -> Option<u64> {
        match self {
            StepKind::Base(_) => None,
            StepKind::Composite(kind) => Some(kind.exact_delta()),
        }
    }

    /// The rules `policy` is pinned to fire on this step: the base
    /// injectors' cross-paper table lives in
    /// [`aos_fault::campaign::expected_policy_rules`], the composites'
    /// in [`CompositeKind::policy_rules`].
    pub fn policy_rules(self, policy: Policy) -> &'static [&'static str] {
        match self {
            StepKind::Base(kind) => expected_policy_rules(policy, kind),
            StepKind::Composite(kind) => kind.policy_rules(policy),
        }
    }
}

impl std::fmt::Display for StepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded attack chain, before planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Master seed; each step forks its own deterministic stream.
    pub seed: u64,
    /// The chain, in splice-priority order (on a site collision the
    /// earlier step wins and the later one is dropped).
    pub steps: Vec<StepKind>,
}

impl ScenarioSpec {
    /// A stable identifier: `s<seed>-<step>+<step>+...`.
    pub fn id(&self) -> String {
        let steps = self
            .steps
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join("+");
        format!("s{}-{steps}", self.seed)
    }
}

/// One planned step: what it spliced and what it is pinned to do.
#[derive(Debug, Clone)]
pub struct PlannedStep {
    /// The step kind.
    pub kind: StepKind,
    /// Where/what was planned, for reports.
    pub description: String,
    /// Whether the step's static verdicts are pinned for this
    /// instance: `false` when a randomly forged PAC collided with a
    /// key the clean trace signs — every policy's verdict is then
    /// legitimately input-dependent and the harness must not pin it.
    pub static_pinned: bool,
}

/// A fully planned scenario: the edits to splice and the per-step
/// book-keeping the differential harness compares against.
#[derive(Debug, Clone)]
pub struct ScenarioPlan {
    /// The spec this plan realizes.
    pub spec: ScenarioSpec,
    /// Stream edits in original-trace index space.
    pub edits: Vec<Splice>,
    /// The steps that made it into `edits`.
    pub steps: Vec<PlannedStep>,
    /// Steps dropped on a replace-site collision, with the reason.
    pub dropped: Vec<(StepKind, String)>,
}

impl ScenarioPlan {
    /// Applies the chain to a fresh clean stream.
    pub fn apply<I: Iterator<Item = Op>>(&self, stream: I) -> SpliceMany<I> {
        SpliceMany::new(stream, self.edits.clone())
    }

    /// The rule wire-names the chain's pinned steps oblige `policy`
    /// to fire. A step whose static side is unpinned (see
    /// [`PlannedStep::static_pinned`]) contributes nothing.
    pub fn expected_policy_rules(&self, policy: Policy) -> Vec<&'static str> {
        let mut rules: Vec<&'static str> = self
            .steps
            .iter()
            .filter(|s| s.static_pinned)
            .flat_map(|s| s.kind.policy_rules(policy).iter().copied())
            .collect();
        rules.sort_unstable();
        rules.dedup();
        rules
    }

    /// The exact extra-violation count the chain pins on an AOS
    /// machine, when every step pins one.
    pub fn expected_exact_delta(&self) -> Option<u64> {
        self.steps
            .iter()
            .map(|s| s.kind.exact_delta())
            .sum::<Option<u64>>()
    }
}

/// Golden-ratio step-seed derivation: spreads one master seed into
/// decorrelated per-step seeds without coupling step order to the
/// RNG draw sequence.
fn step_seed(master: u64, index: usize) -> u64 {
    master ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Plans `spec` against the clean trace produced by `trace` (a
/// factory so the planner can take the multiple passes it needs
/// without materializing anything).
///
/// # Errors
///
/// Fails when a base step cannot find an anchor in the trace (same
/// conditions as [`plan_fault`]); composite steps always plan.
pub fn plan_scenario<I, F>(
    spec: &ScenarioSpec,
    trace: F,
    layout: PointerLayout,
) -> Result<ScenarioPlan, AosError>
where
    I: Iterator<Item = Op>,
    F: Fn() -> I,
{
    let scan = PreScan::new(trace(), layout);
    let mut master = Xoshiro256StarStar::seed_from_u64(spec.seed);
    let mut pacs = scan.pac_allocator(&mut master);
    let mut edits: Vec<Splice> = Vec::with_capacity(spec.steps.len());
    let mut steps = Vec::with_capacity(spec.steps.len());
    let mut dropped = Vec::new();
    let mut replaced_sites: Vec<usize> = Vec::new();
    let mut composites = 0u64;
    for (index, &kind) in spec.steps.iter().enumerate() {
        let mut static_pinned = true;
        match kind {
            StepKind::Base(fault) => {
                let plan = plan_fault(
                    trace(),
                    layout,
                    FaultSpec {
                        kind: fault,
                        seed: step_seed(spec.seed, index),
                    },
                )?;
                let (site, splice) = match plan.action {
                    FaultAction::Insert(op) => (plan.site, Splice::insert(plan.site, vec![op])),
                    FaultAction::Replace(op) => {
                        if replaced_sites.contains(&plan.site) {
                            dropped.push((
                                kind,
                                format!(
                                    "replace site {} already claimed by an earlier step",
                                    plan.site
                                ),
                            ));
                            continue;
                        }
                        replaced_sites.push(plan.site);
                        // A tamper/forge that lands on a PAC the clean
                        // trace signs is legitimately ambiguous to every
                        // static policy: unpin the static side.
                        if let Some(pointer) = op_pointer(&op) {
                            if scan.is_signed(layout.pac(pointer)) {
                                static_pinned = false;
                            }
                        }
                        (plan.site, Splice::replace(plan.site, vec![op]))
                    }
                };
                edits.push(splice);
                steps.push(PlannedStep {
                    kind,
                    description: format!("[op {site}] {}", plan.description),
                    static_pinned,
                });
            }
            StepKind::Composite(composite) => {
                let mut rng = Xoshiro256StarStar::seed_from_u64(
                    step_seed(spec.seed, index) ^ composite.salt(),
                );
                let region = SYNTHETIC_REGION + composites * REGION_STRIDE;
                composites += 1;
                let plan = plan_composite(composite, region, &mut pacs, &mut rng, layout);
                // Land the block somewhere in the middle half of the
                // trace: far enough in that the machine is warm, far
                // enough from the end that a following step's insert
                // cannot starve it.
                let span = (scan.len / 2).max(1);
                let site = scan.len / 4 + (rng.next_range(span as u64) as usize);
                edits.push(Splice::insert(site, plan.ops));
                steps.push(PlannedStep {
                    kind,
                    description: format!("[op {site}] {}", plan.description),
                    static_pinned,
                });
            }
        }
    }
    Ok(ScenarioPlan {
        spec: spec.clone(),
        edits,
        steps,
        dropped,
    })
}

/// The pointer operand of an access op, if any.
fn op_pointer(op: &Op) -> Option<u64> {
    match *op {
        Op::Load { pointer, .. }
        | Op::Store { pointer, .. }
        | Op::Autm { pointer }
        | Op::Pacma { pointer, .. }
        | Op::BndStr { pointer, .. }
        | Op::BndClr { pointer } => Some(pointer),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_isa::SafetyConfig;
    use aos_workloads::{profile::by_name, TraceGenerator};

    const SCALE: f64 = 0.004;

    fn mcf_stream() -> impl Fn() -> TraceGenerator {
        let profile = by_name("mcf").expect("mcf profile exists");
        move || TraceGenerator::new(profile, SafetyConfig::Aos, SCALE)
    }

    #[test]
    fn step_names_roundtrip_and_are_distinct() {
        let names: Vec<&str> = StepKind::all().map(|s| s.name()).collect();
        assert_eq!(names.len(), StepKind::COUNT);
        for (i, name) in names.iter().enumerate() {
            assert_eq!(
                names.iter().position(|n| n == name),
                Some(i),
                "duplicate step name {name}"
            );
            assert_eq!(StepKind::parse(name).map(|s| s.name()), Some(*name));
        }
    }

    #[test]
    fn planning_is_deterministic() {
        let spec = ScenarioSpec {
            seed: 42,
            steps: vec![
                StepKind::Base(FaultKind::OverflowWrite),
                StepKind::Composite(CompositeKind::HeapSpray),
            ],
        };
        let trace = mcf_stream();
        let a = plan_scenario(&spec, &trace, PointerLayout::default()).expect("plan");
        let b = plan_scenario(&spec, &trace, PointerLayout::default()).expect("plan");
        assert_eq!(a.edits, b.edits);
        let ops_a: Vec<Op> = a.apply(trace()).collect();
        let ops_b: Vec<Op> = b.apply(trace()).collect();
        assert_eq!(ops_a, ops_b);
        assert_eq!(spec.id(), "s42-overflow+heap-spray");
    }

    #[test]
    fn chain_expectations_compose() {
        let spec = ScenarioSpec {
            seed: 3,
            steps: vec![
                StepKind::Composite(CompositeKind::HeapSpray),
                StepKind::Composite(CompositeKind::DanglingResign),
            ],
        };
        let trace = mcf_stream();
        let plan = plan_scenario(&spec, &trace, PointerLayout::default()).expect("plan");
        assert_eq!(
            plan.expected_policy_rules(Policy::Aos),
            vec!["access-after-clear"]
        );
        assert_eq!(plan.expected_exact_delta(), Some(2), "one probe per primitive");
        assert!(plan.dropped.is_empty());
        // Cross-policy split: only CryptSan shares AOS's view of the
        // dangling re-sign; the spray is invisible to every policy.
        assert_eq!(plan.expected_policy_rules(Policy::CryptSan), vec!["revoked-key"]);
        assert!(plan.expected_policy_rules(Policy::PacSan).is_empty());
        assert!(plan.expected_policy_rules(Policy::PacTight).is_empty());
    }

    #[test]
    fn composite_sites_and_regions_do_not_collide() {
        let spec = ScenarioSpec {
            seed: 9,
            steps: CompositeKind::ALL
                .into_iter()
                .map(StepKind::Composite)
                .collect(),
        };
        let trace = mcf_stream();
        let plan = plan_scenario(&spec, &trace, PointerLayout::default()).expect("plan");
        assert_eq!(plan.steps.len(), 5);
        // Every composite is an insert; inserts never collide.
        assert!(plan.edits.iter().all(|e| !e.replace));
        assert!(plan.dropped.is_empty());
    }
}
