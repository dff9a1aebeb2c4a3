//! The budgeted fuzzing campaign driver: seeded scenario generation,
//! differential replay, finding-corpus banking, and the
//! `aos-fuzz-report/v1` JSON emitter.
//!
//! Everything here is a pure function of [`FuzzConfig`]: the same
//! `(workload, scale, seed, budget)` draws the same chains, plans the
//! same edits, and produces a bit-identical [`FuzzReport::digest`] —
//! the property `aos fuzz`'s determinism contract (and the golden
//! replay tests) pin.

use std::collections::HashSet;
use std::path::PathBuf;

use aos_core::experiment::SystemUnderTest;
use aos_fault::oracle::{measure, Trial};
use aos_isa::corpus::{CorpusReader, CorpusWriter};
use aos_isa::{Op, SafetyConfig};
use aos_lint::Policy;
use aos_ptrauth::PointerLayout;
use aos_util::hash::{fnv1a64, FNV1A64_OFFSET};
use aos_util::json::{Json, Layout};
use aos_util::{AosError, Counter, Telemetry, Xoshiro256StarStar};
use aos_workloads::{profile::by_name, WorkloadProfile};

use crate::coverage::CoverageMap;
use crate::differential::{measure_everywhere, run_scenario, DifferentialOutcome};
use crate::scenario::{plan_scenario, ScenarioPlan, ScenarioSpec, StepKind};

/// One fuzzing campaign's shape.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Workload profile name (any SPEC 2006 / real-world profile).
    pub workload: String,
    /// Trace scale in `(0, 1]`.
    pub scale: f64,
    /// Master seed: drives chain drawing and every per-step stream.
    pub seed: u64,
    /// Scenarios to generate and replay.
    pub budget: usize,
    /// Longest chain the generator draws (steps per scenario).
    pub max_chain: usize,
    /// When set, the scheduler steers chain generation by coverage:
    /// uncovered step kinds are seeded first, and chains that lit new
    /// coverage points get mutated in preference to fresh uniform
    /// draws. When unset the engine draws uniformly — byte-identical
    /// RNG consumption to the pre-coverage engine, so existing seeds
    /// reproduce their historical campaigns.
    pub coverage_guided: bool,
    /// When set, finding-triggering faulted streams are banked here
    /// as a CRC-checked [`aos_isa::corpus`] file.
    pub corpus_out: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            workload: "hmmer".to_string(),
            scale: 0.004,
            seed: 1,
            budget: 8,
            max_chain: 3,
            coverage_guided: false,
            corpus_out: None,
        }
    }
}

/// The campaign's full result.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Workload fuzzed.
    pub workload: String,
    /// Trace scale used.
    pub scale: f64,
    /// Master seed used.
    pub seed: u64,
    /// Scenarios requested.
    pub budget: usize,
    /// Per-scenario differential outcomes, in generation order.
    pub outcomes: Vec<DifferentialOutcome>,
    /// Chains the planner could not realize (scenario id, error).
    pub planning_failures: Vec<(String, String)>,
    /// Finding streams banked to `corpus`.
    pub banked: u64,
    /// Path of the banked corpus, when one was written.
    pub corpus: Option<String>,
    /// Whether the coverage-guided scheduler drove chain generation.
    pub coverage_guided: bool,
    /// The coverage the campaign reached (tracked in both modes; only
    /// *steering* is gated by `coverage_guided`).
    pub coverage: CoverageMap,
}

impl FuzzReport {
    /// Total findings across all scenarios.
    pub fn findings(&self) -> u64 {
        self.outcomes.iter().map(|o| o.findings.len() as u64).sum()
    }

    /// FNV-1a 64 digest over the canonical verdict lines — identical
    /// across two runs of the same config iff every scenario produced
    /// the identical static and dynamic verdicts.
    pub fn digest(&self) -> u64 {
        let mut hash = FNV1A64_OFFSET;
        for outcome in &self.outcomes {
            hash = fnv1a64(hash, canonical_line(outcome).as_bytes());
            hash = fnv1a64(hash, b"\n");
        }
        for (id, error) in &self.planning_failures {
            hash = fnv1a64(hash, format!("skip {id}: {error}\n").as_bytes());
        }
        hash
    }

    /// The `aos-fuzz-report/v1` JSON document.
    pub fn to_json(&self) -> String {
        let strings = |items: &[&str]| Layout::Inline.array(items.iter().map(|s| Json::str(*s)));
        let scenarios = self.outcomes.iter().map(|o| {
            let policies = o.policies.iter().map(|v| {
                Layout::Inline.object([
                    ("policy", Json::str(v.policy.name())),
                    ("diagnostics", Json::num(v.diagnostics)),
                    ("rules", strings(&v.rules)),
                ])
            });
            let systems = o.systems.iter().map(|v| {
                Layout::Inline.object([
                    ("system", Json::str(v.system.to_string())),
                    ("clean", Json::num(v.clean_violations)),
                    ("faulty", Json::num(v.faulty_violations)),
                ])
            });
            let findings = o.findings.iter().map(|f| {
                Layout::Inline.object([
                    ("kind", Json::str(f.kind.to_string())),
                    (
                        "system",
                        f.system.map_or(Json::Null, |s| Json::str(s.to_string())),
                    ),
                    ("detail", Json::str(f.detail.as_str())),
                ])
            });
            let lint = Layout::Inline.object([
                ("diagnostics", Json::num(o.aos().diagnostics)),
                ("rules", strings(&o.aos().rules)),
            ]);
            Layout::Inline.object([
                ("id", Json::str(o.scenario.as_str())),
                ("steps", strings(&o.steps)),
                ("lint", lint),
                ("policies", Layout::Inline.array(policies)),
                ("systems", Layout::Inline.array(systems)),
                ("findings", Layout::Inline.array(findings)),
            ])
        });
        let planning_failures = self.planning_failures.iter().map(|(id, error)| {
            Layout::Inline.object([("id", Json::str(id.as_str())), ("error", Json::str(error))])
        });
        let coverage = Layout::Inline.object([
            ("guided", Json::Bool(self.coverage_guided)),
            ("points", Json::num(self.coverage.len())),
            (
                "fingerprint",
                Json::str(format!("{:016x}", self.coverage.fingerprint())),
            ),
        ]);
        let doc = Layout::Pretty.object([
            ("schema", Json::str("aos-fuzz-report/v1")),
            ("workload", Json::str(self.workload.as_str())),
            ("scale", Json::num(self.scale)),
            ("seed", Json::num(self.seed)),
            ("budget", Json::num(self.budget)),
            ("digest", Json::str(format!("{:016x}", self.digest()))),
            ("coverage", coverage),
            ("scenarios", Layout::Pretty.array(scenarios)),
            ("planning_failures", Layout::Inline.array(planning_failures)),
            ("findings", Json::num(self.findings())),
            ("banked", Json::num(self.banked)),
            (
                "corpus",
                self.corpus.as_deref().map_or(Json::Null, Json::str),
            ),
        ]);
        format!("{doc}\n")
    }
}

/// Runs one budgeted campaign: draws `budget` seeded chains, plans
/// and differentially replays each, and banks every
/// finding-triggering faulted stream when a corpus path is set.
///
/// # Errors
///
/// Fails on an unknown workload name or a corpus I/O error.
/// Individual chains the planner cannot realize are recorded in
/// [`FuzzReport::planning_failures`], not errors.
pub fn run_fuzz(config: &FuzzConfig, telemetry: &Telemetry) -> Result<FuzzReport, AosError> {
    let clean = Trial::clean(*resolve_workload(&config.workload)?, config.scale);
    let baseline = measure_everywhere(&clean, telemetry);
    let kinds: Vec<StepKind> = StepKind::all().collect();
    let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed);
    let mut plans: Vec<ScenarioPlan> = Vec::with_capacity(config.budget);
    let mut outcomes: Vec<DifferentialOutcome> = Vec::with_capacity(config.budget);
    let mut planning_failures = Vec::new();
    let mut coverage = CoverageMap::new();
    // Chains that lit at least one new coverage point, queued for
    // mutation (coverage-guided mode only).
    let mut interesting: Vec<Vec<StepKind>> = Vec::new();
    for _ in 0..config.budget {
        let steps: Vec<StepKind> = if config.coverage_guided {
            if let Some(frontier) = kinds
                .iter()
                .find(|k| !coverage.covers(&format!("step:{}", k.name())))
            {
                // Frontier first: every step kind gets exercised
                // before any mutation or uniform draw happens.
                let tail = rng.next_index(config.max_chain.max(1));
                std::iter::once(*frontier)
                    .chain((0..tail).map(|_| kinds[rng.next_index(kinds.len())]))
                    .collect()
            } else if let Some(parent) = interesting.pop() {
                // Mutate an interesting chain: replace one step, or
                // append one when the chain has room.
                let mut child = parent;
                let step = kinds[rng.next_index(kinds.len())];
                if child.len() < config.max_chain.max(1) && rng.next_index(2) == 0 {
                    child.push(step);
                } else {
                    let slot = rng.next_index(child.len());
                    child[slot] = step;
                }
                child
            } else {
                uniform_chain(&mut rng, &kinds, config.max_chain)
            }
        } else {
            // Uniform mode draws exactly as the pre-coverage engine
            // did — byte-identical RNG consumption, so historical
            // seeds reproduce their campaigns.
            uniform_chain(&mut rng, &kinds, config.max_chain)
        };
        let spec = ScenarioSpec {
            seed: rng.next_u64(),
            steps,
        };
        telemetry.count(Counter::FuzzScenarios);
        match plan_scenario(&spec, || clean.stream(), PointerLayout::default()) {
            Ok(plan) => {
                telemetry.add(Counter::FuzzSteps, plan.steps.len() as u64);
                let outcome = run_scenario(&clean, &baseline, &plan, telemetry);
                telemetry.add(Counter::FuzzFindings, outcome.findings.len() as u64);
                let fresh = coverage.observe(&outcome);
                telemetry.add(Counter::FuzzCoveragePoints, fresh as u64);
                if config.coverage_guided && fresh > 0 {
                    interesting.push(plan.spec.steps.clone());
                }
                plans.push(plan);
                outcomes.push(outcome);
            }
            Err(e) => planning_failures.push((spec.id(), e.to_string())),
        }
    }

    let mut banked = 0u64;
    if let Some(path) = &config.corpus_out {
        let mut writer = CorpusWriter::create(path, telemetry.clone())?;
        let mut names = HashSet::new();
        for (plan, outcome) in plans.iter().zip(&outcomes) {
            if !outcome.is_finding() || !names.insert(outcome.scenario.clone()) {
                continue;
            }
            writer.record(
                &outcome.scenario,
                &metadata_line(&config.workload, config.scale, plan, outcome),
                clean.with_edits(plan.edits.clone()).stream(),
            )?;
            banked += 1;
        }
        writer.finish()?;
        telemetry.add(Counter::FuzzCorpusBanked, banked);
    }

    Ok(FuzzReport {
        workload: config.workload.clone(),
        scale: config.scale,
        seed: config.seed,
        budget: config.budget,
        outcomes,
        planning_failures,
        banked,
        corpus: config.corpus_out.as_ref().map(|p| p.display().to_string()),
        coverage_guided: config.coverage_guided,
        coverage,
    })
}

/// The pre-coverage chain draw: uniform over kinds, length in
/// `1..=max_chain`.
fn uniform_chain(
    rng: &mut Xoshiro256StarStar,
    kinds: &[StepKind],
    max_chain: usize,
) -> Vec<StepKind> {
    let len = 1 + rng.next_index(max_chain.max(1));
    (0..len)
        .map(|_| kinds[rng.next_index(kinds.len())])
        .collect()
}

/// Plans and differentially replays `specs`, banking every faulted
/// stream (finding or not) into a corpus at `path` with replayable
/// expected-verdict metadata. This is how the golden regression
/// corpus under `tests/golden/fuzz/` is generated.
///
/// # Errors
///
/// Fails on an unknown workload, an unplannable chain (golden specs
/// must always plan), or a corpus I/O error.
pub fn bank_scenarios(
    workload: &str,
    scale: f64,
    specs: &[ScenarioSpec],
    path: impl Into<PathBuf>,
    telemetry: &Telemetry,
) -> Result<Vec<DifferentialOutcome>, AosError> {
    let clean = Trial::clean(*resolve_workload(workload)?, scale);
    let baseline = measure_everywhere(&clean, telemetry);
    let mut writer = CorpusWriter::create(path.into(), telemetry.clone())?;
    let mut outcomes = Vec::with_capacity(specs.len());
    for spec in specs {
        let plan = plan_scenario(spec, || clean.stream(), PointerLayout::default())?;
        let outcome = run_scenario(&clean, &baseline, &plan, telemetry);
        writer.record(
            &outcome.scenario,
            &metadata_line(workload, scale, &plan, &outcome),
            clean.with_edits(plan.edits.clone()).stream(),
        )?;
        telemetry.count(Counter::FuzzCorpusBanked);
        outcomes.push(outcome);
    }
    writer.finish()?;
    Ok(outcomes)
}

/// One banked entry's replay verdict.
#[derive(Debug, Clone)]
pub struct ReplayCheck {
    /// Entry name (the scenario id).
    pub name: String,
    /// Ops the entry holds.
    pub ops: u64,
    /// Every verdict that diverged from the banked expectation
    /// (empty = stable).
    pub mismatches: Vec<String>,
}

/// The result of replaying a banked corpus.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Corpus path.
    pub path: String,
    /// Per-entry checks, in corpus order.
    pub checks: Vec<ReplayCheck>,
}

impl ReplayReport {
    /// True when every banked entry reproduced its recorded verdicts
    /// exactly.
    pub fn is_stable(&self) -> bool {
        self.checks.iter().all(|c| c.mismatches.is_empty())
    }

    /// Total mismatched verdicts.
    pub fn mismatches(&self) -> usize {
        self.checks.iter().map(|c| c.mismatches.len()).sum()
    }
}

/// Replays every entry of a banked corpus through both oracles and
/// compares the verdicts against the counts recorded at banking time
/// — from the banked ops alone, with no workload regeneration.
///
/// # Errors
///
/// Fails on corpus I/O or CRC corruption, or on metadata that does
/// not parse as `metadata_line` output.
pub fn replay_corpus(
    path: impl Into<PathBuf>,
    telemetry: &Telemetry,
) -> Result<ReplayReport, AosError> {
    let path = path.into();
    let reader = CorpusReader::open(&path, telemetry.clone())?;
    let entries = reader.entries().to_vec();
    let mut checks = Vec::with_capacity(entries.len());
    for entry in entries {
        let expected = parse_metadata(&entry.metadata)?;
        let ops: Vec<Op> = reader.replay(&entry)?.collect::<Result<_, _>>()?;
        let mut mismatches = Vec::new();
        // The banked ops are the stream: one matrix pass re-derives
        // every static verdict (the AOS column is the banked `lint=`
        // count) and each banked system replays them.
        let systems: Vec<SystemUnderTest> = expected
            .faulty_violations
            .iter()
            .map(|&(system, _)| {
                SystemUnderTest::scaled(system, expected.scale)
                    .with_telemetry(telemetry.is_enabled())
            })
            .collect();
        let measured = measure(|| ops.iter().copied(), &systems, &Policy::ALL, telemetry);
        let diagnostics = |policy: Policy| {
            let report = measured.reports.iter().find(|r| r.policy == policy);
            report.map_or(0, |r| r.total_diagnostics())
        };
        let (got, banked) = (diagnostics(Policy::Aos), expected.lint_diagnostics);
        if got != banked {
            mismatches.push(format!("lint raised {got} diagnostics, banked {banked}"));
        }
        for &(policy, banked) in &expected.policy_diagnostics {
            let got = diagnostics(policy);
            if got != banked {
                mismatches.push(format!(
                    "{policy} raised {got} diagnostics, banked {banked}"
                ));
            }
        }
        let replayed = expected.faulty_violations.iter().zip(&measured.violations);
        for ((system, banked), (_, got)) in replayed {
            if got != banked {
                mismatches.push(format!("{system} raised {got} violations, banked {banked}"));
            }
        }
        checks.push(ReplayCheck {
            name: entry.name.clone(),
            ops: entry.op_count,
            mismatches,
        });
    }
    Ok(ReplayReport {
        path: path.display().to_string(),
        checks,
    })
}

fn resolve_workload(name: &str) -> Result<&'static WorkloadProfile, AosError> {
    by_name(name).ok_or_else(|| {
        AosError::invalid_input("workload", format!("unknown workload profile '{name}'"))
    })
}

/// The banked-entry metadata line: `key=value` pairs joined by `;`.
/// Records everything replay needs — the scale (for machine
/// configuration) plus the expected lint total and per-system faulty
/// violation counts. Rust's shortest-roundtrip float formatting makes
/// `scale` parse back bit-exact.
fn metadata_line(
    workload: &str,
    scale: f64,
    plan: &ScenarioPlan,
    outcome: &DifferentialOutcome,
) -> String {
    let mut parts = vec![
        format!("workload={workload}"),
        format!("scale={scale}"),
        format!("seed={}", plan.spec.seed),
        format!("steps={}", outcome.steps.join("+")),
        format!("lint={}", outcome.aos().diagnostics),
    ];
    for v in &outcome.systems {
        parts.push(format!("{}={}", v.system, v.faulty_violations));
    }
    // Cross-paper policy totals (the AOS column is `lint=` above).
    // Policy names are lowercase and system names are not, so the
    // keys cannot collide.
    for v in &outcome.policies {
        if v.policy != Policy::Aos {
            parts.push(format!("{}={}", v.policy.name(), v.diagnostics));
        }
    }
    parts.join(";")
}

struct BankedExpectation {
    scale: f64,
    lint_diagnostics: u64,
    faulty_violations: Vec<(SafetyConfig, u64)>,
    /// Non-AOS policy totals; empty when replaying a corpus banked
    /// before the cross-policy keys existed (those replay on the
    /// dynamic + AOS checks alone).
    policy_diagnostics: Vec<(Policy, u64)>,
}

fn parse_metadata(metadata: &str) -> Result<BankedExpectation, AosError> {
    let bad = |what: &str| {
        AosError::invalid_input(
            "fuzz corpus metadata",
            format!("{what} in banked metadata '{metadata}'"),
        )
    };
    let mut scale = None;
    let mut lint = None;
    let mut faulty = Vec::new();
    let mut policies = Vec::new();
    for part in metadata.split(';') {
        let (key, value) = part.split_once('=').ok_or_else(|| bad("missing '='"))?;
        match key {
            "scale" => scale = Some(value.parse::<f64>().map_err(|_| bad("bad scale"))?),
            "lint" => lint = Some(value.parse::<u64>().map_err(|_| bad("bad lint count"))?),
            "workload" | "seed" | "steps" => {}
            other => {
                if let Some(config) = SafetyConfig::ALL
                    .into_iter()
                    .find(|c| c.to_string() == other)
                {
                    faulty.push((
                        config,
                        value
                            .parse::<u64>()
                            .map_err(|_| bad("bad violation count"))?,
                    ));
                } else if let Some(policy) = Policy::parse(other).filter(|p| *p != Policy::Aos) {
                    policies.push((
                        policy,
                        value
                            .parse::<u64>()
                            .map_err(|_| bad("bad policy diagnostic count"))?,
                    ));
                }
            }
        }
    }
    if faulty.len() != SafetyConfig::ALL.len() {
        return Err(bad("missing per-system violation counts"));
    }
    Ok(BankedExpectation {
        scale: scale.ok_or_else(|| bad("missing scale"))?,
        lint_diagnostics: lint.ok_or_else(|| bad("missing lint count"))?,
        faulty_violations: faulty,
        policy_diagnostics: policies,
    })
}

/// The canonical one-line verdict summary the report digest hashes.
fn canonical_line(o: &DifferentialOutcome) -> String {
    let systems: Vec<String> = o
        .systems
        .iter()
        .map(|v| {
            format!(
                "{}={}/{}",
                v.system, v.clean_violations, v.faulty_violations
            )
        })
        .collect();
    let findings: Vec<String> = o.findings.iter().map(|f| f.to_string()).collect();
    let policies: Vec<String> = o
        .policies
        .iter()
        .map(|v| {
            format!(
                "{}:{}[{}]",
                v.policy.name(),
                v.diagnostics,
                v.rules.join(",")
            )
        })
        .collect();
    format!(
        "{}|steps={}|lint={}|rules={}|policies={}|{}|findings={}",
        o.scenario,
        o.steps.join("+"),
        o.aos().diagnostics,
        o.aos().rules.join(","),
        policies.join(","),
        systems.join("|"),
        findings.join(";")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FuzzConfig {
        FuzzConfig {
            budget: 3,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn same_config_same_digest() {
        let telemetry = Telemetry::disabled();
        let a = run_fuzz(&small_config(), &telemetry).expect("fuzz");
        let b = run_fuzz(&small_config(), &telemetry).expect("fuzz");
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.outcomes.len() + a.planning_failures.len(), 3);
    }

    #[test]
    fn different_seeds_differ() {
        let telemetry = Telemetry::disabled();
        let a = run_fuzz(&small_config(), &telemetry).expect("fuzz");
        let b = run_fuzz(
            &FuzzConfig {
                seed: 2,
                ..small_config()
            },
            &telemetry,
        )
        .expect("fuzz");
        assert_ne!(a.digest(), b.digest(), "seed must steer the campaign");
    }

    #[test]
    fn report_json_is_schema_tagged() {
        let telemetry = Telemetry::disabled();
        let report = run_fuzz(
            &FuzzConfig {
                budget: 1,
                ..FuzzConfig::default()
            },
            &telemetry,
        )
        .expect("fuzz");
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"aos-fuzz-report/v1\""));
        assert!(json.contains("\"digest\": \""));
    }

    #[test]
    fn banked_corpus_replays_stable() {
        use crate::primitive::CompositeKind;

        let dir = aos_util::scratch::ScratchDir::new("banked_corpus_replays_stable")
            .expect("scratch dir");
        let path = dir.join("bank.aosc");
        let telemetry = Telemetry::disabled();
        let specs: Vec<ScenarioSpec> = [CompositeKind::HeapSpray, CompositeKind::DanglingResign]
            .into_iter()
            .map(|kind| ScenarioSpec {
                seed: 77,
                steps: vec![StepKind::Composite(kind)],
            })
            .collect();
        let outcomes = bank_scenarios("mcf", 0.004, &specs, &path, &telemetry).expect("bank");
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| !o.is_finding()));
        let replay = replay_corpus(&path, &telemetry).expect("replay");
        assert!(replay.is_stable(), "{:?}", replay.checks);
        assert_eq!(replay.checks.len(), 2);
    }
}
