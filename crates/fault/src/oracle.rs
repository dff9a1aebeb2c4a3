//! The trial oracle: the one code path that turns a workload and a
//! plan's edits into measurements. A [`Trial`] is the AOS-instrumented
//! stream of one workload at one scale with [`Splice`] edits in it
//! (none for the clean trial); [`measure`] replays a stream on
//! machines and scans it under static policies, and [`fault_sweep`]
//! is the static sweep the fault campaign and `aos matrix` share.
//!
//! A [`SystemTrial`] is **detected** when the faulted stream raises
//! strictly more violations than the clean stream on the same
//! machine, and a **false positive** when the clean stream raises any.
//! The paper's security table (§VII) then reduces to: every
//! spatial/temporal/forgery trial is detected under AOS and missed
//! under Baseline, with zero false positives anywhere.

use aos_core::experiment::campaign::CellOutput;
use aos_core::experiment::SystemUnderTest;
use aos_isa::stream::{BufferedOps, OpStream, Splice, SpliceMany};
use aos_isa::{Op, SafetyConfig};
use aos_lint::{MatrixScan, Policy, PolicyReport};
use aos_ptrauth::PointerLayout;
use aos_sim::Machine;
use aos_util::json::{Json, Layout};
use aos_util::{AosError, Telemetry};
use aos_workloads::{TraceGenerator, WorkloadProfile};

use crate::inject::{plan_fault, FaultKind, FaultSpec};

/// One workload stream and the edits spliced into it: what every
/// harness measures.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The workload whose AOS-instrumented trace is generated.
    pub profile: WorkloadProfile,
    /// Window scale in `(0, 1]`.
    pub scale: f64,
    /// Edits in original-trace index space; empty for the clean
    /// trial.
    pub edits: Vec<Splice>,
}

impl Trial {
    /// The clean trial: the generated trace, unedited.
    pub fn clean(profile: WorkloadProfile, scale: f64) -> Trial {
        Trial {
            profile,
            scale,
            edits: Vec::new(),
        }
    }

    /// The same workload and scale with `edits` spliced in.
    pub fn with_edits(&self, edits: Vec<Splice>) -> Trial {
        Trial {
            profile: self.profile,
            scale: self.scale,
            edits,
        }
    }

    /// A fresh stream of the trial: the AOS-instrumented trace with
    /// the edits spliced in. The factory to [`measure`] a trial with.
    pub fn stream(&self) -> SpliceMany<TraceGenerator> {
        TraceGenerator::new(&self.profile, SafetyConfig::Aos, self.scale)
            .splice_many(self.edits.clone())
    }

    /// Runs one guarded campaign cell on `sut`. The drained stream's
    /// counts are projected into the machine's snapshot, so it covers
    /// generation and simulation, and the stream is metered for the
    /// report's `trace_ops` and `peak_trace_bytes` columns.
    pub fn run_cell(&self, sut: &SystemUnderTest) -> CellOutput {
        let mut stream = self.stream().metered();
        let mut machine = Machine::new(sut.machine_config());
        let mut stats = machine.run(&mut stream);
        stream.record_telemetry(&mut stats.telemetry);
        CellOutput {
            stats,
            trace_ops: stream.ops(),
            peak_trace_bytes: stream.peak_buffered_ops() as u64 * std::mem::size_of::<Op>() as u64,
        }
    }
}

/// What [`measure`] observed on one stream.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Each system's violation count, in the order measured.
    pub violations: Vec<(SafetyConfig, u64)>,
    /// Each policy's report, in the order scanned.
    pub reports: Vec<PolicyReport>,
}

impl Measurement {
    /// This faulted measurement's per-system outcomes against `clean`,
    /// which was measured on the same systems in the same order.
    pub fn trials(&self, clean: &Measurement) -> Vec<SystemTrial> {
        clean
            .violations
            .iter()
            .zip(&self.violations)
            .map(|(&(system, clean), &(_, faulty))| SystemTrial {
                system,
                clean_violations: clean,
                faulty_violations: faulty,
            })
            .collect()
    }
}

/// The oracle's one measurement. Scans a fresh stream under every
/// policy in one [`MatrixScan`] pass (the scan counts into
/// `telemetry`), then replays a fresh stream on each system's
/// machine. Each drained replay stream's counts are projected into
/// its machine's snapshot, so the snapshot covers generation and
/// simulation; it is merged into `telemetry` (it is empty unless the
/// system was built with telemetry on).
pub fn measure<I, F>(
    stream: F,
    systems: &[SystemUnderTest],
    policies: &[Policy],
    telemetry: &Telemetry,
) -> Measurement
where
    I: Iterator<Item = Op> + BufferedOps,
    F: Fn() -> I,
{
    let reports = MatrixScan::run(policies, stream(), PointerLayout::default(), telemetry);
    let violations = systems
        .iter()
        .map(|sut| {
            let mut ops = stream();
            let mut machine = Machine::new(sut.machine_config());
            let mut stats = machine.run(&mut ops);
            ops.record_telemetry(&mut stats.telemetry);
            telemetry.merge(&stats.telemetry);
            (sut.safety, stats.violations)
        })
        .collect();
    Measurement {
        violations,
        reports,
    }
}

/// One `(kind, seed)` of a [`fault_sweep`]: the faulted trial with
/// its policy reports, or the planner's error.
pub type SweptFault = (FaultSpec, Result<(Trial, Vec<PolicyReport>), AosError>);

/// The static sweep the fault campaign's cross-check and `aos matrix`
/// share. Measures the clean trial on `systems` under `policies` at
/// once; then, lazily and in kind-major order, plans each
/// `(kind, seed)` fault against the clean stream and yields its
/// faulted trial with that trial's scan under `policies`. Every scan
/// counts into `telemetry`.
pub fn fault_sweep<'a>(
    clean: &'a Trial,
    systems: &[SystemUnderTest],
    kinds: &'a [FaultKind],
    seeds: &'a [u64],
    policies: &'a [Policy],
    telemetry: &'a Telemetry,
) -> (Measurement, impl Iterator<Item = SweptFault> + 'a) {
    let reference = measure(|| clean.stream(), systems, policies, telemetry);
    let faults = kinds
        .iter()
        .flat_map(move |&kind| seeds.iter().map(move |&seed| FaultSpec { kind, seed }))
        .map(move |spec| {
            let planned = plan_fault(clean.stream(), PointerLayout::default(), spec).map(|plan| {
                let trial = clean.with_edits(vec![plan.splice]);
                let reports = measure(|| trial.stream(), &[], policies, telemetry).reports;
                (trial, reports)
            });
            (spec, planned)
        });
    (reference, faults)
}

/// The oracle's classification of one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The machine raised a violation the clean run did not.
    Detected,
    /// The faulted trace executed without an extra violation.
    Missed,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Detected => "detected",
            Verdict::Missed => "missed",
        })
    }
}

/// One system's outcome of a trial: the clean and the faulted
/// stream's violations on the same machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemTrial {
    /// The system the streams ran on.
    pub system: SafetyConfig,
    /// Violations the *clean* stream raised (any > 0 is a false
    /// positive).
    pub clean_violations: u64,
    /// Violations the faulted stream raised.
    pub faulty_violations: u64,
}

impl SystemTrial {
    /// Extra violations the edits added.
    pub fn delta(&self) -> u64 {
        self.faulty_violations.saturating_sub(self.clean_violations)
    }

    /// Detected iff the edits added at least one violation.
    pub fn verdict(&self) -> Verdict {
        if self.delta() > 0 {
            Verdict::Detected
        } else {
            Verdict::Missed
        }
    }

    /// True when the clean stream itself raised a violation.
    pub fn false_positive(&self) -> bool {
        self.clean_violations > 0
    }
}

/// An accumulated grid of fault trials with its summary arithmetic.
#[derive(Debug, Clone, Default)]
pub struct TrialMatrix {
    /// Every trial run with the fault it injected, in execution
    /// order.
    pub trials: Vec<(FaultSpec, SystemTrial)>,
}

impl TrialMatrix {
    /// Adds one trial of `spec`.
    pub fn push(&mut self, spec: FaultSpec, trial: SystemTrial) {
        self.trials.push((spec, trial));
    }

    /// Trials on systems where AOS checking is active.
    pub fn protected(&self) -> impl Iterator<Item = &SystemTrial> {
        self.trials
            .iter()
            .map(|(_, t)| t)
            .filter(|t| t.system.uses_aos())
    }

    /// Trials on systems without AOS checking.
    pub fn unprotected(&self) -> impl Iterator<Item = &SystemTrial> {
        self.trials
            .iter()
            .map(|(_, t)| t)
            .filter(|t| !t.system.uses_aos())
    }

    /// Detected fraction among protected trials (1.0 when there are
    /// none, so an empty matrix does not read as a regression).
    pub fn detection_rate(&self) -> f64 {
        let (mut detected, mut total) = (0usize, 0usize);
        for t in self.protected() {
            total += 1;
            detected += usize::from(t.verdict() == Verdict::Detected);
        }
        if total == 0 {
            1.0
        } else {
            detected as f64 / total as f64
        }
    }

    /// Count of clean-trace violations anywhere in the matrix.
    pub fn false_positives(&self) -> usize {
        self.trials
            .iter()
            .filter(|(_, t)| t.false_positive())
            .count()
    }

    /// The acceptance gate: every protected trial detected, every
    /// clean trace silent.
    pub fn is_sound(&self) -> bool {
        self.detection_rate() == 1.0 && self.false_positives() == 0
    }

    /// Inline JSON object summarizing the matrix: the
    /// `fault_detection` annotation of the fault campaign's report.
    pub fn to_json_value(&self) -> Json {
        let detected = self
            .protected()
            .filter(|t| t.verdict() == Verdict::Detected);
        let missed = self
            .unprotected()
            .filter(|t| t.verdict() == Verdict::Missed);
        Layout::Inline.object([
            ("trials", Json::num(self.trials.len())),
            ("aos_detected", Json::num(detected.count())),
            ("aos_total", Json::num(self.protected().count())),
            ("baseline_missed", Json::num(missed.count())),
            ("baseline_total", Json::num(self.unprotected().count())),
            ("detection_rate", Json::fixed(self.detection_rate(), 4)),
            ("false_positives", Json::num(self.false_positives())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_util::Counter;
    use aos_workloads::profile::by_name;

    const SCALE: f64 = 0.004;

    /// One trial: plans `spec` on the clean hmmer stream, then
    /// measures the clean and the faulted stream on `system`.
    fn run_trial(system: SafetyConfig, spec: FaultSpec) -> SystemTrial {
        let clean = Trial::clean(*by_name("hmmer").unwrap(), SCALE);
        let plan = plan_fault(clean.stream(), PointerLayout::default(), spec).unwrap();
        let systems = [SystemUnderTest::scaled(system, SCALE)];
        let off = Telemetry::disabled();
        let faulted = clean.with_edits(vec![plan.splice]);
        let reference = measure(|| clean.stream(), &systems, &[], &off);
        measure(|| faulted.stream(), &systems, &[], &off).trials(&reference)[0]
    }

    #[test]
    fn aos_detects_overflow_and_baseline_misses_it() {
        let spec = FaultSpec {
            kind: FaultKind::OverflowWrite,
            seed: 3,
        };
        let aos = run_trial(SafetyConfig::Aos, spec);
        assert_eq!(aos.verdict(), Verdict::Detected);
        assert!(!aos.false_positive());
        let base = run_trial(SafetyConfig::Baseline, spec);
        assert_eq!(base.verdict(), Verdict::Missed);
        assert_eq!(base.faulty_violations, 0);
    }

    #[test]
    fn matrix_summary_arithmetic() {
        let spec = FaultSpec {
            kind: FaultKind::UseAfterFree,
            seed: 1,
        };
        let mut matrix = TrialMatrix::default();
        for system in [SafetyConfig::Aos, SafetyConfig::Baseline] {
            matrix.push(spec, run_trial(system, spec));
        }
        assert!(matrix.is_sound());
        let json = matrix.to_json_value().to_string();
        assert!(json.contains("\"detection_rate\": 1.0000"));
        assert!(json.contains("\"false_positives\": 0"));
    }

    /// The scan counts into the caller's handle and each machine's
    /// snapshot (generation included) is merged into it; a system
    /// built without telemetry adds nothing.
    #[test]
    fn measure_merges_the_machines_snapshots() {
        let clean = Trial::clean(*by_name("hmmer").unwrap(), SCALE);
        let sut = SystemUnderTest::scaled(SafetyConfig::Aos, SCALE);
        let telemetry = Telemetry::enabled();
        measure(|| clean.stream(), &[sut], &[Policy::Aos], &telemetry);
        let quiet = telemetry.snapshot();
        assert!(quiet.counter(Counter::LintOpsScanned) > 0);
        assert_eq!(quiet.counter(Counter::HeapAllocs), 0);
        measure(
            || clean.stream(),
            &[sut.with_telemetry(true)],
            &[],
            &telemetry,
        );
        let loud = telemetry.snapshot();
        assert_eq!(
            loud.counter(Counter::LintOpsScanned),
            quiet.counter(Counter::LintOpsScanned)
        );
        let cell = clean.run_cell(&sut.with_telemetry(true));
        for counter in [Counter::HeapAllocs, Counter::PtrSigns, Counter::McqEnqueued] {
            assert!(loud.counter(counter) > 0, "{} stayed 0", counter.name());
            assert_eq!(
                loud.counter(counter),
                cell.stats.telemetry.counter(counter),
                "{}",
                counter.name()
            );
        }
    }
}
