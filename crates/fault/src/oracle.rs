//! The detection oracle: replays clean and faulted traces through a
//! system's machine model and classifies the outcome.
//!
//! A trial is **detected** when the faulted trace raises strictly
//! more violations than the clean trace on the same machine, and a
//! **false positive** when the clean trace raises any violation at
//! all. The paper's security table (§VII) then reduces to: every
//! spatial/temporal/forgery trial is detected under AOS and missed
//! under Baseline, with zero false positives anywhere.

use aos_isa::SafetyConfig;
use aos_util::json::{Json, Layout};

use crate::inject::FaultSpec;

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

/// One `(fault × system)` trial and its measured outcome.
#[derive(Debug, Clone)]
pub struct FaultTrial {
    /// The injected fault.
    pub spec: FaultSpec,
    /// The system the trace ran on.
    pub system: SafetyConfig,
    /// Violations the *clean* trace raised (any > 0 is a false
    /// positive).
    pub clean_violations: u64,
    /// Violations the faulted trace raised.
    pub faulty_violations: u64,
}

impl FaultTrial {
    /// Detected iff the fault added at least one violation.
    pub fn verdict(&self) -> Verdict {
        if self.faulty_violations > self.clean_violations {
            Verdict::Detected
        } else {
            Verdict::Missed
        }
    }

    /// True when the clean trace itself raised a violation.
    pub fn false_positive(&self) -> bool {
        self.clean_violations > 0
    }
}

/// An accumulated grid of trials with its summary arithmetic.
#[derive(Debug, Clone, Default)]
pub struct TrialMatrix {
    /// Every trial run, in execution order.
    pub trials: Vec<FaultTrial>,
}

impl TrialMatrix {
    /// Adds one trial.
    pub fn push(&mut self, trial: FaultTrial) {
        self.trials.push(trial);
    }

    /// Trials on systems where AOS checking is active.
    pub fn protected(&self) -> impl Iterator<Item = &FaultTrial> {
        self.trials.iter().filter(|t| t.system.uses_aos())
    }

    /// Trials on systems without AOS checking.
    pub fn unprotected(&self) -> impl Iterator<Item = &FaultTrial> {
        self.trials.iter().filter(|t| !t.system.uses_aos())
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
        self.trials.iter().filter(|t| t.false_positive()).count()
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
    use crate::inject::{plan_fault, FaultKind};
    use aos_core::experiment::SystemUnderTest;
    use aos_ptrauth::PointerLayout;
    use aos_sim::Machine;
    use aos_workloads::profile::by_name;
    use aos_workloads::{TraceGenerator, WorkloadProfile};

    /// One trial: plans `spec` on the AOS-instrumented stream, then
    /// replays the clean and the faulted stream on `sut`'s machine.
    fn run_trial(profile: &WorkloadProfile, sut: &SystemUnderTest, spec: FaultSpec) -> FaultTrial {
        let stream = || TraceGenerator::new(profile, SafetyConfig::Aos, sut.scale);
        let plan = plan_fault(stream(), PointerLayout::default(), spec).unwrap();
        let clean = Machine::new(sut.machine_config()).run(stream());
        let faulty = Machine::new(sut.machine_config()).run(plan.apply(stream()));
        FaultTrial {
            spec,
            system: sut.safety,
            clean_violations: clean.violations,
            faulty_violations: faulty.violations,
        }
    }

    #[test]
    fn aos_detects_overflow_and_baseline_misses_it() {
        let p = by_name("hmmer").unwrap();
        let spec = FaultSpec {
            kind: FaultKind::OverflowWrite,
            seed: 3,
        };
        let aos = run_trial(p, &SystemUnderTest::scaled(SafetyConfig::Aos, 0.004), spec);
        assert_eq!(aos.verdict(), Verdict::Detected);
        assert!(!aos.false_positive());
        let base = run_trial(
            p,
            &SystemUnderTest::scaled(SafetyConfig::Baseline, 0.004),
            spec,
        );
        assert_eq!(base.verdict(), Verdict::Missed);
        assert_eq!(base.faulty_violations, 0);
    }

    #[test]
    fn matrix_summary_arithmetic() {
        let p = by_name("hmmer").unwrap();
        let mut matrix = TrialMatrix::default();
        for system in [SafetyConfig::Aos, SafetyConfig::Baseline] {
            matrix.push(run_trial(
                p,
                &SystemUnderTest::scaled(system, 0.004),
                FaultSpec {
                    kind: FaultKind::UseAfterFree,
                    seed: 1,
                },
            ));
        }
        assert!(matrix.is_sound());
        let json = matrix.to_json_value().to_string();
        assert!(json.contains("\"detection_rate\": 1.0000"));
        assert!(json.contains("\"false_positives\": 0"));
    }
}
