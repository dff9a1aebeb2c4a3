//! The experiment runner: one place that builds a Table IV machine for
//! a system-under-test and drives a calibrated workload through it.
//!
//! Every figure reproduction in `aos_bench::reports` (`aos repro`) is
//! a thin formatter over [`run`]:
//!
//! - Fig. 14 — [`run`] per (workload × system), normalized to
//!   Baseline;
//! - Fig. 15 — AOS with the four [`SystemUnderTest`] optimization
//!   combinations;
//! - Fig. 16 — [`aos_sim::RunStats::mix`] from the AOS runs;
//! - Fig. 17 — [`aos_sim::RunStats::mcu`] / `bwb`;
//! - Fig. 18 — [`aos_sim::RunStats::traffic`] normalized to Baseline.

use aos_hbt::HbtConfig;
use aos_isa::SafetyConfig;
use aos_sim::{Machine, MachineConfig, RunStats};
use aos_workloads::{TraceGenerator, WorkloadProfile};

pub mod campaign;
pub mod overlap;

/// A fully specified system configuration to evaluate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemUnderTest {
    /// Which of the five systems (Baseline/Watchdog/PA/AOS/PA+AOS).
    pub safety: SafetyConfig,
    /// L1-B bounds cache present (§V-F1). Ignored by non-AOS systems.
    pub l1b: bool,
    /// Bounds compression enabled (§V-D).
    pub compression: bool,
    /// Window scale in `(0, 1]`: 1.0 = the profile's full window.
    pub scale: f64,
    /// Whether the machine records pipeline telemetry (the simulated
    /// behaviour is identical either way; see
    /// [`aos_util::telemetry`]).
    pub telemetry: bool,
}

impl SystemUnderTest {
    /// The standard configuration of a system: all AOS optimizations
    /// on, full-scale window.
    pub fn standard(safety: SafetyConfig) -> Self {
        Self {
            safety,
            l1b: true,
            compression: true,
            scale: 1.0,
            telemetry: false,
        }
    }

    /// Same, at a reduced window scale (tests, smoke runs).
    pub fn scaled(safety: SafetyConfig, scale: f64) -> Self {
        Self {
            scale,
            ..Self::standard(safety)
        }
    }

    /// Same system with telemetry recording switched on or off.
    pub fn with_telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The machine configuration this system implies.
    pub fn machine_config(&self) -> MachineConfig {
        let mut config = MachineConfig::table_iv(self.safety);
        config.with_l1b = self.l1b;
        config.hbt = HbtConfig {
            compressed: self.compression,
            ..config.hbt
        };
        config.telemetry = self.telemetry;
        config
    }
}

/// Runs one workload on one system and returns the machine's
/// statistics.
///
/// # Examples
///
/// ```
/// use aos_core::experiment::{run, SystemUnderTest};
/// use aos_core::isa::SafetyConfig;
/// use aos_core::workloads::profile;
///
/// let p = profile::by_name("mcf").unwrap();
/// let stats = run(p, &SystemUnderTest::scaled(SafetyConfig::Aos, 0.01));
/// assert!(stats.cycles > 0);
/// ```
pub fn run(profile: &WorkloadProfile, sut: &SystemUnderTest) -> RunStats {
    let (trace, mut machine) = generator_and_machine(profile, sut);
    machine.run(trace)
}

/// A cell's trace generator and machine, the generator recording into
/// the machine's telemetry handle so one snapshot covers generation
/// (signs, PAC computations, heap allocations) and simulation.
///
/// The generator is built first: building it may evict the previous
/// cell's Zipf table from the per-thread memo, which then frees before
/// the machine's caches and tables are allocated.
fn generator_and_machine(
    profile: &WorkloadProfile,
    sut: &SystemUnderTest,
) -> (TraceGenerator, Machine) {
    let generator = TraceGenerator::new(profile, sut.safety, sut.scale);
    let machine = Machine::new(sut.machine_config());
    (
        generator.with_telemetry(machine.telemetry().clone()),
        machine,
    )
}

/// [`run`] through a stream meter: same simulation, but the trace
/// flows through [`aos_isa::stream::Metered`] so the cell can report
/// how many ops it simulated and how much trace the pipeline ever held
/// buffered (the generator's event buffer — `O(window)`, not the
/// trace). This is the campaign's cell body: the generator streams
/// into the machine one op at a time.
pub fn run_metered(profile: &WorkloadProfile, sut: &SystemUnderTest) -> campaign::CellOutput {
    use aos_isa::stream::{BufferedOps, OpStream};

    let (trace, mut machine) = generator_and_machine(profile, sut);
    let mut trace = trace.metered();
    let stats = machine.run(&mut trace);
    campaign::CellOutput {
        stats,
        trace_ops: trace.ops(),
        peak_trace_bytes: trace.peak_buffered_ops() as u64
            * std::mem::size_of::<aos_isa::Op>() as u64,
    }
}

/// Convenience: execution time of `sut` normalized to the Baseline
/// system at the same scale (the y-axis of Figs. 14 and 15).
pub fn normalized_time(profile: &WorkloadProfile, sut: &SystemUnderTest) -> f64 {
    let baseline = run(
        profile,
        &SystemUnderTest {
            safety: SafetyConfig::Baseline,
            ..*sut
        },
    );
    let subject = run(profile, sut);
    subject.cycles as f64 / baseline.cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_workloads::profile::by_name;

    #[test]
    fn standard_sut_matches_table_iv() {
        let sut = SystemUnderTest::standard(SafetyConfig::Aos);
        let cfg = sut.machine_config();
        assert!(cfg.aos_enabled);
        assert!(cfg.with_l1b);
        assert!(cfg.hbt.compressed);
        assert!(cfg.mcu.bounds_forwarding);
        let base = SystemUnderTest::standard(SafetyConfig::Baseline).machine_config();
        assert!(!base.aos_enabled);
    }

    #[test]
    fn aos_run_checks_and_baseline_does_not() {
        let p = by_name("hmmer").unwrap();
        let aos = run(p, &SystemUnderTest::scaled(SafetyConfig::Aos, 0.01));
        let base = run(p, &SystemUnderTest::scaled(SafetyConfig::Baseline, 0.01));
        assert!(aos.mcu.signed_accesses > 0);
        assert_eq!(base.mcu.signed_accesses, 0);
        assert_eq!(aos.violations, 0, "benign workloads never fault");
    }

    #[test]
    fn metered_run_matches_plain_run() {
        let p = by_name("hmmer").unwrap();
        let sut = SystemUnderTest::scaled(SafetyConfig::Aos, 0.004);
        let plain = run(p, &sut);
        let metered = run_metered(p, &sut);
        assert_eq!(plain, metered.stats, "metering must be transparent");
        assert!(metered.trace_ops > 0);
        assert!(metered.peak_trace_bytes > 0);
    }

    #[test]
    fn normalized_time_of_baseline_is_one() {
        let p = by_name("libquantum").unwrap();
        let sut = SystemUnderTest::scaled(SafetyConfig::Baseline, 0.01);
        let n = normalized_time(p, &sut);
        assert!((n - 1.0).abs() < 1e-9, "{n}");
    }

    #[test]
    fn aos_overhead_is_positive_but_moderate_on_hmmer() {
        let p = by_name("hmmer").unwrap();
        let n = normalized_time(p, &SystemUnderTest::scaled(SafetyConfig::Aos, 0.02));
        assert!(n > 1.0, "hmmer checks nearly every access: {n}");
        assert!(n < 2.0, "but AOS must stay moderate: {n}");
    }
}
