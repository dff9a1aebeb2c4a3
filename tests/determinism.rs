//! Reproducibility guarantees: the whole pipeline — cipher, workload
//! synthesis, machine — is a pure function of its inputs.

use aos_core::experiment::{run, SystemUnderTest};
use aos_core::isa::SafetyConfig;
use aos_core::qarma::{PacKey, Qarma64};
use aos_core::workloads::microbench::pac_distribution;
use aos_core::workloads::profile::by_name;
use aos_core::workloads::schedule::run_full_schedule;
use aos_core::workloads::TraceGenerator;

#[test]
fn qarma_pins_the_arm_reference_vector() {
    // If this ever changes, every PAC in the repository changes.
    let q = Qarma64::new(PacKey::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9));
    assert_eq!(
        q.compute(0xfb623599da6e8127, 0x477d469dec0b8762),
        0xc003b93999b33765
    );
}

#[test]
fn traces_are_bit_identical_across_generators() {
    let p = by_name("povray").unwrap();
    for config in SafetyConfig::ALL {
        let a: Vec<_> = TraceGenerator::new(p, config, 0.005).collect();
        let b: Vec<_> = TraceGenerator::new(p, config, 0.005).collect();
        assert_eq!(a, b, "{config}");
    }
}

#[test]
fn machine_results_are_bit_identical_across_runs() {
    let p = by_name("gobmk").unwrap();
    let sut = SystemUnderTest::scaled(SafetyConfig::PaAos, 0.01);
    let a = run(p, &sut);
    let b = run(p, &sut);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.retired_ops, b.retired_ops);
    assert_eq!(a.traffic, b.traffic);
    assert_eq!(a.mcu, b.mcu);
    assert_eq!(a.l1d, b.l1d);
}

#[test]
fn microbench_histogram_is_stable() {
    let a = pac_distribution(20_000, 16);
    let b = pac_distribution(20_000, 16);
    assert_eq!(a, b);
}

#[test]
fn allocation_schedules_are_stable() {
    let p = by_name("gobmk").unwrap();
    let a = run_full_schedule(p, 1.0);
    let b = run_full_schedule(p, 1.0);
    assert_eq!(a, b);
}

#[test]
fn different_workloads_produce_different_traces() {
    let a: Vec<_> =
        TraceGenerator::new(by_name("mcf").unwrap(), SafetyConfig::Aos, 0.005).collect();
    let b: Vec<_> =
        TraceGenerator::new(by_name("lbm").unwrap(), SafetyConfig::Aos, 0.005).collect();
    assert_ne!(a, b);
}
