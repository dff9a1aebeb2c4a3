//! Integration tests: full pipeline runs across crates — generator →
//! instrumentation → machine → statistics.

use aos_core::experiment::{normalized_time, run, SystemUnderTest};
use aos_core::isa::SafetyConfig;
use aos_core::workloads::profile::{by_name, SPEC2006};
use aos_core::workloads::TraceGenerator;

const SCALE: f64 = 0.01;

#[test]
fn all_sixteen_workloads_run_on_all_five_systems() {
    for profile in SPEC2006 {
        for config in SafetyConfig::ALL {
            let stats = run(profile, &SystemUnderTest::scaled(config, SCALE));
            assert!(stats.cycles > 0, "{} {config}", profile.name);
            // Every op of a benign trace retires: the core may reorder
            // and replay, but never drops work on the floor.
            assert_eq!(
                stats.retired_ops,
                TraceGenerator::new(profile, config, SCALE).count() as u64,
                "{} {config}",
                profile.name
            );
            assert_eq!(stats.violations, 0, "{} {config}", profile.name);
            assert!(
                stats.ipc() > 0.1 && stats.ipc() <= 8.0,
                "{} {config}",
                profile.name
            );
        }
    }
}

#[test]
fn ordering_watchdog_slowest_pa_fastest() {
    // The headline qualitative result of Fig. 14, on a representative
    // workload: Watchdog > AOS ≥ PA, and PA+AOS ≥ AOS.
    let p = by_name("gcc").unwrap();
    let base = run(p, &SystemUnderTest::scaled(SafetyConfig::Baseline, 0.02)).cycles as f64;
    let wd = run(p, &SystemUnderTest::scaled(SafetyConfig::Watchdog, 0.02)).cycles as f64;
    let pa = run(p, &SystemUnderTest::scaled(SafetyConfig::Pa, 0.02)).cycles as f64;
    let aos = run(p, &SystemUnderTest::scaled(SafetyConfig::Aos, 0.02)).cycles as f64;
    let paaos = run(p, &SystemUnderTest::scaled(SafetyConfig::PaAos, 0.02)).cycles as f64;
    assert!(wd > aos, "Watchdog {wd} should exceed AOS {aos}");
    assert!(aos > base, "AOS adds overhead over baseline");
    assert!(pa < aos, "PA alone is cheaper than AOS on gcc");
    assert!(paaos >= aos, "pointer integrity adds on top of AOS");
}

#[test]
fn aos_traffic_exceeds_baseline_but_not_watchdog_on_metadata_heavy_load() {
    let p = by_name("gcc").unwrap();
    let base = run(p, &SystemUnderTest::scaled(SafetyConfig::Baseline, 0.02));
    let aos = run(p, &SystemUnderTest::scaled(SafetyConfig::Aos, 0.02));
    let wd = run(p, &SystemUnderTest::scaled(SafetyConfig::Watchdog, 0.02));
    assert!(aos.traffic.total_bytes() > base.traffic.total_bytes());
    assert!(
        wd.traffic.total_bytes() > aos.traffic.total_bytes(),
        "Watchdog's 24-byte metadata moves more bytes than AOS's 8-byte bounds"
    );
}

#[test]
fn fig15_ablation_ordering_holds() {
    // No-opt must be the slowest AOS variant; both optimizations the
    // fastest (Fig. 15's qualitative content), on the most
    // metadata-sensitive workload.
    let p = by_name("gcc").unwrap();
    let cycles = |l1b: bool, compression: bool| {
        run(
            p,
            &SystemUnderTest {
                l1b,
                compression,
                ..SystemUnderTest::scaled(SafetyConfig::Aos, 0.02)
            },
        )
        .cycles
    };
    let none = cycles(false, false);
    let both = cycles(true, true);
    assert!(none > both, "optimizations must help: {none} vs {both}");
}

#[test]
fn normalized_time_is_stable_across_repeats() {
    let p = by_name("milc").unwrap();
    let sut = SystemUnderTest::scaled(SafetyConfig::Aos, SCALE);
    let a = normalized_time(p, &sut);
    let b = normalized_time(p, &sut);
    assert_eq!(a, b, "whole pipeline is deterministic");
}

#[test]
fn signed_fraction_tracks_profile_heap_fraction() {
    for name in ["hmmer", "sjeng", "lbm"] {
        let p = by_name(name).unwrap();
        let stats = run(p, &SystemUnderTest::scaled(SafetyConfig::Aos, 0.02));
        let measured = stats.mix.signed_access_fraction();
        // Allocator-internal accesses (unsigned) dilute the fraction;
        // allow a loose band around the calibrated value.
        assert!(
            (measured - p.heap_fraction).abs() < 0.25,
            "{name}: measured {measured:.2} vs profile {:.2}",
            p.heap_fraction
        );
    }
}

#[test]
fn mcq_backpressure_throttles_but_never_wedges() {
    // Shrink the MCQ so back-pressure is guaranteed; the run must
    // still complete with every access checked.
    use aos_core::sim::Machine;
    use aos_core::workloads::TraceGenerator;
    let p = by_name("hmmer").unwrap();
    let mut cfg = SystemUnderTest::scaled(SafetyConfig::Aos, 0.02).machine_config();
    cfg.mcu.mcq_entries = 4;
    let stats = Machine::new(cfg).run(TraceGenerator::new(p, SafetyConfig::Aos, 0.02));
    assert!(stats.stalls_mcq > 0, "a 4-entry MCQ must throttle issue");
    assert_eq!(stats.violations, 0);
    assert!(stats.retired_ops > 0);
}
