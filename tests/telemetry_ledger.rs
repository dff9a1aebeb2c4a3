//! Telemetry ledger identities for the trace generator's counters.
//!
//! Every cell runner hands the machine's telemetry handle to the trace
//! generator, so one snapshot covers both generation and simulation.
//! The generator's counters are then tied to ops the trace carries:
//!
//! - each AOS malloc signs its pointer once (`pacma`, one QARMA
//!   computation) and stores its bounds once (`bndstr`), so
//!   `pac_computations` and `ptr_signs` equal the `BndStr` count on AOS
//!   and PA+AOS, and are 0 on the other systems;
//! - the program is the same on every system, so `heap_allocs` equals
//!   the profile's AOS `BndStr` count on all five.
//!
//! The identities hold through every runner entry point: `run`,
//! `run_metered` and its `run_overlapped` alias.
//!
//! The HBT lookup counters are tied to the MCU's own ledger: on the
//! AOS systems every table walk is one lookup, a hit exactly when the
//! check completed (`McuStats::completed_checks`), and the sample must
//! walk the table at all; the other systems never look bounds up. A
//! use-after-free walks every way and comes up empty: a miss.

use aos_core::experiment::overlap::run_overlapped;
use aos_core::experiment::{run, run_metered, SystemUnderTest};
use aos_fault::{plan_fault, FaultKind, FaultSpec};
use aos_isa::{Op, SafetyConfig};
use aos_ptrauth::PointerLayout;
use aos_sim::Machine;
use aos_util::{Counter, TelemetrySnapshot};
use aos_workloads::profile::by_name;
use aos_workloads::{TraceGenerator, WorkloadProfile};

const PROFILES: [&str; 3] = ["hmmer", "mcf", "omnetpp"];
const SCALE: f64 = 0.004;

fn bndstr_count(profile: &WorkloadProfile, system: SafetyConfig) -> u64 {
    TraceGenerator::new(profile, system, SCALE)
        .filter(|op| matches!(op, Op::BndStr { .. }))
        .count() as u64
}

/// The snapshot of every runner entry point for one cell.
fn snapshots(
    profile: &WorkloadProfile,
    sut: &SystemUnderTest,
) -> [(&'static str, TelemetrySnapshot); 3] {
    [
        ("run", run(profile, sut).telemetry),
        ("run_metered", run_metered(profile, sut).stats.telemetry),
        (
            "run_overlapped",
            run_overlapped(profile, sut).stats.telemetry,
        ),
    ]
}

#[test]
fn generator_counters_match_the_trace_on_all_five_systems() {
    for name in PROFILES {
        let profile = by_name(name).unwrap();
        let aos_mallocs = bndstr_count(profile, SafetyConfig::Aos);
        assert!(aos_mallocs > 0, "{name}: the sample must allocate");
        for system in SafetyConfig::ALL {
            let signs = if system.uses_aos() {
                let bndstr = bndstr_count(profile, system);
                assert_eq!(
                    bndstr, aos_mallocs,
                    "{name}/{system}: one bndstr per malloc"
                );
                bndstr
            } else {
                0
            };
            let sut = SystemUnderTest::scaled(system, SCALE).with_telemetry(true);
            for (shape, t) in snapshots(profile, &sut) {
                let cell = format!("{name}/{system} via {shape}");
                assert_eq!(t.counter(Counter::PacComputations), signs, "{cell}");
                assert_eq!(t.counter(Counter::PtrSigns), signs, "{cell}");
                assert_eq!(t.counter(Counter::HeapAllocs), aos_mallocs, "{cell}");
                assert!(
                    t.counter(Counter::HeapFrees) <= aos_mallocs,
                    "{cell}: more frees than allocations"
                );
            }
        }
    }
}

/// With telemetry off the generator records nothing either.
#[test]
fn disabled_cells_record_no_generator_counters() {
    let profile = by_name("hmmer").unwrap();
    let sut = SystemUnderTest::scaled(SafetyConfig::Aos, SCALE);
    for (shape, t) in snapshots(profile, &sut) {
        assert!(
            t.is_empty(),
            "{shape}: a disabled handle recorded something"
        );
    }
}

#[test]
fn hbt_lookups_reconcile_with_the_mcu_check_verdicts() {
    for name in PROFILES {
        let profile = by_name(name).unwrap();
        for system in SafetyConfig::ALL {
            let sut = SystemUnderTest::scaled(system, SCALE).with_telemetry(true);
            let stats = run(profile, &sut);
            let t = &stats.telemetry;
            let (lookups, hits, misses) = (
                t.counter(Counter::HbtLookups),
                t.counter(Counter::HbtHits),
                t.counter(Counter::HbtMisses),
            );
            let cell = format!("{name}/{system}");
            if system.uses_aos() {
                assert_eq!(lookups, hits + misses, "{cell}");
                assert_eq!(hits, stats.mcu.completed_checks, "{cell}");
                assert!(lookups > 0, "{cell}: the sample must check bounds");
            } else {
                assert_eq!((lookups, hits, misses), (0, 0, 0), "{cell}");
            }
        }
    }
}

#[test]
fn a_use_after_free_check_counts_as_an_hbt_miss() {
    let profile = by_name("hmmer").unwrap();
    let stream = || TraceGenerator::new(profile, SafetyConfig::Aos, SCALE);
    let spec = FaultSpec {
        kind: FaultKind::UseAfterFree,
        seed: 1,
    };
    let plan = plan_fault(stream(), PointerLayout::default(), spec).unwrap();
    let sut = SystemUnderTest::scaled(SafetyConfig::Aos, SCALE).with_telemetry(true);
    let stats = Machine::new(sut.machine_config()).run(plan.apply(stream()));
    let t = &stats.telemetry;
    assert!(stats.violations > 0, "the fault must be detected");
    assert!(t.counter(Counter::HbtMisses) > 0);
    assert_eq!(
        t.counter(Counter::HbtLookups),
        stats.mcu.completed_checks + t.counter(Counter::HbtMisses)
    );
}
