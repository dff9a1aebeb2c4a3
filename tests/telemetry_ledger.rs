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
//! The identities hold through every runner shape: per-op, metered,
//! in-thread batched and threaded overlap.

use aos_core::experiment::overlap::{run_overlapped, run_overlapped_threaded};
use aos_core::experiment::{run, run_metered, SystemUnderTest};
use aos_isa::{Op, SafetyConfig};
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

/// The snapshot of every runner shape for one cell.
fn snapshots(
    profile: &WorkloadProfile,
    sut: &SystemUnderTest,
) -> [(&'static str, TelemetrySnapshot); 4] {
    [
        ("run", run(profile, sut).telemetry),
        ("run_metered", run_metered(profile, sut).stats.telemetry),
        (
            "run_overlapped",
            run_overlapped(profile, sut).stats.telemetry,
        ),
        (
            "run_overlapped_threaded",
            run_overlapped_threaded(profile, sut).stats.telemetry,
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
