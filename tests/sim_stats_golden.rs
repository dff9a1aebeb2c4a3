//! Golden-file pin of the simulator's output, run for run.
//!
//! The stage core, the caches and the MCU/HBT check path are rewritten
//! for speed from time to time; none of that may move one simulated
//! statistic. The golden file holds one FNV-1a digest over every
//! simulated field of `RunStats` — cycles, retired ops, the instruction
//! mix, the L1-D/L1-B/L2 counters, traffic, the MCU and BWB counters,
//! HBT resizes and ways, violations, mispredicts, stall counters, LSQ
//! replays and flushes, but not the telemetry snapshot, so a change to
//! the counter taxonomy leaves it alone — for:
//!
//! - each of the 16 SPEC CPU2006 profiles on all five systems at scale
//!   0.01, and
//! - one AOS run per fault kind on hmmer at scale 0.01, so the
//!   precise-exception flush path is pinned too.
//!
//! Every cell runs with telemetry enabled, the drained generator's
//! counts projected into the machine's snapshot as the campaign cells
//! do. A second golden
//! holds one FNV-1a digest over each cell's `TelemetrySnapshot`, so a
//! change to how a counter is recorded cannot move a value unnoticed;
//! the first file not moving with telemetry on is the zero observer
//! effect.
//!
//! Regenerate both with:
//!
//! ```text
//! AOS_UPDATE_GOLDEN=1 cargo test --test sim_stats_golden
//! ```

mod run_stats_digest;

use std::sync::OnceLock;

use aos_core::experiment::{run, SystemUnderTest};
use aos_fault::{plan_fault, FaultKind, FaultSpec};
use aos_isa::stream::BufferedOps;
use aos_isa::SafetyConfig;
use aos_ptrauth::PointerLayout;
use aos_sim::{Machine, RunStats};
use aos_workloads::profile::by_name;
use aos_workloads::{TraceGenerator, SPEC2006};
use run_stats_digest::{check_golden, fnv1a, golden_line};

const GOLDEN: &str = "tests/golden/sim_stats_digests.txt";
const TELEMETRY_GOLDEN: &str = "tests/golden/telemetry_digests.txt";
const SCALE: f64 = 0.01;
const FAULT_PROFILE: &str = "hmmer";
const FAULT_SEED: u64 = 1;

fn grid_cell(name: &str, system: SafetyConfig) -> RunStats {
    let profile = by_name(name).expect("known profile");
    run(
        profile,
        &SystemUnderTest::scaled(system, SCALE).with_telemetry(true),
    )
}

fn fault_cell(kind: FaultKind) -> RunStats {
    let profile = by_name(FAULT_PROFILE).expect("known profile");
    let stream = || TraceGenerator::new(profile, SafetyConfig::Aos, SCALE);
    let spec = FaultSpec {
        kind,
        seed: FAULT_SEED,
    };
    let plan = plan_fault(stream(), PointerLayout::default(), spec)
        .expect("fault plans against the instrumented trace");
    let sut = SystemUnderTest::scaled(SafetyConfig::Aos, SCALE).with_telemetry(true);
    let mut faulted = plan.apply(stream());
    let mut stats = Machine::new(sut.machine_config()).run(&mut faulted);
    faulted.record_telemetry(&mut stats.telemetry);
    stats
}

/// Every pinned cell with its label, simulated once and shared by both
/// golden tests.
fn cells() -> &'static [(String, RunStats)] {
    static CELLS: OnceLock<Vec<(String, RunStats)>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let mut cells = Vec::new();
        for profile in SPEC2006 {
            for system in SafetyConfig::ALL {
                let label = format!("{} {system} {SCALE} clean", profile.name);
                cells.push((label, grid_cell(profile.name, system)));
            }
        }
        for kind in FaultKind::ALL {
            let stats = fault_cell(kind);
            assert!(
                stats.violations > 0 && stats.flushes > 0,
                "{kind}: the faulted run must raise and flush"
            );
            cells.push((format!("{FAULT_PROFILE} AOS {SCALE} {kind}"), stats));
        }
        cells
    })
}

#[test]
fn sim_stats_digests_match_golden() {
    let rendered: String = cells()
        .iter()
        .map(|(label, stats)| golden_line(label, stats))
        .collect();
    check_golden(GOLDEN, &rendered, "simulator output");
}

#[test]
fn telemetry_digests_match_golden() {
    let rendered: String = cells()
        .iter()
        .map(|(label, stats)| {
            assert!(stats.telemetry.enabled, "{label}: telemetry was off");
            format!(
                "{label} {:016x}\n",
                fnv1a(&format!("{:?}", stats.telemetry))
            )
        })
        .collect();
    check_golden(TELEMETRY_GOLDEN, &rendered, "telemetry snapshot");
}
