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
//! Regenerate it with:
//!
//! ```text
//! AOS_UPDATE_GOLDEN=1 cargo test --test sim_stats_golden
//! ```

use aos_core::experiment::SystemUnderTest;
use aos_fault::{plan_fault, FaultKind, FaultSpec};
use aos_isa::SafetyConfig;
use aos_ptrauth::PointerLayout;
use aos_sim::{Machine, RunStats};
use aos_workloads::profile::by_name;
use aos_workloads::{TraceGenerator, SPEC2006};

const GOLDEN: &str = "tests/golden/sim_stats_digests.txt";
const SCALE: f64 = 0.01;
const FAULT_PROFILE: &str = "hmmer";
const FAULT_SEED: u64 = 1;

/// The `Debug` text of every simulated field, as `name: value, `
/// pairs in declaration order. The destructure names every field and
/// drops only `telemetry`, so a field added to `RunStats` fails to
/// compile here until it is hashed or deliberately dropped.
macro_rules! simulated_fields {
    ($stats:expr; $($field:ident),* $(,)?) => {{
        let RunStats { $($field,)* telemetry: _ } = $stats;
        let mut text = String::new();
        $(text.push_str(&format!("{}: {:?}, ", stringify!($field), $field));)*
        text
    }};
}

/// FNV-1a over the simulated fields' `Debug` text.
fn digest(stats: &RunStats) -> u64 {
    let text = simulated_fields!(stats;
        cycles, retired_ops, mix, l1d, l1b, l2, traffic, mcu, bwb,
        hbt_resizes, hbt_ways, violations, charged_mispredicts,
        waived_mispredicts, stall_cycles, stalls_rob, stalls_lsq,
        stalls_mcq, lsq_replays, flushes,
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn render(label: &str, stats: &RunStats) -> String {
    format!(
        "{label} {} {} {:016x}\n",
        stats.cycles,
        stats.retired_ops,
        digest(stats)
    )
}

fn grid_cell(name: &str, system: SafetyConfig) -> RunStats {
    let profile = by_name(name).expect("known profile");
    let sut = SystemUnderTest::scaled(system, SCALE);
    Machine::new(sut.machine_config()).run(TraceGenerator::new(profile, system, SCALE))
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
    let sut = SystemUnderTest::scaled(SafetyConfig::Aos, SCALE);
    Machine::new(sut.machine_config()).run(plan.apply(stream()))
}

#[test]
fn sim_stats_digests_match_golden() {
    let mut rendered = String::new();
    for profile in SPEC2006 {
        for system in SafetyConfig::ALL {
            let label = format!("{} {system} {SCALE} clean", profile.name);
            rendered.push_str(&render(&label, &grid_cell(profile.name, system)));
        }
    }
    for kind in FaultKind::ALL {
        let stats = fault_cell(kind);
        assert!(
            stats.violations > 0 && stats.flushes > 0,
            "{kind}: the faulted run must raise and flush"
        );
        let label = format!("{FAULT_PROFILE} AOS {SCALE} {kind}");
        rendered.push_str(&render(&label, &stats));
    }
    if std::env::var_os("AOS_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; regenerate with AOS_UPDATE_GOLDEN=1");
    for (fresh, pinned) in rendered.lines().zip(golden.lines()) {
        assert_eq!(
            fresh, pinned,
            "simulator output drifted from the golden digest"
        );
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "golden covers a different set of cells"
    );
}
