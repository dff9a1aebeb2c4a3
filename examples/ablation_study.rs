//! Design-choice ablations in simulated cycles (DESIGN.md §5): BWB
//! size, initial HBT associativity, bounds forwarding, and PAC width.
//!
//! ```text
//! cargo run --release --example ablation_study -- 0.05
//! ```

use aos_core::experiment::SystemUnderTest;
use aos_core::hbt::HbtConfig;
use aos_core::isa::SafetyConfig;
use aos_core::ptrauth::PointerLayout;
use aos_core::sim::Machine;
use aos_core::workloads::{profile, TraceGenerator};

fn cycles_with(
    profile_name: &str,
    scale: f64,
    tweak: impl Fn(&mut aos_core::sim::MachineConfig),
) -> (u64, f64) {
    let p = profile::by_name(profile_name).expect("known workload");
    let mut cfg = SystemUnderTest::scaled(SafetyConfig::Aos, scale).machine_config();
    tweak(&mut cfg);
    let trace = TraceGenerator::new(p, SafetyConfig::Aos, scale);
    let mut machine = Machine::new(cfg);
    let stats = machine.run(trace);
    (stats.cycles, stats.bwb.hit_rate())
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    let workload = "gcc";
    println!("== Ablation study on {workload} @ scale {scale} (AOS config) ==\n");

    println!("-- BWB size (Table IV uses 64 entries) --");
    for entries in [16usize, 32, 64, 128, 256] {
        let (cycles, hit) = cycles_with(workload, scale, |c| c.mcu.bwb_entries = entries);
        println!(
            "{entries:>4} entries: {cycles:>10} cycles, {:.1}% hit rate",
            hit * 100.0
        );
    }

    println!("\n-- initial HBT associativity (paper chose 1 empirically) --");
    for ways in [1u32, 2, 4] {
        let (cycles, _) = cycles_with(workload, scale, |c| {
            c.hbt = HbtConfig {
                initial_ways: ways,
                ..c.hbt
            }
        });
        println!("{ways:>4} way(s):  {cycles:>10} cycles");
    }

    println!("\n-- bounds forwarding (§V-F2) --");
    for forwarding in [false, true] {
        let (cycles, _) = cycles_with(workload, scale, |c| c.mcu.bounds_forwarding = forwarding);
        println!("{:>5}:      {cycles:>10} cycles", forwarding);
    }

    println!("\n-- PAC width (11..=16 bits; smaller PAC = more collisions) --");
    for pac in [11u32, 12, 14, 16] {
        let (cycles, _) = cycles_with(workload, scale, |c| {
            c.layout = PointerLayout::new(46_u32.min(62 - pac), pac);
            c.hbt = HbtConfig {
                pac_size: pac,
                ..c.hbt
            };
        });
        println!("{pac:>4} bits:   {cycles:>10} cycles");
    }
}
