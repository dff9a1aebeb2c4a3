//! Streaming-vs-materialized equivalence: the proof obligation of the
//! streaming trace pipeline. Feeding a generator straight into the
//! machine (never materializing the trace) must be *bit-identical* to
//! the old collect-then-run path — same cycles, same instruction-mix
//! counters, same cache/traffic statistics, same fault verdicts — and
//! the fault planners must run in `O(window)` memory however long the
//! trace is.

use aos_core::experiment::{run, run_metered, SystemUnderTest};
use aos_core::sim::Machine;
use aos_fault::{plan_fault, FaultKind, FaultSpec, UAF_DELAY_OPS};
use aos_isa::stream::{BufferedOps, OpStream};
use aos_isa::{Op, SafetyConfig};
use aos_ptrauth::PointerLayout;
use aos_workloads::profile::by_name;
use aos_workloads::TraceGenerator;

const PROFILES: [&str; 3] = ["hmmer", "gcc", "omnetpp"];
const SYSTEMS: [SafetyConfig; 2] = [SafetyConfig::Baseline, SafetyConfig::Aos];
const SCALE: f64 = 0.004;

/// For 3 profiles × {Baseline, Aos}: the streamed run and the
/// pre-collected run produce bit-identical `RunStats` (the derived
/// `PartialEq` covers cycles, retired ops, the full `InstMix`, cache,
/// MCU, BWB and traffic counters).
#[test]
fn streaming_and_materialized_runs_are_bit_identical() {
    for name in PROFILES {
        let profile = by_name(name).unwrap();
        for system in SYSTEMS {
            let sut = SystemUnderTest::scaled(system, SCALE);

            // Materialized: collect first, then simulate the Vec.
            let trace: Vec<Op> = TraceGenerator::new(profile, system, SCALE).collect();
            let materialized = Machine::new(sut.machine_config()).run(trace);

            // Streaming: generator straight into the machine.
            let streamed = run(profile, &sut);
            assert_eq!(materialized, streamed, "{name}/{system}");

            // And the metered path is equally transparent.
            let metered = run_metered(profile, &sut);
            assert_eq!(materialized, metered.stats, "{name}/{system} metered");
            assert!(metered.trace_ops > 0);
        }
    }
}

/// Instruction-mix counters specifically: identical per op class, not
/// just in aggregate.
#[test]
fn instruction_mix_counters_survive_streaming() {
    let profile = by_name("hmmer").unwrap();
    let sut = SystemUnderTest::scaled(SafetyConfig::Aos, SCALE);
    let trace: Vec<Op> = TraceGenerator::new(profile, SafetyConfig::Aos, SCALE).collect();
    let materialized = Machine::new(sut.machine_config()).run(trace).mix;
    let streamed = run(profile, &sut).mix;
    assert_eq!(materialized.unsigned_loads, streamed.unsigned_loads);
    assert_eq!(materialized.unsigned_stores, streamed.unsigned_stores);
    assert_eq!(materialized.signed_loads, streamed.signed_loads);
    assert_eq!(materialized.signed_stores, streamed.signed_stores);
    assert_eq!(materialized.bnd_ops, streamed.bnd_ops);
    assert_eq!(materialized.pac_ops, streamed.pac_ops);
}

/// Every fault class: planning the generator stream picks the same
/// plan as planning the materialized trace, the two faulted op streams
/// are identical, and the streamed faulted run raises the same
/// violations as a replay of the materialized faulted trace, on both
/// the protected and the unprotected machine.
#[test]
fn fault_matrix_verdicts_survive_streaming() {
    let profile = by_name("hmmer").unwrap();
    let layout = PointerLayout::default();
    let stream = || TraceGenerator::new(profile, SafetyConfig::Aos, SCALE);
    let trace: Vec<Op> = stream().collect();
    for kind in FaultKind::ALL {
        for seed in [1u64, 7] {
            let spec = FaultSpec { kind, seed };

            // Identical plans and faulted streams.
            let plan = plan_fault(stream(), layout, spec).unwrap();
            let materialized_plan = plan_fault(trace.iter().copied(), layout, spec).unwrap();
            assert_eq!(plan, materialized_plan, "{kind} seed {seed}");
            let streamed: Vec<Op> = plan.apply(stream()).collect();
            let materialized: Vec<Op> = plan.apply(trace.iter().copied()).collect();
            assert_eq!(streamed, materialized, "{kind} seed {seed}");

            // Identical violation counts between the streamed run and
            // a replay of the materialized faulted trace.
            for system in SYSTEMS {
                let sut = SystemUnderTest::scaled(system, SCALE);
                let faulty = Machine::new(sut.machine_config()).run(plan.apply(stream()));
                let replayed = Machine::new(sut.machine_config()).run(materialized.iter().copied());
                assert_eq!(
                    faulty.violations, replayed.violations,
                    "{kind} seed {seed} on {system}"
                );
            }
        }
    }
}

/// The UAF planner's lookahead buffer stays bounded by the retirement
/// window no matter how long the scanned trace is — the `O(window)`
/// memory claim, measured.
#[test]
fn uaf_window_adapter_memory_is_bounded() {
    let profile = by_name("gcc").unwrap();
    let spec = FaultSpec {
        kind: FaultKind::UseAfterFree,
        seed: 42,
    };
    // Scale up: the scanned trace is thousands of windows long.
    let plan = plan_fault(
        TraceGenerator::new(profile, SafetyConfig::Aos, 0.02),
        PointerLayout::default(),
        spec,
    )
    .unwrap();
    assert!(
        plan.scanned_ops > 16 * (UAF_DELAY_OPS + 1),
        "trace only {} ops — not long enough to exercise the bound",
        plan.scanned_ops
    );
    assert!(
        plan.peak_buffered_ops <= UAF_DELAY_OPS + 1,
        "planner buffered {} ops over a {}-op window",
        plan.peak_buffered_ops,
        UAF_DELAY_OPS
    );
}

/// The whole streaming pipeline — generator, splice adapter, meter —
/// buffers a bounded number of ops end to end.
#[test]
fn full_streaming_pipeline_is_o_window() {
    let profile = by_name("hmmer").unwrap();
    let layout = PointerLayout::default();
    let spec = FaultSpec {
        kind: FaultKind::OverflowWrite,
        seed: 1,
    };
    let plan = plan_fault(
        TraceGenerator::new(profile, SafetyConfig::Aos, SCALE),
        layout,
        spec,
    )
    .unwrap();
    let mut stream = plan
        .apply(TraceGenerator::new(profile, SafetyConfig::Aos, SCALE))
        .metered();
    let mut total = 0u64;
    for _op in &mut stream {
        total += 1;
    }
    assert_eq!(total, stream.ops());
    assert!(total > 10_000, "trace long enough to mean something");
    assert!(
        stream.peak_buffered_ops() < 64,
        "pipeline buffered {} ops for a {total}-op trace",
        stream.peak_buffered_ops()
    );
}
