//! Telemetry differential tests: the two proof obligations of the
//! zero-cost telemetry layer.
//!
//! 1. **Determinism across pipeline shapes** — a streaming run and a
//!    materialized run of the same seed produce *bit-identical*
//!    telemetry snapshots: the counters observe the simulation, not
//!    the plumbing the trace arrives through.
//! 2. **Observer effect = 0** — a run with telemetry disabled produces
//!    a `RunStats` bit-identical (telemetry snapshot aside) to one
//!    with telemetry enabled: recording the counters never changes
//!    what the machine does.

use aos_core::experiment::{run, run_metered, SystemUnderTest};
use aos_core::sim::{Machine, RunStats};
use aos_fault::{plan_fault, FaultKind, FaultSpec};
use aos_isa::{Op, SafetyConfig};
use aos_ptrauth::PointerLayout;
use aos_util::{Counter, Gauge};
use aos_workloads::profile::by_name;
use aos_workloads::TraceGenerator;

const PROFILES: [&str; 4] = ["hmmer", "gcc", "mcf", "omnetpp"];
const SCALE: f64 = 0.004;

/// Streaming vs materialized, telemetry on: the full `RunStats`
/// (snapshot included) and the snapshot itself are bit-identical.
#[test]
fn streaming_and_materialized_telemetry_snapshots_are_bit_identical() {
    for name in PROFILES {
        let profile = by_name(name).unwrap();
        let sut = SystemUnderTest::scaled(SafetyConfig::Aos, SCALE).with_telemetry(true);

        // The cell runners hand the machine's handle to the generator;
        // the materialized trace records into it the same way.
        let mut machine = Machine::new(sut.machine_config());
        let trace: Vec<Op> = TraceGenerator::new(profile, SafetyConfig::Aos, SCALE)
            .with_telemetry(machine.telemetry().clone())
            .collect();
        let trace_ops = trace.len() as u64;
        let materialized = machine.run(trace);
        let streamed = run(profile, &sut);

        assert_eq!(materialized, streamed, "{name}: RunStats diverged");
        assert_eq!(
            materialized.telemetry, streamed.telemetry,
            "{name}: telemetry snapshot diverged"
        );
        assert!(streamed.telemetry.enabled);
        assert!(
            !streamed.telemetry.is_empty(),
            "{name}: nothing was counted"
        );

        // The metered campaign path is equally transparent and meters
        // every op.
        let metered = run_metered(profile, &sut);
        assert_eq!(
            materialized, metered.stats,
            "{name}: metered RunStats diverged"
        );
        assert_eq!(
            metered.trace_ops, trace_ops,
            "{name}: metered op count diverged"
        );
    }
}

/// Two runs of the same seed agree counter for counter — the snapshot
/// is a pure function of `(workload, system, scale)`.
#[test]
fn telemetry_snapshots_are_deterministic_across_runs() {
    let profile = by_name("hmmer").unwrap();
    let sut = SystemUnderTest::scaled(SafetyConfig::Aos, SCALE).with_telemetry(true);
    let a = run(profile, &sut).telemetry;
    let b = run(profile, &sut).telemetry;
    assert_eq!(a, b);
    assert_eq!(
        a.counter(Counter::McqEnqueued),
        b.counter(Counter::McqEnqueued)
    );
    assert_eq!(
        a.gauge(Gauge::McqPeakOccupancy),
        b.gauge(Gauge::McqPeakOccupancy)
    );
}

/// The observer-effect differential: with telemetry off the machine
/// simulates the *exact* same run — every cycle, cache, MCU, BWB and
/// violation statistic matches the telemetry-enabled run once the
/// snapshot itself is projected out.
#[test]
fn disabled_telemetry_has_zero_observer_effect() {
    for name in PROFILES {
        let profile = by_name(name).unwrap();
        for system in [SafetyConfig::Baseline, SafetyConfig::Aos] {
            let sut = SystemUnderTest::scaled(system, SCALE);
            let disabled = run(profile, &sut.with_telemetry(false));
            let enabled = run(profile, &sut.with_telemetry(true));

            assert_eq!(
                enabled.without_telemetry(),
                disabled,
                "{name}/{system}: telemetry changed the simulation"
            );
            assert!(!disabled.telemetry.enabled);
            assert!(
                disabled.telemetry.is_empty(),
                "{name}/{system}: a disabled handle recorded something"
            );
        }
    }
}

/// Every projected counter equals the plain stat it is derived from.
/// Returns the counters the cell saw nonzero.
fn assert_projected(stats: &RunStats, cell: &str) -> Vec<&'static str> {
    let t = &stats.telemetry;
    let (mcu, bwb) = (&stats.mcu, &stats.bwb);
    let pairs = [
        (Counter::McqEnqueued, mcu.issued),
        (Counter::McqReplays, mcu.replays),
        (Counter::McqForwards, mcu.forwards),
        (Counter::McqExceptions, mcu.exceptions),
        (Counter::McqRetired, mcu.retired),
        (Counter::BwbHits, bwb.hits),
        (Counter::BwbMisses, bwb.misses),
        (Counter::BwbUpdates, bwb.updates),
        (Counter::BwbEvictions, bwb.evictions),
        (Counter::HbtHits, mcu.completed_checks),
        (Counter::HbtResizes, stats.hbt_resizes),
        (Counter::SimViolations, stats.violations),
        (Counter::SimStallRob, stats.stalls_rob),
        (Counter::SimStallLsq, stats.stalls_lsq),
        (Counter::SimStallMcq, stats.stalls_mcq),
        (Counter::SimReplays, stats.lsq_replays),
        (Counter::SimFlushes, stats.flushes),
    ];
    for (counter, stat) in pairs {
        assert_eq!(t.counter(counter), stat, "{cell}: {}", counter.name());
    }
    assert_eq!(
        t.gauge(Gauge::McqPeakOccupancy),
        mcu.peak_occupancy,
        "{cell}"
    );
    assert_eq!(t.gauge(Gauge::HbtWays), stats.hbt_ways as u64, "{cell}");
    let rate = t.bwb_hit_rate() - bwb.hit_rate();
    assert!(
        rate.abs() < 1e-12,
        "{cell}: hit-rate ledgers diverged by {rate}"
    );
    Counter::ALL
        .into_iter()
        .filter(|&c| t.counter(c) > 0)
        .map(Counter::name)
        .collect()
}

/// Runs hmmer with one injected fault through a 16-entry ROB and a
/// 4-entry MCQ, so the stall and flush counters fire too.
fn faulted_cell(sut: &SystemUnderTest, kind: FaultKind) -> RunStats {
    let hmmer = by_name("hmmer").unwrap();
    let stream = || TraceGenerator::new(hmmer, SafetyConfig::Aos, SCALE);
    let plan = plan_fault(
        stream(),
        PointerLayout::default(),
        FaultSpec { kind, seed: 1 },
    )
    .unwrap();
    let mut config = sut.machine_config();
    config.mcu.mcq_entries = 4;
    config.rob_entries = 16;
    Machine::new(config).run(plan.apply(stream()))
}

/// The snapshot agrees with the statistics the machine already kept:
/// every MCQ, BWB and run-loop counter is projected from its
/// `RunStats` field, checked on clean cells and on a use-after-free and
/// a double-free run, so that every `mcq_*`, `bwb_*`, `sim_*` and
/// `hbt_*` counter is nonzero somewhere. A
/// machine run twice reports cumulative stats, and its second
/// snapshot projects exactly those: nothing is counted twice, the
/// generator's counters included.
#[test]
fn telemetry_cross_checks_run_stats() {
    let hmmer = by_name("hmmer").unwrap();
    let sut = SystemUnderTest::scaled(SafetyConfig::Aos, SCALE).with_telemetry(true);
    let stats = run(hmmer, &sut);
    let mut nonzero = assert_projected(&stats, "hmmer");
    nonzero.extend(assert_projected(&run(by_name("mcf").unwrap(), &sut), "mcf"));

    for kind in [FaultKind::UseAfterFree, FaultKind::DoubleFree] {
        let faulted = faulted_cell(&sut, kind);
        nonzero.extend(assert_projected(&faulted, &format!("hmmer, {kind}")));
    }
    // No resize happens at this scale; the resize tests in
    // `sim/src/machine.rs` pin these two.
    let exempt = ["hbt_resizes", "hbt_migration_rows"];
    for counter in Counter::ALL {
        let name = counter.name();
        let projected = ["mcq_", "bwb_", "sim_", "hbt_"]
            .iter()
            .any(|p| name.starts_with(p));
        assert!(
            !projected || exempt.contains(&name) || nonzero.contains(&name),
            "{name} stayed zero on every cross-checked cell"
        );
    }

    let mut machine = Machine::new(sut.machine_config());
    let handle = machine.telemetry().clone();
    let trace =
        || TraceGenerator::new(hmmer, SafetyConfig::Aos, SCALE).with_telemetry(handle.clone());
    let first = machine.run(trace());
    let second = machine.run(trace());
    assert_eq!(first, stats, "a fresh machine's first run is the cell");
    assert_projected(&second, "hmmer, second run");
    for counter in [Counter::PtrSigns, Counter::HeapAllocs, Counter::McqEnqueued] {
        assert_eq!(
            second.telemetry.counter(counter),
            2 * first.telemetry.counter(counter),
            "{} over two identical traces",
            counter.name()
        );
    }
}
