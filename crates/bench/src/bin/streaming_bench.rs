//! Trace-pipeline shape benchmark: the measurable artifact for the
//! streaming and batching refactors. For a handful of workloads it
//! runs the same `(workload, AOS)` simulation three ways —
//!
//! - **materialized**: collect the whole `TraceGenerator` output into
//!   a `Vec<Op>` first, then feed the vector to the machine (the
//!   original pipeline shape);
//! - **streaming**: the generator feeds the machine one op at a time
//!   through a meter (the per-op shape);
//! - **batched**: the generator fills 1024-op struct-of-arrays
//!   batches on its own thread, double-buffered against the machine
//!   ([`run_overlapped`], the campaign's cell body) — generation and
//!   simulation each run long cache-friendly bursts instead of
//!   interleaving per op;
//!
//! — checks all three produce bit-identical `RunStats` (telemetry
//! included, up to the batch counters only the batched path can
//! increment), and writes `BENCH_streaming.json` with ops/sec,
//! sim-cycles/sec and peak buffered trace bytes for each shape. Each
//! shape gets a warmup pass and reports the best of `--reps` timed
//! runs (default 3), so the committed artifact is reproducible on a
//! noisy box.
//!
//! ```text
//! cargo run --release -p aos-bench --bin streaming_bench -- \
//!     --scale 0.02 --out BENCH_streaming.json
//! ```
//!
//! [`run_overlapped`]: aos_core::experiment::overlap::run_overlapped

use std::fmt::Write as _;
use std::time::Instant;

use aos_core::experiment::overlap::run_overlapped;
use aos_core::experiment::SystemUnderTest;
use aos_core::isa::stream::{BufferedOps, OpStream};
use aos_core::isa::{Op, SafetyConfig};
use aos_core::sim::{Machine, RunStats};
use aos_core::workloads::{profile, TraceGenerator};
use aos_util::{Counter, Gauge, TelemetrySnapshot};

const WORKLOADS: [&str; 4] = ["hmmer", "gcc", "mcf", "omnetpp"];

fn arg_value(argv: &[String], flag: &str) -> Option<String> {
    argv.iter()
        .position(|a| a == flag)
        .and_then(|i| argv.get(i + 1))
        .cloned()
}

struct Measurement {
    stats: RunStats,
    trace_ops: u64,
    wall: f64,
    peak_trace_bytes: u64,
}

impl Measurement {
    fn ops_per_sec(&self) -> f64 {
        self.trace_ops as f64 / self.wall.max(1e-12)
    }

    fn sim_cycles_per_sec(&self) -> f64 {
        self.stats.cycles as f64 / self.wall.max(1e-12)
    }

    fn json(&self) -> String {
        format!(
            "{{\"ops_per_sec\": {:.0}, \"sim_cycles_per_sec\": {:.0}, \
             \"peak_trace_bytes\": {}}}",
            self.ops_per_sec(),
            self.sim_cycles_per_sec(),
            self.peak_trace_bytes,
        )
    }
}

/// One warmup pass, then the best wall-clock of `reps` timed passes.
/// The runs are deterministic, so everything except the wall is
/// identical across reps; keeping the minimum isolates the pipeline
/// cost from scheduler noise.
fn best_of(reps: usize, mut run: impl FnMut() -> Measurement) -> Measurement {
    let mut best = run(); // warmup; its wall never wins the min below
    best.wall = f64::MAX;
    for _ in 0..reps.max(1) {
        let m = run();
        if m.wall < best.wall {
            best = m;
        }
    }
    best
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let scale = aos_bench::scale_from_args(argv.iter().cloned());
    let reps: usize = arg_value(&argv, "--reps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let out_path = arg_value(&argv, "--out").unwrap_or_else(|| "BENCH_streaming.json".to_string());
    let op_bytes = std::mem::size_of::<Op>() as u64;
    let batch_ops = aos_core::isa::stream::DEFAULT_BATCH_OPS;

    let mut rows = String::new();
    let mut telemetry = TelemetrySnapshot::default();
    let mut total_cycles = 0u64;
    let (mut str_wall, mut bat_wall) = (0.0f64, 0.0f64);
    println!(
        "{:<10} {:>9} {:>9} {:>13} {:>13} {:>8} {:>10} {:>10}",
        "workload", "ops", "cycles", "str cyc/s", "bat cyc/s", "speedup", "mat peak", "bat peak"
    );
    for (w, name) in WORKLOADS.iter().enumerate() {
        let p = profile::by_name(name).expect("known workload");
        let sut = SystemUnderTest::scaled(SafetyConfig::Aos, scale).with_telemetry(true);

        // Every shape hands the machine's telemetry handle to the
        // generator, as the campaign's cell runners do.
        let generator = |machine: &Machine| {
            TraceGenerator::new(p, SafetyConfig::Aos, scale)
                .with_telemetry(machine.telemetry().clone())
        };

        // Materialized: the whole trace lives in memory at once.
        let mat = best_of(reps, || {
            let start = Instant::now();
            let mut machine = Machine::new(sut.machine_config());
            let trace: Vec<Op> = generator(&machine).collect();
            let stats = machine.run(trace.iter().copied());
            Measurement {
                stats,
                trace_ops: trace.len() as u64,
                wall: start.elapsed().as_secs_f64(),
                peak_trace_bytes: trace.len() as u64 * op_bytes,
            }
        });

        // Streaming: generator feeds the machine one op at a time.
        let str_ = best_of(reps, || {
            let start = Instant::now();
            let mut machine = Machine::new(sut.machine_config());
            let mut stream = generator(&machine).metered();
            let stats = machine.run(&mut stream);
            Measurement {
                stats,
                trace_ops: stream.ops(),
                wall: start.elapsed().as_secs_f64(),
                peak_trace_bytes: stream.peak_buffered_ops() as u64 * op_bytes,
            }
        });

        // Batched: double-buffered generator thread, SoA batches.
        let bat = best_of(reps, || {
            let start = Instant::now();
            let out = run_overlapped(p, &sut);
            Measurement {
                stats: out.stats,
                trace_ops: out.trace_ops,
                wall: start.elapsed().as_secs_f64(),
                peak_trace_bytes: out.peak_trace_bytes,
            }
        });

        assert_eq!(
            mat.stats, str_.stats,
            "{name}: streaming changed the simulation"
        );
        let zeroed = [Counter::BatchOpsRefilled, Counter::BatchFallbackOps];
        assert_eq!(
            bat.stats.without_telemetry(),
            str_.stats.without_telemetry(),
            "{name}: batching changed the simulation"
        );
        assert_eq!(
            bat.stats.telemetry.with_counters_zeroed(&zeroed),
            str_.stats.telemetry.with_counters_zeroed(&zeroed),
            "{name}: batching changed the telemetry snapshot"
        );
        assert_eq!(
            bat.stats.telemetry.counter(Counter::BatchOpsRefilled),
            bat.trace_ops,
            "{name}: every op must arrive through a batch refill"
        );
        assert_eq!(mat.trace_ops, str_.trace_ops, "{name}: op count diverged");
        assert_eq!(str_.trace_ops, bat.trace_ops, "{name}: op count diverged");
        telemetry.merge(&bat.stats.telemetry);
        total_cycles += bat.stats.cycles;
        str_wall += str_.wall;
        bat_wall += bat.wall;

        let speedup = bat.sim_cycles_per_sec() / str_.sim_cycles_per_sec().max(1e-12);
        println!(
            "{:<10} {:>9} {:>9} {:>13.0} {:>13.0} {:>7.2}x {:>10} {:>10}",
            name,
            str_.trace_ops,
            str_.stats.cycles,
            str_.sim_cycles_per_sec(),
            bat.sim_cycles_per_sec(),
            speedup,
            mat.peak_trace_bytes,
            bat.peak_trace_bytes,
        );
        let _ = write!(
            rows,
            "    {{\"workload\": \"{name}\", \"trace_ops\": {}, \"sim_cycles\": {}, \
             \"materialized\": {}, \"streaming\": {}, \"batched\": {}, \
             \"batched_speedup\": {:.3}}}{}\n",
            str_.trace_ops,
            str_.stats.cycles,
            mat.json(),
            str_.json(),
            bat.json(),
            speedup,
            if w + 1 < WORKLOADS.len() { "," } else { "" },
        );
    }

    let agg_str = total_cycles as f64 / str_wall.max(1e-12);
    let agg_bat = total_cycles as f64 / bat_wall.max(1e-12);
    println!(
        "\naggregate sim-cycles/sec: streaming {:.0}, batched {:.0} ({:.2}x)",
        agg_str,
        agg_bat,
        agg_bat / agg_str.max(1e-12)
    );
    println!(
        "telemetry: bwb hit rate {:.2}% ({} hits / {} lookups), \
         mcq replays {}, forwards {}, peak occupancy {}, batch refills {}",
        telemetry.bwb_hit_rate() * 100.0,
        telemetry.counter(Counter::BwbHits),
        telemetry.counter(Counter::BwbHits) + telemetry.counter(Counter::BwbMisses),
        telemetry.counter(Counter::McqReplays),
        telemetry.counter(Counter::McqForwards),
        telemetry.gauge(Gauge::McqPeakOccupancy),
        telemetry.counter(Counter::BatchOpsRefilled),
    );

    let json = format!(
        "{{\n  \"schema\": \"aos-streaming-bench/v2\",\n  \"scale\": {scale},\n  \
         \"op_bytes\": {op_bytes},\n  \"batch_ops\": {batch_ops},\n  \"reps\": {reps},\n  \
         \"aggregate_sim_cycles_per_sec\": {{\"streaming\": {agg_str:.0}, \
         \"batched\": {agg_bat:.0}}},\n  \"results\": [\n{rows}  ]\n}}\n"
    );
    match std::fs::write(&out_path, json) {
        Ok(()) => println!("\nreport written to {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
