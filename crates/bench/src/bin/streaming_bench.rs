//! Trace-pipeline shape benchmark: the measurable artifact for the
//! streaming refactor. For a handful of workloads it runs the same
//! `(workload, AOS)` simulation two ways —
//!
//! - **materialized**: collect the whole `TraceGenerator` output into
//!   a `Vec<Op>` first, then feed the vector to the machine (the
//!   original pipeline shape);
//! - **streaming**: the generator feeds the machine one op at a time
//!   through a meter ([`run_metered`], the campaign's cell body);
//!
//! — checks both produce bit-identical `RunStats` (telemetry
//! included), and writes `BENCH_streaming.json` with the host's
//! thread count and, for each shape, ops/sec, sim-cycles/sec and peak
//! buffered trace bytes. Each
//! shape gets a warmup pass and reports the best of `--reps` timed
//! runs (default 3), so the committed artifact is reproducible on a
//! noisy box.
//!
//! ```text
//! cargo run --release -p aos-bench --bin streaming_bench -- \
//!     --scale 0.02 --out BENCH_streaming.json
//! ```
//!
//! [`run_metered`]: aos_core::experiment::run_metered

use std::fmt::Write as _;
use std::time::Instant;

use aos_core::experiment::{run_metered, SystemUnderTest};
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
    // Recorded so a committed artifact says what host it came from.
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut rows = String::new();
    let mut telemetry = TelemetrySnapshot::default();
    let mut total_cycles = 0u64;
    let (mut mat_wall, mut str_wall) = (0.0f64, 0.0f64);
    println!(
        "{:<10} {:>9} {:>9} {:>13} {:>13} {:>8} {:>10} {:>10}",
        "workload", "ops", "cycles", "mat cyc/s", "str cyc/s", "speedup", "mat peak", "str peak"
    );
    for (w, name) in WORKLOADS.iter().enumerate() {
        let p = profile::by_name(name).expect("known workload");
        let sut = SystemUnderTest::scaled(SafetyConfig::Aos, scale).with_telemetry(true);

        // Materialized: the whole trace lives in memory at once. The
        // generator records into the machine's telemetry handle, as
        // the campaign's cell body does.
        let mat = best_of(reps, || {
            let start = Instant::now();
            let mut machine = Machine::new(sut.machine_config());
            let trace: Vec<Op> = TraceGenerator::new(p, SafetyConfig::Aos, scale)
                .with_telemetry(machine.telemetry().clone())
                .collect();
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
            let out = run_metered(p, &sut);
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
        assert_eq!(mat.trace_ops, str_.trace_ops, "{name}: op count diverged");
        telemetry.merge(&str_.stats.telemetry);
        total_cycles += str_.stats.cycles;
        mat_wall += mat.wall;
        str_wall += str_.wall;

        let speedup = str_.sim_cycles_per_sec() / mat.sim_cycles_per_sec().max(1e-12);
        println!(
            "{:<10} {:>9} {:>9} {:>13.0} {:>13.0} {:>7.2}x {:>10} {:>10}",
            name,
            str_.trace_ops,
            str_.stats.cycles,
            mat.sim_cycles_per_sec(),
            str_.sim_cycles_per_sec(),
            speedup,
            mat.peak_trace_bytes,
            str_.peak_trace_bytes,
        );
        let _ = write!(
            rows,
            "    {{\"workload\": \"{name}\", \"trace_ops\": {}, \"sim_cycles\": {}, \
             \"materialized\": {}, \"streaming\": {}, \"streaming_speedup\": {:.3}}}{}\n",
            str_.trace_ops,
            str_.stats.cycles,
            mat.json(),
            str_.json(),
            speedup,
            if w + 1 < WORKLOADS.len() { "," } else { "" },
        );
    }

    let agg_mat = total_cycles as f64 / mat_wall.max(1e-12);
    let agg_str = total_cycles as f64 / str_wall.max(1e-12);
    println!(
        "\naggregate sim-cycles/sec: materialized {:.0}, streaming {:.0} ({:.2}x)",
        agg_mat,
        agg_str,
        agg_str / agg_mat.max(1e-12)
    );
    println!(
        "telemetry: bwb hit rate {:.2}% ({} hits / {} lookups), \
         mcq replays {}, forwards {}, peak occupancy {}",
        telemetry.bwb_hit_rate() * 100.0,
        telemetry.counter(Counter::BwbHits),
        telemetry.counter(Counter::BwbHits) + telemetry.counter(Counter::BwbMisses),
        telemetry.counter(Counter::McqReplays),
        telemetry.counter(Counter::McqForwards),
        telemetry.gauge(Gauge::McqPeakOccupancy),
    );

    let json = format!(
        "{{\n  \"schema\": \"aos-streaming-bench/v3\",\n  \"scale\": {scale},\n  \
         \"host_threads\": {host_threads},\n  \"op_bytes\": {op_bytes},\n  \"reps\": {reps},\n  \
         \"aggregate_sim_cycles_per_sec\": {{\"materialized\": {agg_mat:.0}, \
         \"streaming\": {agg_str:.0}}},\n  \"results\": [\n{rows}  ]\n}}\n"
    );
    match std::fs::write(&out_path, json) {
        Ok(()) => println!("\nreport written to {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
