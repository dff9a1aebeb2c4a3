//! The canonical, dependency-free throughput artifact: runs a scaled
//! Fig. 14 campaign (`SPEC2006 × {Baseline..PA+AOS}`) through the
//! parallel campaign runner and writes `BENCH_campaign.json`
//! (schema `aos-campaign-report/v7`: campaign wall-clock, cells/sec,
//! cell-health counters, per-cell status, sim-cycles/sec, per-cell
//! telemetry counter columns, and the streaming-pipeline columns
//! `trace_ops`, `ops_per_sec` and
//! `peak_trace_bytes`). Because every worker streams its generator
//! straight into the machine, `--scale` can be raised ~10× over the
//! old materialized default without memory growth: peak trace bytes
//! stay `O(window)` per cell.
//!
//! ```text
//! cargo run --release -p aos-bench --bin campaign_smoke -- \
//!     --scale 0.01 --threads 8 --out BENCH_campaign.json
//! ```
//!
//! `--threads` defaults to `AOS_CAMPAIGN_THREADS`, then to the
//! machine's available parallelism.

use aos_core::experiment::campaign::{
    matrix, run_campaign_with_progress, CampaignOptions, Progress,
};
use aos_core::experiment::SystemUnderTest;
use aos_core::isa::SafetyConfig;
use aos_core::workloads::profile::SPEC2006;
use aos_util::{Counter, Gauge};

fn arg_value(argv: &[String], flag: &str) -> Option<String> {
    argv.iter()
        .position(|a| a == flag)
        .and_then(|i| argv.get(i + 1))
        .cloned()
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let scale = aos_bench::scale_from_args(argv.iter().cloned());
    let threads = arg_value(&argv, "--threads").and_then(|s| s.parse().ok());
    let out_path = arg_value(&argv, "--out").unwrap_or_else(|| "BENCH_campaign.json".to_string());

    let cells = matrix(
        SPEC2006.iter().copied(),
        SafetyConfig::ALL.map(|s| SystemUnderTest::scaled(s, scale).with_telemetry(true)),
    );
    println!(
        "campaign: {} cells (SPEC2006 x 5 systems) at scale {scale}",
        cells.len()
    );
    let report = run_campaign_with_progress(
        &cells,
        &CampaignOptions {
            threads,
            ..CampaignOptions::default()
        },
        &|p: Progress<'_>| {
            println!(
                "  [{:>3}/{}] {:<24} {:>8.2}s",
                p.completed,
                p.total,
                p.cell.label(),
                p.wall.as_secs_f64()
            );
        },
    );

    println!(
        "\n{} cells on {} threads in {:.2}s ({:.2} cells/sec, {:.0} sim-cycles/sec aggregate)",
        report.results.len(),
        report.threads,
        report.wall.as_secs_f64(),
        report.cells_per_sec(),
        report.total_sim_cycles() as f64 / report.wall.as_secs_f64().max(1e-12),
    );
    let total_ops: u64 = report.results.iter().map(|r| r.trace_ops()).sum();
    let peak_trace = report
        .results
        .iter()
        .map(|r| r.peak_trace_bytes())
        .max()
        .unwrap_or(0);
    println!(
        "streaming: {total_ops} trace ops ({:.0} ops/sec aggregate), \
         peak trace buffer {peak_trace} bytes per cell",
        total_ops as f64 / report.wall.as_secs_f64().max(1e-12),
    );
    let telemetry = report.telemetry();
    println!(
        "telemetry: bwb hit rate {:.2}%, mcq replays {}, forwards {}, \
         peak occupancy {}, hbt migration rows {}",
        telemetry.bwb_hit_rate() * 100.0,
        telemetry.counter(Counter::McqReplays),
        telemetry.counter(Counter::McqForwards),
        telemetry.gauge(Gauge::McqPeakOccupancy),
        telemetry.counter(Counter::HbtMigrationRows),
    );
    // The committed BENCH_campaign.json is only comparable across PRs
    // if the schema the runner renders is the one this artifact
    // advertises — catch a silent schema drift at generation time,
    // not at review time.
    assert!(
        report.to_json().contains("\"schema\": \"aos-campaign-report/v7\""),
        "campaign report schema drifted from aos-campaign-report/v7; \
         bump this assert and regenerate the committed artifact together"
    );
    match report.write_json(&out_path) {
        Ok(()) => println!("report written to {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
