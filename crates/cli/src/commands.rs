//! The CLI subcommands.

use aos_bench::reports;
use aos_core::experiment::campaign::{matrix, run_campaign, CampaignOptions};
use aos_core::experiment::{run as run_experiment, SystemUnderTest};
use aos_core::isa::SafetyConfig;
use aos_core::security;
use aos_core::sim::{Machine, RunStats, SimConfig};
use aos_core::workloads::collisions;
use aos_core::workloads::microbench::pac_distribution;
use aos_core::workloads::profile::{self, REAL_WORLD, SPEC2006};
use aos_fault::campaign::FaultCampaignConfig;
use aos_fault::{fault_sweep, plan_fault, run_fault_campaign, FaultKind, FaultSpec, Trial};
use aos_lint::{lint_stream_metered, MatrixReport, Policy};
use aos_ptrauth::PointerLayout;
use aos_util::json::{Json, Layout};
use aos_util::{Counter, Gauge, Telemetry, TelemetrySnapshot};
use aos_workloads::TraceGenerator;

use std::path::Path;
use std::time::Duration;

use crate::args::{scale_or, Parsed};

/// Failure classes, mapped to process exit codes by `main` (the
/// contract `usage()` documents): a command that ran its gate and
/// found real findings exits 1; bad flags, bad input or an execution
/// error exit 2; success is 0.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// A strict gate (`aos lint`, `aos faults --strict true`, `aos
    /// repro --check`) found findings — the run itself worked (exit 1).
    Findings(String),
    /// Unusable invocation or a failure to execute (exit 2).
    Usage(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Usage(message)
    }
}

/// `args::scale` with its typed error flattened into the CLI's
/// string-error convention.
fn scale(parsed: &Parsed) -> Result<f64, String> {
    crate::args::scale(parsed).map_err(|e| e.to_string())
}

/// The CLI's boolean-flag convention: present (and not literally
/// `false`) means on. Used by `--json` and `--telemetry`.
fn bool_flag(parsed: &Parsed, name: &str) -> bool {
    parsed.flag(name).is_some_and(|v| v != "false")
}

/// The usage text.
pub fn usage() -> String {
    "\
aos — the AOS (MICRO 2020) reproduction

USAGE:
  aos attacks                               stage the §VII attack gallery
  aos run <workload> [--system <s>] [--scale <f>] [--json]
         [--telemetry true]                 run one workload on one system
  aos compare <workload> [--scale <f>] [--threads <n>] [--telemetry true]
                                            all five systems, normalized
  aos stats [--workload <w>] [--system <s>] [--scale <f>]
            [--threads <n>] [--json true]
                                            run a small telemetry-enabled
                                            campaign and print the merged
                                            pipeline counters (BWB hit
                                            rate, MCQ occupancy/replays,
                                            HBT migration) as a table or
                                            JSON
  aos campaign [--suite spec2006|realworld|all] [--scale <f>]
               [--threads <n>] [--out <path>]
                                            run the full workload x system
                                            matrix in parallel, write a
                                            JSON report
  aos ablate [--workload <w>] [--system aos|pa+aos] [--scale <f>]
             [--mcq <n1,n2,..>] [--bwb <n1,n2,..>]
             [--json true] [--out <path>]
                                            sweep the MCU geometry (MCQ
                                            depth x BWB entries, each
                                            1-4096) on the
                                            stage-structured core,
                                            normalized to the Table IV
                                            point; any violation on the
                                            benign sweep exits 1
  aos faults [--workload <w>] [--scale <f>] [--seeds <n>]
             [--kinds <k1,k2,..>] [--policy <p|all>] [--threads <n>]
             [--out <path>] [--strict true] [--telemetry true]
                                            fault-injection sweep: inject
                                            seeded overflow/underflow/UAF/
                                            double-free/PAC/AHC faults,
                                            verify AOS detects what the
                                            Baseline misses; --strict fails
                                            unless detection is 100% with
                                            zero false positives and every
                                            requested static policy lands
                                            on its own pinned rule table
  aos fuzz [--workload <w>] [--scale <f>] [--seed <n>] [--budget <n>]
           [--max-chain <n>] [--coverage-guided true]
           [--corpus-out <path>] [--out <path>]
           [--json true] [--telemetry true] [--replay-corpus <path>]
                                            adversarial scenario engine:
                                            generate seeded multi-step
                                            attack chains (base injectors +
                                            composite primitives), replay
                                            each through all four static
                                            policies and the dynamic oracle
                                            on all five systems, and flag
                                            any verdict outside the pinned
                                            static/dynamic split; findings
                                            exit 1 and bank to --corpus-out;
                                            --coverage-guided steers the
                                            chain scheduler toward streams
                                            lighting new coverage points;
                                            --replay-corpus re-checks a
                                            banked corpus's verdicts instead
  aos lint [--workload <w>] [--system <s>] [--scale <f>]
           [--fault <kind>] [--seed <n>]
           [--json true] [--strict false] [--telemetry true]
                                            statically verify the generated
                                            op stream against the Fig. 7
                                            instrumentation protocol (no
                                            machine run); --fault lints a
                                            seeded faulted stream instead;
                                            strict by default — any finding
                                            exits 1; the other policies'
                                            scans are aos matrix
  aos matrix [--workload <w>] [--scale <f>] [--seeds <n>]
             [--policy <p|all>] [--kinds <k1,k2,..>] [--json true]
             [--out <path>] [--telemetry true]
                                            cross-paper detection matrix:
                                            a clean reference row plus every
                                            fault kind x seed, scanned once
                                            through every requested static
                                            policy (default all four) in a
                                            single streaming pass per trace;
                                            emits aos-lint-matrix/v1; any
                                            policy flagging the clean trace
                                            exits 1
  aos table <1|2|3|4> [--scale <f>]         reproduce a paper table
  aos fig <11|14|15|16|17|18> [--scale <f>] reproduce a paper figure
  aos repro [--scale <f>] (--out <dir> | --check <dir>)
                                            render every results/ file
                                            from one shared campaign and
                                            write them to --out, or diff
                                            them byte for byte against
                                            --check (any difference or
                                            missing file exits 1)
  aos pac [--allocations <n>] [--bits <b>] [--live <n>]
                                            Fig. 11 microbenchmark + §VI
                                            collision study
  aos serve [--socket <path>] [--queue <n>] [--workers <n>]
            [--timeout-ms <n>] [--retry-after-ms <n>]
            [--test-jobs true] [--telemetry true]
                                            long-running job service:
                                            newline-delimited JSON
                                            (aos-serve/v2) on stdin/stdout,
                                            or a Unix socket with --socket;
                                            bounded queue (rejects answer
                                            retry_after_ms), each job runs
                                            once under a per-job timeout,
                                            panics isolated per job,
                                            drains on shutdown/EOF
  aos corpus record --out <path> --workloads <w1,w2,..>
                    [--systems <s1,s2,..>] [--scale <f>]
                                            record a workload x system grid
                                            into a CRC-checked trace corpus
  aos corpus replay <path> --entry <name> [--mode sim|lint]
                                            replay one recorded entry
                                            bit-identically (CRC-failing
                                            blocks quarantine, exit 1)
  aos corpus verify <path>                  CRC-verify every entry; any
                                            quarantined entry exits 1
  aos params                                the Table IV machine parameters
  aos workloads                             list the calibrated workloads

SYSTEMS: baseline, watchdog, pa, aos, pa+aos
POLICIES: aos, cryptsan, pacsan, pactight — a comma list or 'all'
         (static abstract models; aos is the paper's own verifier)
THREADS: --threads beats the AOS_CAMPAIGN_THREADS env var, which beats
         the machine's available parallelism; results are identical at
         any thread count.
EXIT CODES: 0 = success / gate clean; 1 = a strict gate found real
         findings (aos lint findings, aos faults --strict true
         failures, aos repro --check differences); 2 = unusable
         invocation (an unknown flag included) or execution error.
"
    .to_string()
}

/// Parses a `--policy <name|all>` flag (comma lists allowed) into a
/// static-policy set; absent means AOS alone — the paper's own
/// verifier.
fn parse_policies(parsed: &Parsed) -> Result<Vec<Policy>, String> {
    let Some(list) = parsed.flag("policy") else {
        return Ok(vec![Policy::Aos]);
    };
    if list.eq_ignore_ascii_case("all") {
        return Ok(Policy::ALL.to_vec());
    }
    let mut policies = Vec::new();
    for token in list.split(',') {
        let token = token.trim();
        let policy = Policy::parse(token).ok_or_else(|| {
            format!("unknown policy '{token}' (aos, cryptsan, pacsan, pactight, all)")
        })?;
        if !policies.contains(&policy) {
            policies.push(policy);
        }
    }
    Ok(policies)
}

/// `--kinds k1,k2,..`, every fault kind by default.
fn parse_kinds(parsed: &Parsed) -> Result<Vec<FaultKind>, String> {
    match parsed.flag("kinds") {
        None => Ok(FaultKind::ALL.to_vec()),
        Some(list) => list
            .split(',')
            .map(|k| FaultKind::parse(k.trim()).map_err(|e| e.to_string()))
            .collect(),
    }
}

fn parse_system(name: &str) -> Result<SafetyConfig, String> {
    SafetyConfig::parse(name).ok_or_else(|| {
        format!(
            "unknown system '{}' (baseline, watchdog, pa, aos, pa+aos)",
            name.to_ascii_lowercase()
        )
    })
}

fn find_workload(name: &str) -> Result<&'static aos_core::workloads::WorkloadProfile, String> {
    profile::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = SPEC2006
            .iter()
            .chain(REAL_WORLD.iter())
            .map(|p| p.name)
            .collect();
        format!("unknown workload '{name}'; known: {}", names.join(", "))
    })
}

/// Writes `doc` to the `--out` path when one was given, and says so on
/// stdout unless stdout carries the JSON document itself.
fn write_out(parsed: &Parsed, doc: &str, as_json: bool) -> Result<(), String> {
    if let Some(out) = parsed.flag("out") {
        std::fs::write(out, doc).map_err(|e| format!("cannot write '{out}': {e}"))?;
        if !as_json {
            println!("report written to {out}");
        }
    }
    Ok(())
}

/// A run's statistics as one compact JSON object (stable field set
/// for scripting against the CLI), with the telemetry snapshot last
/// when `telemetry` is set.
fn stats_json(workload: &str, system: SafetyConfig, stats: &RunStats, telemetry: bool) -> Json {
    let mut fields = vec![
        ("workload", Json::str(workload)),
        ("system", Json::str(system.to_string())),
        ("cycles", Json::num(stats.cycles)),
        ("retired_ops", Json::num(stats.retired_ops)),
        ("ipc", Json::fixed(stats.ipc(), 4)),
        ("l1d_miss_rate", Json::fixed(stats.l1d.miss_rate(), 4)),
        ("l2_miss_rate", Json::fixed(stats.l2.miss_rate(), 4)),
        ("traffic_bytes", Json::num(stats.traffic.total_bytes())),
        ("signed_accesses", Json::num(stats.mcu.signed_accesses)),
        ("bwb_hit_rate", Json::fixed(stats.bwb.hit_rate(), 4)),
        (
            "accesses_per_check",
            Json::fixed(stats.mcu.accesses_per_check(), 4),
        ),
        ("hbt_ways", Json::num(stats.hbt_ways)),
        ("hbt_resizes", Json::num(stats.hbt_resizes)),
        ("violations", Json::num(stats.violations)),
        ("charged_mispredicts", Json::num(stats.charged_mispredicts)),
        ("waived_mispredicts", Json::num(stats.waived_mispredicts)),
    ];
    if telemetry {
        fields.push(("telemetry", stats.telemetry.to_json()));
    }
    Layout::Compact.object(fields)
}

/// `aos attacks`.
pub fn attacks() -> Result<(), String> {
    println!("== AOS attack gallery (paper §VII / Figs. 1, 12) ==\n");
    for outcome in security::all_scenarios() {
        println!("scenario : {}", outcome.name);
        println!("baseline : {}", outcome.baseline_effect);
        match &outcome.detected {
            Some(err) => println!("AOS      : DETECTED — {err}"),
            None => println!("AOS      : not detected (documented limitation, §VII-F)"),
        }
        println!();
    }
    // With a 16-bit PAC, a forged pointer only works if its PAC
    // collides with a live object in the same row *and* the bounds
    // cover the address.
    let attempts = 4096;
    let (successes, _) = security::pac_forging(attempts);
    println!(
        "PAC forging: {successes}/{attempts} forged PACs slipped through \
         ({:.3}% — the paper argues ~45K attempts are needed for a 50% \
         chance against one target, §VII-E)",
        successes as f64 * 100.0 / attempts as f64
    );
    Ok(())
}

/// `aos run <workload> [--system s] [--scale f] [--json]`.
fn run_cmd_impl(parsed: &Parsed) -> Result<(), String> {
    let name = parsed
        .positional(0)
        .ok_or_else(|| "run requires a workload name".to_string())?;
    let workload = find_workload(name)?;
    let system = parse_system(parsed.flag("system").unwrap_or("aos"))?;
    let scale = scale(parsed)?;
    let telemetry = bool_flag(parsed, "telemetry");
    let stats = run_experiment(
        workload,
        &SystemUnderTest::scaled(system, scale).with_telemetry(telemetry),
    );
    if bool_flag(parsed, "json") {
        println!("{}", stats_json(name, system, &stats, telemetry));
        return Ok(());
    }
    println!("== {name} on {system} @ scale {scale} ==");
    println!("cycles           {:>14}", stats.cycles);
    println!("retired ops      {:>14}", stats.retired_ops);
    println!("ipc              {:>14.3}", stats.ipc());
    println!("L1-D miss        {:>13.2}%", stats.l1d.miss_rate() * 100.0);
    println!("L2 miss          {:>13.2}%", stats.l2.miss_rate() * 100.0);
    println!("traffic          {:>12} B", stats.traffic.total_bytes());
    if system.uses_aos() {
        println!("signed accesses  {:>14}", stats.mcu.signed_accesses);
        println!("accesses/check   {:>14.3}", stats.mcu.accesses_per_check());
        println!("BWB hit rate     {:>13.1}%", stats.bwb.hit_rate() * 100.0);
        println!("HBT ways         {:>14}", stats.hbt_ways);
        println!("HBT resizes      {:>14}", stats.hbt_resizes);
    }
    println!("violations       {:>14}", stats.violations);
    if telemetry {
        println!();
        print!("{}", stats.telemetry.to_table());
    }
    Ok(())
}

/// `aos run`.
pub fn run(args: &[String]) -> Result<(), String> {
    run_cmd_impl(&Parsed::parse(args, "system scale json telemetry")?)
}

/// Parses an optional `--threads <n>` flag into campaign options.
fn campaign_options(parsed: &Parsed) -> Result<CampaignOptions, String> {
    Ok(match parsed.flag("threads") {
        None => CampaignOptions::default(),
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| format!("--threads got unparsable value '{v}'"))?;
            if n == 0 {
                return Err("--threads must be at least 1".to_string());
            }
            CampaignOptions::with_threads(n)
        }
    })
}

/// `aos compare <workload> [--scale f] [--threads n]`.
pub fn compare(args: &[String]) -> Result<(), String> {
    let parsed = Parsed::parse(args, "scale threads telemetry")?;
    let name = parsed
        .positional(0)
        .ok_or_else(|| "compare requires a workload name".to_string())?;
    let workload = find_workload(name)?;
    let scale = scale(&parsed)?;
    let options = campaign_options(&parsed)?;
    let telemetry = bool_flag(&parsed, "telemetry");
    // The five systems are one campaign: they run in parallel and
    // `SafetyConfig::ALL` puts Baseline first, so `results[0]` is the
    // normalization row.
    let cells = matrix(
        [*workload],
        SafetyConfig::ALL.map(|s| SystemUnderTest::scaled(s, scale).with_telemetry(telemetry)),
    );
    let report = run_campaign(&cells, &options);
    let baseline = report.results[0].stats().ok_or_else(|| {
        format!(
            "baseline cell failed: {}",
            report.results[0].error().unwrap_or("?")
        )
    })?;
    println!("== {name} @ scale {scale}: all five systems ==");
    println!(
        "{:<10} {:>12} {:>10} {:>8}",
        "system", "cycles", "normalized", "ipc"
    );
    for result in &report.results {
        match result.stats() {
            Some(stats) => println!(
                "{:<10} {:>12} {:>10.3} {:>8.2}",
                result.cell.sut.safety.to_string(),
                stats.cycles,
                stats.cycles as f64 / baseline.cycles as f64,
                stats.ipc()
            ),
            None => println!(
                "{:<10} {:>12} {:>10} {:>8}  ({})",
                result.cell.sut.safety.to_string(),
                "-",
                "-",
                "-",
                result.error().unwrap_or("failed")
            ),
        }
    }
    if telemetry {
        println!("\naggregate over all five systems:");
        print!("{}", report.telemetry().to_table());
    }
    Ok(())
}

/// `aos stats [--workload w] [--system s] [--scale f] [--threads n]
/// [--json true]`: the telemetry surface. Runs a small campaign with
/// pipeline telemetry enabled and prints the merged snapshot.
pub fn stats(args: &[String]) -> Result<(), String> {
    let parsed = Parsed::parse(args, "workload system scale threads json")?;
    // Telemetry campaigns exist to read counters, not to time the
    // machine: default to a small window.
    let scale = scale_or(&parsed, 0.01).map_err(|e| e.to_string())?;
    let system = parse_system(parsed.flag("system").unwrap_or("aos"))?;
    let options = campaign_options(&parsed)?;
    let profiles: Vec<_> = match parsed.flag("workload") {
        Some(name) => vec![*find_workload(name)?],
        // The default campaign: four workloads mixing allocation-heavy
        // and check-heavy behaviour.
        None => ["hmmer", "gcc", "mcf", "omnetpp"]
            .iter()
            .map(|n| *profile::by_name(n).expect("built-in workload"))
            .collect(),
    };
    let cells = matrix(
        profiles.iter().copied(),
        [SystemUnderTest::scaled(system, scale).with_telemetry(true)],
    );
    let report = run_campaign(&cells, &options);
    if report.failed() > 0 {
        return Err(format!("{} cells failed", report.failed()));
    }
    let telemetry = report.telemetry();
    let names: Vec<&str> = profiles.iter().map(|p| p.name).collect();
    if bool_flag(&parsed, "json") {
        // The headline counters are hoisted under their wire names; v2
        // added the stage-core ones (per-stage stall attribution,
        // store-load replays, exception flushes).
        let headline = [
            Counter::McqReplays,
            Counter::HbtMigrationRows,
            Counter::SimStallRob,
            Counter::SimStallLsq,
            Counter::SimStallMcq,
            Counter::SimReplays,
            Counter::SimFlushes,
        ]
        .map(|c| (c.name(), Json::num(telemetry.counter(c))));
        let peak = Gauge::McqPeakOccupancy;
        let doc = Layout::Pretty.object(
            [
                ("schema", Json::str("aos-stats/v2")),
                ("system", Json::str(system.to_string())),
                ("scale", Json::num(scale)),
                (
                    "workloads",
                    Layout::Inline.array(names.iter().map(|n| Json::str(*n))),
                ),
                ("bwb_hit_rate", Json::fixed(telemetry.bwb_hit_rate(), 4)),
                (peak.name(), Json::num(telemetry.gauge(peak))),
            ]
            .into_iter()
            .chain(headline)
            .chain([("telemetry", telemetry.to_json())]),
        );
        println!("{doc}");
        return Ok(());
    }
    println!(
        "== pipeline telemetry: {} on {system} @ scale {scale} ==",
        names.join(", ")
    );
    print!("{}", telemetry.to_table());
    Ok(())
}

/// `aos campaign [--suite s] [--scale f] [--threads n] [--out path]`.
pub fn campaign(args: &[String]) -> Result<(), String> {
    let parsed = Parsed::parse(args, "suite scale threads out")?;
    let scale = scale(&parsed)?;
    let options = campaign_options(&parsed)?;
    let suite = parsed.flag("suite").unwrap_or("spec2006");
    let profiles: Vec<_> = match suite.to_ascii_lowercase().as_str() {
        "spec2006" | "spec" => SPEC2006.to_vec(),
        "realworld" | "real-world" => REAL_WORLD.to_vec(),
        "all" => SPEC2006.iter().chain(REAL_WORLD.iter()).copied().collect(),
        other => {
            return Err(format!(
                "unknown suite '{other}' (spec2006, realworld, all)"
            ))
        }
    };
    // Every cell records telemetry, so the report's per-cell counter
    // columns carry the run's counts rather than zeros.
    let cells = matrix(
        profiles,
        SafetyConfig::ALL.map(|s| SystemUnderTest::scaled(s, scale).with_telemetry(true)),
    );
    println!(
        "campaign: {} cells ({suite} x 5 systems) at scale {scale}",
        cells.len()
    );
    let report = run_campaign(&cells, &options);
    println!(
        "{} cells on {} threads in {:.2}s ({:.2} cells/sec; {} completed, {} failed)",
        report.results.len(),
        report.threads,
        report.wall.as_secs_f64(),
        report.cells_per_sec(),
        report.completed(),
        report.failed()
    );
    write_out(&parsed, &report.to_json(), false)?;
    Ok(())
}

/// The largest structure an `aos ablate` sweep point may ask for: far
/// above Table IV's 48 MCQ and 64 BWB entries and the default sweep's
/// 96 and 128, and small enough that every point can be allocated.
const MAX_GEOMETRY: usize = 4096;

/// A comma-separated list of structural sizes for an `aos ablate`
/// sweep axis (`--mcq`, `--bwb`), each in `1..=MAX_GEOMETRY`.
fn parse_geometry_list(list: &str, flag: &str) -> Result<Vec<usize>, String> {
    let mut points = Vec::new();
    for token in list.split(',') {
        let token = token.trim();
        let value: usize = token
            .parse()
            .map_err(|_| format!("--{flag} has an unparsable entry '{token}'"))?;
        if !(1..=MAX_GEOMETRY).contains(&value) {
            return Err(format!(
                "--{flag} entries must be between 1 and {MAX_GEOMETRY}, got {value}"
            ));
        }
        points.push(value);
    }
    Ok(points)
}

/// One measured point of the `aos ablate` sweep.
struct AblatePoint {
    mcq: usize,
    bwb: usize,
    stats: RunStats,
}

/// `aos ablate [--workload w] [--system aos|pa+aos] [--scale f]
/// [--mcq n1,n2,..] [--bwb n1,n2,..] [--json true] [--out path]`.
///
/// The MCU-geometry sensitivity study the stage-structured core makes
/// possible: sweep MCQ depth x BWB entries over one benign workload
/// and report cycles (normalized to the Table IV point), IPC, the
/// MCQ-full dispatch-stall count and the BWB hit rate per point. A
/// violation on the benign sweep is a real finding (exit 1): shrinking
/// a queue may slow the machine down but must never change what it
/// detects.
pub fn ablate(args: &[String]) -> Result<(), CliError> {
    let parsed = Parsed::parse(args, "workload system scale mcq bwb json out")?;
    let workload = find_workload(parsed.flag("workload").unwrap_or("hmmer"))?;
    // Each sweep point is a full machine run: default to a small
    // window, like the fault sweep does.
    let scale = scale_or(&parsed, 0.004).map_err(|e| e.to_string())?;
    let system = parse_system(parsed.flag("system").unwrap_or("aos"))?;
    if !matches!(system, SafetyConfig::Aos | SafetyConfig::PaAos) {
        return Err(format!(
            "ablate sweeps the MCU geometry, which only exists on AOS \
             systems; --system must be aos or pa+aos, not {system}"
        )
        .into());
    }
    let mcq_points = parse_geometry_list(parsed.flag("mcq").unwrap_or("12,24,48,96"), "mcq")?;
    let bwb_points = parse_geometry_list(parsed.flag("bwb").unwrap_or("16,64,128"), "bwb")?;

    let run_point = |mcq: usize, bwb: usize| -> AblatePoint {
        let mut config = SystemUnderTest::scaled(system, scale).machine_config();
        config.mcu.mcq_entries = mcq;
        config.mcu.bwb_entries = bwb;
        let mut machine = Machine::new(config);
        let stats = machine.run(TraceGenerator::new(workload, system, scale));
        AblatePoint { mcq, bwb, stats }
    };

    // The Table IV geometry is the normalization reference; reuse the
    // measurement when the grid contains it.
    let (ref_mcq, ref_bwb) = (SimConfig::MCQ_ENTRIES, SimConfig::BWB_ENTRIES);
    let points: Vec<AblatePoint> = mcq_points
        .iter()
        .flat_map(|&mcq| bwb_points.iter().map(move |&bwb| (mcq, bwb)))
        .map(|(mcq, bwb)| run_point(mcq, bwb))
        .collect();
    let reference = points
        .iter()
        .find(|p| p.mcq == ref_mcq && p.bwb == ref_bwb)
        .map(|p| p.stats.clone())
        .unwrap_or_else(|| run_point(ref_mcq, ref_bwb).stats);

    // With --json the document is the whole of stdout.
    let as_json = bool_flag(&parsed, "json");
    if !as_json {
        println!(
            "== aos ablate: {} on {system} @ scale {scale} ==",
            workload.name
        );
        println!(
            "reference: mcq={ref_mcq} bwb={ref_bwb} cycles={} (Table IV geometry)",
            reference.cycles
        );
        println!(
            "{:>6} {:>6} {:>12} {:>7} {:>7} {:>11} {:>9} {:>8}",
            "mcq", "bwb", "cycles", "norm", "ipc", "stall_mcq", "bwb_hit%", "flushes"
        );
        for p in &points {
            println!(
                "{:>6} {:>6} {:>12} {:>7.3} {:>7.3} {:>11} {:>9.2} {:>8}",
                p.mcq,
                p.bwb,
                p.stats.cycles,
                p.stats.cycles as f64 / reference.cycles as f64,
                p.stats.ipc(),
                p.stats.stalls_mcq,
                p.stats.bwb.hit_rate() * 100.0,
                p.stats.flushes,
            );
        }
    }

    let points_json = points.iter().map(|p| {
        Layout::Inline.object([
            ("mcq", Json::num(p.mcq)),
            ("bwb", Json::num(p.bwb)),
            ("cycles", Json::num(p.stats.cycles)),
            (
                "normalized",
                Json::fixed(p.stats.cycles as f64 / reference.cycles as f64, 6),
            ),
            ("ipc", Json::fixed(p.stats.ipc(), 4)),
            ("stall_mcq", Json::num(p.stats.stalls_mcq)),
            ("lsq_replays", Json::num(p.stats.lsq_replays)),
            ("flushes", Json::num(p.stats.flushes)),
            ("bwb_hit_rate", Json::fixed(p.stats.bwb.hit_rate(), 4)),
            ("violations", Json::num(p.stats.violations)),
        ])
    });
    let reference_json = Layout::Inline.object([
        ("mcq", Json::num(ref_mcq)),
        ("bwb", Json::num(ref_bwb)),
        ("cycles", Json::num(reference.cycles)),
    ]);
    let json = Layout::Pretty.object([
        ("schema", Json::str("aos-ablate-report/v2")),
        ("workload", Json::str(workload.name)),
        ("system", Json::str(system.to_string())),
        ("scale", Json::num(scale)),
        ("reference", reference_json),
        ("points", Layout::Pretty.array(points_json)),
    ]);
    if as_json {
        println!("{json}");
    }
    write_out(&parsed, &format!("{json}\n"), as_json)?;

    let faulting: Vec<&AblatePoint> = points.iter().filter(|p| p.stats.violations > 0).collect();
    if !faulting.is_empty() {
        return Err(CliError::Findings(format!(
            "{} sweep point(s) reported violations on a benign trace \
             (first: mcq={} bwb={}); geometry must affect timing, not \
             detection",
            faulting.len(),
            faulting[0].mcq,
            faulting[0].bwb,
        )));
    }
    Ok(())
}

/// `aos faults [--workload w] [--scale f] [--seeds n] [--kinds k,..]
/// [--policy p|all] [--threads n] [--out path] [--strict true]
/// [--telemetry true]`: one cross-check block per policy (AOS alone
/// by default); `--strict` gates on detection and on every policy's
/// pinned split.
pub fn faults(args: &[String]) -> Result<(), CliError> {
    let parsed = Parsed::parse(
        args,
        "workload scale seeds kinds policy threads out strict telemetry",
    )?;
    let workload = find_workload(parsed.flag("workload").unwrap_or("hmmer"))?;
    // Fault sweeps replay the trace once per (kind, seed, system):
    // default to a small window instead of the global full-scale one.
    let scale = scale_or(&parsed, 0.004).map_err(|e| e.to_string())?;
    let seed_count: u64 = parsed.flag_or("seeds", 3u64)?;
    if seed_count == 0 {
        return Err("--seeds must be at least 1".to_string().into());
    }
    let kinds = parse_kinds(&parsed)?;
    let options = campaign_options(&parsed)?;
    let strict = bool_flag(&parsed, "strict");
    let telemetry = bool_flag(&parsed, "telemetry");
    let policies = parse_policies(&parsed)?;

    let config = FaultCampaignConfig {
        kinds,
        options,
        telemetry,
        policies,
        ..FaultCampaignConfig::standard(*workload, scale, (1..=seed_count).collect())
    };
    println!(
        "faults: {} on {} kinds x {} seeds x {{AOS, Baseline}} at scale {scale}",
        workload.name,
        config.kinds.len(),
        seed_count
    );
    let outcome = run_fault_campaign(&config).map_err(|e| e.to_string())?;

    println!(
        "{:<12} {:>6} {:>10} {:>12} {:>12}",
        "kind", "seed", "system", "violations", "verdict"
    );
    for (spec, trial) in &outcome.matrix.trials {
        println!(
            "{:<12} {:>6} {:>10} {:>12} {:>12}",
            spec.kind.name(),
            spec.seed,
            trial.system.to_string(),
            trial.faulty_violations,
            if trial.system.uses_aos() {
                trial.verdict().to_string()
            } else {
                format!("{} (expected)", trial.verdict())
            },
        );
    }
    println!(
        "\ndetection rate {:.1}% over {} protected trials, {} false positives, {} failed cells",
        outcome.matrix.detection_rate() * 100.0,
        outcome.matrix.protected().count(),
        outcome.matrix.false_positives(),
        outcome.report.failed(),
    );
    for check in &outcome.policies {
        println!(
            "\npolicy cross-check ({}): clean trace raised {} diagnostic(s)",
            check.policy.name(),
            check.clean_diagnostics
        );
        for k in &check.kinds {
            println!(
                "{:<12} {:<14} {}/{} seeds flagged{}{}",
                k.kind.name(),
                k.classification().to_string(),
                k.flagged,
                k.seeds,
                if k.rules.is_empty() { "" } else { "; rules: " },
                k.rules.join(", "),
            );
        }
    }
    if telemetry {
        println!("\naggregate over the clean reference runs, all faulted cells and static scans:");
        let mut merged = outcome.report.telemetry();
        merged.merge(&outcome.telemetry);
        print!("{}", merged.to_table());
    }
    write_out(&parsed, &outcome.report.to_json(), false)?;
    if strict
        && (!outcome.matrix.is_sound()
            || outcome.report.failed() > 0
            || outcome.policies.iter().any(|p| !p.matches_pinned_split()))
    {
        // The report's own annotations (`fault_detection`,
        // `policy_cross_check`), rendered inline.
        let evidence: Vec<String> = outcome
            .report
            .annotations
            .iter()
            .map(|(_, v)| v.to_string())
            .collect();
        return Err(CliError::Findings(format!(
            "strict fault gate failed: {}",
            evidence.join(" ")
        )));
    }
    Ok(())
}

/// `aos fuzz [--workload w] [--scale f] [--seed n] [--budget n]
/// [--max-chain n] [--corpus-out path] [--out path] [--json true]
/// [--telemetry true] [--replay-corpus path]`: the adversarial
/// scenario engine — seeded multi-step attack chains differentially
/// replayed through the static linter and the dynamic machine oracle
/// on all five systems.
///
/// Exit contract: 0 when every scenario lands exactly on its pinned
/// static/dynamic expectation (or a replayed corpus is verdict
/// stable), 1 on findings/instability, 2 on unusable invocations.
pub fn fuzz(args: &[String]) -> Result<(), CliError> {
    let parsed = Parsed::parse(
        args,
        "workload scale seed budget max-chain coverage-guided corpus-out out json telemetry \
         replay-corpus",
    )?;
    let telemetry = Telemetry::new(bool_flag(&parsed, "telemetry"));

    if let Some(path) = parsed.flag("replay-corpus") {
        let report = aos_fuzz::replay_corpus(path, &telemetry)
            .map_err(|e| CliError::Usage(e.to_string()))?;
        println!("== aos fuzz: replaying banked corpus {path} ==");
        for check in &report.checks {
            println!(
                "{:<40} {:>8} ops  {}",
                check.name,
                check.ops,
                if check.mismatches.is_empty() {
                    "stable".to_string()
                } else {
                    check.mismatches.join("; ")
                }
            );
        }
        if telemetry.is_enabled() {
            println!();
            print!("{}", telemetry.snapshot().to_table());
        }
        if !report.is_stable() {
            return Err(CliError::Findings(format!(
                "corpus replay unstable: {} mismatched verdict(s) across {} entries",
                report.mismatches(),
                report.checks.len()
            )));
        }
        return Ok(());
    }

    let workload = find_workload(parsed.flag("workload").unwrap_or("hmmer"))?;
    // Each scenario replays the trace once per system plus a lint
    // pass: default to the same small window the fault sweeps use.
    let scale = scale_or(&parsed, 0.004).map_err(|e| e.to_string())?;
    let budget: usize = parsed.flag_or("budget", 8usize)?;
    if budget == 0 {
        return Err("--budget must be at least 1".to_string().into());
    }
    let max_chain: usize = parsed.flag_or("max-chain", 3usize)?;
    if max_chain == 0 {
        return Err("--max-chain must be at least 1".to_string().into());
    }
    let config = aos_fuzz::FuzzConfig {
        workload: workload.name.to_string(),
        scale,
        seed: parsed.flag_or("seed", 1u64)?,
        budget,
        max_chain,
        corpus_out: parsed.flag("corpus-out").map(std::path::PathBuf::from),
        coverage_guided: bool_flag(&parsed, "coverage-guided"),
    };
    // With --json the document is the whole of stdout.
    let as_json = bool_flag(&parsed, "json");
    if !as_json {
        println!(
            "fuzz: {} at scale {scale}, seed {}, {budget} scenario(s), chains up to {max_chain} step(s)",
            workload.name, config.seed
        );
    }
    let report = aos_fuzz::run_fuzz(&config, &telemetry).map_err(|e| e.to_string())?;

    if as_json {
        print!("{}", report.to_json());
    } else {
        println!(
            "{:<34} {:<30} {:>6} {:>8} {:>9}",
            "scenario", "steps", "lint", "aos", "findings"
        );
        for o in &report.outcomes {
            let aos_delta = o
                .systems
                .iter()
                .find(|v| v.system == SafetyConfig::Aos)
                .map(|v| v.delta())
                .unwrap_or(0);
            println!(
                "{:<34} {:<30} {:>6} {:>8} {:>9}",
                o.scenario,
                o.steps.join("+"),
                o.aos().diagnostics,
                format!("+{aos_delta}"),
                o.findings.len()
            );
        }
        for o in &report.outcomes {
            for f in &o.findings {
                println!("finding: {f}");
            }
        }
        for (id, error) in &report.planning_failures {
            println!("skipped {id}: {error}");
        }
        println!(
            "\n{} scenario(s), {} finding(s), digest {:016x}",
            report.outcomes.len(),
            report.findings(),
            report.digest()
        );
        println!(
            "coverage: {} point(s), fingerprint {:016x}{}",
            report.coverage.len(),
            report.coverage.fingerprint(),
            if report.coverage_guided {
                " (guided scheduling)"
            } else {
                ""
            }
        );
        if let Some(corpus) = &report.corpus {
            println!("banked {} finding stream(s) to {corpus}", report.banked);
        }
        if telemetry.is_enabled() {
            println!();
            print!("{}", telemetry.snapshot().to_table());
        }
    }
    write_out(&parsed, &report.to_json(), as_json)?;
    if report.findings() > 0 {
        return Err(CliError::Findings(format!(
            "fuzz gate failed: {} finding(s) across {} scenario(s)",
            report.findings(),
            report.outcomes.len()
        )));
    }
    Ok(())
}

/// `aos lint [--workload w] [--system s] [--scale f] [--fault kind]
/// [--seed n] [--json true] [--strict false] [--telemetry true]`:
/// statically verify a generated op stream against the Fig. 7 /
/// Algorithm 1 instrumentation protocol without running a machine.
///
/// Strict is the *default* (the linter is a gate): any finding exits
/// 1; pass `--strict false` to always exit 0 on a completed scan.
pub fn lint(args: &[String]) -> Result<(), CliError> {
    let parsed = Parsed::parse(
        args,
        "workload system scale fault seed json strict telemetry",
    )
    .map_err(|e| {
        if e.starts_with("unknown flag --policy ") {
            format!("{e}; scan other policies with aos matrix --policy <p|all> --kinds <k>")
        } else {
            e
        }
    })?;
    let workload = find_workload(parsed.flag("workload").unwrap_or("hmmer"))?;
    // Lint scans only generate the trace (no machine): small default
    // window, validated exactly like the other subcommands.
    let scale = scale_or(&parsed, 0.004).map_err(|e| e.to_string())?;
    let system = parse_system(parsed.flag("system").unwrap_or("aos"))?;
    let strict = parsed.flag("strict").is_none_or(|v| v != "false");
    let telemetry = if bool_flag(&parsed, "telemetry") {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let layout = PointerLayout::default();
    let stream = || TraceGenerator::new(workload, system, scale);

    let (report, faulted) = match parsed.flag("fault") {
        None => (lint_stream_metered(stream(), layout, &telemetry), None),
        Some(kind) => {
            if !system.uses_aos() {
                return Err(format!(
                    "--fault needs an instrumented stream, but system '{system}' \
                     carries no AOS protocol ops; use --system aos or pa+aos"
                )
                .into());
            }
            let kind = FaultKind::parse(kind).map_err(|e| e.to_string())?;
            let seed: u64 = parsed.flag_or("seed", 1u64)?;
            let plan = plan_fault(stream(), layout, FaultSpec { kind, seed })
                .map_err(|e| e.to_string())?;
            let report = lint_stream_metered(plan.apply(stream()), layout, &telemetry);
            (report, Some(plan.description.clone()))
        }
    };

    if bool_flag(&parsed, "json") {
        print!("{}", report.to_json());
    } else {
        println!(
            "== aos-lint: {} on {system} @ scale {scale} ==",
            workload.name
        );
        if let Some(description) = faulted {
            println!("injected: {description}");
        }
        print!("{}", report.to_table());
        if bool_flag(&parsed, "telemetry") {
            println!();
            print!("{}", telemetry.snapshot().to_table());
        }
    }
    let findings = &report.findings;
    if strict && !findings.clean() {
        return Err(CliError::Findings(format!(
            "lint gate failed: {} finding(s) ({} error(s), {} warning(s))",
            findings.total_diagnostics(),
            findings.errors(),
            findings.warnings()
        )));
    }
    Ok(())
}

/// `aos matrix [--workload w] [--scale f] [--seeds n]
/// [--policy <p|all>] [--kinds k1,k2,..] [--json true] [--out path]
/// [--telemetry true]`: the cross-paper detection matrix — a clean
/// reference row plus every requested fault kind, injected under
/// every seed and scanned through all requested static policies in
/// one streaming pass per stream (`aos-lint-matrix/v1`).
///
/// The clean row is a false-positive gate: any policy that flags the
/// uninjected instrumented trace is a real finding (exit 1).
pub fn matrix_cmd(args: &[String]) -> Result<(), CliError> {
    let parsed = Parsed::parse(args, "workload scale seeds policy kinds json out telemetry")?;
    let workload = find_workload(parsed.flag("workload").unwrap_or("hmmer"))?;
    // Each (kind, seed) cell replays the generated trace once:
    // default to the fault sweep's small window.
    let scale = scale_or(&parsed, 0.004).map_err(|e| e.to_string())?;
    let seed_count: u64 = parsed.flag_or("seeds", 3u64)?;
    if seed_count == 0 {
        return Err("--seeds must be at least 1".to_string().into());
    }
    // The matrix exists to cross policies: default to all of them
    // (unlike `lint`/`faults`, whose default is the paper's AOS).
    let policies = match parsed.flag("policy") {
        None => Policy::ALL.to_vec(),
        Some(_) => parse_policies(&parsed)?,
    };
    let kinds = parse_kinds(&parsed)?;
    let telemetry = Telemetry::new(bool_flag(&parsed, "telemetry"));
    let seeds: Vec<u64> = (1..=seed_count).collect();

    // The fault campaign's static sweep, with no machine: the first
    // unplannable fault ends the command.
    let clean = Trial::clean(*workload, scale);
    let (clean_outcome, faults) = fault_sweep(&clean, &[], &kinds, &seeds, &policies, &telemetry);
    let mut matrix = MatrixReport::new(workload.name, scale, seeds.clone(), policies.clone());
    matrix.absorb("clean", &clean_outcome.reports);
    for (spec, planned) in faults {
        let (_, reports) = planned.map_err(|e| e.to_string())?;
        matrix.absorb(spec.kind.name(), &reports);
    }

    let as_json = bool_flag(&parsed, "json");
    if as_json {
        print!("{}", matrix.to_json());
    } else {
        print!("{}", matrix.to_table());
        if telemetry.is_enabled() {
            println!();
            print!("{}", telemetry.snapshot().to_table());
        }
    }
    write_out(&parsed, &matrix.to_json(), as_json)?;

    let clean = matrix.entry("clean").expect("clean row always absorbed");
    let noisy: Vec<&str> = matrix
        .policies
        .iter()
        .enumerate()
        .filter(|(p, _)| clean.detected(*p))
        .map(|(_, policy)| policy.name())
        .collect();
    if !noisy.is_empty() {
        return Err(CliError::Findings(format!(
            "matrix gate failed: {} polic{} flagged the clean trace ({})",
            noisy.len(),
            if noisy.len() == 1 { "y" } else { "ies" },
            noisy.join(", ")
        )));
    }
    Ok(())
}

/// `aos fig <n>` / `aos table <n>` (`kind` is `fig` or `table`): one
/// `results/` report, simulating only the cells it reads.
pub fn report(kind: &str, args: &[String]) -> Result<(), String> {
    let parsed = Parsed::parse(args, "scale")?;
    let which = parsed
        .positional(0)
        .ok_or_else(|| format!("{kind} requires a number"))?;
    let report =
        reports::named(&format!("{kind}{which}_")).ok_or_else(|| format!("no {kind} '{which}'"))?;
    print!("{}", report.render(scale(&parsed)?));
    Ok(())
}

/// `aos repro [--scale f] (--out <dir> | --check <dir>)`: renders every
/// `results/` file from one shared campaign, then writes them to
/// `--out` or diffs them byte for byte against `--check` (any
/// difference or missing file exits 1).
pub fn repro(args: &[String]) -> Result<(), CliError> {
    let parsed = Parsed::parse(args, "scale out check")?;
    let scale = scale(&parsed)?;
    let (dir, write_out) = match (parsed.flag("out"), parsed.flag("check")) {
        (Some(dir), None) => (dir, true),
        (None, Some(dir)) => (dir, false),
        _ => {
            let usage = "repro needs exactly one of --out <dir> or --check <dir>";
            return Err(CliError::Usage(usage.to_string()));
        }
    };
    let rendered = reports::render_all(&reports::ALL, scale);
    if write_out {
        reports::write(Path::new(dir), &rendered)
            .map_err(|e| format!("cannot write {dir}: {e}"))?;
        println!("repro: wrote {} files to {dir}", rendered.len());
        return Ok(());
    }
    let mismatches = reports::check(Path::new(dir), &rendered);
    if !mismatches.is_empty() {
        return Err(CliError::Findings(format!(
            "repro: {} of {} files differ from {dir}:\n  {}",
            mismatches.len(),
            rendered.len(),
            mismatches.join("\n  ")
        )));
    }
    println!("repro: all {} files match {dir}", rendered.len());
    Ok(())
}

/// `aos pac [--allocations n] [--bits b] [--live n]`.
pub fn pac(args: &[String]) -> Result<(), String> {
    let parsed = Parsed::parse(args, "allocations bits live")?;
    let allocations: u64 = parsed.flag_or("allocations", 1_000_000)?;
    let bits: u32 = parsed.flag_or("bits", 16)?;
    if !(11..=24).contains(&bits) {
        return Err(format!("--bits must be 11..=24, got {bits}"));
    }
    let histogram = pac_distribution(allocations, bits);
    println!(
        "{} allocations over {}-bit PACs: {}",
        allocations,
        bits,
        histogram.occupancy_summary()
    );
    if let Some(live) = parsed.flag("live") {
        let live: u64 = live
            .parse()
            .map_err(|_| format!("--live got unparsable value '{live}'"))?;
        let s = collisions::study(live, bits);
        let expected = collisions::expected_overflowing_rows(live, bits, 8);
        println!(
            "
collision study for {live} simultaneously-live chunks (paper §VI):"
        );
        println!("  mean row occupancy  {:.3}", s.mean_row_occupancy);
        println!("  max row occupancy   {}", s.max_row_occupancy);
        println!(
            "  rows over 8 records {} (Poisson model expects {expected:.2})",
            s.rows_over_initial_capacity
        );
        println!("  implied HBT resizes {}", s.implied_resizes);
    }
    Ok(())
}

/// `aos params`.
pub fn params() -> Result<(), String> {
    print!("{}", reports::table4());
    Ok(())
}

/// `aos workloads`.
pub fn workloads() -> Result<(), String> {
    println!("SPEC CPU 2006 models (Table II):");
    for p in SPEC2006 {
        println!(
            "  {:<12} {:>9} allocs, {:>8} max live, {:>3.0}% heap accesses",
            p.name,
            p.full_allocations,
            p.full_max_active,
            p.heap_fraction * 100.0
        );
    }
    println!("real-world models (Table III):");
    for p in REAL_WORLD {
        println!(
            "  {:<12} {:>9} allocs, {:>8} max live",
            p.name, p.full_allocations, p.full_max_active
        );
    }
    Ok(())
}

/// `aos serve [--socket <path>] [--queue <n>] [--workers <n>]
/// [--timeout-ms <n>] [--retry-after-ms <n>] [--test-jobs true]
/// [--telemetry true]`.
pub fn serve(args: &[String]) -> Result<(), CliError> {
    let parsed = Parsed::parse(
        args,
        "socket queue workers timeout-ms retry-after-ms test-jobs telemetry",
    )
    .map_err(CliError::Usage)?;
    let options = aos_serve::ServeOptions {
        queue_capacity: match parsed.flag_or("queue", 16usize)? {
            0 => return Err(CliError::Usage("--queue must be at least 1".into())),
            n => n,
        },
        workers: match parsed.flag_or("workers", 2usize)? {
            0 => return Err(CliError::Usage("--workers must be at least 1".into())),
            n => n,
        },
        job_timeout: match parsed.flag_or("timeout-ms", 30_000u64)? {
            0 => None, // 0 disables the per-job deadline
            ms => Some(Duration::from_millis(ms)),
        },
        retry_after_ms: parsed.flag_or("retry-after-ms", 25u64)?,
        test_jobs: bool_flag(&parsed, "test-jobs"),
    };
    let summary = match parsed.flag("socket") {
        #[cfg(unix)]
        Some(path) => aos_serve::serve_unix(std::path::Path::new(path), &options),
        #[cfg(not(unix))]
        Some(_) => {
            return Err(CliError::Usage(
                "--socket requires a Unix platform; use stdio mode".into(),
            ))
        }
        None => aos_serve::serve(std::io::stdin().lock(), std::io::stdout(), &options),
    }
    .map_err(|e| CliError::Usage(e.to_string()))?;
    // The session report goes to stderr: stdout is the protocol
    // stream.
    eprintln!(
        "aos-serve session: {} accepted, {} ok, {} failed ({} timed out, {} panicked), {} rejected",
        summary.accepted,
        summary.succeeded,
        summary.failed,
        summary.timed_out,
        summary.panicked,
        summary.rejected,
    );
    if bool_flag(&parsed, "telemetry") {
        let mut snap = TelemetrySnapshot::new(true);
        summary.record_telemetry(&mut snap);
        for counter in Counter::ALL {
            let value = snap.counter(counter);
            if value > 0 {
                eprintln!("  {:<24} {value}", counter.name());
            }
        }
        eprintln!(
            "  {:<24} {}",
            Gauge::ServeQueueDepth.name(),
            snap.gauge(Gauge::ServeQueueDepth)
        );
    }
    Ok(())
}

fn corpus_out_flag<'a>(parsed: &'a Parsed, name: &str) -> Result<&'a str, CliError> {
    parsed
        .flag(name)
        .ok_or_else(|| CliError::Usage(format!("corpus requires --{name} <value>")))
}

/// `aos corpus record|replay|verify …` — manage persistent
/// CRC-checked trace corpora. Subcommand shapes:
///
/// ```text
/// aos corpus record --out <path> --workloads <w1,w2,..>
///        [--systems <s1,s2,..>] [--scale <f>]
/// aos corpus replay <path> --entry <name> [--mode sim|lint]
/// aos corpus verify <path>
/// ```
pub fn corpus(args: &[String]) -> Result<(), CliError> {
    let parsed = Parsed::parse(args, "out workloads systems scale entry mode telemetry")
        .map_err(CliError::Usage)?;
    let action = parsed
        .positional(0)
        .ok_or_else(|| CliError::Usage("corpus requires record, replay or verify".into()))?;
    // The CLI is single-threaded, so the corpus layer can record
    // telemetry live (unlike the service's concurrent workers).
    let telemetry = if bool_flag(&parsed, "telemetry") {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    match action {
        "record" => {
            let out = corpus_out_flag(&parsed, "out")?;
            let workloads: Vec<String> = corpus_out_flag(&parsed, "workloads")?
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            for name in &workloads {
                find_workload(name).map_err(CliError::Usage)?;
            }
            let systems = aos_serve::parse_systems(parsed.flag("systems").unwrap_or("aos"))
                .map_err(|e| CliError::Usage(e.to_string()))?;
            let spec = aos_serve::JobSpec::CorpusRecord {
                path: out.to_string(),
                workloads,
                systems,
                scale: scale(&parsed).map_err(CliError::Usage)?,
            };
            let result = aos_serve::execute(&spec, &telemetry)
                .map_err(|e| CliError::Usage(e.to_string()))?;
            println!("{result}");
            Ok(())
        }
        "replay" => {
            let path = parsed
                .positional(1)
                .ok_or_else(|| CliError::Usage("replay requires a corpus path".into()))?;
            let entry = corpus_out_flag(&parsed, "entry")?;
            let mode = match parsed.flag("mode").unwrap_or("sim") {
                "sim" => aos_serve::ReplayMode::Sim,
                "lint" => aos_serve::ReplayMode::Lint,
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown mode '{other}' (sim, lint)"
                    )))
                }
            };
            let spec = aos_serve::JobSpec::CorpusReplay {
                path: path.to_string(),
                entry: entry.to_string(),
                mode,
            };
            match aos_serve::execute(&spec, &telemetry) {
                Ok(result) => {
                    println!("{result}");
                    Ok(())
                }
                // A CRC quarantine is a finding: the gate ran and the
                // stored corpus failed it.
                Err(e @ aos_util::AosError::Corruption { .. }) => {
                    Err(CliError::Findings(e.to_string()))
                }
                Err(e) => Err(CliError::Usage(e.to_string())),
            }
        }
        "verify" => {
            let path = parsed
                .positional(1)
                .ok_or_else(|| CliError::Usage("verify requires a corpus path".into()))?;
            let reader = aos_core::isa::corpus::CorpusReader::open(path, telemetry)
                .map_err(|e| CliError::Usage(e.to_string()))?;
            let checks = reader.verify();
            let mut quarantined = 0usize;
            for check in &checks {
                match &check.status {
                    Ok(()) => println!(
                        "  ok          {:<24} {:>9} ops, {} blocks",
                        check.entry.name, check.entry.op_count, check.entry.block_count
                    ),
                    Err(e) => {
                        quarantined += 1;
                        println!("  QUARANTINED {:<24} {e}", check.entry.name);
                    }
                }
            }
            if quarantined > 0 {
                Err(CliError::Findings(format!(
                    "{quarantined} of {} corpus entries quarantined",
                    checks.len()
                )))
            } else {
                println!("{} entries verified clean", checks.len());
                Ok(())
            }
        }
        other => Err(CliError::Usage(format!(
            "unknown corpus action '{other}' (record, replay, verify)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_names_parse() {
        assert_eq!(parse_system("baseline").unwrap(), SafetyConfig::Baseline);
        assert_eq!(parse_system("PA+AOS").unwrap(), SafetyConfig::PaAos);
        assert!(parse_system("mpx").is_err());
    }

    #[test]
    fn workload_lookup_reports_candidates() {
        assert!(find_workload("gcc").is_ok());
        let err = find_workload("doom").unwrap_err();
        assert!(err.contains("omnetpp"));
    }

    #[test]
    fn json_output_is_wellformed_enough() {
        let p = profile::by_name("mcf").unwrap();
        let stats = run_experiment(p, &SystemUnderTest::scaled(SafetyConfig::Aos, 0.005));
        let json = stats_json("mcf", SafetyConfig::Aos, &stats, false).to_string();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"workload\":\"mcf\""));
        assert!(json.contains("\"cycles\":"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn campaign_flags_parse() {
        let p = Parsed::parse(&["--threads".into(), "2".into()], "threads").unwrap();
        assert_eq!(campaign_options(&p).unwrap().threads, Some(2));
        let zero = Parsed::parse(&["--threads".into(), "0".into()], "threads").unwrap();
        assert!(campaign_options(&zero).is_err());
        assert!(campaign(&["--suite".into(), "mystery".into()]).is_err());
    }

    #[test]
    fn commands_reject_degenerate_scale() {
        let bad = |v: &str| vec!["mcf".to_string(), "--scale".to_string(), v.to_string()];
        for v in ["0", "-1", "NaN", "2.0"] {
            assert!(run(&bad(v)).is_err(), "run --scale {v}");
            assert!(compare(&bad(v)).is_err(), "compare --scale {v}");
            assert!(
                faults(&["--scale".to_string(), v.to_string()]).is_err(),
                "faults --scale {v}"
            );
            // Non-positive / degenerate scales are usage errors (exit
            // 2), not findings — the scan never ran.
            assert!(
                matches!(
                    lint(&["--scale".to_string(), v.to_string()]),
                    Err(CliError::Usage(_))
                ),
                "lint --scale {v}"
            );
        }
    }

    #[test]
    fn repro_needs_exactly_one_of_out_and_check() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for bad in [
            args(&[]),
            args(&["--out", "a", "--check", "b"]),
            args(&["--check", "results", "--scale", "0"]),
        ] {
            assert!(matches!(repro(&bad), Err(CliError::Usage(_))), "{bad:?}");
        }
    }

    #[test]
    fn lint_gate_separates_findings_from_usage_errors() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // A clean generated trace passes the strict-by-default gate.
        assert!(lint(&args(&["--scale", "0.002"])).is_ok());
        // An injected protocol break is a finding (exit 1) ...
        assert!(matches!(
            lint(&args(&["--fault", "double-free"])),
            Err(CliError::Findings(_))
        ));
        // ... unless the gate is waived.
        assert!(lint(&args(&["--fault", "double-free", "--strict", "false"])).is_ok());
        // Spatial faults are dynamic-only: clean lint even when faulted.
        assert!(lint(&args(&["--fault", "overflow"])).is_ok());
        // Faulting an uninstrumented stream cannot work: usage error.
        assert!(matches!(
            lint(&args(&["--system", "baseline", "--fault", "uaf"])),
            Err(CliError::Usage(_))
        ));
        // Unknown fault kinds are usage errors too.
        assert!(matches!(
            lint(&args(&["--fault", "rowhammer"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn usage_documents_the_exit_code_contract() {
        let text = usage();
        assert!(text.contains("EXIT CODES"));
        assert!(text.contains("aos lint"));
        // The service and corpus surfaces are documented, flags and all.
        assert!(text.contains("aos serve"));
        assert!(text.contains("--retry-after-ms"));
        assert!(text.contains("--test-jobs"));
        assert!(text.contains("aos corpus record"));
        assert!(text.contains("aos corpus replay"));
        assert!(text.contains("aos corpus verify"));
        assert!(text.contains("--entry"));
        assert!(text.contains("--mode sim|lint"));
        // The geometry sweep is documented, axes included.
        assert!(text.contains("aos ablate"));
        assert!(text.contains("--mcq"));
        assert!(text.contains("--bwb"));
        // The multi-policy surface is documented: the matrix command,
        // the --policy flag, the policy roster, and guided fuzzing.
        assert!(text.contains("aos matrix"));
        assert!(text.contains("--policy <p|all>"));
        assert!(text.contains("POLICIES"));
        assert!(text.contains("--coverage-guided"));
    }

    #[test]
    fn policy_flags_honor_the_usage_contract() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // Unknown policies are usage errors everywhere the flag exists.
        assert!(matches!(
            lint(&args(&["--policy", "memtagger"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            matrix_cmd(&args(&["--policy", "memtagger"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            faults(&args(&["--policy", "memtagger"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            matrix_cmd(&args(&["--seeds", "0"])),
            Err(CliError::Usage(_))
        ));
        // `aos lint` is the AOS linter alone: a policy request is a
        // usage error that points at the matrix command.
        match lint(&args(&["--scale", "0.002", "--policy", "all"])) {
            Err(CliError::Usage(message)) => assert!(message.contains("aos matrix"), "{message}"),
            other => panic!("lint --policy all must be a usage error, got {other:?}"),
        }
        // A small matrix sweep passes its clean-row gate end to end.
        assert!(matrix_cmd(&args(&[
            "--scale",
            "0.002",
            "--seeds",
            "1",
            "--kinds",
            "uaf,pac-tamper",
        ]))
        .is_ok());
    }

    #[test]
    fn ablate_exit_code_contract() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // Usage errors: bad axes (sizes past the ceiling too, which
        // could not be allocated), the removed model flag, non-AOS
        // system.
        assert_eq!(parse_geometry_list("1,4096", "bwb"), Ok(vec![1, 4096]));
        for bad in [
            &["--mcq", "0"][..],
            &["--mcq", "twelve"],
            &["--bwb", "64,"],
            &["--bwb", "4097"],
            &["--bwb", "4294967296"],
            &["--mcq", "18446744073709551615"],
            &["--model", "rtl"],
            &["--model", "stage"],
            &["--system", "baseline"],
            &["--workload", "doom"],
        ] {
            assert!(
                matches!(ablate(&args(bad)), Err(CliError::Usage(_))),
                "aos ablate {bad:?} must be a usage error"
            );
        }
        // A tiny benign sweep (including the Table IV reference point)
        // runs clean: geometry affects timing, never detection.
        assert!(ablate(&args(&[
            "--scale", "0.002", "--mcq", "24,48", "--bwb", "64",
        ]))
        .is_ok());
        // A stale `--model approximate` fails loudly instead of
        // quietly sweeping the stage core.
        match ablate(&args(&[
            "--scale",
            "0.002",
            "--mcq",
            "48",
            "--bwb",
            "64",
            "--model",
            "approximate",
        ])) {
            Err(CliError::Usage(message)) => {
                assert!(message.contains("unknown flag --model"), "{message}")
            }
            other => panic!("--model approximate must be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn every_command_rejects_unknown_flags() {
        let bogus = || vec!["--bogus".to_string(), "1".to_string()];
        let usage = |result: Result<(), CliError>| matches!(result, Err(CliError::Usage(_)));
        assert!(run(&bogus()).is_err());
        assert!(compare(&bogus()).is_err());
        assert!(stats(&bogus()).is_err());
        assert!(campaign(&bogus()).is_err());
        assert!(report("table", &bogus()).is_err());
        assert!(pac(&bogus()).is_err());
        for (name, result) in [
            ("ablate", ablate(&bogus())),
            ("faults", faults(&bogus())),
            ("fuzz", fuzz(&bogus())),
            ("lint", lint(&bogus())),
            ("matrix", matrix_cmd(&bogus())),
            ("repro", repro(&bogus())),
            ("serve", serve(&bogus())),
            ("corpus", corpus(&bogus())),
        ] {
            assert!(usage(result), "aos {name} --bogus 1 must be a usage error");
        }
    }

    #[test]
    fn serve_flags_honor_the_usage_contract() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for bad in [
            &["--queue", "0"][..],
            &["--workers", "0"],
            &["--queue", "lots"],
            &["--timeout-ms", "soon"],
        ] {
            assert!(
                matches!(serve(&args(bad)), Err(CliError::Usage(_))),
                "aos serve {bad:?} must be a usage error"
            );
        }
    }

    #[test]
    fn corpus_exit_code_contract() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let dir =
            aos_util::scratch::ScratchDir::new("corpus_exit_code_contract").expect("scratch dir");
        let path = dir.join("contract.aosc");
        let path_str = path.display().to_string();

        // Usage errors: missing required flags / unknown values.
        assert!(matches!(corpus(&[]), Err(CliError::Usage(_))));
        assert!(matches!(
            corpus(&args(&["destroy"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            corpus(&args(&["record", "--out", &path_str])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            corpus(&args(&[
                "record",
                "--out",
                &path_str,
                "--workloads",
                "doom"
            ])),
            Err(CliError::Usage(_))
        ));

        // A clean record → replay → verify chain exits 0 throughout.
        corpus(&args(&[
            "record",
            "--out",
            &path_str,
            "--workloads",
            "mcf",
            "--systems",
            "baseline",
            "--scale",
            "0.004",
        ]))
        .expect("record");
        corpus(&args(&["replay", &path_str, "--entry", "mcf-baseline"])).expect("replay");
        corpus(&args(&["verify", &path_str])).expect("verify");
        assert!(matches!(
            corpus(&args(&["replay", &path_str, "--entry", "nonesuch"])),
            Err(CliError::Usage(_))
        ));

        // Corrupt the stored block: replay and verify become findings
        // (exit 1), not usage errors and not crashes.
        let entry = aos_core::isa::corpus::CorpusReader::open(&path, Telemetry::disabled())
            .expect("open")
            .entries()[0]
            .clone();
        let mut bytes = std::fs::read(&path).expect("read");
        // Past the entry's header frame (length, CRC, kind, name and
        // metadata) and its first op block's frame header (length,
        // CRC, kind): one payload byte of that block.
        let header_frame = 8 + 1 + 4 + entry.name.len() + 4 + entry.metadata.len();
        bytes[entry.offset as usize + header_frame + 9 + 12] ^= 0x08;
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            corpus(&args(&["replay", &path_str, "--entry", "mcf-baseline"])),
            Err(CliError::Findings(_))
        ));
        assert!(matches!(
            corpus(&args(&["verify", &path_str])),
            Err(CliError::Findings(_))
        ));
    }

    #[test]
    fn fast_commands_succeed() {
        assert!(params().is_ok());
        assert!(workloads().is_ok());
        assert!(pac(&["--allocations".into(), "2000".into()]).is_ok());
        assert!(pac(&["--bits".into(), "40".into()]).is_err());
        assert!(report("table", &["4".into()]).is_ok());
        assert!(report("table", &["9".into()]).is_err());
        assert!(report("fig", &["99".into()]).is_err());
        assert!(report("fig", &["1".into()]).is_err());
        assert!(report("fig", &[]).is_err());
    }
}
