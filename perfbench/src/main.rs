//! Host-calibrated benchmark of the AOS reproduction.
//!
//! ```text
//! perfbench --workload <fig14|static_matrix|hbt_resize> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One caller runs the workload's fixed operation list back to back
//! (a closed loop) for `--seconds`, timing each call from outside in
//! calibrated seconds (see [`cal`]). `--trace 0` prints the end-to-end
//! metrics; `--trace 1` instead runs each operation as one call per
//! layer, records spans, and prints the per-layer metrics. The last
//! line of standard output is one JSON object with the results.

mod cal;
mod spans;
mod stats;
mod work;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use aos_isa::SafetyConfig;
use cal::{Cal, Timed};
use spans::Tracer;
use stats::median;
use work::{Counts, Kind, Out, Task, Workload};

const USAGE: &str =
    "usage: perfbench --workload <fig14|static_matrix|hbt_resize> --seed <n> --seconds <s> --trace <0|1>";

/// Times the set-up is repeated; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Where the traced run writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".bench_out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut kind = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, got '{value}'"))
            };
            match flag.as_str() {
                "--workload" => {
                    kind = Some(
                        Kind::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                    })
                }
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        Ok(Self {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

/// A metric as the result line reports it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The run's verdict and numbers.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn main() {
    // Campaign cells run single-threaded: run_overlapped then takes its
    // in-thread batched path. The host's speed flips per vCPU, so a
    // cell spread over both vCPUs cannot be calibrated from one thread
    // (see README.md). Set before any thread exists.
    std::env::set_var(aos_util::par::THREADS_ENV, "1");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            metrics,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
}

/// Builds the workload and warms it up; in a timed run this is
/// repeated [`SETUP_REPS`] times and the median is `setup_s`.
fn set_up(args: &Args, cal: &mut Cal, reps: usize) -> (Workload, f64) {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..reps {
        let (workload, t) = cal.time(|_| {
            let workload = Workload::build(args.kind, args.seed);
            workload.warm_up();
            workload
        });
        times.push(t.cal_s);
        built = Some(workload);
    }
    (built.expect("at least one set-up"), median(&times))
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs every operation once, calibrated; returns per-op outputs and
/// calibrated seconds, and the raw pass time.
fn untraced_pass(
    workload: &Workload,
    cal: &mut Cal,
    deadline: Option<Instant>,
    failed: &mut u64,
) -> (Vec<Option<(Out, Timed)>>, f64) {
    let mut results = Vec::with_capacity(workload.tasks.len());
    let mut raw = 0.0;
    for task in &workload.tasks {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let (result, t) = cal.time(|cal| workload.run(task, cal));
        raw += t.raw_s;
        match result {
            Ok(out) => results.push(Some((out, t))),
            Err(e) => {
                *failed += 1;
                eprintln!("FAILED {}: {e}", workload.label(task));
                results.push(None);
            }
        }
    }
    (results, raw)
}

/// Records `out` as the first result of task `i`, or checks that it
/// repeats the first exactly.
fn check_repeat(workload: &Workload, first: &mut [Option<Out>], i: usize, out: &Out) -> bool {
    match &first[i] {
        None => {
            first[i] = Some(*out);
            true
        }
        Some(f) if f.key == out.key && f.work == out.work => true,
        Some(f) => {
            eprintln!(
                "FAILED {}: result changed between runs ({} vs {})",
                workload.label(&workload.tasks[i]),
                f.key,
                out.key
            );
            false
        }
    }
}

fn model_accuracy_line(kind: Kind, pct: f64) {
    let scale = match kind {
        Kind::Fig14 => format!("the Fig. 14 grid at scale {}", work::FIG14_SCALE),
        Kind::StaticMatrix => format!("six profiles at scale {}", work::MATRIX_SCALE),
        Kind::HbtResize => "omnetpp and sphinx3 at scale 1".to_string(),
    };
    println!(
        "model accuracy: AOS overhead {pct:+.2}% over {scale}; paper +8.4% and repository \
         +9.7% (results/fig14_exec_time.txt) are 16-profile geomeans at scale 1, so the \
         benchmark scale differs"
    );
}

fn timed_run(args: &Args) -> Outcome {
    let mut cal = Cal::new();
    let (workload, setup_s) = set_up(args, &mut cal, SETUP_REPS);
    let n = workload.tasks.len();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut first: Vec<Option<Out>> = vec![None; n];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut raw_passes = Vec::new();
    let mut peak_trace_bytes = 0;

    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    loop {
        // The first pass always completes, so every op has a sample.
        let limit = (!raw_passes.is_empty()).then_some(deadline);
        let (results, raw) = untraced_pass(&workload, &mut cal, limit, &mut failed);
        attempted += results.len() as u64;
        if results.len() == n {
            raw_passes.push(raw);
        }
        for (i, result) in results.iter().enumerate() {
            if let Some((out, timed)) = result {
                if check_repeat(&workload, &mut first, i, out) {
                    times[i].push(timed.cal_s);
                    peak_trace_bytes = peak_trace_bytes.max(out.peak_trace_bytes);
                } else {
                    failed += 1;
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let peak_rss = peak_rss_mb();
    let samples: Vec<usize> = times.iter().map(Vec::len).collect();

    // Untimed output checks.
    if workload.kind == Kind::Fig14 {
        for mismatch in workload.perop_mismatches(&first) {
            eprintln!("FAILED {mismatch}");
            failed += 1;
        }
    }
    let overhead = workload.aos_overhead_pct(&first);

    let per_op: Vec<f64> = times
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .collect();
    let work: u64 = first.iter().flatten().map(|o| o.work).sum();
    let mops = work as f64 / per_op.iter().sum::<f64>() / 1e6;
    println!(
        "{}: {n} ops, {} runs ({}–{} per op) in {:.1} s; host.cal_us {:.2}, host.raw_pass_s {:.3}, \
         peak trace {peak_trace_bytes} B",
        workload.kind.name(),
        attempted,
        samples.iter().min().unwrap_or(&0),
        samples.iter().max().unwrap_or(&0),
        start.elapsed().as_secs_f64(),
        cal.median_us(),
        median(&raw_passes),
    );
    model_accuracy_line(workload.kind, overhead);
    Outcome {
        attempted,
        failed,
        metrics: vec![
            metric("mops_per_s", mops, "Mop/s"),
            metric("op_ms_p50", median(&per_op) * 1e3, "ms"),
            metric("peak_rss_mb", peak_rss, "MiB"),
            metric("setup_s", setup_s, "s"),
            metric(
                "ok_frac",
                1.0 - failed as f64 / attempted.max(1) as f64,
                "frac",
            ),
            metric("aos_overhead_pct", overhead, "%"),
        ],
    }
}

fn traced_run(args: &Args) -> Outcome {
    let mut cal = Cal::new();
    let (workload, _) = set_up(args, &mut cal, 1);
    let kind = workload.kind;
    let mut pass_tr = Tracer::new();
    let mut probe_tr = Tracer::new();
    let mut counts = Counts::default();
    let mut first_counts = None;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let (mut untraced_s, mut traced_s, mut raw_pass_s) = (0.0, 0.0, Vec::new());
    let mut peak_trace_bytes = 0;
    let mut overlap_cells = 0u64;

    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let mut cycles = 0;
    while cycles == 0 || Instant::now() < deadline {
        cycles += 1;
        let (untraced, raw) = untraced_pass(&workload, &mut cal, None, &mut failed);
        raw_pass_s.push(raw);
        attempted += 2 * untraced.len() as u64;
        for (i, task) in workload.tasks.iter().enumerate() {
            let first = pass_tr.begin_op(i);
            let ((result, trace), t) =
                cal.time(|_| workload.traced(task, &mut pass_tr, &mut counts));
            pass_tr.calibrate_since(first, t.factor);
            traced_s += t.cal_s;
            let reference = untraced[i].as_ref().map(|(out, _)| out);
            match (&result, reference) {
                (Ok(out), Some(reference)) if out.key == reference.key => {}
                (Ok(out), Some(reference)) => {
                    failed += 1;
                    eprintln!(
                        "FAILED {}: end-to-end result {} but traced result {}",
                        workload.label(task),
                        reference.key,
                        out.key
                    );
                }
                (Ok(_), None) => {}
                (Err(e), _) => {
                    failed += 1;
                    eprintln!("FAILED {} (traced): {e}", workload.label(task));
                }
            }
            if let Some((out, timed)) = &untraced[i] {
                untraced_s += timed.cal_s;
                peak_trace_bytes = peak_trace_bytes.max(out.peak_trace_bytes);
                if kind == Kind::Fig14 {
                    overlap_cells += 1;
                }
            }
            let first = probe_tr.begin_op(i);
            let (_, t) = cal.time(|_| workload.probe(task, &trace, &mut probe_tr, &mut counts));
            probe_tr.calibrate_since(first, t.factor);
        }
        // Counts are reported from the first cycle, so they do not
        // depend on how many cycles fit in the run.
        first_counts.get_or_insert_with(|| counts.clone());
    }
    let reported = first_counts.expect("at least one cycle ran");

    // Self time per layer over the traced pass; the root spans' self
    // time is what no layer accounts for.
    let table = pass_tr.self_times();
    let layer_s: f64 = table
        .iter()
        .filter(|(name, _)| !is_root(name))
        .map(|(_, (s, _))| s)
        .sum();
    let pass_s: f64 = table.values().map(|(s, _)| s).sum();
    let residual = 1.0 - layer_s / pass_s;
    let overhead = traced_s / untraced_s - 1.0;

    let ns_per = |(t, w): (f64, u64)| if w == 0 { 0.0 } else { t * 1e9 / w as f64 };
    let gen = pass_tr.total("workloads.gen");
    let instr = instr_ns_per_op(&workload, &pass_tr);
    let core = probe_tr.total("sim.core");
    let checked = probe_tr.total("sim.checked");
    let check_ns = if counts.probe_signed_accesses == 0 {
        0.0
    } else {
        (checked.0 - core.0) * 1e9 / counts.probe_signed_accesses as f64
    };
    let overlap = probe_tr.total("transport.overlap");
    let split = if kind == Kind::Fig14 {
        let sim = pass_tr.total("sim.run");
        ns_per((gen.0 + sim.0, sim.1))
    } else {
        0.0
    };
    let guard_ns = if overlap_cells == 0 {
        0.0
    } else {
        (untraced_s - overlap.0) * 1e9 / overlap_cells as f64
    };
    let bwb = reported.bwb_hits + reported.bwb_misses;

    let metrics = vec![
        metric("workloads.gen_ns_per_op", ns_per(gen), "ns/op"),
        metric("workloads.instr_ns_per_op", instr, "ns/op"),
        metric("sim.core_ns_per_op", ns_per(core), "ns/op"),
        metric("mcu.check_ns_per_access", check_ns, "ns/access"),
        metric(
            "mcu.signed_accesses",
            reported.signed_accesses as f64,
            "count",
        ),
        metric(
            "mcu.bwb_hit_rate",
            if bwb == 0 {
                0.0
            } else {
                reported.bwb_hits as f64 / bwb as f64
            },
            "frac",
        ),
        metric("mcu.stalls_mcq", reported.stalls_mcq as f64, "count"),
        metric("hbt.resizes", reported.hbt_resizes as f64, "count"),
        metric(
            "hbt.migration_rows",
            reported.hbt_migration_rows as f64,
            "count",
        ),
        metric("hbt.lookups", reported.hbt_lookups as f64, "count"),
        metric("transport.overlap_ns_per_op", ns_per(overlap), "ns/op"),
        metric(
            "transport.perop_ns_per_op",
            ns_per(probe_tr.total("transport.perop")),
            "ns/op",
        ),
        metric("transport.split_ns_per_op", split, "ns/op"),
        metric(
            "transport.peak_trace_bytes",
            peak_trace_bytes as f64,
            "bytes",
        ),
        metric(
            "fault.plan_ns_per_op",
            ns_per(pass_tr.total("fault.plan")),
            "ns/op",
        ),
        metric(
            "fault.splice_ns_per_op",
            ns_per(pass_tr.total("fault.splice")),
            "ns/op",
        ),
        metric(
            "fault.anchor_failures",
            reported.anchor_failures as f64,
            "count",
        ),
        metric(
            "lint.aos_ns_per_op",
            ns_per(probe_tr.total("lint.aos")),
            "ns/op",
        ),
        metric(
            "lint.cryptsan_ns_per_op",
            ns_per(probe_tr.total("lint.cryptsan")),
            "ns/op",
        ),
        metric(
            "lint.pacsan_ns_per_op",
            ns_per(probe_tr.total("lint.pacsan")),
            "ns/op",
        ),
        metric(
            "lint.pactight_ns_per_op",
            ns_per(probe_tr.total("lint.pactight")),
            "ns/op",
        ),
        metric(
            "lint.matrix4_ns_per_op",
            ns_per(pass_tr.total("lint.matrix4")),
            "ns/op",
        ),
        metric("campaign.guard_ns_per_cell", guard_ns, "ns/cell"),
        metric("trace.residual_frac", residual, "frac"),
        metric("trace.overhead_frac", overhead, "frac"),
        metric("host.cal_us", cal.median_us(), "us"),
        metric("host.raw_pass_s", median(&raw_pass_s), "s"),
    ];

    print_layer_table(kind, cycles, &table, pass_s, &metrics);
    println!("traced run peak rss {:.1} MiB", peak_rss_mb());
    write_spans(args, &pass_tr, &probe_tr);
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

fn is_root(name: &str) -> bool {
    name.ends_with(".cell") || name.ends_with(".row")
}

/// Instrumentation cost of generation: AOS generation time minus
/// Baseline generation time of the same profiles, per AOS-trace op.
/// Zero when the workload generates no Baseline trace.
fn instr_ns_per_op(workload: &Workload, tr: &Tracer) -> f64 {
    let (mut aos, mut base) = ((0.0, 0u64), (0.0, 0u64));
    for span in tr.spans.iter().filter(|s| s.name == "workloads.gen") {
        let Task::Cell { sut, .. } = workload.tasks[span.op] else {
            continue;
        };
        let side = match sut.safety {
            SafetyConfig::Aos => &mut aos,
            SafetyConfig::Baseline => &mut base,
            _ => continue,
        };
        side.0 += span.cal_s();
        side.1 += span.work;
    }
    if aos.1 == 0 || base.1 == 0 {
        return 0.0;
    }
    (aos.0 - base.0) * 1e9 / aos.1 as f64
}

fn print_layer_table(
    kind: Kind,
    cycles: usize,
    table: &BTreeMap<&'static str, (f64, u64)>,
    pass_s: f64,
    metrics: &[Metric],
) {
    println!(
        "{}: traced pass, {cycles} cycle(s), calibrated self time per layer",
        kind.name()
    );
    println!(
        "{:<22} {:>12} {:>8} {:>14}",
        "span", "self s", "share", "work"
    );
    for (name, (s, work)) in table {
        println!(
            "{name:<22} {s:>12.4} {:>7.1}% {work:>14}",
            100.0 * s / pass_s
        );
    }
    println!("per-layer metrics:");
    for m in metrics {
        println!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// Writes both span sets as JSON lines under [`SPAN_DIR`].
fn write_spans(args: &Args, pass: &Tracer, probe: &Tracer) {
    let path = format!(
        "{SPAN_DIR}/spans-{}-seed{}.jsonl",
        args.kind.name(),
        args.seed
    );
    let body = format!(
        "{{\"phase\": \"traced_pass\"}}\n{}{{\"phase\": \"probes\"}}\n{}",
        pass.to_jsonl(),
        probe.to_jsonl()
    );
    match std::fs::create_dir_all(SPAN_DIR).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}
