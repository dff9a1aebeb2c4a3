//! The three workloads: their operations, how each operation runs
//! end to end, how it is checked, and how the traced run splits it
//! into calls to single layers.

use std::hint::black_box;

use aos_core::experiment::campaign::{run_campaign, CampaignCell, CampaignOptions};
use aos_core::experiment::overlap::run_overlapped;
use aos_core::experiment::{self, SystemUnderTest};
use aos_fault::{expected_policy_class, plan_fault, FaultKind, FaultSpec, LintClass};
use aos_isa::{Op, SafetyConfig};
use aos_lint::{MatrixScan, Policy, PolicyReport};
use aos_ptrauth::PointerLayout;
use aos_sim::{Machine, RunStats};
use aos_util::{Counter, Telemetry};
use aos_workloads::profile::by_name;
use aos_workloads::{TraceGenerator, WorkloadProfile, SPEC2006};

use crate::cal::{Cal, Sampled};
use crate::spans::Tracer;

/// Window scale of the Fig. 14 grid.
pub const FIG14_SCALE: f64 = 0.05;
/// Window scale of the static detection matrix.
pub const MATRIX_SCALE: f64 = 0.03;
/// Profiles of the static detection matrix.
const MATRIX_PROFILES: [&str; 6] = ["hmmer", "gcc", "omnetpp", "sphinx3", "povray", "astar"];
/// Fault seeds per (profile, kind) in the static matrix.
const MATRIX_SEEDS: usize = 2;
/// The fault seeds in 1..=200 on which every pinned policy verdict
/// holds for all six profiles and kinds at [`MATRIX_SCALE`]. On the
/// others a forged, tampered or freed PAC aliases another live
/// allocation's PAC, which no PAC-keyed static model can tell apart,
/// so the row would fail its check for a reason no code change
/// causes. The benchmark seed picks its fault seeds from this pool.
const FAULT_SEEDS: [u64; 78] = [
    2, 4, 5, 6, 7, 8, 9, 11, 13, 14, 16, 19, 21, 22, 25, 28, 29, 40, 43, 45, 51, 52, 55, 63, 65,
    66, 69, 76, 77, 78, 79, 80, 81, 82, 86, 89, 95, 96, 97, 98, 99, 100, 102, 106, 109, 110, 116,
    118, 119, 121, 123, 126, 133, 134, 136, 139, 142, 143, 144, 146, 148, 149, 150, 152, 156, 162,
    163, 165, 168, 169, 172, 176, 177, 181, 192, 193, 195, 200,
];
/// Profiles of the resize workload with their §IX-A1 resize counts.
const RESIZE_PROFILES: [(&str, u64); 2] = [("omnetpp", 2), ("sphinx3", 1)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig14,
    StaticMatrix,
    HbtResize,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Fig14, Kind::StaticMatrix, Kind::HbtResize];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig14 => "fig14",
            Kind::StaticMatrix => "static_matrix",
            Kind::HbtResize => "hbt_resize",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One operation of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Task {
    /// One (profile × system) simulation.
    Cell {
        profile: &'static WorkloadProfile,
        sut: SystemUnderTest,
        /// Gradual HBT resizes the run must report, when pinned.
        resizes: Option<u64>,
    },
    /// One row of the static detection matrix: the clean trace, or
    /// the trace with one planned fault.
    Row {
        profile: &'static WorkloadProfile,
        fault: Option<FaultSpec>,
    },
}

/// What one operation produced.
#[derive(Debug, Clone, Copy)]
pub struct Out {
    /// Work done: µops retired by a simulation, ops scanned by a row.
    pub work: u64,
    /// Deterministic fingerprint of the result (cycles of a
    /// simulation, digest of a row's findings), compared across runs.
    pub key: u64,
    /// Peak buffered trace bytes of the campaign cell runner.
    pub peak_trace_bytes: u64,
}

/// Counts taken from telemetry-enabled runs in the traced pass.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub signed_accesses: u64,
    pub bwb_hits: u64,
    pub bwb_misses: u64,
    pub stalls_mcq: u64,
    pub hbt_resizes: u64,
    pub hbt_migration_rows: u64,
    pub hbt_lookups: u64,
    pub anchor_failures: u64,
    /// Signed accesses of the AOS cells the check-path probe reruns.
    pub probe_signed_accesses: u64,
}

pub struct Workload {
    pub kind: Kind,
    pub tasks: Vec<Task>,
}

fn profile(name: &str) -> &'static WorkloadProfile {
    by_name(name).expect("benchmark profiles exist in the suite")
}

fn layout() -> PointerLayout {
    PointerLayout::default()
}

impl Workload {
    /// The operation list. Only the static matrix depends on `seed`:
    /// the generator seeds traces from the profile name.
    pub fn build(kind: Kind, seed: u64) -> Self {
        let tasks = match kind {
            Kind::Fig14 => SPEC2006
                .iter()
                .flat_map(|p| {
                    SafetyConfig::ALL.map(|s| Task::Cell {
                        profile: p,
                        sut: SystemUnderTest::scaled(s, FIG14_SCALE),
                        resizes: None,
                    })
                })
                .collect(),
            Kind::StaticMatrix => MATRIX_PROFILES
                .iter()
                .flat_map(|&name| {
                    let p = profile(name);
                    std::iter::once(Task::Row {
                        profile: p,
                        fault: None,
                    })
                    .chain(FaultKind::ALL.into_iter().flat_map(move |kind| {
                        (0..MATRIX_SEEDS).map(move |rep| Task::Row {
                            profile: p,
                            fault: Some(FaultSpec {
                                kind,
                                seed: fault_seed(seed, rep),
                            }),
                        })
                    }))
                })
                .collect(),
            Kind::HbtResize => RESIZE_PROFILES
                .iter()
                .flat_map(|&(name, resizes)| {
                    [(SafetyConfig::Baseline, 0), (SafetyConfig::Aos, resizes)].map(|(s, r)| {
                        Task::Cell {
                            profile: profile(name),
                            sut: SystemUnderTest::scaled(s, 1.0),
                            resizes: Some(r),
                        }
                    })
                })
                .collect(),
        };
        Self { kind, tasks }
    }

    /// Runs a small instance of the workload's first operation so
    /// code, allocator and thread start-up are warm before timing.
    pub fn warm_up(&self) {
        let small = match self.tasks[0] {
            Task::Cell { profile, sut, .. } => Task::Cell {
                profile,
                sut: SystemUnderTest {
                    scale: 0.005,
                    ..sut
                },
                resizes: None,
            },
            Task::Row { profile, .. } => Task::Row {
                profile,
                fault: Some(FaultSpec {
                    kind: FaultKind::UseAfterFree,
                    seed: 1,
                }),
            },
        };
        let mut cal = Cal::new();
        let _ = black_box(self.run_scaled(&small, &mut cal, 0.005));
    }

    pub fn label(&self, task: &Task) -> String {
        match task {
            Task::Cell { profile, sut, .. } => format!("{}/{}", profile.name, sut.safety),
            Task::Row { profile, fault } => match fault {
                None => format!("{}/clean", profile.name),
                Some(f) => format!("{}/{}#{}", profile.name, f.kind, f.seed),
            },
        }
    }

    /// Runs one operation end to end and checks its output.
    pub fn run(&self, task: &Task, cal: &mut Cal) -> Result<Out, String> {
        self.run_scaled(task, cal, MATRIX_SCALE)
    }

    fn run_scaled(&self, task: &Task, cal: &mut Cal, row_scale: f64) -> Result<Out, String> {
        match *task {
            Task::Cell {
                profile,
                sut,
                resizes,
            } => {
                let (stats, peak_trace_bytes) = if self.kind == Kind::Fig14 {
                    let cell = CampaignCell {
                        profile: *profile,
                        sut,
                    };
                    let report = run_campaign(&[cell], &CampaignOptions::with_threads(1));
                    let result = &report.results[0];
                    let out = result
                        .output()
                        .ok_or_else(|| result.error().unwrap_or("cell failed").to_string())?;
                    (out.stats.clone(), out.peak_trace_bytes)
                } else {
                    let trace = TraceGenerator::new(profile, sut.safety, sut.scale);
                    let mut machine = Machine::new(sut.machine_config());
                    (machine.run(Sampled::new(trace, cal)), 0)
                };
                check_stats(&stats, resizes)?;
                Ok(Out {
                    work: stats.retired_ops,
                    key: stats.cycles,
                    peak_trace_bytes,
                })
            }
            Task::Row { profile, fault } => {
                let stream = || TraceGenerator::new(profile, SafetyConfig::Aos, row_scale);
                let reports = match fault {
                    None => {
                        MatrixScan::run(&Policy::ALL, stream(), layout(), &Telemetry::disabled())
                    }
                    Some(spec) => {
                        let plan =
                            plan_fault(stream(), layout(), spec).map_err(|e| e.to_string())?;
                        MatrixScan::run(
                            &Policy::ALL,
                            plan.apply(stream()),
                            layout(),
                            &Telemetry::disabled(),
                        )
                    }
                };
                check_verdicts(fault.map(|f| f.kind), &reports)?;
                Ok(row_out(&reports))
            }
        }
    }

    /// The traced form of one operation: the same work as [`run`],
    /// done as one call per layer over a materialized trace, each call
    /// a span. Returns the result and the clean materialized trace the
    /// layer probes reuse.
    ///
    /// [`run`]: Workload::run
    pub fn traced(
        &self,
        task: &Task,
        tr: &mut Tracer,
        counts: &mut Counts,
    ) -> (Result<Out, String>, Vec<Op>) {
        let root = match self.kind {
            Kind::Fig14 => "fig14.cell",
            Kind::StaticMatrix => "static_matrix.row",
            Kind::HbtResize => "hbt_resize.cell",
        };
        tr.span(root, |tr| {
            let out = match *task {
                Task::Cell {
                    profile,
                    sut,
                    resizes,
                } => {
                    let trace = generate(tr, profile, sut.safety, sut.scale);
                    let stats = tr.span("sim.run", |_| {
                        let mut machine = Machine::new(sut.with_telemetry(true).machine_config());
                        let stats = machine.run(trace.iter().copied());
                        (stats, trace.len() as u64)
                    });
                    counts.absorb(&stats);
                    let out = check_stats(&stats, resizes).map(|()| Out {
                        work: stats.retired_ops,
                        key: stats.cycles,
                        peak_trace_bytes: 0,
                    });
                    (out, trace)
                }
                Task::Row { profile, fault } => {
                    let clean = generate(tr, profile, SafetyConfig::Aos, MATRIX_SCALE);
                    let scanned = match fault {
                        None => Ok(clean),
                        Some(spec) => {
                            let n = clean.len() as u64;
                            let plan = tr.span("fault.plan", |_| {
                                (plan_fault(clean.into_iter(), layout(), spec), n)
                            });
                            match plan {
                                Err(e) => {
                                    counts.anchor_failures += 1;
                                    Err(e.to_string())
                                }
                                Ok(plan) => {
                                    let fresh =
                                        generate(tr, profile, SafetyConfig::Aos, MATRIX_SCALE);
                                    Ok(tr.span("fault.splice", |_| {
                                        let v: Vec<Op> = plan.apply(fresh.into_iter()).collect();
                                        let n = v.len() as u64;
                                        (v, n)
                                    }))
                                }
                            }
                        }
                    };
                    match scanned {
                        Err(e) => (Err(e), Vec::new()),
                        Ok(ops) => {
                            let reports = tr.span("lint.matrix4", |_| {
                                let r = MatrixScan::run(
                                    &Policy::ALL,
                                    ops.iter().copied(),
                                    layout(),
                                    &Telemetry::disabled(),
                                );
                                (r, ops.len() as u64)
                            });
                            let out = check_verdicts(fault.map(|f| f.kind), &reports)
                                .map(|()| row_out(&reports));
                            (out, if fault.is_none() { ops } else { Vec::new() })
                        }
                    }
                }
            };
            (out, 0)
        })
    }

    /// Layer probes: extra calls that isolate one layer each, over
    /// the trace [`traced`](Workload::traced) materialized. They are
    /// not part of the traced pass.
    pub fn probe(&self, task: &Task, trace: &[Op], tr: &mut Tracer, counts: &mut Counts) {
        match *task {
            Task::Cell { profile, sut, .. } => {
                if sut.safety == SafetyConfig::Aos {
                    let n = trace.len() as u64;
                    let base = SystemUnderTest {
                        safety: SafetyConfig::Baseline,
                        ..sut
                    };
                    tr.span("sim.core", |_| {
                        let mut machine = Machine::new(base.machine_config());
                        (black_box(machine.run(trace.iter().copied())), n)
                    });
                    let stats = tr.span("sim.checked", |_| {
                        let mut machine = Machine::new(sut.machine_config());
                        (machine.run(trace.iter().copied()), n)
                    });
                    counts.probe_signed_accesses += stats.mcu.signed_accesses;
                }
                if self.kind == Kind::Fig14 {
                    tr.span("transport.overlap", |_| {
                        let out = run_overlapped(profile, &sut);
                        let n = out.trace_ops;
                        (black_box(out), n)
                    });
                    tr.span("transport.perop", |_| {
                        let stats = experiment::run(profile, &sut);
                        (black_box(stats), trace.len() as u64)
                    });
                }
            }
            Task::Row { fault: None, .. } => {
                for policy in Policy::ALL {
                    let name = match policy {
                        Policy::Aos => "lint.aos",
                        Policy::CryptSan => "lint.cryptsan",
                        Policy::PacSan => "lint.pacsan",
                        Policy::PacTight => "lint.pactight",
                    };
                    tr.span(name, |_| {
                        let r = MatrixScan::run(
                            &[policy],
                            trace.iter().copied(),
                            layout(),
                            &Telemetry::disabled(),
                        );
                        (black_box(r), trace.len() as u64)
                    });
                }
            }
            Task::Row { .. } => {}
        }
    }

    /// Simulated AOS overhead over Baseline: the geomean over profiles
    /// of AOS cycles ÷ Baseline cycles, minus 1, in percent. The
    /// static matrix runs no machine, so its figure comes from
    /// simulating its profiles at its scale here, untimed.
    pub fn aos_overhead_pct(&self, outs: &[Option<Out>]) -> f64 {
        let mut ratios = Vec::new();
        match self.kind {
            Kind::StaticMatrix => {
                for name in MATRIX_PROFILES {
                    let cycles = |s| {
                        experiment::run(profile(name), &SystemUnderTest::scaled(s, MATRIX_SCALE))
                            .cycles as f64
                    };
                    ratios.push(cycles(SafetyConfig::Aos) / cycles(SafetyConfig::Baseline));
                }
            }
            Kind::Fig14 | Kind::HbtResize => {
                let cycles = |name: &str, safety| {
                    self.tasks
                        .iter()
                        .zip(outs)
                        .find_map(|(task, out)| match (task, out) {
                            (Task::Cell { profile, sut, .. }, Some(out))
                                if profile.name == name && sut.safety == safety =>
                            {
                                Some(out.key as f64)
                            }
                            _ => None,
                        })
                };
                for task in &self.tasks {
                    if let Task::Cell { profile, sut, .. } = task {
                        if sut.safety == SafetyConfig::Aos {
                            if let (Some(a), Some(b)) = (
                                cycles(profile.name, SafetyConfig::Aos),
                                cycles(profile.name, SafetyConfig::Baseline),
                            ) {
                                ratios.push(a / b);
                            }
                        }
                    }
                }
            }
        }
        (aos_util::geomean(&ratios) - 1.0) * 100.0
    }

    /// Per-op reference for the Fig. 14 grid: each cell simulated by
    /// streaming the generator straight into the machine, one op at a
    /// time. Returns the cells whose cycles differ from `outs`.
    pub fn perop_mismatches(&self, outs: &[Option<Out>]) -> Vec<String> {
        let mut bad = Vec::new();
        for (task, out) in self.tasks.iter().zip(outs) {
            if let (Task::Cell { profile, sut, .. }, Some(out)) = (task, out) {
                let cycles = experiment::run(profile, sut).cycles;
                if cycles != out.key {
                    bad.push(format!(
                        "{}: overlapped {} cycles, per-op {cycles}",
                        self.label(task),
                        out.key
                    ));
                }
            }
        }
        bad
    }
}

/// The `rep`-th fault seed of benchmark seed `seed`.
fn fault_seed(seed: u64, rep: usize) -> u64 {
    let slot = (seed % FAULT_SEEDS.len() as u64) as usize * MATRIX_SEEDS + rep;
    FAULT_SEEDS[slot % FAULT_SEEDS.len()]
}

/// Drains a generator into a vector, as a `workloads.gen` span.
fn generate(
    tr: &mut Tracer,
    profile: &WorkloadProfile,
    safety: SafetyConfig,
    scale: f64,
) -> Vec<Op> {
    tr.span("workloads.gen", |_| {
        let v: Vec<Op> = TraceGenerator::new(profile, safety, scale).collect();
        let n = v.len() as u64;
        (v, n)
    })
}

fn check_stats(stats: &RunStats, resizes: Option<u64>) -> Result<(), String> {
    if stats.violations != 0 {
        return Err(format!("{} violations on a benign trace", stats.violations));
    }
    match resizes {
        Some(n) if stats.hbt_resizes != n => {
            Err(format!("{} HBT resizes, expected {n}", stats.hbt_resizes))
        }
        _ => Ok(()),
    }
}

/// The clean row must be silent under every policy; a faulted row
/// must be seen by exactly the policies its kind is pinned to.
fn check_verdicts(kind: Option<FaultKind>, reports: &[PolicyReport]) -> Result<(), String> {
    for report in reports {
        let detected = report.total_diagnostics() > 0;
        let expected = kind.is_some_and(|k| {
            expected_policy_class(report.policy, k) == LintClass::StaticallyDetectable
        });
        if detected != expected {
            return Err(format!(
                "policy {} {} the {} row, expected {}",
                report.policy.name(),
                if detected { "flagged" } else { "missed" },
                kind.map_or("clean", |k| k.name()),
                if expected { "a finding" } else { "silence" },
            ));
        }
    }
    Ok(())
}

/// A row's result: ops scanned, and an FNV-1a digest of every
/// policy's per-rule finding counts.
fn row_out(reports: &[PolicyReport]) -> Out {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for count in reports.iter().flat_map(|r| &r.rule_counts) {
        digest = (digest ^ count).wrapping_mul(0x0100_0000_01b3);
    }
    Out {
        work: reports.first().map_or(0, |r| r.ops_scanned),
        key: digest,
        peak_trace_bytes: 0,
    }
}

impl Counts {
    fn absorb(&mut self, stats: &RunStats) {
        self.signed_accesses += stats.mcu.signed_accesses;
        self.bwb_hits += stats.bwb.hits;
        self.bwb_misses += stats.bwb.misses;
        self.stalls_mcq += stats.stalls_mcq;
        self.hbt_resizes += stats.hbt_resizes;
        self.hbt_migration_rows += stats.telemetry.counter(Counter::HbtMigrationRows);
        self.hbt_lookups += stats.telemetry.counter(Counter::HbtLookups);
    }
}
