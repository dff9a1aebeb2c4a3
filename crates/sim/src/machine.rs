//! The machine front door: configuration, statistics, and
//! [`Machine::run`], which drives a trace through the stage-structured
//! out-of-order core in [`crate::pipeline`].

use aos_hbt::{HashedBoundsTable, HbtConfig};
use aos_isa::{InstMix, Op, SafetyConfig};
use aos_mcu::{BoundsMemory, BwbStats, McuConfig, McuStats, MemoryCheckUnit};
use aos_ptrauth::PointerLayout;

use crate::cache::CacheStats;
use crate::hierarchy::{MemoryHierarchy, TrafficStats};
use crate::pipeline::StageCore;

/// The named Table IV core-geometry constants. `table_iv`, the
/// `describe()` dump, and the geometry tests all read these, so an
/// ablation that changes one knob cannot silently drift from the
/// documented machine.
pub struct SimConfig;

impl SimConfig {
    /// Issue (and retire) width.
    pub const ISSUE_WIDTH: u32 = 8;
    /// Reorder buffer entries.
    pub const ROB_ENTRIES: usize = 192;
    /// Load queue entries.
    pub const LSQ_LOADS: usize = 32;
    /// Store queue entries.
    pub const LSQ_STORES: usize = 32;
    /// Cycles lost on a charged branch misprediction.
    pub const MISPREDICT_PENALTY: u64 = 14;
    /// Memory check queue entries (§V-B).
    pub const MCQ_ENTRIES: usize = 48;
    /// Bounds way buffer entries (§V-C).
    pub const BWB_ENTRIES: usize = 64;
    /// Background HBT migration bandwidth during gradual resize.
    pub const MIGRATION_ROWS_PER_CYCLE: u64 = 4;
}

/// Full machine configuration (Table IV defaults via
/// [`MachineConfig::table_iv`]).
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Issue (and retire) width.
    pub issue_width: u32,
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Load queue entries.
    pub lsq_loads: usize,
    /// Store queue entries.
    pub lsq_stores: usize,
    /// Cycles lost on a charged branch misprediction.
    pub mispredict_penalty: u64,
    /// Whether the L1-B bounds cache is present (§V-F1).
    pub with_l1b: bool,
    /// Pointer layout (PAC/AHC decoding).
    pub layout: PointerLayout,
    /// MCU geometry and feature knobs.
    pub mcu: McuConfig,
    /// Bounds table geometry.
    pub hbt: HbtConfig,
    /// Whether the MCU is active (AOS / PA+AOS configurations).
    pub aos_enabled: bool,
    /// Background migration bandwidth during gradual resize.
    pub migration_rows_per_cycle: u64,
    /// Whether runs carry a telemetry snapshot: the MCU/BWB/HBT and
    /// run-loop stats projected into it when the stats are collected.
    /// The runner that drained the trace projects the stream's own
    /// counts into the same snapshot. The simulated behaviour is
    /// identical either way.
    pub telemetry: bool,
    /// Whether the run loop may fast-forward over cycles in which
    /// nothing can happen (every in-flight operation is waiting on a
    /// known future time). The skip replays the per-cycle stall
    /// bookkeeping exactly, so statistics are bit-identical either way
    /// — the `event_skip_is_invisible` differential test pins this.
    pub event_skip: bool,
}

impl MachineConfig {
    /// The Table IV machine for one of the five evaluated systems:
    /// 8-wide, 192-entry ROB, 32+32 LSQ, 48-entry MCQ, 16-bit PACs,
    /// initial 1-way HBT, L1-B present, 64-entry BWB — every geometry
    /// literal sourced from [`SimConfig`].
    pub fn table_iv(config: SafetyConfig) -> Self {
        Self {
            issue_width: SimConfig::ISSUE_WIDTH,
            rob_entries: SimConfig::ROB_ENTRIES,
            lsq_loads: SimConfig::LSQ_LOADS,
            lsq_stores: SimConfig::LSQ_STORES,
            mispredict_penalty: SimConfig::MISPREDICT_PENALTY,
            with_l1b: true,
            layout: PointerLayout::default(),
            mcu: McuConfig {
                mcq_entries: SimConfig::MCQ_ENTRIES,
                bwb_entries: SimConfig::BWB_ENTRIES,
                ..McuConfig::default()
            },
            hbt: HbtConfig::default(),
            aos_enabled: config.uses_aos(),
            migration_rows_per_cycle: SimConfig::MIGRATION_ROWS_PER_CYCLE,
            telemetry: false,
            event_skip: true,
        }
    }

    /// Human-readable parameter dump — the Table IV reproduction.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "Core            2GHz, {}-wide, out-of-order, {} ROB entries,\n",
            self.issue_width, self.rob_entries
        ));
        s.push_str(&format!(
            "                {}-entry load and {}-entry store queues, {} MCQ entries\n",
            self.lsq_loads, self.lsq_stores, self.mcu.mcq_entries
        ));
        s.push_str("L1-I cache      32KB, 4-way, 1-cycle, 64B line (modeled ideal)\n");
        s.push_str("L1-D cache      64KB, 8-way, 1-cycle, 64B line\n");
        if self.with_l1b {
            s.push_str("L1-B cache      32KB, 4-way, 1-cycle, 8B bounds\n");
        }
        s.push_str("L2 cache        8MB, 16-way, 8-cycle, 64B line\n");
        s.push_str("DRAM            50ns access latency from L2 (100 cycles @ 2GHz)\n");
        s.push_str(&format!(
            "Arm PA          {}-bit PAC, signing/authentication 4-cycle, stripping 1-cycle\n",
            self.layout.pac_size()
        ));
        s.push_str(&format!(
            "HBT             initial {}-way, {} MB\n",
            self.hbt.initial_ways,
            (1u64 << self.hbt.pac_size) * self.hbt.initial_ways as u64 * 64 / (1 << 20)
        ));
        s.push_str(&format!(
            "BWB             {} entries, 1-cycle, LRU\n",
            self.mcu.bwb_entries
        ));
        s
    }
}

/// Everything a run produces.
///
/// `PartialEq` is field-by-field: two runs produced identical
/// statistics — the property the campaign runner's determinism test
/// asserts between its parallel and sequential paths.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Micro-ops retired.
    pub retired_ops: u64,
    /// Instruction-mix classification (Fig. 16).
    pub mix: InstMix,
    /// L1-D counters.
    pub l1d: CacheStats,
    /// L1-B counters, when present.
    pub l1b: Option<CacheStats>,
    /// L2 counters.
    pub l2: CacheStats,
    /// Inter-level traffic (Fig. 18).
    pub traffic: TrafficStats,
    /// MCU counters (Fig. 17).
    pub mcu: McuStats,
    /// BWB counters (Fig. 17).
    pub bwb: BwbStats,
    /// Gradual resizes triggered (§IX-A1).
    pub hbt_resizes: u64,
    /// Final HBT associativity.
    pub hbt_ways: u32,
    /// Memory-safety violations detected (should be zero for benign
    /// workloads).
    pub violations: u64,
    /// Mispredictions that paid the full flush penalty.
    pub charged_mispredicts: u64,
    /// Mispredictions overlapped with structural stalls (the paper's
    /// MCQ back-pressure effect, §IX-A).
    pub waived_mispredicts: u64,
    /// Cycles in which nothing issued due to a structural hazard.
    pub stall_cycles: u64,
    /// Issue stalls charged to a full ROB.
    pub stalls_rob: u64,
    /// Issue stalls charged to a full load/store queue.
    pub stalls_lsq: u64,
    /// Issue stalls charged to a full MCQ (the paper's back-pressure).
    pub stalls_mcq: u64,
    /// Loads the LSQ replayed after an older in-window store resolved
    /// to an overlapping address.
    pub lsq_replays: u64,
    /// Precise-exception pipeline flushes: commits of a faulted op
    /// that squashed everything younger.
    pub flushes: u64,
    /// Pipeline telemetry snapshot (all-zero/disabled when the config
    /// did not enable telemetry). Deterministic for a given
    /// `(trace, config)`, so the derived `PartialEq` still certifies
    /// bit-identical runs.
    pub telemetry: aos_util::TelemetrySnapshot,
}

impl RunStats {
    /// Micro-ops retired per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired_ops as f64 / self.cycles as f64
        }
    }

    /// A copy with the telemetry section zeroed — the comparison basis
    /// for the observer-effect differential test (an enabled-telemetry
    /// run must equal a disabled one in every *simulated* statistic).
    pub fn without_telemetry(&self) -> RunStats {
        RunStats {
            telemetry: aos_util::TelemetrySnapshot::default(),
            ..self.clone()
        }
    }
}

pub(crate) struct BoundsPort<'a> {
    pub(crate) hierarchy: &'a mut MemoryHierarchy,
}

impl BoundsMemory for BoundsPort<'_> {
    fn load_line(&mut self, addr: u64) -> u64 {
        self.hierarchy.access_bounds(addr, 64, false)
    }

    fn store_line(&mut self, addr: u64) -> u64 {
        self.hierarchy.access_bounds(addr, 64, true)
    }
}

/// The machine: construct, [`Machine::run`] a trace, read the stats.
///
/// See the [crate docs](crate) for an example and the modeling notes.
pub struct Machine {
    pub(crate) config: MachineConfig,
    pub(crate) hierarchy: MemoryHierarchy,
    pub(crate) mcu: MemoryCheckUnit,
    pub(crate) hbt: HashedBoundsTable,
    pub(crate) now: u64,
    pub(crate) prev_cycle_stalled: bool,
    pub(crate) mix: InstMix,
    pub(crate) retired_ops: u64,
    pub(crate) violations: u64,
    pub(crate) charged_mispredicts: u64,
    pub(crate) waived_mispredicts: u64,
    pub(crate) stall_cycles: u64,
    pub(crate) stalls_rob: u64,
    pub(crate) stalls_lsq: u64,
    pub(crate) stalls_mcq: u64,
    pub(crate) lsq_replays: u64,
    pub(crate) flushes: u64,
    /// Retired `xpacm`s, `autm`s, and `autm`s of an unsigned pointer:
    /// telemetry only, kept outside [`RunStats`] so the simulated
    /// statistics do not change, and projected by `collect_stats`.
    pub(crate) ptr_strips: u64,
    pub(crate) ptr_auths: u64,
    pub(crate) auth_failures: u64,
    /// The stage-structured pipeline state.
    pub(crate) stage: StageCore,
}

impl Machine {
    /// Builds a fresh machine.
    pub fn new(config: MachineConfig) -> Self {
        // The MCU's small buffers are allocated before the caches'
        // large ones. The allocation order decides which of glibc's
        // two heap layouts a full-scale run settles in (DESIGN §15.5).
        let mcu = MemoryCheckUnit::new(config.mcu, config.layout);
        Self {
            hierarchy: MemoryHierarchy::table_iv(config.with_l1b),
            mcu,
            hbt: HashedBoundsTable::new(config.hbt),
            now: 0,
            prev_cycle_stalled: false,
            mix: InstMix::default(),
            retired_ops: 0,
            violations: 0,
            charged_mispredicts: 0,
            waived_mispredicts: 0,
            stall_cycles: 0,
            stalls_rob: 0,
            stalls_lsq: 0,
            stalls_mcq: 0,
            lsq_replays: 0,
            flushes: 0,
            ptr_strips: 0,
            ptr_auths: 0,
            auth_failures: 0,
            stage: StageCore::new(&config),
            config,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Runs a trace to completion through the stage core and returns
    /// the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails to make forward progress (a
    /// model bug, bounded at 2^40 cycles).
    pub fn run<I: IntoIterator<Item = Op>>(&mut self, trace: I) -> RunStats {
        self.run_stage(trace.into_iter())
    }

    /// Snapshots the statistics accumulated so far. The telemetry
    /// snapshot holds the MCU, HBT and run-loop stats projected into
    /// it; every stat is cumulative, so a second run on the same
    /// machine counts nothing twice.
    pub(crate) fn collect_stats(&self) -> RunStats {
        use aos_util::{Counter, TelemetrySnapshot};
        let mut telemetry = TelemetrySnapshot::new(self.config.telemetry);
        self.mcu.record_telemetry(&mut telemetry);
        self.hbt.record_telemetry(&mut telemetry);
        telemetry.add(Counter::SimViolations, self.violations);
        telemetry.add(Counter::SimStallRob, self.stalls_rob);
        telemetry.add(Counter::SimStallLsq, self.stalls_lsq);
        telemetry.add(Counter::SimStallMcq, self.stalls_mcq);
        telemetry.add(Counter::SimReplays, self.lsq_replays);
        telemetry.add(Counter::SimFlushes, self.flushes);
        telemetry.add(Counter::PtrStrips, self.ptr_strips);
        telemetry.add(Counter::PtrAuths, self.ptr_auths);
        telemetry.add(Counter::AuthFailures, self.auth_failures);
        RunStats {
            cycles: self.now,
            retired_ops: self.retired_ops,
            mix: self.mix,
            l1d: self.hierarchy.l1d_stats(),
            l1b: self.hierarchy.l1b_stats(),
            l2: self.hierarchy.l2_stats(),
            traffic: self.hierarchy.traffic(),
            mcu: self.mcu.stats(),
            bwb: self.mcu.bwb_stats(),
            hbt_resizes: self.hbt.stats().resizes,
            hbt_ways: self.hbt.ways(),
            violations: self.violations,
            charged_mispredicts: self.charged_mispredicts,
            waived_mispredicts: self.waived_mispredicts,
            stall_cycles: self.stall_cycles,
            stalls_rob: self.stalls_rob,
            stalls_lsq: self.stalls_lsq,
            stalls_mcq: self.stalls_mcq,
            lsq_replays: self.lsq_replays,
            flushes: self.flushes,
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_trace(n: usize) -> Vec<Op> {
        vec![Op::IntAlu; n]
    }

    #[test]
    fn ideal_ilp_approaches_issue_width() {
        let mut m = Machine::new(MachineConfig::table_iv(SafetyConfig::Baseline));
        let stats = m.run(int_trace(8000));
        assert_eq!(stats.retired_ops, 8000);
        assert!(stats.ipc() > 6.0, "ipc was {}", stats.ipc());
    }

    #[test]
    fn mispredicts_cost_cycles() {
        let clean: Vec<Op> = (0..4000)
            .map(|i| Op::Branch {
                pc: 0x1000 + (i % 16) * 4,
                taken: true,
                mispredicted: false,
            })
            .collect();
        let dirty: Vec<Op> = (0..4000)
            .map(|i| Op::Branch {
                pc: 0x1000 + (i % 16) * 4,
                taken: true,
                mispredicted: i % 50 == 0,
            })
            .collect();
        let a = Machine::new(MachineConfig::table_iv(SafetyConfig::Baseline)).run(clean);
        let b = Machine::new(MachineConfig::table_iv(SafetyConfig::Baseline)).run(dirty);
        assert!(b.cycles > a.cycles + 500, "{} vs {}", b.cycles, a.cycles);
        assert!(b.charged_mispredicts > 0);
    }

    #[test]
    fn cache_misses_slow_the_run() {
        // Sequential streaming (new line every 8 accesses) vs hot set.
        let streaming: Vec<Op> = (0..20_000u64)
            .map(|i| Op::Load {
                pointer: 0x100_0000 + i * 8,
                bytes: 8,
                chained: false,
            })
            .collect();
        let hot: Vec<Op> = (0..20_000u64)
            .map(|i| Op::Load {
                pointer: 0x100_0000 + (i % 64) * 8,
                bytes: 8,
                chained: false,
            })
            .collect();
        let cold = Machine::new(MachineConfig::table_iv(SafetyConfig::Baseline)).run(streaming);
        let warm = Machine::new(MachineConfig::table_iv(SafetyConfig::Baseline)).run(hot);
        assert!(cold.cycles > warm.cycles);
        assert!(cold.traffic.total_bytes() > warm.traffic.total_bytes());
    }

    #[test]
    fn aos_checks_signed_accesses_and_retires_cleanly() {
        let layout = PointerLayout::default();
        let base = 0x4000_0000u64;
        let mut trace = Vec::new();
        // Sign + store bounds, then access the chunk many times.
        let signed = layout.compose(base, 0x1234, 1);
        trace.push(Op::Pacma {
            pointer: signed,
            size: 64,
        });
        trace.push(Op::BndStr {
            pointer: signed,
            size: 64,
        });
        for i in 0..5000u64 {
            trace.push(Op::Load {
                pointer: signed + (i % 8) * 8,
                bytes: 8,
                chained: false,
            });
        }
        let mut m = Machine::new(MachineConfig::table_iv(SafetyConfig::Aos));
        let stats = m.run(trace);
        assert_eq!(stats.violations, 0);
        assert_eq!(stats.mcu.signed_accesses, 5000);
        assert_eq!(stats.mcu.completed_checks + stats.mcu.forwards, 5000);
        assert!(stats.bwb.hits > 4000, "BWB should capture the reuse");
    }

    #[test]
    fn aos_overhead_visible_but_bounded_for_checked_loads() {
        let layout = PointerLayout::default();
        let base = 0x4000_0000u64;
        let signed = layout.compose(base, 0x77, 1);
        let mut trace = vec![Op::BndStr {
            pointer: signed,
            size: 4096,
        }];
        for i in 0..20_000u64 {
            trace.push(Op::Load {
                pointer: signed + (i % 512) * 8,
                bytes: 8,
                chained: false,
            });
            trace.push(Op::IntAlu);
            trace.push(Op::IntAlu);
        }
        let baseline_trace: Vec<Op> = trace
            .iter()
            .map(|op| match *op {
                Op::Load {
                    pointer,
                    bytes,
                    chained,
                } => Op::Load {
                    pointer: layout.address(pointer),
                    bytes,
                    chained,
                },
                Op::BndStr { .. } => Op::IntAlu,
                other => other,
            })
            .collect();
        let aos = Machine::new(MachineConfig::table_iv(SafetyConfig::Aos)).run(trace);
        let base_stats =
            Machine::new(MachineConfig::table_iv(SafetyConfig::Baseline)).run(baseline_trace);
        let overhead = aos.cycles as f64 / base_stats.cycles as f64;
        assert!(overhead >= 1.0, "AOS cannot be faster here: {overhead}");
        assert!(overhead < 1.6, "overhead should be modest: {overhead}");
    }

    #[test]
    fn violation_is_detected_and_counted() {
        let layout = PointerLayout::default();
        let signed = layout.compose(0x4000_0000, 0x99, 1);
        let trace = vec![
            Op::BndStr {
                pointer: signed,
                size: 64,
            },
            // Out of bounds by one line.
            Op::Load {
                pointer: signed + 128,
                bytes: 8,
                chained: false,
            },
        ];
        let stats = Machine::new(MachineConfig::table_iv(SafetyConfig::Aos)).run(trace);
        assert_eq!(stats.violations, 1);
    }

    #[test]
    fn row_overflow_triggers_resize_in_flight() {
        let layout = PointerLayout::default();
        let mut trace = Vec::new();
        // Nine chunks with the same PAC overflow the 8-slot row.
        for i in 0..9u64 {
            let signed = layout.compose(0x4000_0000 + i * 0x1000, 0x42, 1);
            trace.push(Op::BndStr {
                pointer: signed,
                size: 64,
            });
        }
        let mut config = MachineConfig::table_iv(SafetyConfig::Aos);
        config.telemetry = true;
        let stats = Machine::new(config).run(trace);
        assert_eq!(stats.hbt_resizes, 1);
        assert_eq!(stats.hbt_ways, 2);
        assert_eq!(stats.violations, 0);
        // The projected counters see the resize and the migration
        // steps that ran before the trace drained.
        let t = &stats.telemetry;
        assert_eq!(t.counter(aos_util::Counter::HbtResizes), 1);
        let rows = t.counter(aos_util::Counter::HbtMigrationRows);
        assert!((1..=1 << 16).contains(&rows), "{rows} rows migrated");
    }

    #[test]
    fn hbt_exhaustion_degrades_instead_of_panicking() {
        let layout = PointerLayout::default();
        let mut config = MachineConfig::table_iv(SafetyConfig::Aos);
        config.hbt.initial_ways = 1;
        config.hbt.max_ways = 2;
        // 17 same-PAC chunks exceed 2 ways × 8 slots: the final bndstr
        // cannot be placed even after the last allowed resize.
        let mut trace = Vec::new();
        for i in 0..17u64 {
            let signed = layout.compose(0x4000_0000 + i * 0x100, 0x77, 1);
            trace.push(Op::BndStr {
                pointer: signed,
                size: 64,
            });
        }
        let stats = Machine::new(config).run(trace);
        assert_eq!(stats.hbt_resizes, 1);
        assert_eq!(stats.hbt_ways, 2);
        assert_eq!(stats.violations, 1, "the unplaceable store is counted");
    }

    #[test]
    fn malformed_bndstr_in_trace_counts_as_violation() {
        let layout = PointerLayout::default();
        // A tampered trace: misaligned base and an oversized size.
        let trace = vec![
            Op::BndStr {
                pointer: layout.compose(0x4000_0008, 5, 1),
                size: 64,
            },
            Op::BndStr {
                pointer: layout.compose(0x4000_1000, 6, 1),
                size: 1 << 33,
            },
        ];
        let stats = Machine::new(MachineConfig::table_iv(SafetyConfig::Aos)).run(trace);
        assert_eq!(stats.violations, 2);
    }

    #[test]
    fn l1b_separates_bounds_traffic() {
        let layout = PointerLayout::default();
        let mut trace = Vec::new();
        for i in 0..64u64 {
            let signed = layout.compose(0x4000_0000 + i * 0x1000, i, 1);
            trace.push(Op::BndStr {
                pointer: signed,
                size: 64,
            });
            trace.push(Op::Load {
                pointer: signed,
                bytes: 8,
                chained: false,
            });
        }
        let mut cfg = MachineConfig::table_iv(SafetyConfig::Aos);
        cfg.with_l1b = true;
        let with = Machine::new(cfg.clone()).run(trace.clone());
        assert!(with.l1b.is_some());
        cfg.with_l1b = false;
        let without = Machine::new(cfg).run(trace);
        assert!(without.l1b.is_none());
        assert!(
            without.l1d.misses > with.l1d.misses,
            "bounds pollute the L1-D without the L1-B"
        );
    }

    #[test]
    fn table_iv_description_lists_parameters() {
        let cfg = MachineConfig::table_iv(SafetyConfig::Aos);
        let d = cfg.describe();
        // Geometry strings come from the named SimConfig constants, so
        // the asserts can't drift from the documented machine.
        assert!(d.contains(&format!("{}-wide", SimConfig::ISSUE_WIDTH)));
        assert!(d.contains(&format!("{} ROB", SimConfig::ROB_ENTRIES)));
        assert!(d.contains(&format!("{} MCQ", SimConfig::MCQ_ENTRIES)));
        assert!(d.contains("16-bit PAC"));
        assert!(d.contains("4 MB"));
    }

    #[test]
    fn table_iv_geometry_comes_from_sim_config() {
        let cfg = MachineConfig::table_iv(SafetyConfig::Aos);
        assert_eq!(cfg.issue_width, SimConfig::ISSUE_WIDTH);
        assert_eq!(cfg.rob_entries, SimConfig::ROB_ENTRIES);
        assert_eq!(cfg.lsq_loads, SimConfig::LSQ_LOADS);
        assert_eq!(cfg.lsq_stores, SimConfig::LSQ_STORES);
        assert_eq!(cfg.mispredict_penalty, SimConfig::MISPREDICT_PENALTY);
        assert_eq!(cfg.mcu.mcq_entries, SimConfig::MCQ_ENTRIES);
        assert_eq!(cfg.mcu.bwb_entries, SimConfig::BWB_ENTRIES);
    }

    #[test]
    fn event_skip_is_invisible() {
        // The fast-forward must replay every per-cycle counter exactly:
        // cycles, stall breakdowns, mispredict waiving, MCU stats — the
        // whole RunStats. Exercise the stall sources the skip reasons
        // about: DRAM-latency chains (ROB head waits), LSQ pressure,
        // MCQ back-pressure with bounds checks, and mispredict flushes.
        let layout = PointerLayout::default();
        let mut trace = Vec::new();
        for i in 0..64u64 {
            let signed = layout.compose(0x4000_0000 + i * 0x1000, i % 7, 1);
            trace.push(Op::BndStr {
                pointer: signed,
                size: 4096,
            });
            for j in 0..24u64 {
                trace.push(Op::Load {
                    pointer: signed + j * 64,
                    bytes: 8,
                    chained: j % 3 == 0,
                });
            }
            trace.push(Op::Branch {
                pc: 0x1000 + (i % 16) * 4,
                taken: true,
                mispredicted: i % 9 == 0,
            });
            trace.push(Op::PacCrypto);
            if i % 5 == 0 {
                trace.push(Op::BndClr { pointer: signed });
            }
        }
        for config in [SafetyConfig::Baseline, SafetyConfig::Aos] {
            let mut with_skip = MachineConfig::table_iv(config);
            with_skip.telemetry = true;
            assert!(with_skip.event_skip, "table_iv enables the skip");
            let mut without = with_skip.clone();
            without.event_skip = false;
            let a = Machine::new(with_skip).run(trace.clone());
            let b = Machine::new(without).run(trace.clone());
            assert_eq!(a, b, "event skip changed statistics under {config:?}");
        }
    }

    #[test]
    fn run_may_be_called_again_and_accumulates() {
        let mut m = Machine::new(MachineConfig::table_iv(SafetyConfig::Baseline));
        let first = m.run(vec![Op::IntAlu; 100]).retired_ops;
        let second = m.run(vec![Op::IntAlu; 50]).retired_ops;
        assert_eq!(first, 100);
        assert_eq!(second, 150, "statistics accumulate across runs");
    }

    #[test]
    fn stats_ipc_handles_zero() {
        let mut m = Machine::new(MachineConfig::table_iv(SafetyConfig::Baseline));
        let stats = m.run(Vec::new());
        assert_eq!(stats.retired_ops, 0);
        assert!(stats.ipc() <= 8.0);
    }
}
