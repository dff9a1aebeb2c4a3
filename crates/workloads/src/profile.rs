//! Per-benchmark workload profiles.
//!
//! The allocation columns (`full_*`) are the paper's Tables II and III
//! verbatim — they drive the [`crate::schedule`] reproduction. The
//! window and mix parameters are *calibrated*: they encode the
//! benchmark characteristics the paper reports or implies (memory
//! intensity and signed-access fractions from Fig. 16, call-heaviness
//! from the PA discussion of §IX-A, live-set trajectories sized so the
//! HBT resize counts of §IX-A1 emerge, footprints sized so the cache
//! sensitivity ordering of Figs. 14/15/18 emerges). `EXPERIMENTS.md`
//! records how each measured result compares with the paper.

/// Which suite a profile belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU 2006 (Table II, Figs. 14–18).
    Spec2006,
    /// Real-world programs (Table III).
    RealWorld,
}

/// A calibrated benchmark model. See the [module docs](self) for what
/// is verbatim versus calibrated.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadProfile {
    /// Benchmark name as the paper prints it.
    pub name: &'static str,
    /// Which table/suite it belongs to.
    pub suite: Suite,

    // --- Tables II/III, verbatim ---
    /// Total allocation calls over the full program.
    pub full_allocations: u64,
    /// Total deallocation calls over the full program.
    pub full_deallocations: u64,
    /// Peak live chunks ("Max Active").
    pub full_max_active: u64,

    // --- simulated-window shape ---
    /// Base (uninstrumented) micro-ops in the timed window at scale 1.
    pub window_instructions: u64,
    /// Allocations performed while the window's live set builds up.
    pub startup_allocations: u64,
    /// Base ops between steady-state allocations (0 = no churn).
    pub steady_alloc_period: u64,
    /// Live-chunk level the window churns around.
    pub window_max_live: u64,

    // --- instruction mix ---
    /// Fraction of base ops that are data loads/stores.
    pub mem_fraction: f64,
    /// Of memory ops, the fraction that are stores.
    pub store_fraction: f64,
    /// Of memory ops, the fraction addressing heap chunks (signed
    /// under AOS — the Fig. 16 series).
    pub heap_fraction: f64,
    /// Fraction of base ops that are branches.
    pub branch_fraction: f64,
    /// Misprediction rate per branch.
    pub mispredict_rate: f64,
    /// Fraction of base ops that are floating-point.
    pub fp_fraction: f64,
    /// Base ops per function boundary (PA signing sites); 0 = none.
    pub call_period: u64,
    /// Of heap accesses, the fraction that move pointer *values*
    /// (Watchdog shadow traffic, PA/PA+AOS authentication sites).
    pub pointer_memop_fraction: f64,
    /// Of integer ops, the fraction that are pointer arithmetic
    /// (Watchdog metadata propagation sites).
    pub pointer_arith_fraction: f64,

    // --- locality ---
    /// How many recently-used chunks form the hot set.
    pub hot_chunks: usize,
    /// Zipf exponent of chunk reuse (higher = hotter).
    pub zipf_exponent: f64,
    /// Bytes of stack/global region touched by non-heap accesses.
    pub stack_span: u64,
    /// Probability a heap access falls in its chunk's hot window
    /// (low values model streaming over large arrays).
    pub spatial_locality: f64,
    /// Fraction of loads that depend on the previous load's value
    /// (pointer chasing); serializes memory latency as in the real
    /// benchmark.
    pub load_chain_fraction: f64,
    /// Estimated hot text-segment size in bytes; sizes the synthetic
    /// branch-site population.
    pub code_footprint: u64,
    /// Allocation-size histogram: (bytes, weight).
    pub alloc_sizes: &'static [(u64, f64)],
}

/// Few, very large chunks (mcf's arrays, lbm's grid).
const HUGE: &[(u64, f64)] = &[(24 << 20, 1.0), (48 << 20, 1.0), (96 << 20, 0.5)];
/// A handful of large buffers (bzip2, milc, libquantum).
const BIG: &[(u64, f64)] = &[(256 << 10, 2.0), (1 << 20, 2.0), (4 << 20, 1.0)];
/// Mid-size records (namd, soplex, hmmer).
const MEDIUM: &[(u64, f64)] = &[(256, 2.0), (1024, 2.0), (4096, 1.0), (16384, 0.3)];
/// Small graph/tree nodes (omnetpp, astar).
const SMALL_NODES: &[(u64, f64)] = &[(24, 4.0), (32, 3.0), (48, 2.0), (64, 1.5), (96, 1.0)];
/// gcc's obstack-style mix: many small nodes plus sizeable arrays, so
/// the data footprint far exceeds the L2.
const GCC_NODES: &[(u64, f64)] = &[(32, 3.0), (64, 2.0), (256, 1.5), (4096, 0.8), (16384, 0.4)];
/// A broad mix (povray, h264ref, sphinx3).
const MIXED: &[(u64, f64)] = &[(32, 3.0), (64, 2.0), (256, 1.5), (1024, 1.0), (8192, 0.4)];

/// The sixteen SPEC CPU 2006 workloads of Table II, in the paper's
/// order.
pub const SPEC2006: &[WorkloadProfile] = &[
    WorkloadProfile {
        name: "bzip2",
        suite: Suite::Spec2006,
        full_allocations: 29,
        full_deallocations: 25,
        full_max_active: 10,
        window_instructions: 4_000_000,
        startup_allocations: 10,
        steady_alloc_period: 0,
        window_max_live: 10,
        mem_fraction: 0.42,
        store_fraction: 0.35,
        heap_fraction: 0.85,
        branch_fraction: 0.13,
        mispredict_rate: 0.06,
        fp_fraction: 0.01,
        call_period: 400,
        pointer_memop_fraction: 0.03,
        pointer_arith_fraction: 0.15,
        hot_chunks: 8,
        zipf_exponent: 0.8,
        stack_span: 1 << 20,
        spatial_locality: 0.6,
        load_chain_fraction: 0.1,
        code_footprint: 128 << 10,
        alloc_sizes: BIG,
    },
    WorkloadProfile {
        name: "gcc",
        suite: Suite::Spec2006,
        full_allocations: 1_846_825,
        full_deallocations: 1_829_255,
        full_max_active: 81_825,
        window_instructions: 4_000_000,
        startup_allocations: 58_000,
        steady_alloc_period: 90,
        window_max_live: 60_000,
        mem_fraction: 0.46,
        store_fraction: 0.40,
        heap_fraction: 0.80,
        branch_fraction: 0.16,
        mispredict_rate: 0.04,
        fp_fraction: 0.0,
        call_period: 120,
        pointer_memop_fraction: 0.18,
        pointer_arith_fraction: 0.25,
        hot_chunks: 20_000,
        zipf_exponent: 0.45,
        stack_span: 2 << 20,
        spatial_locality: 0.6,
        load_chain_fraction: 0.35,
        code_footprint: 2 << 20,
        alloc_sizes: GCC_NODES,
    },
    WorkloadProfile {
        name: "mcf",
        suite: Suite::Spec2006,
        full_allocations: 8,
        full_deallocations: 8,
        full_max_active: 6,
        window_instructions: 4_000_000,
        startup_allocations: 6,
        steady_alloc_period: 0,
        window_max_live: 6,
        mem_fraction: 0.40,
        store_fraction: 0.25,
        heap_fraction: 0.75,
        branch_fraction: 0.10,
        mispredict_rate: 0.08,
        fp_fraction: 0.0,
        call_period: 600,
        pointer_memop_fraction: 0.20,
        pointer_arith_fraction: 0.25,
        hot_chunks: 6,
        zipf_exponent: 0.25,
        stack_span: 1 << 19,
        spatial_locality: 0.15,
        load_chain_fraction: 0.5,
        code_footprint: 64 << 10,
        alloc_sizes: HUGE,
    },
    WorkloadProfile {
        name: "milc",
        suite: Suite::Spec2006,
        full_allocations: 6_523,
        full_deallocations: 6_474,
        full_max_active: 61,
        window_instructions: 4_000_000,
        startup_allocations: 61,
        steady_alloc_period: 400_000,
        window_max_live: 61,
        mem_fraction: 0.36,
        store_fraction: 0.30,
        heap_fraction: 0.60,
        branch_fraction: 0.05,
        mispredict_rate: 0.02,
        fp_fraction: 0.30,
        call_period: 700,
        pointer_memop_fraction: 0.03,
        pointer_arith_fraction: 0.08,
        hot_chunks: 61,
        zipf_exponent: 0.4,
        stack_span: 1 << 19,
        spatial_locality: 0.3,
        load_chain_fraction: 0.05,
        code_footprint: 256 << 10,
        alloc_sizes: BIG,
    },
    WorkloadProfile {
        name: "namd",
        suite: Suite::Spec2006,
        full_allocations: 1_328,
        full_deallocations: 1_326,
        full_max_active: 1_316,
        window_instructions: 4_000_000,
        startup_allocations: 1_316,
        steady_alloc_period: 500_000,
        window_max_live: 1_316,
        mem_fraction: 0.38,
        store_fraction: 0.30,
        heap_fraction: 0.50,
        branch_fraction: 0.04,
        mispredict_rate: 0.012,
        fp_fraction: 0.40,
        call_period: 900,
        pointer_memop_fraction: 0.03,
        pointer_arith_fraction: 0.04,
        hot_chunks: 300,
        zipf_exponent: 0.9,
        stack_span: 1 << 18,
        spatial_locality: 0.8,
        load_chain_fraction: 0.05,
        code_footprint: 512 << 10,
        alloc_sizes: MEDIUM,
    },
    WorkloadProfile {
        name: "gobmk",
        suite: Suite::Spec2006,
        full_allocations: 137_369,
        full_deallocations: 137_358,
        full_max_active: 1_021,
        window_instructions: 4_000_000,
        startup_allocations: 1_021,
        steady_alloc_period: 300,
        window_max_live: 1_021,
        mem_fraction: 0.31,
        store_fraction: 0.32,
        heap_fraction: 0.30,
        branch_fraction: 0.20,
        mispredict_rate: 0.09,
        fp_fraction: 0.01,
        call_period: 90,
        pointer_memop_fraction: 0.08,
        pointer_arith_fraction: 0.12,
        hot_chunks: 500,
        zipf_exponent: 0.9,
        stack_span: 1 << 20,
        spatial_locality: 0.8,
        load_chain_fraction: 0.2,
        code_footprint: 3 << 20,
        alloc_sizes: MIXED,
    },
    WorkloadProfile {
        name: "soplex",
        suite: Suite::Spec2006,
        full_allocations: 98_955,
        full_deallocations: 34_025,
        full_max_active: 140,
        window_instructions: 4_000_000,
        startup_allocations: 20_000,
        steady_alloc_period: 400,
        window_max_live: 25_000,
        mem_fraction: 0.36,
        store_fraction: 0.30,
        heap_fraction: 0.60,
        branch_fraction: 0.08,
        mispredict_rate: 0.03,
        fp_fraction: 0.25,
        call_period: 250,
        pointer_memop_fraction: 0.06,
        pointer_arith_fraction: 0.10,
        hot_chunks: 5_000,
        zipf_exponent: 0.8,
        stack_span: 1 << 19,
        spatial_locality: 0.7,
        load_chain_fraction: 0.15,
        code_footprint: 512 << 10,
        alloc_sizes: MEDIUM,
    },
    WorkloadProfile {
        name: "povray",
        suite: Suite::Spec2006,
        full_allocations: 2_461_247,
        full_deallocations: 2_461_107,
        full_max_active: 11_667,
        window_instructions: 4_000_000,
        startup_allocations: 11_667,
        steady_alloc_period: 60,
        window_max_live: 11_667,
        mem_fraction: 0.40,
        store_fraction: 0.35,
        heap_fraction: 0.45,
        branch_fraction: 0.13,
        mispredict_rate: 0.045,
        fp_fraction: 0.25,
        call_period: 45,
        pointer_memop_fraction: 0.08,
        pointer_arith_fraction: 0.08,
        hot_chunks: 2_000,
        zipf_exponent: 1.0,
        stack_span: 1 << 19,
        spatial_locality: 0.8,
        load_chain_fraction: 0.2,
        code_footprint: 1 << 20,
        alloc_sizes: MIXED,
    },
    WorkloadProfile {
        name: "hmmer",
        suite: Suite::Spec2006,
        full_allocations: 1_474_128,
        full_deallocations: 1_474_128,
        full_max_active: 1_450,
        window_instructions: 4_000_000,
        startup_allocations: 1_450,
        steady_alloc_period: 120,
        window_max_live: 1_450,
        mem_fraction: 0.62,
        store_fraction: 0.40,
        heap_fraction: 0.99,
        branch_fraction: 0.06,
        mispredict_rate: 0.015,
        fp_fraction: 0.05,
        call_period: 28,
        pointer_memop_fraction: 0.02,
        pointer_arith_fraction: 0.10,
        hot_chunks: 800,
        zipf_exponent: 0.8,
        stack_span: 1 << 16,
        spatial_locality: 0.9,
        load_chain_fraction: 0.1,
        code_footprint: 128 << 10,
        alloc_sizes: MEDIUM,
    },
    WorkloadProfile {
        name: "sjeng",
        suite: Suite::Spec2006,
        full_allocations: 6,
        full_deallocations: 2,
        full_max_active: 6,
        window_instructions: 4_000_000,
        startup_allocations: 6,
        steady_alloc_period: 0,
        window_max_live: 6,
        mem_fraction: 0.28,
        store_fraction: 0.30,
        heap_fraction: 0.20,
        branch_fraction: 0.22,
        mispredict_rate: 0.10,
        fp_fraction: 0.0,
        call_period: 70,
        pointer_memop_fraction: 0.03,
        pointer_arith_fraction: 0.08,
        hot_chunks: 6,
        zipf_exponent: 0.6,
        stack_span: 2 << 20,
        spatial_locality: 0.8,
        load_chain_fraction: 0.2,
        code_footprint: 256 << 10,
        alloc_sizes: BIG,
    },
    WorkloadProfile {
        name: "libquantum",
        suite: Suite::Spec2006,
        full_allocations: 180,
        full_deallocations: 180,
        full_max_active: 5,
        window_instructions: 4_000_000,
        startup_allocations: 5,
        steady_alloc_period: 400_000,
        window_max_live: 5,
        mem_fraction: 0.26,
        store_fraction: 0.20,
        heap_fraction: 0.70,
        branch_fraction: 0.10,
        mispredict_rate: 0.02,
        fp_fraction: 0.05,
        call_period: 500,
        pointer_memop_fraction: 0.02,
        pointer_arith_fraction: 0.05,
        hot_chunks: 5,
        zipf_exponent: 0.2,
        stack_span: 1 << 16,
        spatial_locality: 0.1,
        load_chain_fraction: 0.05,
        code_footprint: 64 << 10,
        alloc_sizes: BIG,
    },
    WorkloadProfile {
        name: "h264ref",
        suite: Suite::Spec2006,
        full_allocations: 38_275,
        full_deallocations: 38_273,
        full_max_active: 13_857,
        window_instructions: 4_000_000,
        startup_allocations: 13_857,
        steady_alloc_period: 600,
        window_max_live: 13_857,
        mem_fraction: 0.46,
        store_fraction: 0.40,
        heap_fraction: 0.50,
        branch_fraction: 0.10,
        mispredict_rate: 0.035,
        fp_fraction: 0.05,
        call_period: 150,
        pointer_memop_fraction: 0.06,
        pointer_arith_fraction: 0.10,
        hot_chunks: 2_000,
        zipf_exponent: 0.9,
        stack_span: 1 << 19,
        spatial_locality: 0.7,
        load_chain_fraction: 0.15,
        code_footprint: 1 << 20,
        alloc_sizes: MIXED,
    },
    WorkloadProfile {
        name: "lbm",
        suite: Suite::Spec2006,
        full_allocations: 7,
        full_deallocations: 7,
        full_max_active: 5,
        window_instructions: 4_000_000,
        startup_allocations: 5,
        steady_alloc_period: 0,
        window_max_live: 5,
        mem_fraction: 0.30,
        store_fraction: 0.45,
        heap_fraction: 0.90,
        branch_fraction: 0.03,
        mispredict_rate: 0.005,
        fp_fraction: 0.45,
        call_period: 1_500,
        pointer_memop_fraction: 0.01,
        pointer_arith_fraction: 0.05,
        hot_chunks: 5,
        zipf_exponent: 0.3,
        stack_span: 1 << 16,
        spatial_locality: 0.1,
        load_chain_fraction: 0.05,
        code_footprint: 64 << 10,
        alloc_sizes: HUGE,
    },
    WorkloadProfile {
        name: "omnetpp",
        suite: Suite::Spec2006,
        full_allocations: 21_244_416,
        full_deallocations: 21_244_416,
        full_max_active: 1_993_737,
        window_instructions: 6_000_000,
        startup_allocations: 380_000,
        steady_alloc_period: 130,
        window_max_live: 400_000,
        mem_fraction: 0.36,
        store_fraction: 0.40,
        heap_fraction: 0.50,
        branch_fraction: 0.15,
        mispredict_rate: 0.05,
        fp_fraction: 0.01,
        call_period: 40,
        pointer_memop_fraction: 0.15,
        pointer_arith_fraction: 0.20,
        hot_chunks: 150_000,
        zipf_exponent: 0.3,
        stack_span: 1 << 19,
        spatial_locality: 0.35,
        load_chain_fraction: 0.65,
        code_footprint: 1 << 20,
        alloc_sizes: SMALL_NODES,
    },
    WorkloadProfile {
        name: "astar",
        suite: Suite::Spec2006,
        full_allocations: 1_116_621,
        full_deallocations: 1_116_621,
        full_max_active: 190_984,
        window_instructions: 4_000_000,
        startup_allocations: 58_000,
        steady_alloc_period: 400,
        window_max_live: 60_000,
        mem_fraction: 0.40,
        store_fraction: 0.35,
        heap_fraction: 0.70,
        branch_fraction: 0.13,
        mispredict_rate: 0.06,
        fp_fraction: 0.02,
        call_period: 200,
        pointer_memop_fraction: 0.05,
        pointer_arith_fraction: 0.18,
        hot_chunks: 40_000,
        zipf_exponent: 0.4,
        stack_span: 1 << 19,
        spatial_locality: 0.6,
        load_chain_fraction: 0.30,
        code_footprint: 256 << 10,
        alloc_sizes: SMALL_NODES,
    },
    WorkloadProfile {
        name: "sphinx3",
        suite: Suite::Spec2006,
        full_allocations: 14_224_690,
        full_deallocations: 14_024_020,
        full_max_active: 200_686,
        window_instructions: 4_000_000,
        startup_allocations: 130_000,
        steady_alloc_period: 250,
        window_max_live: 135_000,
        mem_fraction: 0.36,
        store_fraction: 0.30,
        heap_fraction: 0.60,
        branch_fraction: 0.10,
        mispredict_rate: 0.03,
        fp_fraction: 0.25,
        call_period: 120,
        pointer_memop_fraction: 0.08,
        pointer_arith_fraction: 0.10,
        hot_chunks: 60_000,
        zipf_exponent: 0.4,
        stack_span: 1 << 19,
        spatial_locality: 0.5,
        load_chain_fraction: 0.3,
        code_footprint: 512 << 10,
        alloc_sizes: MIXED,
    },
];

/// The six real-world programs of Table III.
pub const REAL_WORLD: &[WorkloadProfile] = &[
    real_world("pbzip2", 12_425, 12_423, 110, BIG),
    real_world("pigz", 24_511, 24_511, 110, BIG),
    real_world("axel", 473, 473, 172, MIXED),
    real_world("md5sum", 34, 34, 32, MIXED),
    real_world("apache", 13_360_000, 13_360_000, 7_592, SMALL_NODES),
    real_world("mysql", 28_622, 28_621, 5_380, MEDIUM),
];

/// Real-world rows share a generic server/tool mix; only the Table III
/// allocation columns differ.
const fn real_world(
    name: &'static str,
    allocs: u64,
    deallocs: u64,
    max_active: u64,
    sizes: &'static [(u64, f64)],
) -> WorkloadProfile {
    WorkloadProfile {
        name,
        suite: Suite::RealWorld,
        full_allocations: allocs,
        full_deallocations: deallocs,
        full_max_active: max_active,
        window_instructions: 2_000_000,
        startup_allocations: if max_active < 10_000 {
            max_active
        } else {
            10_000
        },
        steady_alloc_period: 500,
        window_max_live: max_active,
        mem_fraction: 0.35,
        store_fraction: 0.35,
        heap_fraction: 0.55,
        branch_fraction: 0.12,
        mispredict_rate: 0.04,
        fp_fraction: 0.02,
        call_period: 120,
        pointer_memop_fraction: 0.08,
        pointer_arith_fraction: 0.10,
        hot_chunks: 1_000,
        zipf_exponent: 0.8,
        stack_span: 1 << 19,
        spatial_locality: 0.7,
        load_chain_fraction: 0.2,
        code_footprint: 256 << 10,
        alloc_sizes: sizes,
    }
}

/// Looks up a profile by benchmark name across both suites.
pub fn by_name(name: &str) -> Option<&'static WorkloadProfile> {
    SPEC2006
        .iter()
        .chain(REAL_WORLD.iter())
        .find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_spec_and_six_real_world() {
        assert_eq!(SPEC2006.len(), 16);
        assert_eq!(REAL_WORLD.len(), 6);
    }

    #[test]
    fn table_ii_columns_are_verbatim() {
        let gcc = by_name("gcc").unwrap();
        assert_eq!(gcc.full_allocations, 1_846_825);
        assert_eq!(gcc.full_deallocations, 1_829_255);
        assert_eq!(gcc.full_max_active, 81_825);
        let omnetpp = by_name("omnetpp").unwrap();
        assert_eq!(omnetpp.full_allocations, 21_244_416);
        assert_eq!(omnetpp.full_max_active, 1_993_737);
        let mcf = by_name("mcf").unwrap();
        assert_eq!(mcf.full_allocations, 8);
    }

    #[test]
    fn table_iii_columns_are_verbatim() {
        let apache = by_name("apache").unwrap();
        assert_eq!(apache.full_max_active, 7_592);
        let axel = by_name("axel").unwrap();
        assert_eq!(axel.full_allocations, 473);
    }

    #[test]
    fn lookup_misses_return_none() {
        assert!(by_name("doom").is_none());
    }

    #[test]
    fn fractions_are_sane() {
        for p in SPEC2006.iter().chain(REAL_WORLD.iter()) {
            assert!(p.mem_fraction > 0.0 && p.mem_fraction < 0.7, "{}", p.name);
            assert!(
                p.mem_fraction + p.branch_fraction + p.fp_fraction < 1.0,
                "{}",
                p.name
            );
            assert!((0.0..=1.0).contains(&p.heap_fraction), "{}", p.name);
            assert!((0.0..=1.0).contains(&p.store_fraction), "{}", p.name);
            assert!(p.window_instructions > 0, "{}", p.name);
            for &(size, w) in p.alloc_sizes {
                assert!(size > 0 && size <= u32::MAX as u64, "{}", p.name);
                assert!(w > 0.0, "{}", p.name);
            }
        }
    }

    #[test]
    fn hmmer_is_almost_fully_signed() {
        assert!(by_name("hmmer").unwrap().heap_fraction > 0.95);
    }
}
