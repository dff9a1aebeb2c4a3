//! Property-based tests over the core data structures and invariants.
//!
//! Scripted sequences are drawn from the shared
//! `aos_isa::strategy` generators: [`action_script`] for abstract
//! `(kind, a, b)` scripts and [`lifecycle_stream`] for complete
//! well-formed Fig. 7 op streams.

use proptest::prelude::*;

use aos_core::experiment::SystemUnderTest;
use aos_core::hbt::{CompressedBounds, HashedBoundsTable, HbtConfig};
use aos_core::mcu::{McuConfig, McuOp, MemoryCheckUnit};
use aos_core::ptrauth::{bwb_tag, compute_ahc, Ahc, PointerLayout};
use aos_core::qarma::{truncate_pac, PacKey, Qarma64};
use aos_core::AosProcess;
use aos_isa::strategy::{action_script, lifecycle_stream, LifecycleConfig};
use aos_isa::Op;
use aos_isa::SafetyConfig;
use aos_lint::{lint_stream, MatrixScan, Policy};
use aos_sim::Machine;
use aos_util::Telemetry;

proptest! {
    /// QARMA is a permutation: invert ∘ compute = identity for any
    /// data, modifier and key.
    #[test]
    fn qarma_is_invertible(data: u64, modifier: u64, hi: u64, lo: u64) {
        let q = Qarma64::new(PacKey::new(hi, lo));
        prop_assert_eq!(q.invert(q.compute(data, modifier), modifier), data);
    }

    /// Truncated PACs always fit their field.
    #[test]
    fn pac_truncation_fits(value: u64, bits in 1u32..=32) {
        prop_assert!(truncate_pac(value, bits) < (1u64 << bits));
    }

    /// Pointer compose/extract round-trips for any field values in
    /// range.
    #[test]
    fn layout_roundtrips(
        addr in 0u64..(1 << 46),
        pac in 0u64..(1 << 16),
        ahc in 0u8..4,
    ) {
        let layout = PointerLayout::default();
        let p = layout.compose(addr, pac, ahc);
        prop_assert_eq!(layout.address(p), addr);
        prop_assert_eq!(layout.pac(p), pac);
        prop_assert_eq!(layout.ahc(p), ahc);
        prop_assert_eq!(layout.is_signed(p), ahc != 0);
        prop_assert_eq!(layout.strip(p), addr);
    }

    /// Bounds compression: every in-bounds address passes, the
    /// boundary addresses behave half-open, and nearby out-of-bounds
    /// addresses fail (within the 33-bit domain).
    #[test]
    fn compressed_bounds_are_exact_nearby(
        base16 in 1u64..(1 << 28),
        size in 1u64..=(u32::MAX as u64),
        probe in 0u64..(1 << 20),
    ) {
        let base = base16 * 16;
        let b = CompressedBounds::encode(base, size);
        // In-bounds probe.
        let inside = base + probe % size;
        prop_assert!(b.check(inside));
        // Half-open upper end.
        prop_assert!(b.check(base));
        prop_assert!(b.check(base + size - 1));
        if base + size < (1 << 33) {
            prop_assert!(!b.check(base + size));
        }
        if base > 0 {
            prop_assert!(!b.check(base - 1));
        }
    }

    /// The AHC classifies by the highest differing bit: growing an
    /// object never shrinks its class.
    #[test]
    fn ahc_is_monotonic_in_size(addr16 in 0u64..(1 << 30), size in 1u64..(1 << 20)) {
        let addr = addr16 * 16;
        let small = compute_ahc(addr, size, 46);
        let large = compute_ahc(addr, size * 2, 46);
        prop_assert!(large >= small);
    }

    /// BWB tags are invariant across the addresses inside one object
    /// (the property Algorithm 2 exists to provide).
    #[test]
    fn bwb_tags_invariant_within_object(
        addr16 in 1u64..(1 << 30),
        size in 1u64..(1 << 16),
        o1 in 0u64..(1 << 16),
        o2 in 0u64..(1 << 16),
        pac in 0u64..(1 << 16),
    ) {
        let addr = addr16 * 16;
        let ahc = compute_ahc(addr, size, 46);
        if ahc != Ahc::Large {
            let off1 = o1 % size;
            let off2 = o2 % size;
            prop_assert_eq!(
                bwb_tag(addr + off1, ahc, pac),
                bwb_tag(addr + off2, ahc, pac)
            );
        }
    }

    /// HBT store → check → clear → check, each run through the MCU's
    /// FSMs, behaves like a map keyed by (pac, base), under arbitrary
    /// interleavings of distinct chunks.
    #[test]
    fn hbt_behaves_like_a_bounds_map(
        script in action_script(0u8..1, 0u64..2048, 1u64..64, 1..24),
    ) {
        let chunks: Vec<(u64, u64)> = script
            .into_iter()
            .map(|(_, pac, granules)| (pac, granules))
            .collect();
        let mut hbt = HashedBoundsTable::new(HbtConfig {
            pac_size: 11,
            initial_ways: 4,
            max_ways: 64,
            base_addr: 0x1000_0000,
            compressed: true,
        });
        let layout = PointerLayout::default();
        let mut mcu = MemoryCheckUnit::new(McuConfig::default(), layout);
        let signed = |pac: u64, addr: u64| layout.compose(addr, pac, 1);
        // Deduplicate bases so entries are distinct.
        let mut seen = std::collections::HashSet::new();
        let chunks: Vec<(u64, u64, u64)> = chunks
            .into_iter()
            .enumerate()
            .map(|(i, (pac, granules))| (pac, 0x10_0000 + (i as u64) * (1 << 20), granules * 16))
            .filter(|(_, base, _)| seen.insert(*base))
            .collect();
        for &(pac, base, size) in &chunks {
            let bndstr = McuOp::BndStr { pointer: signed(pac, base), size };
            prop_assert!(mcu.run_sync(bndstr, &mut hbt).is_ok());
        }
        for &(pac, base, size) in &chunks {
            let access = McuOp::Access { pointer: signed(pac, base + size / 2), is_store: false };
            prop_assert!(mcu.run_sync(access, &mut hbt).is_ok());
        }
        for &(pac, base, _) in &chunks {
            let bndclr = McuOp::BndClr { pointer: signed(pac, base) };
            prop_assert!(mcu.run_sync(bndclr, &mut hbt).is_ok());
        }
        for &(pac, base, _) in &chunks {
            let access = McuOp::Access { pointer: signed(pac, base), is_store: false };
            prop_assert!(mcu.run_sync(access, &mut hbt).is_err());
        }
    }

    /// Whole-machine invariant: any interleaving of malloc/free/access
    /// over valid handles never reports a violation, and every invalid
    /// operation is caught.
    #[test]
    fn process_never_false_positives_on_valid_programs(
        script in action_script(0u8..4, 0u64..64, 1u64..512, 1..200),
    ) {
        let mut p = AosProcess::new();
        let mut live: Vec<(u64, u64)> = Vec::new(); // (ptr, usable size)
        for (op, pick, size) in script {
            match op {
                0 => {
                    let ptr = p.malloc(size).unwrap();
                    // Bin reuse may hand out a chunk larger than the
                    // request; bounds cover the usable size.
                    let usable = p
                        .heap()
                        .chunk_at(p.layout().address(ptr))
                        .expect("fresh chunk exists")
                        .usable_size();
                    live.push((ptr, usable));
                }
                1 if !live.is_empty() => {
                    let (ptr, size) = live[(pick as usize) % live.len()];
                    let off = (pick * 7) % size / 8 * 8;
                    prop_assert!(p.load(ptr + off).is_ok(), "valid load flagged");
                }
                2 if !live.is_empty() => {
                    let (ptr, size) = live[(pick as usize) % live.len()];
                    let off = (pick * 13) % size / 8 * 8;
                    prop_assert!(p.store(ptr + off, pick).is_ok(), "valid store flagged");
                }
                3 if !live.is_empty() => {
                    let (ptr, _) = live.swap_remove((pick as usize) % live.len());
                    prop_assert!(p.free(ptr).is_ok(), "valid free flagged");
                }
                _ => {}
            }
        }
        // And now every access one past the usable size fails.
        for (ptr, usable) in live {
            prop_assert!(p.load(ptr + usable).is_err(), "OOB missed");
        }
    }

    /// The false-positive gate over *generated* programs: every
    /// well-formed Fig. 7 lifecycle stream — including the dangling
    /// re-sign tail — is lint-clean and runs violation-free on the
    /// full AOS machine. Before `lifecycle_stream` this property was
    /// only checkable against the trace generator's fixed workloads.
    #[test]
    fn lifecycle_streams_lint_clean_and_run_violation_free(
        ops in lifecycle_stream(LifecycleConfig {
            resign_dangling: true,
            ..LifecycleConfig::default()
        }),
    ) {
        let report = lint_stream(ops.iter().copied(), PointerLayout::default());
        prop_assert_eq!(
            report.findings.total_diagnostics(),
            0,
            "well-formed stream flagged: {}",
            report.to_table()
        );
        for system in [SafetyConfig::Aos, SafetyConfig::PaAos] {
            let sut = SystemUnderTest::scaled(system, 0.004);
            let stats = Machine::new(sut.machine_config()).run(ops.iter().copied());
            prop_assert_eq!(stats.violations, 0, "violation on clean stream");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The policies stay independent inside the shared scanner: over
    /// arbitrary op streams — unsigned pointers, PACs colliding across
    /// AHC classes, unpaired and repeated metadata ops — each policy's
    /// report from a four-policy scan equals its report from scanning
    /// alone, and the AOS one equals the linter's.
    #[test]
    fn each_policy_reports_alone_what_it_reports_in_the_matrix(
        script in action_script(0..9, 0..u64::MAX, 0..u64::MAX, 1..160),
    ) {
        let ops = arbitrary_ops(&script);
        let layout = PointerLayout::default();
        let scan = |policies: &[Policy]| {
            MatrixScan::run(policies, ops.iter().copied(), layout, &Telemetry::disabled())
        };
        let all = scan(&Policy::ALL);
        for (p, report) in Policy::ALL.iter().zip(&all) {
            prop_assert_eq!(&scan(&[*p])[0], report);
        }
        prop_assert_eq!(&lint_stream(ops.iter().copied(), layout).findings, &all[0]);
    }
}

/// Interprets a `(kind, a, b)` script as arbitrary ops over four
/// chunks, four PACs and every AHC class (0 = unsigned), so PACs
/// collide and metadata ops arrive in any order.
fn arbitrary_ops(script: &[(u8, u64, u64)]) -> Vec<Op> {
    let layout = PointerLayout::default();
    let pointer =
        |a: u64| layout.compose(0x4000 + (a % 4) * 0x100, (a >> 2) % 4, ((a >> 4) % 4) as u8);
    script
        .iter()
        .map(|&(kind, a, b)| {
            let pointer = pointer(a);
            let size = [0, 16, 64, 256][(b % 4) as usize];
            match kind {
                0 => Op::Pacma { pointer, size },
                1 => Op::BndStr { pointer, size },
                2 => Op::BndClr { pointer },
                3 => Op::Xpacm,
                4 => Op::Load {
                    pointer,
                    bytes: 8,
                    chained: false,
                },
                5 => Op::Store { pointer, bytes: 8 },
                6 => Op::Autm { pointer },
                7 => Op::PacCrypto,
                _ => Op::IntAlu,
            }
        })
        .collect()
}
