//! Differential testing: run random programs against both the AOS
//! machine and a *perfect* bounds oracle, and require that every
//! disagreement is one of the paper's documented aliasing cases.
//!
//! The oracle tracks exact live ranges. AOS may additionally accept an
//! access the oracle rejects only when:
//!
//! 1. **PAC collision** (§VII-E): some live chunk with the same PAC
//!    has compressed bounds covering the address; or
//! 2. **base reuse** (§IV-C): the chunk at the pointer's base was
//!    freed and the base reallocated, recreating the same PAC.
//!
//! AOS must never *reject* an access the oracle accepts (no false
//! positives on valid programs), and must never accept anything the
//! oracle rejects without a documented explanation.

use proptest::prelude::*;

use aos_core::hbt::CompressedBounds;
use aos_core::ptrauth::PointerLayout;
use aos_core::AosProcess;

/// Exact ground truth about live allocations.
#[derive(Default)]
struct Oracle {
    /// base -> usable size, for live chunks.
    live: std::collections::HashMap<u64, u64>,
}

impl Oracle {
    fn on_malloc(&mut self, base: u64, usable: u64) {
        self.live.insert(base, usable);
    }

    fn on_free(&mut self, base: u64) {
        self.live.remove(&base);
    }

    /// Is `addr` within the chunk based at `base`?
    fn in_bounds_of(&self, base: u64, addr: u64) -> bool {
        self.live
            .get(&base)
            .is_some_and(|&size| (base..base + size).contains(&addr))
    }

    /// Documented aliasing: is there *any* live chunk whose PAC equals
    /// `pac` and whose compressed bounds cover `addr`?
    fn aliasing_explains(&self, p: &AosProcess, pac: u64, addr: u64) -> bool {
        self.live.iter().any(|(&base, &size)| {
            let chunk_pac = p.signer().pac_for(base, ctx());
            chunk_pac == pac && CompressedBounds::encode(base, size).check(addr)
        })
    }
}

fn ctx() -> u64 {
    aos_core::workloads::generator::SIGNING_CONTEXT
}

#[derive(Debug, Clone)]
enum Action {
    Malloc(u64),
    FreeLive(usize),
    ProbeLive { pick: usize, offset: i64 },
    ProbeDangling { pick: usize, offset: u64 },
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u64..2048).prop_map(Action::Malloc),
        (0usize..64).prop_map(Action::FreeLive),
        ((0usize..64), (-64i64..2048))
            .prop_map(|(pick, offset)| Action::ProbeLive { pick, offset }),
        ((0usize..64), (0u64..256))
            .prop_map(|(pick, offset)| Action::ProbeDangling { pick, offset }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn aos_verdicts_match_a_perfect_oracle(
        script in proptest::collection::vec(action_strategy(), 1..150),
    ) {
        let layout = PointerLayout::default();
        let mut p = AosProcess::new();
        let mut oracle = Oracle::default();
        let mut live: Vec<u64> = Vec::new(); // signed pointers
        let mut dangling: Vec<u64> = Vec::new();

        for action in script {
            match action {
                Action::Malloc(size) => {
                    let ptr = p.malloc(size).unwrap();
                    let base = layout.address(ptr);
                    let usable = p.heap().chunk_at(base).unwrap().usable_size();
                    oracle.on_malloc(base, usable);
                    live.push(ptr);
                }
                Action::FreeLive(pick) => {
                    if live.is_empty() { continue; }
                    let ptr = live.swap_remove(pick % live.len());
                    p.free(ptr).unwrap();
                    oracle.on_free(layout.address(ptr));
                    dangling.push(ptr);
                }
                Action::ProbeLive { pick, offset } => {
                    if live.is_empty() { continue; }
                    let ptr = live[pick % live.len()];
                    let base = layout.address(ptr);
                    let addr = base.wrapping_add_signed(offset);
                    if addr >= base.wrapping_add_signed(offset) && offset < 0 && base < 64 {
                        continue; // avoid wrapping below the heap
                    }
                    let probe = layout.compose(addr, layout.pac(ptr), 1);
                    check_agreement(&mut p, &oracle, &layout, probe, base)?;
                }
                Action::ProbeDangling { pick, offset } => {
                    if dangling.is_empty() { continue; }
                    let ptr = dangling[pick % dangling.len()];
                    let base = layout.address(ptr);
                    let addr = base + offset;
                    let probe = layout.compose(addr, layout.pac(ptr), 1);
                    check_agreement(&mut p, &oracle, &layout, probe, base)?;
                }
            }
        }

        fn check_agreement(
            p: &mut AosProcess,
            oracle: &Oracle,
            layout: &PointerLayout,
            probe: u64,
            base: u64,
        ) -> Result<(), TestCaseError> {
            let addr = layout.address(probe);
            let aos_ok = p.load(probe).is_ok();
            let oracle_ok = oracle.in_bounds_of(base, addr);
            if aos_ok == oracle_ok {
                return Ok(());
            }
            if aos_ok && !oracle_ok {
                // Must be explained by documented aliasing.
                prop_assert!(
                    oracle.aliasing_explains(p, layout.pac(probe), addr),
                    "AOS accepted {addr:#x} (base {base:#x}) without a \
                     documented aliasing explanation"
                );
                return Ok(());
            }
            // AOS rejected something the oracle allows: a false
            // positive — never acceptable.
            prop_assert!(
                false,
                "false positive: oracle allows {addr:#x} in chunk {base:#x}, AOS rejected"
            );
            Ok(())
        }
    }
}

#[test]
fn oracle_agreement_on_a_fixed_torture_script() {
    // A deterministic long-run variant for CI stability: heavy churn
    // with interleaved probes at every boundary.
    let layout = PointerLayout::default();
    let mut p = AosProcess::new();
    let mut live: Vec<(u64, u64)> = Vec::new();
    for round in 0u64..400 {
        let size = (round % 13 + 1) * 24;
        let ptr = p.malloc(size).unwrap();
        let usable = p
            .heap()
            .chunk_at(layout.address(ptr))
            .unwrap()
            .usable_size();
        live.push((ptr, usable));
        // Probe both boundaries of everything live.
        for &(q, u) in live.iter().rev().take(4) {
            assert!(p.load(q).is_ok());
            assert!(p.load(q + u - 8).is_ok());
            assert!(p.load(q + u).is_err());
        }
        if round % 3 == 0 && live.len() > 2 {
            let (victim, _) = live.remove((round as usize * 5) % live.len());
            p.free(victim).unwrap();
            assert!(p.load(victim).is_err(), "dangling probe after free");
        }
    }
}
