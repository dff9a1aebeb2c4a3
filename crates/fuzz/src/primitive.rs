//! The composite attack primitives: multi-op exploitation building
//! blocks the six base injectors cannot express.
//!
//! Each primitive plans a *contiguous block* of synthetic ops that is
//! inserted into a clean trace at one site (via
//! [`aos_isa::stream::Splice`]). The block carries its own victim
//! allocations on PACs the clean trace never signs (established by
//! [`PreScan`]), so its static and dynamic behaviour is a pure
//! function of the block itself — independent of where in the trace
//! it lands and of which workload generated the surrounding ops.
//! That independence is what lets every primitive pin exactly the
//! rules each static policy fires ([`CompositeKind::policy_rules`])
//! and the number of extra dynamic violations it adds on an AOS
//! machine ([`CompositeKind::exact_delta`]).
//!
//! Synthetic chunks live in an address region
//! ([`SYNTHETIC_REGION`]) disjoint from the generator's heap and
//! stack; because the HBT keys records by `(PAC, address)` and every
//! primitive owns its PACs exclusively, no record from the
//! surrounding trace can satisfy — or collide with — a primitive's
//! probes.

use aos_fault::UAF_DELAY_OPS;
use aos_isa::Op;
use aos_lint::Policy;
use aos_ptrauth::{compute_ahc, PointerLayout};
use aos_util::rng::Xoshiro256StarStar;

/// Base of the synthetic victim-allocation region. Far below the
/// generator's heap (`0x3800_0000_0000`) and stack
/// (`0x3F00_0000_0000`) segments and comfortably inside the 46-bit
/// VA space.
pub const SYNTHETIC_REGION: u64 = 0x2000_0000_0000;

/// Address stride between consecutive composite instances inside one
/// scenario, so two primitives never share chunk addresses.
pub const REGION_STRIDE: u64 = 0x0100_0000;

/// Chunks a heap-spray primitive plants.
pub const SPRAY_CHUNKS: usize = 16;

/// Forged keys a PAC brute-force primitive probes (a seeded sample
/// of the 2^16 key space; every probe uses a distinct never-signed
/// PAC).
pub const BRUTE_FORCE_PROBES: usize = 48;

/// Same-PAC allocations a TOCTOU-resize primitive plants: enough to
/// overflow a one-way row three times over (8 bounds per way), so
/// the row forces repeated `try_begin_resize` doublings and the
/// probe lands while Fig. 10 gradual migration is in flight.
pub const TOCTOU_CHUNKS: usize = 128;

/// The five composite attack primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompositeKind {
    /// Plant many small well-formed allocations, then store one slot
    /// past the end of the first — the classic spray-then-overflow
    /// shape. Protocol-clean, so only the dynamic bounds check can
    /// see it.
    HeapSpray,
    /// Sweep loads through pointers forged with PACs no `pacma` ever
    /// produced — the §VII-C 1/2^16 forgery bound, probed many keys
    /// at a time. Every probe misses its (empty) HBT row *and* fires
    /// the static `unknown-pac` rule.
    PacBruteForce,
    /// Allocate a chunk in one AHC size class, then access one slot
    /// past its end with the AHC bits rewritten to a different class
    /// — Algorithm 1 confusion. The dynamic check catches the
    /// out-of-bounds address; the linter catches the class mismatch.
    AhcConfusion,
    /// The Fig. 7 temporal tail abused: free a chunk, re-sign the
    /// dangling pointer with size 0, then dereference it. The
    /// cleared row misses dynamically; statically it is an
    /// access-after-clear.
    DanglingResign,
    /// Overflow one PAC's row with same-key allocations until the
    /// table doubles its ways repeatedly, then — with Fig. 10
    /// gradual migration still in flight — probe the gap between two
    /// chunks (must be detected) and a live chunk (must still hit).
    /// Protocol-clean; a TOCTOU race against the resize machinery.
    ToctouResize,
}

impl CompositeKind {
    /// Every composite, in report order.
    pub const ALL: [CompositeKind; 5] = [
        CompositeKind::HeapSpray,
        CompositeKind::PacBruteForce,
        CompositeKind::AhcConfusion,
        CompositeKind::DanglingResign,
        CompositeKind::ToctouResize,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            CompositeKind::HeapSpray => "heap-spray",
            CompositeKind::PacBruteForce => "pac-brute-force",
            CompositeKind::AhcConfusion => "ahc-confusion",
            CompositeKind::DanglingResign => "dangling-resign",
            CompositeKind::ToctouResize => "toctou-resize",
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<CompositeKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The exact number of extra violations this primitive adds on
    /// an AOS machine: one per probe, since the block controls its
    /// victims fully.
    pub fn exact_delta(self) -> u64 {
        match self {
            CompositeKind::PacBruteForce => BRUTE_FORCE_PROBES as u64,
            CompositeKind::HeapSpray
            | CompositeKind::AhcConfusion
            | CompositeKind::DanglingResign
            | CompositeKind::ToctouResize => 1,
        }
    }

    /// The rules each static [`Policy`] is pinned to fire on this
    /// primitive — the composite rows of the cross-paper detection
    /// matrix. Beside the AOS column, they encode each paper's blind
    /// spots: CryptSan has no size classes (misses
    /// `ahc-confusion`), PACSan's re-seal launders the dangling
    /// pointer (misses `dangling-resign`), PACTight only
    /// authenticates signatures (catches forgery, nothing temporal),
    /// and the two protocol-clean primitives (`heap-spray`,
    /// `toctou-resize`) pass every static policy.
    pub fn policy_rules(self, policy: Policy) -> &'static [&'static str] {
        match (self, policy) {
            (CompositeKind::HeapSpray | CompositeKind::ToctouResize, _) => &[],
            (CompositeKind::PacBruteForce, Policy::Aos) => &["unknown-pac"],
            (CompositeKind::PacBruteForce, Policy::CryptSan) => &["unallocated-key"],
            (CompositeKind::PacBruteForce, Policy::PacSan) => &["unsealed-pointer"],
            (CompositeKind::PacBruteForce, Policy::PacTight) => &["forged-pointer"],
            (CompositeKind::AhcConfusion, Policy::Aos) => &["access-ahc-mismatch"],
            (CompositeKind::AhcConfusion, Policy::CryptSan) => &[],
            (CompositeKind::AhcConfusion, Policy::PacSan) => &["seal-class-mismatch"],
            (CompositeKind::AhcConfusion, Policy::PacTight) => &["integrity-class-mismatch"],
            (CompositeKind::DanglingResign, Policy::Aos) => &["access-after-clear"],
            (CompositeKind::DanglingResign, Policy::CryptSan) => &["revoked-key"],
            (CompositeKind::DanglingResign, Policy::PacSan | Policy::PacTight) => &[],
        }
    }

    /// Per-kind RNG salt (the composite analogue of the base
    /// injectors' `fault_salt`).
    pub fn salt(self) -> u64 {
        match self {
            CompositeKind::HeapSpray => 0x5350_5259,
            CompositeKind::PacBruteForce => 0x4252_5554,
            CompositeKind::AhcConfusion => 0x4148_434D,
            CompositeKind::DanglingResign => 0x5253_4E44,
            CompositeKind::ToctouResize => 0x544F_4354,
        }
    }
}

impl std::fmt::Display for CompositeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One pass of clean-trace facts every composite planner draws on.
#[derive(Debug, Clone)]
pub struct PreScan {
    /// Ops in the clean trace.
    pub len: usize,
    /// Bitmap over the 2^16 PAC space: bit set iff some `pacma` or
    /// `bndstr` in the clean trace uses that PAC.
    signed: Vec<u64>,
    pac_space: u64,
}

impl PreScan {
    /// Scans `trace` once, recording its length and every PAC it
    /// signs.
    pub fn new(trace: impl Iterator<Item = Op>, layout: PointerLayout) -> PreScan {
        let pac_space = layout.pac_space();
        let words = (pac_space as usize).div_ceil(64);
        let mut signed = vec![0u64; words];
        let mut len = 0usize;
        for op in trace {
            len += 1;
            let pac = match op {
                Op::Pacma { pointer, .. } | Op::BndStr { pointer, .. } => layout.pac(pointer),
                _ => continue,
            };
            signed[(pac / 64) as usize] |= 1u64 << (pac % 64);
        }
        PreScan {
            len,
            signed,
            pac_space,
        }
    }

    /// Whether the clean trace signs `pac`.
    pub fn is_signed(&self, pac: u64) -> bool {
        self.signed[(pac / 64) as usize] & (1u64 << (pac % 64)) != 0
    }

    /// Hands out never-signed PACs, each at most once per scenario.
    pub fn pac_allocator(&self, rng: &mut Xoshiro256StarStar) -> PacAllocator {
        PacAllocator {
            taken: self.signed.clone(),
            cursor: rng.next_range(self.pac_space),
            pac_space: self.pac_space,
        }
    }
}

/// Deterministic allocator over the PACs the clean trace never signs.
/// Starting from a seeded cursor, it linear-probes the space and
/// marks every key it hands out, so no two composite instances (or
/// brute-force probes) in one scenario share a PAC.
#[derive(Debug, Clone)]
pub struct PacAllocator {
    taken: Vec<u64>,
    cursor: u64,
    pac_space: u64,
}

impl PacAllocator {
    /// The next unused PAC.
    ///
    /// # Panics
    ///
    /// Panics if the whole 2^16 space is exhausted — a scenario would
    /// need tens of thousands of composite victims to get there.
    pub fn take(&mut self) -> u64 {
        for _ in 0..self.pac_space {
            let pac = self.cursor;
            self.cursor = (self.cursor + 1) % self.pac_space;
            let (word, bit) = ((pac / 64) as usize, 1u64 << (pac % 64));
            if self.taken[word] & bit == 0 {
                self.taken[word] |= bit;
                return pac;
            }
        }
        panic!("PAC space exhausted: every key is signed or already allocated");
    }
}

/// A planned composite block: the ops to insert and the bookkeeping
/// the report needs.
#[derive(Debug, Clone)]
pub struct CompositePlan {
    /// The contiguous synthetic op block.
    pub ops: Vec<Op>,
    /// Human-readable description for reports.
    pub description: String,
}

/// Plans one composite primitive. `region` is the instance's private
/// address sub-region (16-byte aligned), `pacs` its private key
/// allocator, `rng` the step's forked deterministic stream.
pub fn plan_composite(
    kind: CompositeKind,
    region: u64,
    pacs: &mut PacAllocator,
    rng: &mut Xoshiro256StarStar,
    layout: PointerLayout,
) -> CompositePlan {
    debug_assert_eq!(region % 16, 0, "chunk bases must be 16-aligned");
    match kind {
        CompositeKind::HeapSpray => heap_spray(region, pacs, layout),
        CompositeKind::PacBruteForce => pac_brute_force(region, pacs, rng, layout),
        CompositeKind::AhcConfusion => ahc_confusion(region, pacs, layout),
        CompositeKind::DanglingResign => dangling_resign(region, pacs, layout),
        CompositeKind::ToctouResize => toctou_resize(region, pacs, layout),
    }
}

/// Signs and stores bounds for a chunk at `(addr, size)` under `pac`,
/// with the Algorithm 1 AHC, returning the signed pointer.
fn plant_chunk(ops: &mut Vec<Op>, addr: u64, size: u64, pac: u64, layout: PointerLayout) -> u64 {
    let ahc = compute_ahc(addr, size, layout.va_size()).bits();
    let pointer = layout.compose(addr, pac, ahc);
    ops.push(Op::Pacma { pointer, size });
    ops.push(Op::BndStr { pointer, size });
    pointer
}

/// Rebases a signed pointer to a different address, keeping its PAC
/// and AHC bits.
fn rebase(pointer: u64, addr: u64, layout: PointerLayout) -> u64 {
    layout.compose(addr, layout.pac(pointer), layout.ahc(pointer))
}

fn heap_spray(region: u64, pacs: &mut PacAllocator, layout: PointerLayout) -> CompositePlan {
    const SIZE: u64 = 64;
    const STRIDE: u64 = 128;
    let mut ops = Vec::with_capacity(SPRAY_CHUNKS * 2 + 1);
    let mut first = None;
    for i in 0..SPRAY_CHUNKS as u64 {
        let pointer = plant_chunk(&mut ops, region + i * STRIDE, SIZE, pacs.take(), layout);
        first.get_or_insert(pointer);
    }
    // One slot past the first chunk: inside the spray's address range,
    // outside every chunk's bounds. Same PAC and AHC class as the
    // victim, so the linter has nothing to object to.
    let victim = first.expect("spray plants at least one chunk");
    ops.push(Op::Store {
        pointer: rebase(victim, region + SIZE, layout),
        bytes: 8,
    });
    CompositePlan {
        ops,
        description: format!(
            "sprayed {SPRAY_CHUNKS} chunks of {SIZE}B at {region:#x}, then stored 8B at base+{SIZE} of chunk 0"
        ),
    }
}

fn pac_brute_force(
    region: u64,
    pacs: &mut PacAllocator,
    rng: &mut Xoshiro256StarStar,
    layout: PointerLayout,
) -> CompositePlan {
    let mut ops = Vec::with_capacity(BRUTE_FORCE_PROBES);
    for i in 0..BRUTE_FORCE_PROBES as u64 {
        // A fresh never-signed key per probe; the AHC bits are forged
        // nonzero so the MCU actually checks the access.
        let ahc = 1 + (rng.next_u64() % 3) as u8;
        let pointer = layout.compose(region + i * 16, pacs.take(), ahc);
        ops.push(Op::Load {
            pointer,
            bytes: 8,
            chained: false,
        });
    }
    CompositePlan {
        ops,
        description: format!(
            "swept {BRUTE_FORCE_PROBES} loads through never-signed PACs at {region:#x}"
        ),
    }
}

fn ahc_confusion(region: u64, pacs: &mut PacAllocator, layout: PointerLayout) -> CompositePlan {
    const SIZE: u64 = 64;
    let mut ops = Vec::with_capacity(3);
    let victim = plant_chunk(&mut ops, region, SIZE, pacs.take(), layout);
    let real = layout.ahc(victim);
    // A different (still nonzero) class: way selection diverges from
    // the bndstr's, and the address is one slot out of bounds.
    let confused = (real % 3) + 1;
    debug_assert_ne!(confused, real);
    let pointer = layout.compose(region + SIZE, layout.pac(victim), confused);
    ops.push(Op::Load {
        pointer,
        bytes: 8,
        chained: false,
    });
    CompositePlan {
        ops,
        description: format!(
            "allocated {SIZE}B at {region:#x} in AHC class {real}, then loaded base+{SIZE} as class {confused}"
        ),
    }
}

fn dangling_resign(region: u64, pacs: &mut PacAllocator, layout: PointerLayout) -> CompositePlan {
    const SIZE: u64 = 64;
    let mut ops = Vec::with_capacity(7 + UAF_DELAY_OPS);
    let victim = plant_chunk(&mut ops, region, SIZE, pacs.take(), layout);
    // A legitimate access while live, then the Fig. 7b free sequence.
    ops.push(Op::Load {
        pointer: victim,
        bytes: 8,
        chained: false,
    });
    ops.push(Op::BndClr { pointer: victim });
    ops.push(Op::Xpacm);
    // The abuse: re-sign the dangling pointer with size 0 (the Fig. 7
    // temporal tail), then dereference it. The HBT row is empty, so
    // the load misses; statically it is an access-after-clear.
    ops.push(Op::Pacma {
        pointer: victim,
        size: 0,
    });
    // Space the dangling access past every Table IV ROB (the same
    // window the UAF injector uses): close in, §V-F2 store→load
    // bounds forwarding from the still-in-flight bndstr would satisfy
    // the probe before the bndclr's table store ever lands.
    ops.extend(std::iter::repeat_n(Op::IntAlu, UAF_DELAY_OPS));
    ops.push(Op::Load {
        pointer: victim,
        bytes: 8,
        chained: false,
    });
    CompositePlan {
        ops,
        description: format!(
            "freed a {SIZE}B chunk at {region:#x}, re-signed the dangling pointer with size 0, then loaded it"
        ),
    }
}

fn toctou_resize(region: u64, pacs: &mut PacAllocator, layout: PointerLayout) -> CompositePlan {
    const SIZE: u64 = 64;
    const STRIDE: u64 = 128;
    let pac = pacs.take();
    let mut ops = Vec::with_capacity(TOCTOU_CHUNKS * 2 + 2);
    let mut first = None;
    for i in 0..TOCTOU_CHUNKS as u64 {
        let pointer = plant_chunk(&mut ops, region + i * STRIDE, SIZE, pac, layout);
        first.get_or_insert(pointer);
    }
    let victim = first.expect("toctou plants at least one chunk");
    // With the row resized 1→16 ways and gradual migration still
    // walking the table, a live chunk must still hit...
    let live_probe = region + (TOCTOU_CHUNKS as u64 - 1) * STRIDE;
    ops.push(Op::Load {
        pointer: rebase(victim, live_probe, layout),
        bytes: 8,
        chained: false,
    });
    // ...and the gap between chunk 0 and chunk 1 must still miss.
    ops.push(Op::Store {
        pointer: rebase(victim, region + SIZE, layout),
        bytes: 8,
    });
    CompositePlan {
        ops,
        description: format!(
            "overflowed one PAC row with {TOCTOU_CHUNKS} same-key chunks at {region:#x} (forcing way doublings mid-stream), then probed a live chunk and the gap after chunk 0 during migration"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(kind: CompositeKind) -> (CompositePlan, PacAllocator) {
        let layout = PointerLayout::default();
        let scan = PreScan::new(std::iter::empty(), layout);
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mut pacs = scan.pac_allocator(&mut rng);
        let plan = plan_composite(kind, SYNTHETIC_REGION, &mut pacs, &mut rng, layout);
        (plan, pacs)
    }

    #[test]
    fn prescan_records_signed_pacs() {
        let layout = PointerLayout::default();
        let p = layout.compose(0x4000, 0xBEE, 1);
        let scan = PreScan::new(
            [
                Op::Pacma {
                    pointer: p,
                    size: 64,
                },
                Op::IntAlu,
            ]
            .into_iter(),
            layout,
        );
        assert_eq!(scan.len, 2);
        assert!(scan.is_signed(0xBEE));
        assert!(!scan.is_signed(0xBEF));
    }

    #[test]
    fn pac_allocator_never_hands_out_a_signed_or_repeated_key() {
        let layout = PointerLayout::default();
        let p = layout.compose(0x4000, 5, 1);
        let scan = PreScan::new(
            std::iter::once(Op::BndStr {
                pointer: p,
                size: 16,
            }),
            layout,
        );
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let mut pacs = scan.pac_allocator(&mut rng);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4096 {
            let pac = pacs.take();
            assert_ne!(pac, 5, "handed out a signed PAC");
            assert!(seen.insert(pac), "handed out {pac:#x} twice");
        }
    }

    #[test]
    fn every_composite_plans_deterministically() {
        for kind in CompositeKind::ALL {
            let (a, _) = fresh(kind);
            let (b, _) = fresh(kind);
            assert_eq!(a.ops, b.ops, "{kind} plan is not deterministic");
            assert!(!a.ops.is_empty());
        }
    }

    #[test]
    fn names_roundtrip_and_policy_rule_pins_name_real_rules() {
        for kind in CompositeKind::ALL {
            assert_eq!(CompositeKind::parse(kind.name()), Some(kind));
            assert!(
                kind.exact_delta() >= 1,
                "{kind} adds at least one violation"
            );
            for policy in Policy::ALL {
                for rule in kind.policy_rules(policy) {
                    assert!(
                        policy.rules().iter().any(|info| info.name == *rule),
                        "{kind}: '{rule}' is not in {policy}'s taxonomy"
                    );
                }
            }
        }
    }

    #[test]
    fn spray_block_is_protocol_clean_except_the_probe() {
        let (plan, _) = fresh(CompositeKind::HeapSpray);
        assert_eq!(plan.ops.len(), SPRAY_CHUNKS * 2 + 1);
        assert!(matches!(plan.ops[plan.ops.len() - 1], Op::Store { .. }));
    }
}
