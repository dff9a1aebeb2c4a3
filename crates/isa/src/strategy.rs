//! Reusable proptest strategies for well-formed op streams
//! (`proptest-support` feature).
//!
//! Before this module, every property suite grew its own ad-hoc
//! generator: `tests/properties.rs` drew `(kind, addr, size)` tuple
//! scripts for the process model, `crates/hbt/tests` drew a slightly
//! different tuple shape for the table, and neither could produce a
//! *valid Fig. 7 instruction stream* — so no property could assert
//! "the linter is silent on every well-formed program" over anything
//! richer than the trace generator's fixed workloads.
//!
//! Two strategies centralize that:
//!
//! - [`action_script`] — the shared `(u8, u64, u64)` tuple-vec shape,
//!   parameterized by its bounds, for suites that interpret abstract
//!   action scripts against a model;
//! - [`lifecycle_stream`] — complete op streams obeying the Fig. 7
//!   lifecycle (`pacma` → `bndstr` → in-bounds accesses → `bndclr` →
//!   `xpacm`, with correct Algorithm 1 AHC bits and an optional
//!   dangling re-sign tail), with a configurable live-set cap. Every
//!   generated stream is lint-clean and violation-free by
//!   construction, which is exactly the precondition a
//!   false-positive property needs.

use aos_ptrauth::{compute_ahc, PointerLayout};
use proptest::collection::{vec, SizeRange, VecStrategy};
use proptest::strategy::Strategy;

use crate::Op;

/// A script of `(kind, a, b)` actions: `kind in kinds`, `a in a`,
/// `b in b`, with `len` drawn from the given size range.
pub fn action_script(
    kinds: std::ops::Range<u8>,
    a: std::ops::Range<u64>,
    b: std::ops::Range<u64>,
    len: impl Into<SizeRange>,
) -> VecStrategy<(
    std::ops::Range<u8>,
    std::ops::Range<u64>,
    std::ops::Range<u64>,
)> {
    vec((kinds, a, b), len)
}

/// Tuning for [`lifecycle_stream`].
#[derive(Debug, Clone)]
pub struct LifecycleConfig {
    /// Maximum simultaneously live chunks; `malloc` actions beyond
    /// the cap degrade to filler ops.
    pub max_live: usize,
    /// Abstract actions per stream (each expands to 0–2 ops).
    pub actions: std::ops::Range<usize>,
    /// Chunk sizes are drawn from `16..=max_size` (rounded to 16).
    pub max_size: u64,
    /// First chunk base address; chunks are bump-allocated upward
    /// with 16-byte alignment from here.
    pub base: u64,
    /// Whether a freed chunk may be re-signed dangling (`pacma` with
    /// size 0, the Fig. 7 temporal tail). The re-signed pointer is
    /// never accessed, so streams stay clean.
    pub resign_dangling: bool,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        LifecycleConfig {
            max_live: 8,
            actions: 1..200,
            max_size: 512,
            base: 0x0000_4000_0000,
            resign_dangling: false,
        }
    }
}

/// One live chunk in the interpreter's model.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    addr: u64,
    size: u64,
    pointer: u64,
}

/// Streams of ops forming valid Fig. 7 lifecycles under
/// [`PointerLayout::default`]: every `pacma` carries the Algorithm 1
/// AHC for its `(address, size)`, every `bndstr` follows its `pacma`,
/// accesses stay in bounds of a live chunk, every `bndclr` is
/// followed by its `xpacm`, and at most `max_live` chunks are live at
/// once. Chunks still live at end-of-stream are left live — a legal
/// program state the verifier accepts.
pub fn lifecycle_stream(config: LifecycleConfig) -> impl Strategy<Value = Vec<Op>> {
    assert!(config.max_live > 0, "live-set cap must be positive");
    assert!(config.max_size >= 16, "chunks are at least 16 bytes");
    let script = action_script(0..4, 0..u64::MAX, 0..u64::MAX, config.actions.clone());
    script.prop_map(move |actions| interpret_lifecycles(&config, &actions))
}

/// Deterministically expands an abstract action script into a valid
/// lifecycle op stream (the `prop_map` body of [`lifecycle_stream`]).
fn interpret_lifecycles(config: &LifecycleConfig, actions: &[(u8, u64, u64)]) -> Vec<Op> {
    let layout = PointerLayout::default();
    let mut ops = Vec::with_capacity(actions.len() * 2);
    let mut live: Vec<Chunk> = Vec::with_capacity(config.max_live);
    let mut freed: Option<Chunk> = None;
    let mut bump = config.base & !0xF;
    let mut next_pac: u64 = 1;
    for &(kind, a, b) in actions {
        match kind {
            // malloc: sign and store bounds for a fresh chunk.
            0 if live.len() < config.max_live => {
                let size = (16 + a % (config.max_size - 15)) & !0xF;
                let size = size.max(16);
                let addr = bump;
                bump += size + 16;
                let pac = next_pac % layout.pac_space();
                next_pac += 1;
                let ahc = compute_ahc(addr, size, layout.va_size()).bits();
                let pointer = layout.compose(addr, pac, ahc);
                ops.push(Op::Pacma { pointer, size });
                ops.push(Op::BndStr { pointer, size });
                live.push(Chunk {
                    addr,
                    size,
                    pointer,
                });
            }
            // access: an in-bounds load or store through a live chunk.
            1 if !live.is_empty() => {
                let chunk = live[(a % live.len() as u64) as usize];
                let bytes: u32 = if chunk.size >= 8 { 8 } else { 1 };
                let offset = b % (chunk.size - u64::from(bytes) + 1);
                let pointer = layout.compose(
                    chunk.addr + offset,
                    layout.pac(chunk.pointer),
                    layout.ahc(chunk.pointer),
                );
                if b & 1 == 0 {
                    ops.push(Op::Load {
                        pointer,
                        bytes,
                        chained: false,
                    });
                } else {
                    ops.push(Op::Store { pointer, bytes });
                }
            }
            // free: clear bounds, then strip.
            2 if !live.is_empty() => {
                let chunk = live.remove((a % live.len() as u64) as usize);
                ops.push(Op::BndClr {
                    pointer: chunk.pointer,
                });
                ops.push(Op::Xpacm);
                freed = Some(chunk);
            }
            // filler: plain compute traffic.
            _ => {
                ops.push(match a % 3 {
                    0 => Op::IntAlu,
                    1 => Op::IntMul,
                    _ => Op::FpAlu,
                });
            }
        }
    }
    if config.resign_dangling {
        if let Some(chunk) = freed {
            // Fig. 7's temporal tail: the freed pointer is re-signed
            // with size 0 (AHC preserved) and then never used.
            ops.push(Op::Pacma {
                pointer: chunk.pointer,
                size: 0,
            });
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    fn streams(config: LifecycleConfig, seed: u64, n: usize) -> Vec<Vec<Op>> {
        let strat = lifecycle_stream(config);
        let mut rng = TestRng::from_seed(seed);
        (0..n).map(|_| strat.generate(&mut rng)).collect()
    }

    #[test]
    fn lifecycles_respect_the_live_set_cap() {
        for stream in streams(
            LifecycleConfig {
                max_live: 3,
                ..LifecycleConfig::default()
            },
            7,
            64,
        ) {
            let mut live = 0i64;
            let mut peak = 0i64;
            for op in &stream {
                match op {
                    Op::BndStr { .. } => {
                        live += 1;
                        peak = peak.max(live);
                    }
                    Op::BndClr { .. } => live -= 1,
                    _ => {}
                }
            }
            assert!(live >= 0, "a bndclr without a live chunk");
            assert!(peak <= 3, "live set exceeded the cap: {peak}");
        }
    }

    #[test]
    fn every_op_respects_the_lifecycle_protocol() {
        let layout = PointerLayout::default();
        for stream in streams(
            LifecycleConfig {
                resign_dangling: true,
                ..LifecycleConfig::default()
            },
            11,
            64,
        ) {
            let mut live: Vec<(u64, u64, u64)> = Vec::new(); // (pac, addr, size)
            let mut pending_sign: Option<(u64, u64)> = None;
            let mut pending_strips = 0i64;
            for op in &stream {
                match *op {
                    Op::Pacma { pointer, size } if size != 0 => {
                        assert!(pending_sign.is_none(), "unpaired pacma");
                        let expected =
                            compute_ahc(layout.address(pointer), size, layout.va_size()).bits();
                        assert_eq!(layout.ahc(pointer), expected, "AHC bits wrong");
                        pending_sign = Some((layout.pac(pointer), size));
                    }
                    Op::Pacma { pointer, size: 0 } => {
                        assert!(layout.is_signed(pointer), "dangling re-sign is signed");
                    }
                    Op::Pacma { .. } => unreachable!(),
                    Op::BndStr { pointer, size } => {
                        let (pac, signed_size) = pending_sign.take().expect("bndstr without pacma");
                        assert_eq!(layout.pac(pointer), pac);
                        assert_eq!(size, signed_size);
                        live.push((pac, layout.address(pointer), size));
                    }
                    Op::BndClr { pointer } => {
                        let pac = layout.pac(pointer);
                        let i = live
                            .iter()
                            .position(|&(p, _, _)| p == pac)
                            .expect("bndclr of a dead chunk");
                        live.remove(i);
                        pending_strips += 1;
                    }
                    Op::Xpacm => {
                        pending_strips -= 1;
                        assert!(pending_strips >= 0, "xpacm without bndclr");
                    }
                    Op::Load { pointer, bytes, .. } | Op::Store { pointer, bytes } => {
                        let (pac, addr) = (layout.pac(pointer), layout.address(pointer));
                        let inside = live.iter().any(|&(p, base, size)| {
                            p == pac && addr >= base && addr + u64::from(bytes) <= base + size
                        });
                        assert!(inside, "access outside every live chunk");
                    }
                    _ => {}
                }
            }
            assert!(pending_sign.is_none(), "stream ends mid-sign");
            assert_eq!(pending_strips, 0, "stream ends with unpaired strips");
        }
    }

    #[test]
    fn action_scripts_honor_their_bounds() {
        let strat = action_script(0..4, 0..64, 1..512, 1..200);
        let mut rng = TestRng::from_seed(3);
        for _ in 0..50 {
            let script = strat.generate(&mut rng);
            assert!((1..200).contains(&script.len()));
            for (k, a, b) in script {
                assert!(k < 4);
                assert!(a < 64);
                assert!((1..512).contains(&b));
            }
        }
    }
}
