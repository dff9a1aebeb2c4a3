//! Seeded streaming fault planners: each injector splices exactly one
//! memory-safety fault into an instrumented op stream.
//!
//! Faults anchor on the instrumentation ops the AOS compiler pass
//! emits (`bndstr` marks an allocation's bounds going live, `bndclr`
//! marks a free), so the injected access provably targets a real heap
//! object lifecycle rather than an arbitrary address. The anchor is
//! chosen with a seeded generator, making every injection a pure
//! function of `(trace, kind, seed)`.
//!
//! Injection is two streaming passes, never a trace rewrite:
//! [`plan_fault`] scans one pass over the op stream in `O(window)`
//! memory (a k=1 reservoir picks the anchor uniformly; the
//! use-after-free planner additionally carries a
//! [`Lookahead`] of [`UAF_DELAY_OPS`] ops
//! to rule out same-PAC reallocations), producing a [`FaultPlan`];
//! [`FaultPlan::apply`] then splices the plan's one-op edit into a
//! *fresh* stream of the same trace.

use aos_isa::stream::{BufferedOps, Lookahead, OpStream, Splice, SpliceMany};
use aos_isa::Op;
use aos_ptrauth::PointerLayout;
use aos_util::hash::PacMap;
use aos_util::rng::Xoshiro256StarStar;
use aos_util::AosError;

/// The memory-safety fault classes the harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Store one byte past an allocation's upper bound (spatial).
    OverflowWrite,
    /// Store below an allocation's lower bound (spatial).
    UnderflowWrite,
    /// Load through a pointer whose bounds were just cleared
    /// (temporal).
    UseAfterFree,
    /// Clear the same bounds twice (temporal).
    DoubleFree,
    /// Flip a bit in a signed pointer's PAC field — a forged or
    /// corrupted pointer authentication code.
    PacTamper,
    /// Stamp a nonzero AHC and arbitrary PAC onto an unsigned
    /// (stack/global) access — forging AOS metadata from whole cloth.
    AhcForge,
}

impl FaultKind {
    /// Every fault class, in report order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::OverflowWrite,
        FaultKind::UnderflowWrite,
        FaultKind::UseAfterFree,
        FaultKind::DoubleFree,
        FaultKind::PacTamper,
        FaultKind::AhcForge,
    ];

    /// The stable report/CLI name of the fault class.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::OverflowWrite => "overflow",
            FaultKind::UnderflowWrite => "underflow",
            FaultKind::UseAfterFree => "uaf",
            FaultKind::DoubleFree => "double-free",
            FaultKind::PacTamper => "pac-tamper",
            FaultKind::AhcForge => "ahc-forge",
        }
    }

    /// Parses a CLI/report name back into a kind.
    pub fn parse(name: &str) -> Result<Self, AosError> {
        FaultKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                AosError::invalid_input(
                    "fault kind",
                    format!(
                        "unknown kind '{name}' (expected one of: {})",
                        FaultKind::ALL.map(|k| k.name()).join(", ")
                    ),
                )
            })
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One fully specified fault: what to inject and the seed that picks
/// where.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// The fault class.
    pub kind: FaultKind,
    /// Seed selecting the anchor site (and tampered bits).
    pub seed: u64,
}

/// Ops between a `bndclr` and its injected dangling access — larger
/// than any Table IV ROB, so the free retires (and clears the table)
/// before the access can issue. Also the lookahead window (and hence
/// the peak buffered ops) of the streaming UAF planner.
pub const UAF_DELAY_OPS: usize = 256;

/// A planned fault: where to edit the stream and what to edit in.
///
/// Produced by one `O(window)`-memory scan of the trace stream
/// ([`plan_fault`]); applied to a fresh stream of the same trace with
/// [`FaultPlan::apply`]. A plan is a pure function of
/// `(trace, kind, seed)`, so planning once and replaying the faulted
/// stream many times (once per system under test) is sound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The one-op edit: an insert yields its op at `splice.at`, a
    /// replace swaps out the op at that index.
    pub splice: Splice,
    /// Human-readable description of the fault, for reports.
    pub description: String,
    /// Ops the planning scan consumed (the clean trace length).
    pub scanned_ops: usize,
    /// High-water mark of ops the planner held buffered — bounded by
    /// [`UAF_DELAY_OPS`] `+ 1`, independent of `scanned_ops`.
    pub peak_buffered_ops: usize,
}

impl FaultPlan {
    /// Wraps `stream` (a fresh replay of the planned trace) with the
    /// plan's edit. The result is itself an op stream and buffers
    /// exactly one op.
    pub fn apply<I: Iterator<Item = Op>>(&self, stream: I) -> SpliceMany<I> {
        stream.splice_many(vec![self.splice.clone()])
    }
}

/// k=1 reservoir: offered the candidates in stream order, holds a
/// uniformly chosen one without ever knowing the population size.
struct Reservoir<T> {
    chosen: Option<T>,
    seen: usize,
}

impl<T> Reservoir<T> {
    fn new() -> Self {
        Self {
            chosen: None,
            seen: 0,
        }
    }

    fn offer(&mut self, rng: &mut Xoshiro256StarStar, item: T) {
        self.seen += 1;
        // P(keep the nth candidate) = 1/n — uniform over the stream.
        if rng.next_index(self.seen) == 0 {
            self.chosen = Some(item);
        }
    }

    fn into_chosen(self, kind: FaultKind, wanted: &str) -> Result<T, AosError> {
        self.chosen.ok_or_else(|| {
            AosError::invalid_input(
                "fault injection",
                format!("trace has no {wanted} to anchor a {kind} fault on"),
            )
        })
    }
}

/// Plans the fault described by `spec` from one streaming pass over
/// `trace` in `O(window)` memory.
///
/// Errors with [`AosError::InvalidInput`] when the trace has no
/// anchor for the requested kind (e.g. an uninstrumented trace with
/// no `bndstr`), rather than panicking — a campaign must survive a
/// mis-specified cell.
pub fn plan_fault(
    trace: impl Iterator<Item = Op>,
    layout: PointerLayout,
    spec: FaultSpec,
) -> Result<FaultPlan, AosError> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(spec.seed ^ fault_salt(spec.kind));
    match spec.kind {
        FaultKind::OverflowWrite => {
            let (scanned, (i, pointer, size)) = pick_bndstr(trace, layout, &mut rng, spec.kind)?;
            Ok(FaultPlan {
                splice: Splice::insert(
                    i + 1,
                    vec![Op::Store {
                        pointer: pointer.wrapping_add(size),
                        bytes: 8,
                    }],
                ),
                description: format!("overflow store at base+{size} of the bndstr at op {i}"),
                scanned_ops: scanned,
                peak_buffered_ops: 0,
            })
        }
        FaultKind::UnderflowWrite => {
            let (scanned, (i, pointer, _)) = pick_bndstr(trace, layout, &mut rng, spec.kind)?;
            Ok(FaultPlan {
                splice: Splice::insert(
                    i + 1,
                    vec![Op::Store {
                        pointer: pointer.wrapping_sub(8),
                        bytes: 8,
                    }],
                ),
                description: format!("underflow store at base-8 of the bndstr at op {i}"),
                scanned_ops: scanned,
                peak_buffered_ops: 0,
            })
        }
        FaultKind::UseAfterFree => {
            // The dangling access must be far enough downstream that
            // the free has architecturally committed (the machine's
            // ROB is smaller than this window, so in-order retirement
            // forces the bndclr's table clear before the load can
            // issue), so only a bndclr with a full window after it is
            // an anchor. The window must not contain a bndstr that
            // re-signs the same PAC — that would be a legitimate
            // reallocation, not a UAF — and the free must leave no
            // other same-PAC record live, or no PAC-keyed model could
            // tell the dangling access from one through the live
            // alias. The lookahead buffer holds at most
            // `UAF_DELAY_OPS + 1` ops however long the trace is; the
            // live counts are O(PAC-space).
            let mut look = Lookahead::new(trace, UAF_DELAY_OPS);
            let mut reservoir = Reservoir::new();
            let mut live = LiveRecords::default();
            while let Some((i, op)) = look.next_op() {
                let Some((pointer, aliased)) = live.track(&op, layout) else {
                    continue;
                };
                if aliased || look.window().len() < UAF_DELAY_OPS {
                    continue;
                }
                let pac = layout.pac(pointer);
                let reallocated = look
                    .window()
                    .any(|o| matches!(o, Op::BndStr { pointer: q, .. } if layout.pac(*q) == pac));
                if !reallocated {
                    reservoir.offer(&mut rng, (i, pointer));
                }
            }
            let (i, pointer) = reservoir.into_chosen(
                spec.kind,
                "bndclr (free) without a same-PAC reallocation inside the retirement window",
            )?;
            Ok(FaultPlan {
                splice: Splice::insert(
                    i + 1 + UAF_DELAY_OPS,
                    vec![Op::Load {
                        pointer,
                        bytes: 8,
                        chained: false,
                    }],
                ),
                description: format!("load through the pointer freed by the bndclr at op {i}"),
                scanned_ops: look.consumed(),
                peak_buffered_ops: look.peak_buffered_ops(),
            })
        }
        FaultKind::DoubleFree => {
            // A free that leaves another same-PAC record live is no
            // anchor: its repeat would clear the live alias, which no
            // PAC-keyed model can tell from a legal free.
            let mut reservoir = Reservoir::new();
            let mut live = LiveRecords::default();
            let mut scanned = 0usize;
            for (i, op) in trace.enumerate() {
                scanned = i + 1;
                if let Some((pointer, false)) = live.track(&op, layout) {
                    reservoir.offer(&mut rng, (i, pointer));
                }
            }
            let (i, pointer) = reservoir.into_chosen(spec.kind, "bndclr (free)")?;
            Ok(FaultPlan {
                splice: Splice::insert(i + 1, vec![Op::BndClr { pointer }]),
                description: format!("second bndclr of the pointer freed at op {i}"),
                scanned_ops: scanned,
                peak_buffered_ops: 0,
            })
        }
        FaultKind::PacTamper => {
            let mut reservoir = Reservoir::new();
            let mut scanned = 0usize;
            for (i, op) in trace.enumerate() {
                scanned = i + 1;
                if signed_access_pointer(&op, layout).is_some() {
                    reservoir.offer(&mut rng, (i, op));
                }
            }
            let (i, op) = reservoir.into_chosen(spec.kind, "signed heap access")?;
            let bit = layout.pac_shift() + (rng.next_u64() % u64::from(layout.pac_size())) as u32;
            Ok(FaultPlan {
                splice: Splice::replace(i, vec![retarget(&op, |p| p ^ (1u64 << bit))]),
                description: format!("flipped PAC bit {bit} of the access at op {i}"),
                scanned_ops: scanned,
                peak_buffered_ops: 0,
            })
        }
        FaultKind::AhcForge => {
            // A forged PAC the clean trace signs aliases a legitimate
            // record, which no PAC-keyed model can tell from a legal
            // access: the PACs of every bndstr are drawn around.
            let mut reservoir = Reservoir::new();
            let mut signed = std::collections::HashSet::new();
            let mut scanned = 0usize;
            for (i, op) in trace.enumerate() {
                scanned = i + 1;
                if let Op::BndStr { pointer, .. } = op {
                    signed.insert(layout.pac(pointer));
                } else if unsigned_access_pointer(&op, layout).is_some() {
                    reservoir.offer(&mut rng, (i, op));
                }
            }
            let (i, op) = reservoir.into_chosen(spec.kind, "unsigned access")?;
            if signed.len() as u64 >= layout.pac_space() {
                return Err(AosError::invalid_input(
                    "fault injection",
                    "trace signs every PAC; no unsigned PAC is left to forge",
                ));
            }
            let forged_ahc = 1 + (rng.next_u64() % 3) as u8;
            let mut forged_pac = rng.next_u64() % layout.pac_space();
            while signed.contains(&forged_pac) {
                forged_pac = rng.next_u64() % layout.pac_space();
            }
            Ok(FaultPlan {
                splice: Splice::replace(
                    i,
                    vec![retarget(&op, |p| {
                        layout.compose(layout.address(p), forged_pac, forged_ahc)
                    })],
                ),
                description: format!(
                    "forged AHC={forged_ahc} PAC={forged_pac:#x} onto the access at op {i}"
                ),
                scanned_ops: scanned,
                peak_buffered_ops: 0,
            })
        }
    }
}

/// Per-kind RNG stream salt, so the same seed picks independent sites
/// for different kinds.
fn fault_salt(kind: FaultKind) -> u64 {
    match kind {
        FaultKind::OverflowWrite => 0x4F56_464C,
        FaultKind::UnderflowWrite => 0x554E_4446,
        FaultKind::UseAfterFree => 0x5541_4652,
        FaultKind::DoubleFree => 0x4446_5245,
        FaultKind::PacTamper => 0x5041_4354,
        FaultKind::AhcForge => 0x4148_4346,
    }
}

/// Per-PAC count of live bounds records, fed every op in stream
/// order: O(PAC-space) memory, independent of trace length.
#[derive(Default)]
struct LiveRecords(PacMap<usize>);

impl LiveRecords {
    /// Counts `op` in. For a `bndclr`, returns its pointer and whether
    /// another record under the same PAC is still live after it.
    fn track(&mut self, op: &Op, layout: PointerLayout) -> Option<(u64, bool)> {
        match *op {
            Op::BndStr { pointer, .. } => {
                *self.0.entry(layout.pac(pointer)).or_default() += 1;
                None
            }
            Op::BndClr { pointer } => {
                let live = self.0.entry(layout.pac(pointer)).or_default();
                *live = live.saturating_sub(1);
                Some((pointer, *live > 0))
            }
            _ => None,
        }
    }
}

/// Reservoir-scans `trace` for `bndstr` anchors; returns the scanned
/// length and the chosen `(index, pointer, size)`.
///
/// A `bndstr` preceded by a same-PAC `bndclr` within the last
/// [`UAF_DELAY_OPS`] ops is not a valid anchor: the clear may still be
/// in flight in the MCU when the spliced access issues, so the row can
/// hold a stale record of the *previous* (possibly larger) allocation
/// that covers the out-of-bounds address — the fault would then probe
/// a transient microarchitectural window, not spatial enforcement.
/// Tracking the most recent clear per PAC keeps this O(PAC-space),
/// independent of trace length.
fn pick_bndstr(
    trace: impl Iterator<Item = Op>,
    layout: PointerLayout,
    rng: &mut Xoshiro256StarStar,
    kind: FaultKind,
) -> Result<(usize, (usize, u64, u64)), AosError> {
    let mut reservoir = Reservoir::new();
    let mut scanned = 0usize;
    let mut last_clr: PacMap<usize> = PacMap::default();
    for (i, op) in trace.enumerate() {
        scanned = i + 1;
        match op {
            Op::BndClr { pointer } => {
                last_clr.insert(layout.pac(pointer), i);
            }
            Op::BndStr { pointer, size } => {
                let settled = last_clr
                    .get(&layout.pac(pointer))
                    .is_none_or(|&c| i - c > UAF_DELAY_OPS);
                if settled {
                    reservoir.offer(rng, (i, pointer, size));
                }
            }
            _ => {}
        }
    }
    Ok((scanned, reservoir.into_chosen(kind, "bndstr (allocation)")?))
}

fn signed_access_pointer(op: &Op, layout: PointerLayout) -> Option<u64> {
    match *op {
        Op::Load { pointer, .. } | Op::Store { pointer, .. } if layout.is_signed(pointer) => {
            Some(pointer)
        }
        _ => None,
    }
}

fn unsigned_access_pointer(op: &Op, layout: PointerLayout) -> Option<u64> {
    match *op {
        Op::Load { pointer, .. } | Op::Store { pointer, .. } if !layout.is_signed(pointer) => {
            Some(pointer)
        }
        _ => None,
    }
}

/// Rewrites the pointer of a Load/Store in place, preserving every
/// other field.
fn retarget(op: &Op, f: impl Fn(u64) -> u64) -> Op {
    match *op {
        Op::Load {
            pointer,
            bytes,
            chained,
        } => Op::Load {
            pointer: f(pointer),
            bytes,
            chained,
        },
        Op::Store { pointer, bytes } => Op::Store {
            pointer: f(pointer),
            bytes,
        },
        _ => unreachable!("retarget only applies to data accesses"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_isa::SafetyConfig;
    use aos_workloads::{profile::by_name, TraceGenerator};

    fn aos_stream() -> TraceGenerator {
        let p = by_name("hmmer").unwrap();
        TraceGenerator::new(p, SafetyConfig::Aos, 0.004)
    }

    fn aos_trace() -> Vec<Op> {
        aos_stream().collect()
    }

    /// Plans `spec` on a materialized trace and applies it there.
    fn faulted(trace: &[Op], spec: FaultSpec) -> (FaultPlan, Vec<Op>) {
        let plan = plan_fault(trace.iter().copied(), PointerLayout::default(), spec).unwrap();
        let ops = plan.apply(trace.iter().copied()).collect();
        (plan, ops)
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let trace = aos_trace();
        for kind in FaultKind::ALL {
            let spec = FaultSpec { kind, seed: 7 };
            let a = faulted(&trace, spec);
            let b = faulted(&trace, spec);
            assert_eq!(a, b, "{kind}");
            let (plan, ops) = faulted(&trace, FaultSpec { kind, seed: 8 });
            // Different seeds are allowed to coincide for tiny traces,
            // but the plan must still be self-consistent.
            assert!(plan.splice.at < ops.len());
        }
    }

    #[test]
    fn spliced_faults_grow_the_trace_by_one_op() {
        let trace = aos_trace();
        for kind in [
            FaultKind::OverflowWrite,
            FaultKind::UnderflowWrite,
            FaultKind::UseAfterFree,
            FaultKind::DoubleFree,
        ] {
            let (_, ops) = faulted(&trace, FaultSpec { kind, seed: 1 });
            assert_eq!(ops.len(), trace.len() + 1, "{kind}");
        }
        for kind in [FaultKind::PacTamper, FaultKind::AhcForge] {
            let (plan, ops) = faulted(&trace, FaultSpec { kind, seed: 1 });
            assert_eq!(ops.len(), trace.len(), "{kind} rewrites in place");
            assert_ne!(ops[plan.splice.at], trace[plan.splice.at], "{kind}");
        }
    }

    #[test]
    fn streamed_apply_matches_the_materialized_trace() {
        let trace = aos_trace();
        for kind in FaultKind::ALL {
            let spec = FaultSpec { kind, seed: 11 };
            let plan = plan_fault(aos_stream(), PointerLayout::default(), spec).unwrap();
            let streamed: Vec<Op> = plan.apply(aos_stream()).collect();
            let (materialized, ops) = faulted(&trace, spec);
            assert_eq!(plan, materialized, "{kind}");
            assert_eq!(streamed, ops, "{kind}");
            assert_eq!(plan.scanned_ops, trace.len(), "{kind}");
        }
    }

    #[test]
    fn uaf_planner_memory_is_bounded_by_the_window() {
        let plan = plan_fault(
            aos_stream(),
            PointerLayout::default(),
            FaultSpec {
                kind: FaultKind::UseAfterFree,
                seed: 3,
            },
        )
        .unwrap();
        assert!(
            plan.scanned_ops > 4 * (UAF_DELAY_OPS + 1),
            "trace too short ({} ops) for the bound to mean anything",
            plan.scanned_ops
        );
        assert!(
            plan.peak_buffered_ops <= UAF_DELAY_OPS + 1,
            "planner buffered {} ops, window is {}",
            plan.peak_buffered_ops,
            UAF_DELAY_OPS
        );
    }

    #[test]
    fn uninstrumented_trace_yields_typed_error_not_panic() {
        let p = by_name("hmmer").unwrap();
        let baseline: Vec<Op> = TraceGenerator::new(p, SafetyConfig::Baseline, 0.004).collect();
        let err = plan_fault(
            baseline.into_iter(),
            PointerLayout::default(),
            FaultSpec {
                kind: FaultKind::OverflowWrite,
                seed: 0,
            },
        )
        .unwrap_err();
        assert!(matches!(err, AosError::InvalidInput { .. }));
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.name()).unwrap(), kind);
        }
        assert!(FaultKind::parse("rowhammer").is_err());
    }
}
