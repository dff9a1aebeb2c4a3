//! Deterministic synthetic trace generation.
//!
//! A [`TraceGenerator`] expands a [`WorkloadProfile`] into the dynamic
//! micro-op stream one configuration of the machine would execute.
//! The *program* — every address, allocation size, branch outcome and
//! event ordering — is a pure function of the benchmark name, so the
//! Baseline, Watchdog, PA, AOS and PA+AOS streams differ **only** in
//! their instrumentation, exactly like the paper's five builds of one
//! binary. The generator stops after the profile's base-op budget;
//! instrumentation ops ride along uncounted, mirroring the paper's
//! "we do not count instrumented instructions" methodology (§VIII).
//!
//! Most program events are a single op under a given system's
//! instrumentation: every branch and FP op, an integer op the system
//! adds no pointer-arithmetic µop to, and an access the system adds no
//! check or pointer-value op to (every Baseline and AOS access). Those
//! go straight to the consumer. Only a multi-op event — an allocation,
//! a free, a call, an instrumented access or integer op — is written
//! into the generator's event buffer first. Which sites a system
//! instruments is `aos_isa::expand`'s knowledge (its `instruments_*`
//! predicates), not the generator's.

use std::collections::VecDeque;

use aos_heap::{HeapAllocator, HeapConfig};
use aos_isa::{expand, Op, SafetyConfig};
use aos_ptrauth::{PointerLayout, PointerSigner};
use aos_qarma::PacKey;
use aos_util::rng::{Chance, DiscreteTable, Xoshiro256StarStar, Zipf};
use aos_util::{Counter, TelemetrySnapshot};

use crate::profile::WorkloadProfile;
use crate::schedule::hash_name;

/// The PA signing context the paper uses for its PAC study (§VI): a
/// fixed 64-bit modifier standing in for the stack pointer.
pub const SIGNING_CONTEXT: u64 = 0x477d_469d_ec0b_8762;

/// The paper's 128-bit QARMA key (§VI).
pub const SIGNING_KEY: u128 = 0x84be_85ce_9804_e94b_ec28_02d4_e0a4_88e9;

/// Base address of the stack/global region touched by unsigned
/// accesses.
const STACK_BASE: u64 = 0x3F00_0000_0000;

/// Base address of the allocator's internal bin metadata.
const BIN_BASE: u64 = 0x3000_0000;

/// Program-counter base of the synthetic branch sites.
const BRANCH_PC_BASE: u64 = 0x40_0000;

/// Spacing between branch sites in the text segment.
const BRANCH_SITE_STRIDE: u64 = 256;

/// Ops reserved for the event buffer up front — several times the
/// largest event (a free plus a malloc, 12 ops under Watchdog), so
/// it never reallocates. A buffer grown from empty measured the same
/// ops but moved `hbt_resize`'s peak RSS reading from ~62.8 to
/// ~81.6 MiB through glibc's dynamic mmap threshold (DESIGN §15.5).
const EVENT_CAPACITY: usize = 64;

/// A branch site is strongly biased (taken 95% of the time) with this
/// chance, else weakly (60%).
const STRONG_SITE: Chance = Chance::new(0.8);

/// A burst grows by one more access with this chance, up to 32.
const BURST_EXTEND: Chance = Chance::new(0.8);

/// A stack access hits the hot 4 KiB with this chance, else anywhere
/// in the profile's stack span.
const STACK_HOT: Chance = Chance::new(0.8);

/// A new burst revisits the previous burst's object with this chance.
const BURST_REVISIT: Chance = Chance::new(0.5);

/// A chunk pick draws a recency rank from the Zipf with this chance,
/// else picks uniformly.
const ZIPF_REUSE: Chance = Chance::new(0.85);

/// A free releases the oldest live chunk with this chance, else a
/// uniformly chosen one.
const FREE_OLDEST: Chance = Chance::new(0.7);

/// The profile's probabilities as integer thresholds, computed once.
#[derive(Clone, Copy)]
struct Chances {
    /// The event-type choice: one draw against the cumulative sums
    /// `mem`, `mem + branch` and `mem + branch + fp`.
    mem: Chance,
    mem_branch: Chance,
    mem_branch_fp: Chance,
    mispredict: Chance,
    pointer_arith: Chance,
    store: Chance,
    heap: Chance,
    load_chain: Chance,
    spatial_locality: Chance,
    pointer_memop: Chance,
}

impl Chances {
    fn new(p: &WorkloadProfile) -> Self {
        Self {
            mem: Chance::new(p.mem_fraction),
            mem_branch: Chance::new(p.mem_fraction + p.branch_fraction),
            mem_branch_fp: Chance::new(p.mem_fraction + p.branch_fraction + p.fp_fraction),
            mispredict: Chance::new(p.mispredict_rate),
            pointer_arith: Chance::new(p.pointer_arith_fraction),
            store: Chance::new(p.store_fraction),
            heap: Chance::new(p.heap_fraction),
            load_chain: Chance::new(p.load_chain_fraction),
            spatial_locality: Chance::new(p.spatial_locality),
            pointer_memop: Chance::new(p.pointer_memop_fraction),
        }
    }
}

#[derive(Clone, Copy)]
struct LiveChunk {
    /// The register pointer value (signed under AOS configurations).
    ptr: u64,
    /// Raw base address.
    base: u64,
    /// Usable size in bytes.
    size: u64,
    /// Chunk-local hot-window offset for spatial locality.
    hot_offset: u64,
}

/// The generator; see the [module docs](self).
///
/// A `TraceGenerator` is an [`OpStream`](aos_isa::stream::OpStream):
/// feed it to a consumer directly instead of collecting it — the whole
/// pipeline then runs in `O(window)` memory, never materializing the
/// trace. It also implements
/// [`BufferedOps`](aos_isa::stream::BufferedOps), reporting the
/// high-water mark of its internal event buffer (a handful of ops —
/// one program event plus its instrumentation; an event handed out
/// directly counts as 1) and projecting its sign and allocation counts
/// into a run's telemetry snapshot.
///
/// # Examples
///
/// ```
/// use aos_isa::stream::OpStream;
/// use aos_isa::SafetyConfig;
/// use aos_workloads::{generator::TraceGenerator, profile};
///
/// let p = profile::by_name("hmmer").unwrap();
/// // Stream, don't collect: count ops as they flow past.
/// let mut aos = TraceGenerator::new(p, SafetyConfig::Aos, 0.005).metered();
/// let mut base = TraceGenerator::new(p, SafetyConfig::Baseline, 0.005).metered();
/// for _ in &mut aos {}
/// for _ in &mut base {}
/// assert!(aos.ops() > base.ops(), "instrumentation rides along");
/// ```
pub struct TraceGenerator {
    profile: WorkloadProfile,
    chances: Chances,
    config: SafetyConfig,
    signer: PointerSigner,
    heap: HeapAllocator,
    live: VecDeque<LiveChunk>,
    rng: Xoshiro256StarStar,
    zipf: Zipf,
    sizes: DiscreteTable<u64>,
    /// The current multi-op event's ops: one program event plus its
    /// instrumentation, written straight in by `generate_event` and
    /// the `expand::*_site` helpers. Refilled only once drained; a
    /// single-op event bypasses it.
    buffer: Vec<Op>,
    /// Index of the next op of `buffer` that `next()` hands out.
    cursor: usize,
    /// High-water mark of `buffer`, a single-op event counting as 1 —
    /// the generator's entire trace footprint, measured not asserted.
    peak_buffered: usize,
    /// `pacma` signs of AOS mallocs, one QARMA computation each.
    signs: u64,
    base_ops: u64,
    target_base_ops: u64,
    startup_remaining: u64,
    window_max_live: u64,
    ops_since_alloc: u64,
    ops_since_call: u64,
    /// In-flight access burst: programs touch one object several
    /// times in a row (loops over fields/elements), which is what
    /// makes the BWB effective (§V-C).
    burst: Option<LiveChunk>,
    burst_left: u32,
    burst_cursor: u64,
    /// Per-site taken bias for the synthetic branch sites.
    branch_bias: Vec<Chance>,
}

impl TraceGenerator {
    /// Creates a generator for one benchmark and configuration.
    /// `scale` in `(0, 1]` shrinks the window (op budget, startup
    /// allocations and live-set target) proportionally; resize counts
    /// are only meaningful at scale 1.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is outside `(0, 1]`.
    pub fn new(profile: &WorkloadProfile, config: SafetyConfig, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let layout = PointerLayout::default();
        Self {
            profile: *profile,
            chances: Chances::new(profile),
            config,
            signer: PointerSigner::new(PacKey::from_u128(SIGNING_KEY), layout),
            heap: HeapAllocator::new(HeapConfig {
                limit_bytes: 1 << 44,
                ..HeapConfig::default()
            }),
            live: VecDeque::new(),
            rng: Xoshiro256StarStar::seed_from_u64(hash_name(profile.name)),
            zipf: Zipf::new(profile.hot_chunks.max(1), profile.zipf_exponent),
            sizes: DiscreteTable::new(profile.alloc_sizes.to_vec()),
            buffer: Vec::with_capacity(EVENT_CAPACITY),
            cursor: 0,
            peak_buffered: 0,
            signs: 0,
            base_ops: 0,
            target_base_ops: ((profile.window_instructions as f64 * scale) as u64).max(1),
            startup_remaining: (profile.startup_allocations as f64 * scale).ceil() as u64,
            window_max_live: ((profile.window_max_live as f64 * scale) as u64).max(1),
            ops_since_alloc: 0,
            ops_since_call: 0,
            burst: None,
            burst_left: 0,
            burst_cursor: 0,
            branch_bias: {
                let mut rng = Xoshiro256StarStar::seed_from_u64(hash_name(profile.name) ^ 0xB4A2);
                let sites = (profile.code_footprint / BRANCH_SITE_STRIDE).clamp(64, 8192) as usize;
                (0..sites)
                    // Mostly strongly biased sites with a weak tail,
                    // like real branch populations.
                    .map(|_| Chance::new(if rng.chance(STRONG_SITE) { 0.95 } else { 0.6 }))
                    .collect()
            },
        }
    }

    /// Base (uninstrumented) ops emitted so far.
    pub fn base_ops(&self) -> u64 {
        self.base_ops
    }

    /// Live heap chunks right now.
    pub fn live_chunks(&self) -> usize {
        self.live.len()
    }

    /// The most ops the internal event buffer has ever held — the
    /// generator's peak trace memory in ops (one program event plus
    /// its instrumentation, not the trace).
    pub fn peak_buffered_ops(&self) -> usize {
        self.peak_buffered
    }

    /// Counts `op` as a base op and returns it.
    fn count_base(&mut self, op: Op) -> Op {
        self.base_ops += 1;
        self.ops_since_alloc += 1;
        self.ops_since_call += 1;
        op
    }

    fn push_base(&mut self, op: Op) {
        let op = self.count_base(op);
        self.buffer.push(op);
    }

    /// Generates one program event. A single-op event is returned;
    /// any other is written into `buffer`, and `None` returned.
    fn generate_event(&mut self) -> Option<Op> {
        if self.startup_remaining > 0 {
            self.startup_remaining -= 1;
            self.emit_malloc();
            return None;
        }
        let p = self.profile;
        if p.steady_alloc_period > 0 && self.ops_since_alloc >= p.steady_alloc_period {
            self.ops_since_alloc = 0;
            if self.live.len() as u64 >= self.window_max_live {
                self.emit_free();
            }
            self.emit_malloc();
            return None;
        }
        if p.call_period > 0 && self.ops_since_call >= p.call_period {
            self.ops_since_call = 0;
            self.emit_call();
            return None;
        }
        let c = self.chances;
        let r = self.rng.next_u53();
        if c.mem.admits(r) {
            self.emit_access()
        } else if c.mem_branch.admits(r) {
            let site = self.rng.next_index(self.branch_bias.len());
            // Hot sites cluster at low addresses (zipf-free shortcut:
            // square the uniform draw).
            let site = (site * site) / self.branch_bias.len().max(1);
            let taken = self.rng.chance(self.branch_bias[site]);
            let mispredicted = self.rng.chance(c.mispredict);
            Some(self.count_base(Op::Branch {
                pc: BRANCH_PC_BASE + site as u64 * BRANCH_SITE_STRIDE,
                taken,
                mispredicted,
            }))
        } else if c.mem_branch_fp.admits(r) {
            Some(self.count_base(Op::FpAlu))
        } else if self.rng.chance(c.pointer_arith) && expand::instruments_pointer_arith(self.config)
        {
            self.push_base(Op::IntAlu);
            expand::pointer_arith_site(self.config, &mut self.buffer);
            None
        } else {
            Some(self.count_base(Op::IntAlu))
        }
    }

    /// One data access; `None` when its instrumentation made it a
    /// multi-op event, written into `buffer`.
    fn emit_access(&mut self) -> Option<Op> {
        let c = self.chances;
        let is_store = self.rng.chance(c.store);
        let heap_access = !self.live.is_empty() && self.rng.chance(c.heap);
        let (pointer, chained, is_pointer_value) = if heap_access {
            let mut chained = false;
            if self.burst_left == 0 || self.burst.is_none() {
                let chunk = self.pick_burst_chunk();
                // Pointer chasing: reaching a new object often requires
                // the previous object's pointer field first.
                chained = self.rng.chance(c.load_chain);
                // Burst length: 2 + geometric, mean ≈ 6 accesses.
                let mut len = 2u32;
                while len < 32 && self.rng.chance(BURST_EXTEND) {
                    len += 1;
                }
                self.burst_cursor = if self.rng.chance(c.spatial_locality) {
                    let window = chunk.size.min(4096);
                    (chunk.hot_offset + self.rng.next_range(window.max(8)) / 8 * 8)
                        .min(chunk.size.saturating_sub(8))
                } else {
                    (self.rng.next_range(chunk.size.max(8)) / 8 * 8)
                        .min(chunk.size.saturating_sub(8))
                };
                self.burst = Some(chunk);
                self.burst_left = len;
            }
            let chunk = self.burst.expect("burst set above");
            self.burst_left -= 1;
            let offset = self.burst_cursor;
            // Walk sequentially within the object, wrapping.
            self.burst_cursor = (self.burst_cursor + 8) % chunk.size.max(8) / 8 * 8;
            let pointer = chunk.ptr + offset;
            (pointer, chained, self.rng.chance(c.pointer_memop))
        } else {
            let offset = if self.rng.chance(STACK_HOT) {
                self.rng.next_range(4096) / 8 * 8
            } else {
                self.rng.next_range(self.profile.stack_span.max(8)) / 8 * 8
            };
            (STACK_BASE + offset, false, false)
        };
        let access = if is_store {
            Op::Store { pointer, bytes: 8 }
        } else {
            Op::Load {
                pointer,
                bytes: 8,
                chained,
            }
        };
        let memop = is_pointer_value && expand::instruments_pointer_memop(self.config, is_store);
        if !memop && !expand::instruments_access(self.config) {
            return Some(self.count_base(access));
        }
        expand::access_site(self.config, pointer, &mut self.buffer);
        self.push_base(access);
        if memop {
            expand::pointer_memop_site(self.config, pointer, is_store, &mut self.buffer);
        }
        None
    }

    /// Picks a live chunk with recency-biased (Zipf) reuse.
    fn pick_chunk(&mut self) -> usize {
        let len = self.live.len();
        debug_assert!(len > 0);
        if self.rng.chance(ZIPF_REUSE) {
            if let Some(rank) = self.zipf.sample_below(&mut self.rng, len) {
                return len - 1 - rank;
            }
        }
        self.rng.next_index(len)
    }

    /// Loop-style revisits: with probability ~0.5 the next burst hits
    /// the same object as the previous one (a loop body touching the
    /// same node each iteration) — the reuse pattern that makes the
    /// BWB effective across bursts, not just within them.
    fn pick_burst_chunk(&mut self) -> LiveChunk {
        if let Some(prev) = self.burst {
            // `emit_free` clears the burst when its chunk dies, so a
            // present burst is always live.
            if self.rng.chance(BURST_REVISIT) {
                return prev;
            }
        } else {
            // Keep the RNG stream identical whether or not a previous
            // burst exists.
            let _ = self.rng.chance(BURST_REVISIT);
        }
        let idx = self.pick_chunk();
        self.live[idx]
    }

    fn emit_call(&mut self) {
        // Prologue.
        expand::function_boundary(self.config, &mut self.buffer);
        self.push_base(Op::IntAlu);
        // Epilogue.
        self.push_base(Op::IntAlu);
        expand::function_boundary(self.config, &mut self.buffer);
    }

    fn emit_malloc(&mut self) {
        let size = *self.sizes.sample(&mut self.rng);
        let alloc = self
            .heap
            .malloc(size)
            .expect("workload stays within the heap limit");
        let ptr = if self.config.uses_aos() {
            self.signs += 1;
            self.signer
                .pacma(alloc.base, SIGNING_CONTEXT, alloc.usable_size)
        } else {
            alloc.base
        };
        let hot_offset = if alloc.usable_size > 4096 {
            self.rng.next_range(alloc.usable_size - 4096) / 16 * 16
        } else {
            0
        };
        // Allocator-internal work (identical for every configuration).
        self.push_base(Op::IntAlu);
        self.push_base(Op::IntAlu);
        self.push_base(Op::Load {
            pointer: BIN_BASE + (size.min(4096) / 16) * 64,
            bytes: 8,
            chained: false,
        });
        self.push_base(Op::Store {
            pointer: alloc.base - 16,
            bytes: 8,
        });
        // Instrumentation (Fig. 7a / Fig. 5a ¬).
        expand::malloc_site(self.config, ptr, alloc.usable_size, &mut self.buffer);
        self.live.push_back(LiveChunk {
            ptr,
            base: alloc.base,
            size: alloc.usable_size,
            hot_offset,
        });
    }

    fn emit_free(&mut self) {
        debug_assert!(!self.live.is_empty());
        // Mostly free old objects, sometimes arbitrary ones.
        let victim = if self.rng.chance(FREE_OLDEST) {
            self.live.pop_front().expect("nonempty")
        } else {
            let idx = self.rng.next_index(self.live.len());
            self.live
                .swap_remove_back(idx)
                .expect("index within bounds")
        };
        // A freed chunk must not be touched by an in-flight burst.
        if self.burst.is_some_and(|b| b.base == victim.base) {
            self.burst = None;
            self.burst_left = 0;
        }
        // Fig. 7b lines 1–2: bndclr + xpacm before the free body.
        expand::free_site_pre(self.config, victim.ptr, &mut self.buffer);
        // free() internals: header read, bin update.
        self.push_base(Op::Load {
            pointer: victim.base - 16,
            bytes: 8,
            chained: false,
        });
        self.push_base(Op::Store {
            pointer: victim.base - 16,
            bytes: 8,
        });
        self.heap
            .free(victim.base)
            .expect("live chunk frees cleanly");
        // Fig. 7b line 4: re-sign to lock the dangling pointer.
        expand::free_site_post(self.config, victim.ptr, &mut self.buffer);
    }
}

impl Iterator for TraceGenerator {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        loop {
            if let Some(&op) = self.buffer.get(self.cursor) {
                self.cursor += 1;
                return Some(op);
            }
            if self.base_ops >= self.target_base_ops {
                return None;
            }
            self.buffer.clear();
            self.cursor = 0;
            if let Some(op) = self.generate_event() {
                self.peak_buffered = self.peak_buffered.max(1);
                return Some(op);
            }
            self.peak_buffered = self.peak_buffered.max(self.buffer.len());
        }
    }
}

impl aos_isa::stream::BufferedOps for TraceGenerator {
    fn peak_buffered_ops(&self) -> usize {
        self.peak_buffered
    }

    /// Projects generation's counts: `pac_computations` and
    /// `ptr_signs` from the AOS mallocs' `pacma` signs, and the heap's
    /// allocation counts and size-class histogram. Counting never
    /// feeds back into generation.
    fn record_telemetry(&self, snapshot: &mut TelemetrySnapshot) {
        snapshot.add(Counter::PacComputations, self.signs);
        snapshot.add(Counter::PtrSigns, self.signs);
        self.heap.record_telemetry(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::by_name;
    use aos_isa::InstMix;

    fn collect(name: &str, config: SafetyConfig, scale: f64) -> Vec<Op> {
        TraceGenerator::new(by_name(name).unwrap(), config, scale).collect()
    }

    #[test]
    fn deterministic_across_runs() {
        let a = collect("gcc", SafetyConfig::Aos, 0.002);
        let b = collect("gcc", SafetyConfig::Aos, 0.002);
        assert_eq!(a, b);
    }

    #[test]
    fn program_events_identical_across_configs() {
        // Strip instrumentation from the AOS trace (and signing bits
        // from pointers): the base program must equal the baseline's.
        let layout = PointerLayout::default();
        let base = collect("hmmer", SafetyConfig::Baseline, 0.003);
        let aos: Vec<Op> = collect("hmmer", SafetyConfig::Aos, 0.003)
            .into_iter()
            .filter_map(|op| match op {
                Op::Pacma { .. } | Op::Xpacm | Op::BndStr { .. } | Op::BndClr { .. } => None,
                Op::Load {
                    pointer,
                    bytes,
                    chained,
                } => Some(Op::Load {
                    pointer: layout.address(pointer),
                    bytes,
                    chained,
                }),
                Op::Store { pointer, bytes } => Some(Op::Store {
                    pointer: layout.address(pointer),
                    bytes,
                }),
                other => Some(other),
            })
            .collect();
        assert_eq!(base, aos);
    }

    #[test]
    fn aos_trace_signs_heap_accesses() {
        let layout = PointerLayout::default();
        let mut mix = InstMix::default();
        for op in collect("hmmer", SafetyConfig::Aos, 0.01) {
            mix.record(&op, layout);
        }
        assert!(
            mix.signed_access_fraction() > 0.9,
            "hmmer is nearly all-signed, got {}",
            mix.signed_access_fraction()
        );
        assert!(mix.bnd_ops > 0);
        assert!(mix.pac_ops > 0);
    }

    #[test]
    fn baseline_trace_has_no_instrumentation() {
        let layout = PointerLayout::default();
        let mut mix = InstMix::default();
        for op in collect("gcc", SafetyConfig::Baseline, 0.005) {
            mix.record(&op, layout);
        }
        assert_eq!(mix.bnd_ops, 0);
        assert_eq!(mix.pac_ops, 0);
        assert_eq!(mix.signed_loads + mix.signed_stores, 0);
    }

    #[test]
    fn watchdog_adds_check_uops() {
        let base = collect("gcc", SafetyConfig::Baseline, 0.004);
        let wd = collect("gcc", SafetyConfig::Watchdog, 0.004);
        let checks = wd
            .iter()
            .filter(|o| matches!(o, Op::WdCheck { .. }))
            .count();
        let mems = base
            .iter()
            .filter(|o| matches!(o, Op::Load { .. } | Op::Store { .. }))
            .count();
        // Every data access gets a check µop (plus allocator-internal
        // accesses).
        assert!(checks > 0);
        assert!(checks as f64 > mems as f64 * 0.8, "{checks} vs {mems}");
        let overhead = wd.len() as f64 / base.len() as f64;
        assert!(
            (1.2..1.8).contains(&overhead),
            "Watchdog ~44% more dynamic ops, got {overhead:.2}"
        );
    }

    #[test]
    fn live_set_tracks_target() {
        let p = by_name("sphinx3").unwrap();
        let mut generator = TraceGenerator::new(p, SafetyConfig::Baseline, 0.05);
        while generator.next().is_some() {}
        let target = (p.window_max_live as f64 * 0.05) as u64;
        let live = generator.live_chunks() as u64;
        assert!(
            live >= target / 2 && live <= target + target / 2 + 2,
            "live {live} vs target {target}"
        );
    }

    #[test]
    fn base_op_budget_is_respected() {
        let p = by_name("namd").unwrap();
        let mut generator = TraceGenerator::new(p, SafetyConfig::PaAos, 0.01);
        let total = generator.by_ref().count() as u64;
        let base = generator.base_ops();
        let budget = (p.window_instructions as f64 * 0.01) as u64;
        assert!(base >= budget && base < budget + 16, "base {base}");
        assert!(total >= base, "instrumented total includes base ops");
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn bad_scale_rejected() {
        TraceGenerator::new(by_name("gcc").unwrap(), SafetyConfig::Aos, 1.5);
    }
}
