//! Streaming op-pipeline adapters: compose trace producers,
//! transformers and consumers without ever materializing a `Vec<Op>`.
//!
//! The paper's claim is *always-on* enforcement over 3-billion-
//! instruction SPEC windows; a pipeline that collects every trace into
//! memory caps the window it can afford at `O(trace)` RSS per worker.
//! Everything in this module is `O(window)`: an [`OpStream`] is any
//! `Iterator<Item = Op>`, and the adapters below buffer at most a
//! fixed number of ops regardless of trace length —
//!
//! - [`InsertAt`] / [`ReplaceAt`] — positional single-op splices
//!   (the streaming form of the fault injectors' trace rewrites);
//! - [`SpliceMany`] — the multi-edit generalization used by the
//!   adversarial scenario engine: any number of positional
//!   insert/replace edits applied in one pass, buffering only the
//!   un-emitted edit ops;
//! - [`Lookahead`] — a bounded lookahead window over a stream, used
//!   by the use-after-free planner that must prove no same-PAC
//!   reallocation lands inside the ROB-sized retirement window;
//! - [`Metered`] — transparent op counting plus the
//!   [`BufferedOps`] high-water mark, which is how the campaign
//!   report's `peak_trace_bytes` column is measured rather than
//!   asserted.
//!
//! # Examples
//!
//! ```
//! use aos_isa::stream::{BufferedOps, OpStream};
//! use aos_isa::Op;
//!
//! // Splice one op into a stream at index 2, without collecting it.
//! let base = std::iter::repeat(Op::IntAlu).take(4);
//! let spliced: Vec<Op> = base.insert_at(2, Op::FpAlu).collect();
//! assert_eq!(spliced.len(), 5);
//! assert_eq!(spliced[2], Op::FpAlu);
//!
//! // Meter a stream while a consumer drains it.
//! let mut stream = std::iter::repeat(Op::IntAlu).take(1000).metered();
//! for _op in &mut stream {}
//! assert_eq!(stream.ops(), 1000);
//! assert_eq!(stream.peak_buffered_ops(), 0, "a plain iterator buffers nothing");
//! ```

use std::collections::VecDeque;

use aos_util::{Counter, Telemetry};

use crate::Op;

/// Struct-of-arrays batch of ops: the unit of transfer on the
/// pipeline's batch-native fast path.
///
/// Every [`Op`] round-trips losslessly through four parallel arrays —
/// a kind byte, two 64-bit payload words and a flag byte — so a batch
/// costs 18 bytes per op instead of `size_of::<Op>()` and refilling
/// touches four dense arrays instead of chasing an enum through an
/// iterator chain per op. The arrays are allocated once at
/// construction (a small bump arena) and reused across refills via
/// [`OpBatch::clear`], so steady-state refills never allocate.
#[derive(Debug, Clone)]
pub struct OpBatch {
    kinds: Vec<u8>,
    arg_a: Vec<u64>,
    arg_b: Vec<u64>,
    flags: Vec<u8>,
    limit: usize,
}

const K_INT_ALU: u8 = 0;
const K_INT_MUL: u8 = 1;
const K_FP_ALU: u8 = 2;
const K_BRANCH: u8 = 3;
const K_LOAD: u8 = 4;
const K_STORE: u8 = 5;
const K_PACMA: u8 = 6;
const K_XPACM: u8 = 7;
const K_AUTM: u8 = 8;
const K_PAC_CRYPTO: u8 = 9;
const K_BND_STR: u8 = 10;
const K_BND_CLR: u8 = 11;
const K_WD_CHECK: u8 = 12;
const K_WD_META: u8 = 13;

/// First boolean payload: `taken` / `chained` / `is_store`.
const F_A: u8 = 1;
/// Second boolean payload: `mispredicted`.
const F_B: u8 = 2;

#[inline]
fn encode_op(op: Op) -> (u8, u64, u64, u8) {
    match op {
        Op::IntAlu => (K_INT_ALU, 0, 0, 0),
        Op::IntMul => (K_INT_MUL, 0, 0, 0),
        Op::FpAlu => (K_FP_ALU, 0, 0, 0),
        Op::Branch {
            pc,
            taken,
            mispredicted,
        } => (
            K_BRANCH,
            pc,
            0,
            (u8::from(taken) * F_A) | (u8::from(mispredicted) * F_B),
        ),
        Op::Load {
            pointer,
            bytes,
            chained,
        } => (K_LOAD, pointer, u64::from(bytes), u8::from(chained) * F_A),
        Op::Store { pointer, bytes } => (K_STORE, pointer, u64::from(bytes), 0),
        Op::Pacma { pointer, size } => (K_PACMA, pointer, size, 0),
        Op::Xpacm => (K_XPACM, 0, 0, 0),
        Op::Autm { pointer } => (K_AUTM, pointer, 0, 0),
        Op::PacCrypto => (K_PAC_CRYPTO, 0, 0, 0),
        Op::BndStr { pointer, size } => (K_BND_STR, pointer, size, 0),
        Op::BndClr { pointer } => (K_BND_CLR, pointer, 0, 0),
        Op::WdCheck { pointer } => (K_WD_CHECK, pointer, 0, 0),
        Op::WdMeta { pointer, is_store } => (K_WD_META, pointer, 0, u8::from(is_store) * F_A),
    }
}

#[inline]
fn decode_op(kind: u8, a: u64, b: u64, f: u8) -> Op {
    match kind {
        K_INT_ALU => Op::IntAlu,
        K_INT_MUL => Op::IntMul,
        K_FP_ALU => Op::FpAlu,
        K_BRANCH => Op::Branch {
            pc: a,
            taken: f & F_A != 0,
            mispredicted: f & F_B != 0,
        },
        K_LOAD => Op::Load {
            pointer: a,
            bytes: b as u32,
            chained: f & F_A != 0,
        },
        K_STORE => Op::Store {
            pointer: a,
            bytes: b as u32,
        },
        K_PACMA => Op::Pacma {
            pointer: a,
            size: b,
        },
        K_XPACM => Op::Xpacm,
        K_AUTM => Op::Autm { pointer: a },
        K_PAC_CRYPTO => Op::PacCrypto,
        K_BND_STR => Op::BndStr {
            pointer: a,
            size: b,
        },
        K_BND_CLR => Op::BndClr { pointer: a },
        K_WD_CHECK => Op::WdCheck { pointer: a },
        K_WD_META => Op::WdMeta {
            pointer: a,
            is_store: f & F_A != 0,
        },
        _ => unreachable!("OpBatch only stores kinds written by encode_op"),
    }
}

impl OpBatch {
    /// Bytes per op in the struct-of-arrays layout.
    pub const BYTES_PER_OP: usize = 18;

    /// A batch holding up to `ops` ops, arrays allocated up front.
    pub fn with_capacity(ops: usize) -> Self {
        Self {
            kinds: Vec::with_capacity(ops),
            arg_a: Vec::with_capacity(ops),
            arg_b: Vec::with_capacity(ops),
            flags: Vec::with_capacity(ops),
            limit: ops,
        }
    }

    /// The refill limit (ops) set at construction.
    pub fn capacity(&self) -> usize {
        self.limit
    }

    /// Fixed arena size in bytes (capacity, not fill level) — the
    /// constant, scale-independent memory a batched pipeline stage
    /// adds on top of the stream's own `O(window)` buffers.
    pub fn arena_bytes(&self) -> usize {
        self.limit * Self::BYTES_PER_OP
    }

    /// Ops currently in the batch.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the batch holds no ops.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Whether the batch reached its refill limit.
    pub fn is_full(&self) -> bool {
        self.kinds.len() >= self.limit
    }

    /// Empties the batch, keeping the arena for the next refill.
    pub fn clear(&mut self) {
        self.kinds.clear();
        self.arg_a.clear();
        self.arg_b.clear();
        self.flags.clear();
    }

    /// Appends one op.
    ///
    /// Callers respect [`OpBatch::is_full`]; the arena still grows
    /// (amortized, like `Vec`) if they do not, so a miscounting refill
    /// corrupts nothing.
    #[inline]
    pub fn push(&mut self, op: Op) {
        let (k, a, b, f) = encode_op(op);
        self.kinds.push(k);
        self.arg_a.push(a);
        self.arg_b.push(b);
        self.flags.push(f);
    }

    /// The op at `index`, decoded.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn get(&self, index: usize) -> Op {
        decode_op(
            self.kinds[index],
            self.arg_a[index],
            self.arg_b[index],
            self.flags[index],
        )
    }

    /// Overwrites the op at `index` (the batched `replace_at` splice).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set(&mut self, index: usize, op: Op) {
        let (k, a, b, f) = encode_op(op);
        self.kinds[index] = k;
        self.arg_a[index] = a;
        self.arg_b[index] = b;
        self.flags[index] = f;
    }

    /// Inserts an op at `index`, shifting everything after it (the
    /// batched `insert_at` splice — rare, so the `O(len)` shift across
    /// the four arrays is off the steady-state path).
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, op: Op) {
        let (k, a, b, f) = encode_op(op);
        self.kinds.insert(index, k);
        self.arg_a.insert(index, a);
        self.arg_b.insert(index, b);
        self.flags.insert(index, f);
    }

    /// Decoded ops in order.
    pub fn iter(&self) -> impl Iterator<Item = Op> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Runs `f` with the refill limit temporarily lowered by `slots`
    /// (never below the current fill level) — how a splicing adapter
    /// reserves room for its own op before delegating a refill.
    pub fn with_reserved<R>(&mut self, slots: usize, f: impl FnOnce(&mut OpBatch) -> R) -> R {
        let old = self.limit;
        self.limit = self.limit.saturating_sub(slots).max(self.len());
        let out = f(self);
        self.limit = old;
        out
    }
}

/// A stream component that buffers ops internally and can report its
/// high-water mark — the measurable `O(window)` memory proof for the
/// streaming pipeline. A component that holds no ops reports 0.
pub trait BufferedOps {
    /// The maximum number of ops this component (including anything it
    /// wraps) has held buffered at any point so far.
    fn peak_buffered_ops(&self) -> usize;
}

/// The streaming trace vocabulary: any iterator over [`Op`]s, plus the
/// adapter combinators of this module. Blanket-implemented, so every
/// producer — a `TraceGenerator`, a decoded trace file, a `Vec` being
/// drained — composes for free.
pub trait OpStream: Iterator<Item = Op> {
    /// Splices `op` into the stream so it is yielded at index `at`
    /// (everything from `at` onward shifts one position later). An
    /// `at` beyond the end of the stream appends the op.
    fn insert_at(self, at: usize, op: Op) -> InsertAt<Self>
    where
        Self: Sized,
    {
        InsertAt {
            inner: self,
            at,
            op: Some(op),
            index: 0,
        }
    }

    /// Replaces the op at index `at` with `op`, preserving stream
    /// length. A stream shorter than `at` is passed through unchanged.
    fn replace_at(self, at: usize, op: Op) -> ReplaceAt<Self>
    where
        Self: Sized,
    {
        ReplaceAt {
            inner: self,
            at,
            op: Some(op),
            index: 0,
        }
    }

    /// Applies a whole set of positional [`Splice`] edits in one
    /// streaming pass — the multi-edit generalization of
    /// [`OpStream::insert_at`] / [`OpStream::replace_at`] used by the
    /// adversarial scenario engine to compose attack chains. Edit
    /// sites are original-stream indices; see [`Splice`] for the
    /// exact per-site semantics.
    fn splice_many(self, edits: Vec<Splice>) -> SpliceMany<Self>
    where
        Self: Sized,
    {
        SpliceMany::new(self, edits)
    }

    /// Counts the ops that flow through, transparently.
    fn metered(self) -> Metered<Self>
    where
        Self: Sized,
    {
        Metered {
            inner: self,
            emitted: 0,
        }
    }

    /// Appends ops to `batch` until it is full or the stream ends and
    /// returns how many were added — so fewer than the available space
    /// means the stream is exhausted.
    ///
    /// This default is the universal *fallback*: one `next()` call per
    /// op, correct for every stream. Pipeline components that can do
    /// better implement [`BatchSource`], whose `refill_batch` is the
    /// batch-native fast path; [`PerOp`] bridges any plain stream into
    /// a `BatchSource` through this method (and reports itself
    /// non-native so the `batch_fallback_ops` counter exposes the
    /// degradation).
    fn next_batch(&mut self, batch: &mut OpBatch) -> usize {
        let mut added = 0;
        while !batch.is_full() {
            match self.next() {
                Some(op) => {
                    batch.push(op);
                    added += 1;
                }
                None => break,
            }
        }
        added
    }
}

impl<I: Iterator<Item = Op>> OpStream for I {}

/// The batch-native refill interface: fill an [`OpBatch`] wholesale
/// instead of being pulled one op at a time.
///
/// The contract matches [`OpStream::next_batch`]: append until the
/// batch is full or the stream ends, return the number appended, and
/// therefore signal exhaustion by returning less than the space that
/// was available. Implementations must yield exactly the op sequence
/// their `Iterator` impl would — the batched and per-op paths are
/// interchangeable bit for bit, which `tests/batch_equivalence.rs`
/// pins across every system.
pub trait BatchSource {
    /// Refills `batch` on the fast path. See the trait docs for the
    /// contract.
    fn refill_batch(&mut self, batch: &mut OpBatch) -> usize;

    /// Whether refills stay batch-native end to end. A chain reports
    /// `false` as soon as any stage degrades to per-op pulls, which
    /// the [`Batched`] driver surfaces as `batch_fallback_ops`.
    fn batch_native(&self) -> bool {
        true
    }
}

impl<S: BatchSource + ?Sized> BatchSource for &mut S {
    fn refill_batch(&mut self, batch: &mut OpBatch) -> usize {
        (**self).refill_batch(batch)
    }

    fn batch_native(&self) -> bool {
        (**self).batch_native()
    }
}

/// Bridges any plain [`OpStream`] into a [`BatchSource`] via the
/// per-op [`OpStream::next_batch`] fallback. Reports itself
/// non-native, so a pipeline that had to fall back is visible in the
/// `batch_fallback_ops` telemetry counter.
#[derive(Debug, Clone)]
pub struct PerOp<I>(pub I);

impl<I: Iterator<Item = Op>> Iterator for PerOp<I> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.0.next()
    }
}

impl<I: Iterator<Item = Op>> BatchSource for PerOp<I> {
    fn refill_batch(&mut self, batch: &mut OpBatch) -> usize {
        self.0.next_batch(batch)
    }

    fn batch_native(&self) -> bool {
        false
    }
}

impl<I: BufferedOps> BufferedOps for PerOp<I> {
    fn peak_buffered_ops(&self) -> usize {
        self.0.peak_buffered_ops()
    }
}

/// Drives a [`BatchSource`] as an ordinary op iterator: one reused
/// [`OpBatch`] arena, refilled when drained. The op sequence is
/// identical to iterating the source directly — only the refill
/// granularity changes — so a `Machine` fed through `Batched` produces
/// bit-identical `RunStats`.
///
/// When handed a telemetry handle, every refill records
/// `batch_ops_refilled` (and `batch_fallback_ops` for non-native
/// sources), which is how `aos stats` proves the fast path was taken.
#[derive(Debug)]
pub struct Batched<S> {
    source: S,
    batch: OpBatch,
    pos: usize,
    done: bool,
    peak_batch: usize,
    telemetry: Telemetry,
}

/// Default refill granularity for [`Batched`] drivers and the
/// double-buffered overlap runner: large enough to amortize refill
/// dispatch and keep generator and simulator each running long
/// cache-friendly bursts, small enough that an arena stays a fixed
/// few KiB regardless of trace length.
pub const DEFAULT_BATCH_OPS: usize = 1024;

impl<S: BatchSource> Batched<S> {
    /// Default refill granularity; see [`DEFAULT_BATCH_OPS`].
    pub const DEFAULT_BATCH_OPS: usize = DEFAULT_BATCH_OPS;

    /// Wraps `source` with a fresh arena of `batch_ops` ops.
    pub fn new(source: S, batch_ops: usize) -> Self {
        Self {
            source,
            batch: OpBatch::with_capacity(batch_ops.max(2)),
            pos: 0,
            done: false,
            peak_batch: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Records refills into `telemetry` (`batch_ops_refilled` /
    /// `batch_fallback_ops`).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The wrapped source.
    pub fn get_ref(&self) -> &S {
        &self.source
    }

    /// Unwraps back to the source.
    pub fn into_inner(self) -> S {
        self.source
    }

    fn refill(&mut self) -> bool {
        self.batch.clear();
        self.pos = 0;
        let n = self.source.refill_batch(&mut self.batch);
        if n == 0 {
            self.done = true;
            return false;
        }
        self.peak_batch = self.peak_batch.max(self.batch.len());
        self.telemetry.add(Counter::BatchOpsRefilled, n as u64);
        if !self.source.batch_native() {
            self.telemetry.add(Counter::BatchFallbackOps, n as u64);
        }
        true
    }
}

impl<S: BatchSource> Iterator for Batched<S> {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        if self.pos >= self.batch.len() && (self.done || !self.refill()) {
            return None;
        }
        let op = self.batch.get(self.pos);
        self.pos += 1;
        Some(op)
    }
}

impl<S: BufferedOps> BufferedOps for Batched<S> {
    fn peak_buffered_ops(&self) -> usize {
        // The arena's high-water mark counts: ops sitting in the batch
        // are buffered ops, fixed at the capacity chosen up front.
        self.source.peak_buffered_ops() + self.peak_batch
    }
}

/// Yields the wrapped stream with one extra op spliced in at a fixed
/// index. See [`OpStream::insert_at`]. Buffers exactly one op.
#[derive(Debug, Clone)]
pub struct InsertAt<I> {
    inner: I,
    at: usize,
    op: Option<Op>,
    index: usize,
}

impl<I> InsertAt<I> {
    /// The wrapped stream.
    pub fn get_ref(&self) -> &I {
        &self.inner
    }
}

impl<I: Iterator<Item = Op>> Iterator for InsertAt<I> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.index == self.at {
            if let Some(op) = self.op.take() {
                self.index += 1;
                return Some(op);
            }
        }
        match self.inner.next() {
            Some(op) => {
                self.index += 1;
                Some(op)
            }
            // The splice point lies at (or past) the end: append.
            None => self.op.take().inspect(|_| self.index += 1),
        }
    }
}

impl<I: BufferedOps> BufferedOps for InsertAt<I> {
    fn peak_buffered_ops(&self) -> usize {
        // The pending splice op is this adapter's entire buffer.
        self.inner.peak_buffered_ops() + 1
    }
}

impl<I: BatchSource> BatchSource for InsertAt<I> {
    fn refill_batch(&mut self, batch: &mut OpBatch) -> usize {
        let start = batch.len();
        // Keep one slot free for the pending splice so inserting it
        // cannot overflow the refill limit.
        let reserve = usize::from(self.op.is_some());
        let space = batch.capacity().saturating_sub(start + reserve);
        let n = batch.with_reserved(reserve, |b| self.inner.refill_batch(b));
        let exhausted = n < space;
        let mut added = n;
        if let Some(op) = self.op.take() {
            debug_assert!(self.at >= self.index, "splice op would already be emitted");
            if self.at <= self.index + n {
                batch.insert(start + (self.at - self.index), op);
                added += 1;
            } else if exhausted {
                // The splice point lies past the end: append, exactly
                // like the per-op path.
                batch.push(op);
                added += 1;
            } else {
                self.op = Some(op);
            }
        }
        self.index += added;
        added
    }

    fn batch_native(&self) -> bool {
        self.inner.batch_native()
    }
}

/// Yields the wrapped stream with the op at one fixed index swapped
/// out. See [`OpStream::replace_at`]. Buffers exactly one op.
#[derive(Debug, Clone)]
pub struct ReplaceAt<I> {
    inner: I,
    at: usize,
    op: Option<Op>,
    index: usize,
}

impl<I> ReplaceAt<I> {
    /// The wrapped stream.
    pub fn get_ref(&self) -> &I {
        &self.inner
    }
}

impl<I: Iterator<Item = Op>> Iterator for ReplaceAt<I> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let op = self.inner.next()?;
        let index = self.index;
        self.index += 1;
        if index == self.at {
            if let Some(replacement) = self.op.take() {
                return Some(replacement);
            }
        }
        Some(op)
    }
}

impl<I: BufferedOps> BufferedOps for ReplaceAt<I> {
    fn peak_buffered_ops(&self) -> usize {
        self.inner.peak_buffered_ops() + 1
    }
}

impl<I: BatchSource> BatchSource for ReplaceAt<I> {
    fn refill_batch(&mut self, batch: &mut OpBatch) -> usize {
        let start = batch.len();
        let n = self.inner.refill_batch(batch);
        if let Some(op) = self.op.take() {
            debug_assert!(self.at >= self.index, "replacement would already be emitted");
            if self.at < self.index + n {
                batch.set(start + (self.at - self.index), op);
            } else {
                self.op = Some(op);
            }
        }
        self.index += n;
        n
    }

    fn batch_native(&self) -> bool {
        self.inner.batch_native()
    }
}

/// One positional edit for [`SpliceMany`], addressed in *original*
/// stream indices (the coordinate space the fault planners report
/// their sites in, unaffected by earlier edits in the same set).
///
/// An insert edit emits `ops` immediately before the original op at
/// `at` — the ops are *yielded at* index `at`, exactly like
/// [`OpStream::insert_at`]. A replace edit emits `ops` *instead of*
/// the original op at `at` (an empty `ops` deletes it). Edits whose
/// `at` lies past the end of the stream append their ops in edit
/// order when they insert, and are dropped when they replace —
/// mirroring the single-op adapters' end-of-stream behavior.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Splice {
    /// Original-stream index the edit targets.
    pub at: usize,
    /// `true` to substitute for the op at `at`, `false` to insert
    /// before it.
    pub replace: bool,
    /// The ops to emit at the edit site.
    pub ops: Vec<Op>,
}

impl Splice {
    /// An insert edit: `ops` are yielded at `at`, the original op (and
    /// everything after it) shifts later.
    pub fn insert(at: usize, ops: Vec<Op>) -> Self {
        Splice {
            at,
            replace: false,
            ops,
        }
    }

    /// A replace edit: `ops` substitute for the original op at `at`.
    pub fn replace(at: usize, ops: Vec<Op>) -> Self {
        Splice {
            at,
            replace: true,
            ops,
        }
    }
}

/// Applies an arbitrary set of positional [`Splice`] edits in one
/// streaming pass. See [`OpStream::splice_many`].
///
/// Edits are applied in ascending `at` order (ties keep construction
/// order, so two edits at one site compose deterministically: each
/// edit's ops queue in turn, and the original op survives only if no
/// edit at that site replaces it). Buffered state is bounded by the
/// total op count of the not-yet-emitted edits — `O(edits)`, never
/// `O(trace)`.
#[derive(Debug, Clone)]
pub struct SpliceMany<I> {
    inner: I,
    edits: Vec<Splice>,
    next_edit: usize,
    pending: VecDeque<Op>,
    index: usize,
    edit_ops_total: usize,
}

impl<I> SpliceMany<I> {
    /// Wraps `inner` with `edits`, sorting them by site (stable, so
    /// same-site edits keep their given order).
    pub fn new(inner: I, mut edits: Vec<Splice>) -> Self {
        edits.sort_by_key(|e| e.at);
        let edit_ops_total: usize = edits.iter().map(|e| e.ops.len()).sum();
        SpliceMany {
            inner,
            edits,
            next_edit: 0,
            pending: VecDeque::new(),
            index: 0,
            edit_ops_total,
        }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &I {
        &self.inner
    }

    /// Queues every edit targeting the current original index; returns
    /// whether one of them replaces the original op. Called only once
    /// that op exists, so an edit at the end-of-stream index falls to
    /// [`SpliceMany::take_tail_edits`] instead.
    fn take_edits_here(&mut self) -> bool {
        let mut replaced = false;
        while let Some(edit) = self.edits.get(self.next_edit) {
            if edit.at != self.index {
                break;
            }
            replaced |= edit.replace;
            self.pending.extend(edit.ops.iter().copied());
            self.next_edit += 1;
        }
        replaced
    }

    /// Queues the tail edits once the stream has ended: inserts
    /// append their ops, replaces have no target and are dropped.
    fn take_tail_edits(&mut self) {
        while let Some(edit) = self.edits.get(self.next_edit) {
            if !edit.replace {
                self.pending.extend(edit.ops.iter().copied());
            }
            self.next_edit += 1;
        }
    }
}

impl<I: Iterator<Item = Op>> Iterator for SpliceMany<I> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        loop {
            if let Some(op) = self.pending.pop_front() {
                return Some(op);
            }
            match self.inner.next() {
                Some(op) => {
                    let replaced = self.take_edits_here();
                    self.index += 1;
                    if !replaced {
                        self.pending.push_back(op);
                    }
                    // An empty-ops replace deleted the op: loop on.
                }
                None => {
                    self.take_tail_edits();
                    if self.pending.is_empty() {
                        return None;
                    }
                }
            }
        }
    }
}

impl<I: BufferedOps> BufferedOps for SpliceMany<I> {
    fn peak_buffered_ops(&self) -> usize {
        // Upper bound: every edit op is buffered until emitted.
        self.inner.peak_buffered_ops() + self.edit_ops_total
    }
}

impl<I: Iterator<Item = Op> + BatchSource> BatchSource for SpliceMany<I> {
    fn refill_batch(&mut self, batch: &mut OpBatch) -> usize {
        // Fast path: no queued ops and no edit can land inside this
        // refill window (the inner source can add at most `space`
        // ops), so the whole refill is a pass-through.
        let space = batch.capacity().saturating_sub(batch.len());
        let clear_of_edits = self.next_edit == self.edits.len()
            || self.edits[self.next_edit].at >= self.index + space;
        if self.pending.is_empty() && clear_of_edits {
            let n = self.inner.refill_batch(batch);
            self.index += n;
            // n == 0 with edits still pending means the stream ended
            // short of a splice site: fall through so the per-op path
            // runs the end-of-stream append rule.
            if n > 0 || self.next_edit == self.edits.len() {
                return n;
            }
        }
        // Near an edit site (or at end-of-stream with tail edits):
        // refill per op so all splice bookkeeping — including the
        // end-of-stream rule that drops replaces — stays in `next`.
        let mut added = 0;
        while !batch.is_full() {
            match self.next() {
                Some(op) => {
                    batch.push(op);
                    added += 1;
                }
                None => break,
            }
        }
        added
    }

    fn batch_native(&self) -> bool {
        self.inner.batch_native()
    }
}

/// Transparent op counter; composes with [`BufferedOps`] so a consumer
/// can drain a stream through `&mut` and read both the op count and
/// the pipeline's peak buffer afterwards.
#[derive(Debug, Clone)]
pub struct Metered<I> {
    inner: I,
    emitted: u64,
}

impl<I> Metered<I> {
    /// Ops yielded so far.
    pub fn ops(&self) -> u64 {
        self.emitted
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &I {
        &self.inner
    }
}

impl<I: Iterator<Item = Op>> Iterator for Metered<I> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let op = self.inner.next()?;
        self.emitted += 1;
        Some(op)
    }
}

impl<I: BufferedOps> BufferedOps for Metered<I> {
    fn peak_buffered_ops(&self) -> usize {
        self.inner.peak_buffered_ops()
    }
}

impl<I: BatchSource> BatchSource for Metered<I> {
    fn refill_batch(&mut self, batch: &mut OpBatch) -> usize {
        let n = self.inner.refill_batch(batch);
        self.emitted += n as u64;
        n
    }

    fn batch_native(&self) -> bool {
        self.inner.batch_native()
    }
}

/// Iterators with no internal storage (slices being copied, ranges,
/// repeat/take chains) buffer nothing. This blanket-free impl covers
/// the common leaf producers used in tests and doc examples.
impl<'a, T: Iterator<Item = &'a Op>> BufferedOps for std::iter::Copied<T> {
    fn peak_buffered_ops(&self) -> usize {
        0
    }
}

impl<I> BufferedOps for std::iter::Take<I> {
    fn peak_buffered_ops(&self) -> usize {
        0
    }
}

impl<T> BufferedOps for std::iter::Repeat<T> {
    fn peak_buffered_ops(&self) -> usize {
        0
    }
}

/// A bounded lookahead window over an op stream.
///
/// [`Lookahead::next_op`] yields `(index, op)` pairs in order; after a
/// yield, [`Lookahead::window`] exposes up to `window` *following*
/// ops — exactly `trace[i + 1 ..= i + window]`, truncated at the end
/// of the stream. The buffer never holds more than `window + 1` ops,
/// so scanning a trace for anchors is `O(window)` memory no matter how
/// long the trace runs.
#[derive(Debug)]
pub struct Lookahead<I: Iterator<Item = Op>> {
    inner: I,
    buf: VecDeque<Op>,
    window: usize,
    index: usize,
    peak: usize,
    exhausted: bool,
    /// Carry-over arena for batched refills: ops pulled from the inner
    /// stream's batch-native path that did not fit the window yet.
    /// Zero-capacity (no allocation) unless [`Lookahead::batched`]
    /// built this instance.
    scratch: OpBatch,
    scratch_pos: usize,
}

impl<I: Iterator<Item = Op>> Lookahead<I> {
    /// Wraps `inner` with a lookahead of `window` ops.
    pub fn new(inner: I, window: usize) -> Self {
        Self {
            inner,
            buf: VecDeque::with_capacity(window + 1),
            window,
            index: 0,
            peak: 0,
            exhausted: false,
            scratch: OpBatch::with_capacity(0),
            scratch_pos: 0,
        }
    }

    fn fill(&mut self) {
        while self.buf.len() < self.window + 1 {
            // Carried-over ops from a batched refill come first — they
            // are older than anything still in the inner stream.
            if self.scratch_pos < self.scratch.len() {
                self.buf.push_back(self.scratch.get(self.scratch_pos));
                self.scratch_pos += 1;
                continue;
            }
            if self.exhausted {
                break;
            }
            match self.inner.next() {
                Some(op) => self.buf.push_back(op),
                None => self.exhausted = true,
            }
        }
        self.note_peak();
    }

    fn note_peak(&mut self) {
        let carried = self.scratch.len() - self.scratch_pos;
        self.peak = self.peak.max(self.buf.len() + carried);
    }

    /// The next op and its stream index, or `None` at end of stream.
    pub fn next_op(&mut self) -> Option<(usize, Op)> {
        self.fill();
        let op = self.buf.pop_front()?;
        let index = self.index;
        self.index += 1;
        Some((index, op))
    }

    /// The buffered lookahead: the ops that *follow* the one most
    /// recently yielded by [`Lookahead::next_op`], in stream order.
    pub fn window(&self) -> impl Iterator<Item = &Op> {
        self.buf.iter()
    }

    /// Ops consumed from the underlying stream so far (the total
    /// stream length once `next_op` has returned `None`).
    pub fn consumed(&self) -> usize {
        self.index
    }
}

impl<I: Iterator<Item = Op> + BatchSource> Lookahead<I> {
    /// Like [`Lookahead::new`], but window refills go through the
    /// inner stream's batch-native path, `batch_ops` at a time, into a
    /// carry-over arena drained as the window advances. Yields exactly
    /// the sequence (and window contents) of the per-op constructor.
    pub fn batched(inner: I, window: usize, batch_ops: usize) -> Self {
        let mut look = Self::new(inner, window);
        look.scratch = OpBatch::with_capacity(batch_ops.max(window + 1));
        look
    }

    fn fill_batched(&mut self) {
        loop {
            while self.scratch_pos < self.scratch.len() && self.buf.len() < self.window + 1 {
                self.buf.push_back(self.scratch.get(self.scratch_pos));
                self.scratch_pos += 1;
            }
            if self.exhausted || self.buf.len() > self.window {
                break;
            }
            self.scratch.clear();
            self.scratch_pos = 0;
            if self.inner.refill_batch(&mut self.scratch) == 0 {
                self.exhausted = true;
            }
        }
        self.note_peak();
    }

    /// [`Lookahead::next_op`] over the batch-native refill path.
    pub fn next_op_batched(&mut self) -> Option<(usize, Op)> {
        self.fill_batched();
        let op = self.buf.pop_front()?;
        let index = self.index;
        self.index += 1;
        Some((index, op))
    }
}

impl<I: Iterator<Item = Op>> BufferedOps for Lookahead<I> {
    fn peak_buffered_ops(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(n: usize) -> std::iter::Take<std::iter::Repeat<Op>> {
        std::iter::repeat(Op::IntAlu).take(n)
    }

    #[test]
    fn insert_at_matches_vec_splice() {
        for at in [0usize, 1, 3, 7, 8] {
            let streamed: Vec<Op> = ints(8).insert_at(at, Op::FpAlu).collect();
            let mut expected: Vec<Op> = ints(8).collect();
            expected.insert(at.min(8), Op::FpAlu);
            assert_eq!(streamed, expected, "at {at}");
        }
    }

    #[test]
    fn insert_past_the_end_appends() {
        let streamed: Vec<Op> = ints(3).insert_at(100, Op::FpAlu).collect();
        assert_eq!(streamed.len(), 4);
        assert_eq!(streamed[3], Op::FpAlu);
    }

    #[test]
    fn replace_at_swaps_exactly_one_op() {
        let streamed: Vec<Op> = ints(5).replace_at(2, Op::IntMul).collect();
        assert_eq!(streamed.len(), 5);
        assert_eq!(streamed[2], Op::IntMul);
        assert!(streamed.iter().filter(|o| **o == Op::IntMul).count() == 1);
        // Replacement index past the end: pass-through.
        let unchanged: Vec<Op> = ints(3).replace_at(9, Op::IntMul).collect();
        assert_eq!(unchanged, ints(3).collect::<Vec<_>>());
    }

    #[test]
    fn metered_counts_without_reordering() {
        let mut stream = ints(257).metered();
        let drained: Vec<Op> = (&mut stream).collect();
        assert_eq!(drained.len(), 257);
        assert_eq!(stream.ops(), 257);
    }

    #[test]
    fn lookahead_window_is_the_following_ops() {
        let trace: Vec<Op> = (0..10)
            .map(|i| Op::Load {
                pointer: i,
                bytes: 8,
                chained: false,
            })
            .collect();
        let mut look = Lookahead::new(trace.iter().copied(), 3);
        let (i, op) = look.next_op().unwrap();
        assert_eq!(i, 0);
        assert_eq!(op, trace[0]);
        let window: Vec<Op> = look.window().copied().collect();
        assert_eq!(window, trace[1..4], "window is trace[i+1 ..= i+3]");
        // Drain; the window truncates near the end instead of stalling.
        let mut last = 0;
        while let Some((i, _)) = look.next_op() {
            last = i;
            assert!(look.window().count() <= 3);
        }
        assert_eq!(last, 9);
        assert_eq!(look.consumed(), 10);
    }

    #[test]
    fn lookahead_buffer_is_bounded_by_window() {
        let mut look = Lookahead::new(ints(100_000), 256);
        while look.next_op().is_some() {}
        assert_eq!(look.consumed(), 100_000);
        assert!(
            look.peak_buffered_ops() <= 257,
            "peak {} exceeds the 256-op window",
            look.peak_buffered_ops()
        );
    }

    #[test]
    fn adapters_report_their_buffering() {
        let inserted = ints(4).insert_at(1, Op::FpAlu);
        assert_eq!(inserted.peak_buffered_ops(), 1);
        let metered = ints(4).metered();
        assert_eq!(metered.peak_buffered_ops(), 0);
    }

    fn every_op_variant() -> Vec<Op> {
        vec![
            Op::IntAlu,
            Op::IntMul,
            Op::FpAlu,
            Op::Branch {
                pc: 0x4321,
                taken: true,
                mispredicted: false,
            },
            Op::Branch {
                pc: u64::MAX,
                taken: false,
                mispredicted: true,
            },
            Op::Load {
                pointer: 0xdead_beef,
                bytes: 16,
                chained: true,
            },
            Op::Load {
                pointer: 0,
                bytes: u32::MAX,
                chained: false,
            },
            Op::Store {
                pointer: 0x8000_0000_0000_0001,
                bytes: 4,
            },
            Op::Pacma {
                pointer: 0x7777,
                size: 1 << 33,
            },
            Op::Xpacm,
            Op::Autm { pointer: 0x1234 },
            Op::PacCrypto,
            Op::BndStr {
                pointer: 0x4000_0000,
                size: 64,
            },
            Op::BndClr { pointer: 0x4000_0040 },
            Op::WdCheck { pointer: 0x5000 },
            Op::WdMeta {
                pointer: 0x5008,
                is_store: true,
            },
            Op::WdMeta {
                pointer: 0x5010,
                is_store: false,
            },
        ]
    }

    #[test]
    fn op_batch_roundtrips_every_variant() {
        let ops = every_op_variant();
        let mut batch = OpBatch::with_capacity(ops.len());
        for &op in &ops {
            batch.push(op);
        }
        assert_eq!(batch.len(), ops.len());
        assert!(batch.is_full());
        let decoded: Vec<Op> = batch.iter().collect();
        assert_eq!(decoded, ops);
        assert_eq!(batch.arena_bytes(), ops.len() * OpBatch::BYTES_PER_OP);
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.capacity(), ops.len());
    }

    #[test]
    fn default_next_batch_drains_any_stream() {
        let ops = every_op_variant();
        let mut stream = ops.iter().copied();
        let mut batch = OpBatch::with_capacity(7);
        let mut collected = Vec::new();
        loop {
            batch.clear();
            let n = stream.next_batch(&mut batch);
            if n == 0 {
                break;
            }
            collected.extend(batch.iter());
        }
        assert_eq!(collected, ops);
    }

    #[test]
    fn batched_driver_matches_per_op_iteration() {
        let ops = every_op_variant();
        for cap in [2, 3, 7, 64] {
            let batched: Vec<Op> = Batched::new(PerOp(ops.iter().copied()), cap).collect();
            assert_eq!(batched, ops, "cap {cap}");
        }
    }

    #[test]
    fn insert_at_batched_matches_per_op_for_every_splice_point() {
        let base: Vec<Op> = every_op_variant();
        for at in 0..=base.len() + 2 {
            for cap in [2, 3, 5, 64] {
                let per_op: Vec<Op> = base.iter().copied().insert_at(at, Op::FpAlu).collect();
                let batched: Vec<Op> =
                    Batched::new(PerOp(base.iter().copied()).insert_at(at, Op::FpAlu), cap)
                        .collect();
                assert_eq!(batched, per_op, "at {at} cap {cap}");
            }
        }
    }

    #[test]
    fn replace_at_batched_matches_per_op() {
        let base: Vec<Op> = every_op_variant();
        for at in 0..=base.len() + 2 {
            for cap in [2, 5, 64] {
                let per_op: Vec<Op> = base.iter().copied().replace_at(at, Op::IntMul).collect();
                let batched: Vec<Op> =
                    Batched::new(PerOp(base.iter().copied()).replace_at(at, Op::IntMul), cap)
                        .collect();
                assert_eq!(batched, per_op, "at {at} cap {cap}");
            }
        }
    }

    /// Reference semantics for [`SpliceMany`]: a materialized rewrite
    /// over original indices, inserts before / replaces instead of the
    /// op at each site, insert tails appended, replace tails dropped.
    fn splice_reference(base: &[Op], edits: &[Splice]) -> Vec<Op> {
        let mut sorted: Vec<&Splice> = edits.iter().collect();
        sorted.sort_by_key(|e| e.at);
        let mut out = Vec::new();
        let mut cursor = 0;
        for (i, &op) in base.iter().enumerate() {
            let mut replaced = false;
            while cursor < sorted.len() && sorted[cursor].at == i {
                replaced |= sorted[cursor].replace;
                out.extend(sorted[cursor].ops.iter().copied());
                cursor += 1;
            }
            if !replaced {
                out.push(op);
            }
        }
        for edit in &sorted[cursor..] {
            if !edit.replace {
                out.extend(edit.ops.iter().copied());
            }
        }
        out
    }

    fn splice_cases(len: usize) -> Vec<Vec<Splice>> {
        vec![
            // No edits: pass-through.
            vec![],
            // One insert at the front, one replace in the middle.
            vec![
                Splice::insert(0, vec![Op::FpAlu, Op::IntMul]),
                Splice::replace(len / 2, vec![Op::PacCrypto]),
            ],
            // Insert and replace stacked on the same site (insert ops
            // come first, the original op is consumed by the replace).
            vec![
                Splice::insert(2, vec![Op::FpAlu]),
                Splice::replace(2, vec![Op::IntMul, Op::IntMul]),
            ],
            // Empty-ops replace = delete; plus a tail insert past the
            // end and a tail replace that must be dropped.
            vec![
                Splice::replace(1, vec![]),
                Splice::insert(len + 10, vec![Op::Xpacm]),
                Splice::replace(len + 11, vec![Op::FpAlu]),
            ],
            // Edits at exactly the end-of-stream index: the insert
            // appends, the replace has no op to replace and is dropped.
            vec![
                Splice::replace(len, vec![Op::FpAlu]),
                Splice::insert(len, vec![Op::Xpacm]),
            ],
            // Dense edits on consecutive sites.
            vec![
                Splice::insert(3, vec![Op::FpAlu]),
                Splice::insert(4, vec![Op::IntMul]),
                Splice::replace(5, vec![Op::PacCrypto]),
                Splice::insert(4, vec![Op::Xpacm]),
            ],
        ]
    }

    #[test]
    fn splice_many_matches_the_reference_rewrite() {
        let base = every_op_variant();
        for edits in splice_cases(base.len()) {
            let expected = splice_reference(&base, &edits);
            let streamed: Vec<Op> = base.iter().copied().splice_many(edits.clone()).collect();
            assert_eq!(streamed, expected, "edits {edits:?}");
        }
    }

    #[test]
    fn splice_many_batched_matches_per_op() {
        let base = every_op_variant();
        for edits in splice_cases(base.len()) {
            let expected = splice_reference(&base, &edits);
            for cap in [2, 3, 5, 64] {
                let batched: Vec<Op> = Batched::new(
                    SpliceMany::new(PerOp(base.iter().copied()), edits.clone()),
                    cap,
                )
                .collect();
                assert_eq!(batched, expected, "edits {edits:?} cap {cap}");
            }
        }
    }

    #[test]
    fn splice_many_agrees_with_the_single_op_adapters() {
        let base = every_op_variant();
        for at in [0, 3, base.len() - 1, base.len(), base.len() + 2] {
            let via_insert: Vec<Op> = base.iter().copied().insert_at(at, Op::FpAlu).collect();
            let via_many: Vec<Op> = base
                .iter()
                .copied()
                .splice_many(vec![Splice::insert(at, vec![Op::FpAlu])])
                .collect();
            assert_eq!(via_many, via_insert, "insert at {at}");
            let via_replace: Vec<Op> = base.iter().copied().replace_at(at, Op::IntMul).collect();
            let via_many: Vec<Op> = base
                .iter()
                .copied()
                .splice_many(vec![Splice::replace(at, vec![Op::IntMul])])
                .collect();
            assert_eq!(via_many, via_replace, "replace at {at}");
        }
    }

    #[test]
    fn splice_many_buffering_is_bounded_by_edit_ops() {
        let edits = vec![
            Splice::insert(10, vec![Op::FpAlu; 3]),
            Splice::replace(500_000, vec![Op::IntMul]),
        ];
        let mut stream = SpliceMany::new(ints(1_000_000).metered(), edits);
        let n = (&mut stream).count();
        assert_eq!(n, 1_000_000 + 3, "3 inserted, 1 replaced in place");
        assert_eq!(
            stream.peak_buffered_ops(),
            4,
            "buffer bound is the total edit op count, independent of trace length"
        );
    }

    #[test]
    fn metered_batched_counts_and_preserves_order() {
        let base: Vec<Op> = every_op_variant();
        let mut stream = PerOp(base.iter().copied()).metered();
        let mut batch = OpBatch::with_capacity(4);
        let mut total = 0;
        loop {
            batch.clear();
            let n = stream.refill_batch(&mut batch);
            if n == 0 {
                break;
            }
            total += n;
        }
        assert_eq!(total, base.len());
        assert_eq!(stream.ops(), base.len() as u64);
    }

    #[test]
    fn batched_driver_records_refill_telemetry() {
        use aos_util::Telemetry;
        let t = Telemetry::enabled();
        let ops = every_op_variant();
        let n: usize = Batched::new(PerOp(ops.iter().copied()), 8)
            .with_telemetry(t.clone())
            .count();
        assert_eq!(n, ops.len());
        let snap = t.snapshot();
        assert_eq!(snap.counter(Counter::BatchOpsRefilled), ops.len() as u64);
        assert_eq!(
            snap.counter(Counter::BatchFallbackOps),
            ops.len() as u64,
            "PerOp is the fallback bridge"
        );
    }

    #[test]
    fn lookahead_batched_matches_per_op_windows() {
        let trace: Vec<Op> = (0..100)
            .map(|i| Op::Load {
                pointer: i,
                bytes: 8,
                chained: false,
            })
            .collect();
        let mut per_op = Lookahead::new(trace.iter().copied(), 5);
        let mut batched = Lookahead::batched(PerOp(trace.iter().copied()), 5, 16);
        loop {
            let a = per_op.next_op();
            let b = batched.next_op_batched();
            assert_eq!(a, b);
            let wa: Vec<Op> = per_op.window().copied().collect();
            let wb: Vec<Op> = batched.window().copied().collect();
            assert_eq!(wa, wb, "windows diverge at {:?}", a);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(per_op.consumed(), batched.consumed());
    }
}
