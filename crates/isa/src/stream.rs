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
//! - [`SpliceMany`] — positional insert/replace edits applied in one
//!   pass, buffering only the un-emitted edit ops: the streaming form
//!   of a fault plan's one-op rewrite and of the adversarial scenario
//!   engine's multi-step attack chains;
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
//! use aos_isa::stream::{BufferedOps, OpStream, Splice};
//! use aos_isa::Op;
//!
//! // Splice one op into a stream at index 2, without collecting it.
//! let base = std::iter::repeat_n(Op::IntAlu, 4);
//! let spliced: Vec<Op> = base
//!     .splice_many(vec![Splice::insert(2, vec![Op::FpAlu])])
//!     .collect();
//! assert_eq!(spliced.len(), 5);
//! assert_eq!(spliced[2], Op::FpAlu);
//!
//! // Meter a stream while a consumer drains it.
//! let mut stream = std::iter::repeat_n(Op::IntAlu, 1000).metered();
//! for _op in &mut stream {}
//! assert_eq!(stream.ops(), 1000);
//! assert_eq!(stream.peak_buffered_ops(), 0, "a plain iterator buffers nothing");
//! ```

use std::collections::VecDeque;

use aos_util::TelemetrySnapshot;

use crate::Op;

/// A stream component that buffers ops internally and can report its
/// high-water mark — the measurable `O(window)` memory proof for the
/// streaming pipeline. A component that holds no ops reports 0.
///
/// A producer that counts events of its own (the trace generator's
/// signs and allocations) projects them through
/// [`BufferedOps::record_telemetry`] once the stream is drained, and
/// adapters forward the call to what they wrap.
pub trait BufferedOps {
    /// The maximum number of ops this component (including anything it
    /// wraps) has held buffered at any point so far.
    fn peak_buffered_ops(&self) -> usize;

    /// Projects the stream's own counts into a run's telemetry
    /// snapshot. A stream that counts nothing records nothing.
    fn record_telemetry(&self, _snapshot: &mut TelemetrySnapshot) {}
}

/// The streaming trace vocabulary: any iterator over [`Op`]s, plus the
/// adapter combinators of this module. Blanket-implemented, so every
/// producer — a `TraceGenerator`, a decoded trace file, a `Vec` being
/// drained — composes for free.
pub trait OpStream: Iterator<Item = Op> {
    /// Applies a whole set of positional [`Splice`] edits in one
    /// streaming pass: one edit for a fault plan, several for an
    /// adversarial scenario's attack chain. Edit sites are
    /// original-stream indices; see [`Splice`] for the exact per-site
    /// semantics.
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
}

impl<I: Iterator<Item = Op>> OpStream for I {}

/// One positional edit for [`SpliceMany`], addressed in *original*
/// stream indices (the coordinate space the fault planners report
/// their sites in, unaffected by earlier edits in the same set).
///
/// An insert edit emits `ops` immediately before the original op at
/// `at` — the ops are *yielded at* index `at`, and everything from
/// `at` onward shifts later. A replace edit emits `ops` *instead of*
/// the original op at `at` (an empty `ops` deletes it). Edits whose
/// `at` lies past the end of the stream append their ops in edit
/// order when they insert, and are dropped when they replace.
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
                    // Nothing queued and no edit here: pass the op through.
                    if self
                        .edits
                        .get(self.next_edit)
                        .is_none_or(|e| e.at != self.index)
                    {
                        self.index += 1;
                        return Some(op);
                    }
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

    fn record_telemetry(&self, snapshot: &mut TelemetrySnapshot) {
        self.inner.record_telemetry(snapshot);
    }
}

/// A stream drained through `&mut` reports what it reports itself.
impl<T: BufferedOps + ?Sized> BufferedOps for &mut T {
    fn peak_buffered_ops(&self) -> usize {
        (**self).peak_buffered_ops()
    }

    fn record_telemetry(&self, snapshot: &mut TelemetrySnapshot) {
        (**self).record_telemetry(snapshot);
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

    fn record_telemetry(&self, snapshot: &mut TelemetrySnapshot) {
        self.inner.record_telemetry(snapshot);
    }
}

/// Iterators with no internal storage (slices being copied, ranges,
/// repeated ops) buffer nothing. This blanket-free impl covers
/// the common leaf producers used in tests and doc examples.
impl<'a, T: Iterator<Item = &'a Op>> BufferedOps for std::iter::Copied<T> {
    fn peak_buffered_ops(&self) -> usize {
        0
    }
}

impl<T> BufferedOps for std::iter::RepeatN<T> {
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
        }
    }

    fn fill(&mut self) {
        while !self.exhausted && self.buf.len() < self.window + 1 {
            match self.inner.next() {
                Some(op) => self.buf.push_back(op),
                None => self.exhausted = true,
            }
        }
        self.peak = self.peak.max(self.buf.len());
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
    pub fn window(&self) -> impl ExactSizeIterator<Item = &Op> {
        self.buf.iter()
    }

    /// Ops consumed from the underlying stream so far (the total
    /// stream length once `next_op` has returned `None`).
    pub fn consumed(&self) -> usize {
        self.index
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

    fn ints(n: usize) -> std::iter::RepeatN<Op> {
        std::iter::repeat_n(Op::IntAlu, n)
    }

    /// `base` with the single edit `edit` applied.
    fn one_edit(base: &[Op], edit: Splice) -> Vec<Op> {
        base.iter().copied().splice_many(vec![edit]).collect()
    }

    #[test]
    fn insert_matches_vec_insert() {
        let base = every_op_variant();
        for at in 0..=base.len() + 2 {
            let streamed = one_edit(&base, Splice::insert(at, vec![Op::FpAlu]));
            let mut expected = base.clone();
            expected.insert(at.min(base.len()), Op::FpAlu);
            assert_eq!(streamed, expected, "at {at}");
        }
    }

    #[test]
    fn insert_past_the_end_appends() {
        let streamed: Vec<Op> = ints(3)
            .splice_many(vec![Splice::insert(100, vec![Op::FpAlu])])
            .collect();
        assert_eq!(streamed.len(), 4);
        assert_eq!(streamed[3], Op::FpAlu);
    }

    #[test]
    fn replace_swaps_exactly_one_op() {
        let base = every_op_variant();
        // A payload no variant carries, so the swap is always visible.
        let marker = Op::Autm { pointer: 0xfeed };
        for at in 0..=base.len() + 2 {
            let streamed = one_edit(&base, Splice::replace(at, vec![marker]));
            let mut expected = base.clone();
            // An index past the end has no op to replace: pass-through.
            if let Some(slot) = expected.get_mut(at) {
                *slot = marker;
            }
            assert_eq!(streamed, expected, "at {at}");
            let changed = streamed.iter().zip(&base).filter(|(a, b)| a != b).count();
            assert_eq!(changed, usize::from(at < base.len()), "at {at}");
        }
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
        let inserted = ints(4).splice_many(vec![Splice::insert(1, vec![Op::FpAlu])]);
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
            Op::BndClr {
                pointer: 0x4000_0040,
            },
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
}
