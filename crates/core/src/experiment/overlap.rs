//! Overlapped trace generation: the cell body that double-buffers
//! [`OpBatch`] arenas between a generator thread and the simulating
//! thread, so trace synthesis and simulation run concurrently instead
//! of interleaving per op.
//!
//! Why this is worth a thread even on a single core: the per-op
//! streaming path alternates generator and machine code every few
//! dozen instructions, and the two working sets (heap model + RNG on
//! one side, ROB/MCQ/cache hierarchy on the other) evict each other's
//! cache and branch-predictor state at every switch. Batching restores
//! long single-owner bursts — the generator fills a whole arena, the
//! machine drains a whole arena — and the second thread lets the fill
//! of batch `k+1` overlap the simulation of batch `k` when a second
//! hardware thread exists.
//!
//! Memory stays bounded and scale-independent: exactly **two** arenas
//! of [`DEFAULT_BATCH_OPS`] ops ping-pong between the threads (plus
//! the generator's own `O(window)` event buffer). The filled arena
//! travels through a rendezvous channel; the drained arena is recycled
//! back, so steady state allocates nothing.
//!
//! Determinism: the op sequence is exactly what the generator would
//! yield per op, so [`RunStats`] — fault verdicts and lint findings
//! included — are bit-identical to [`run`]/[`run_metered`] on the same
//! cell. The only observable difference is the two batch telemetry
//! counters (`batch_ops_refilled`, `batch_fallback_ops`), which the
//! per-op path leaves at zero; `tests/batch_equivalence.rs` pins both
//! facts. The generator records into the machine's telemetry handle
//! from its own thread, but only the signer and heap counters
//! (`pac_computations`, `ptr_signs`, `heap_*`), which the machine never
//! writes, so every counter cell keeps a single writer. The generator
//! is built on the calling thread, where the per-thread Zipf memo of
//! [`aos_util::rng::Zipf`] persists across cells.
//!
//! [`run`]: super::run
//! [`run_metered`]: super::run_metered
//! [`OpBatch`]: aos_isa::stream::OpBatch
//! [`DEFAULT_BATCH_OPS`]: aos_isa::stream::DEFAULT_BATCH_OPS

use std::sync::mpsc;

use aos_isa::stream::{BatchSource, BufferedOps, OpBatch, OpStream, DEFAULT_BATCH_OPS};
use aos_workloads::WorkloadProfile;

use super::campaign::CellOutput;
use super::SystemUnderTest;

/// The simulating side of the double buffer: a [`BatchSource`] that
/// receives filled arenas from the generator thread and recycles
/// drained ones back.
///
/// Each refill is a constant-time arena swap — no op is ever copied
/// between buffers. When the generator hangs up (stream exhausted),
/// refills return 0 and the driver winds down; when this source drops,
/// the recycle channel disconnects and the generator thread exits even
/// mid-rendezvous, so neither side can deadlock on shutdown.
#[derive(Debug)]
pub struct OverlapSource {
    filled: mpsc::Receiver<OpBatch>,
    recycle: mpsc::Sender<OpBatch>,
    /// Whether the producing side fills arenas batch-natively (true
    /// for [`TraceGenerator`](aos_workloads::TraceGenerator));
    /// forwarded so fallback telemetry stays accurate through the
    /// channel hop.
    native: bool,
    done: bool,
}

impl BatchSource for OverlapSource {
    fn refill_batch(&mut self, batch: &mut OpBatch) -> usize {
        if self.done {
            return 0;
        }
        match self.filled.recv() {
            Ok(mut full) => {
                std::mem::swap(batch, &mut full);
                // `full` is now the drained arena the driver just
                // cleared; hand it back for the next fill. The
                // generator may already have exited — then the op
                // stream is ending anyway and the arena just drops.
                let _ = self.recycle.send(full);
                batch.len()
            }
            Err(mpsc::RecvError) => {
                self.done = true;
                0
            }
        }
    }

    fn batch_native(&self) -> bool {
        self.native
    }
}

/// What the generator thread reports back when it finishes.
struct ProducerReport {
    /// Ops pushed into arenas (equals what the machine consumed).
    ops: u64,
    /// The generator's own peak event-buffer occupancy, in ops.
    peak_buffered_ops: usize,
}

/// Runs one cell batch-granular, overlapping generation with
/// simulation when the host can actually run both at once. Drop-in
/// replacement for [`super::run_metered`]: same stats, same metering
/// columns, batch-granular memory bound.
///
/// On a single-hardware-thread host the rendezvous per batch costs
/// more than the overlap returns, so the cell degrades to the
/// in-thread batched driver
/// ([`Machine::run_batched`](aos_sim::Machine::run_batched)) —
/// identical op sequence, identical stats and batch counters, one
/// arena instead of two. The stats are bit-identical across all three shapes (per-op,
/// in-thread batched, threaded overlap); only the `peak_trace_bytes`
/// metering reflects which shape ran.
pub fn run_overlapped(profile: &WorkloadProfile, sut: &SystemUnderTest) -> CellOutput {
    if aos_util::par::effective_threads(None) >= 2 {
        return run_overlapped_threaded(profile, sut);
    }
    let (gen, mut machine) = super::generator_and_machine(profile, sut);
    let mut gen = gen.metered();
    let stats = machine.run_batched(&mut gen);
    CellOutput {
        stats,
        trace_ops: gen.ops(),
        peak_trace_bytes: (DEFAULT_BATCH_OPS + gen.peak_buffered_ops()) as u64
            * std::mem::size_of::<aos_isa::Op>() as u64,
    }
}

/// The always-threaded double buffer behind [`run_overlapped`]:
/// generator thread fills, simulating thread drains, two arenas
/// ping-pong. Exposed so the equivalence suite (and callers that know
/// their core budget) can exercise the overlap path regardless of
/// what the host advertises.
pub fn run_overlapped_threaded(profile: &WorkloadProfile, sut: &SystemUnderTest) -> CellOutput {
    let batch_ops = DEFAULT_BATCH_OPS;
    let (fill_tx, fill_rx) = mpsc::sync_channel::<OpBatch>(1);
    let (recycle_tx, recycle_rx) = mpsc::channel::<OpBatch>();
    // Seed the producer with one arena; the driver's own arena joins
    // the rotation at the first swap, giving exactly two in flight.
    recycle_tx
        .send(OpBatch::with_capacity(batch_ops))
        .expect("receiver held below");

    let (gen, mut machine) = super::generator_and_machine(profile, sut);
    let mut gen = gen.metered();
    let (stats, report) = std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            while let Ok(mut arena) = recycle_rx.recv() {
                arena.clear();
                let n = gen.refill_batch(&mut arena);
                // Exhausted, or the simulating side hung up early:
                // either way stop producing. Dropping `fill_tx` is the
                // end-of-stream signal.
                if n == 0 || fill_tx.send(arena).is_err() {
                    break;
                }
            }
            ProducerReport {
                ops: gen.ops(),
                peak_buffered_ops: gen.peak_buffered_ops(),
            }
        });

        let source = OverlapSource {
            filled: fill_rx,
            recycle: recycle_tx,
            native: true,
            done: false,
        };
        let stats = machine.run_batched(source);
        let report = producer
            .join()
            .expect("generator thread only runs panic-free library code");
        (stats, report)
    });

    CellOutput {
        stats,
        trace_ops: report.ops,
        // Peak buffered trace: both ping-pong arenas plus the
        // generator's event buffer — constant in the trace length.
        peak_trace_bytes: (2 * batch_ops + report.peak_buffered_ops) as u64
            * std::mem::size_of::<aos_isa::Op>() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_isa::SafetyConfig;
    use aos_util::Counter;
    use aos_workloads::profile::by_name;

    #[test]
    fn overlapped_run_matches_metered_run() {
        let p = by_name("hmmer").unwrap();
        for (safety, threaded) in [
            (SafetyConfig::Baseline, false),
            (SafetyConfig::Aos, false),
            (SafetyConfig::Baseline, true),
            (SafetyConfig::Aos, true),
        ] {
            let sut = SystemUnderTest::scaled(safety, 0.004).with_telemetry(true);
            let metered = super::super::run_metered(p, &sut);
            let overlapped = if threaded {
                run_overlapped_threaded(p, &sut)
            } else {
                run_overlapped(p, &sut)
            };
            assert_eq!(overlapped.trace_ops, metered.trace_ops);
            assert_eq!(
                overlapped.stats.without_telemetry(),
                metered.stats.without_telemetry(),
                "{safety}: overlap changed the simulation"
            );
            // Telemetry identical up to the batch counters the per-op
            // path cannot increment.
            let zeroed = [Counter::BatchOpsRefilled, Counter::BatchFallbackOps];
            assert_eq!(
                overlapped.stats.telemetry.with_counters_zeroed(&zeroed),
                metered.stats.telemetry.with_counters_zeroed(&zeroed),
            );
            assert_eq!(
                overlapped.stats.telemetry.counter(Counter::BatchOpsRefilled),
                overlapped.trace_ops,
                "every op must arrive through a batch refill"
            );
            assert_eq!(
                overlapped
                    .stats
                    .telemetry
                    .counter(Counter::BatchFallbackOps),
                0,
                "the generator is batch-native; nothing may fall back"
            );
        }
    }

    #[test]
    fn overlapped_peak_memory_is_batch_granular() {
        let p = by_name("mcf").unwrap();
        let sut = SystemUnderTest::scaled(SafetyConfig::Aos, 0.01);
        let op_bytes = std::mem::size_of::<aos_isa::Op>() as u64;
        for out in [run_overlapped(p, &sut), run_overlapped_threaded(p, &sut)] {
            // At least one full arena, far below the materialized
            // trace, independent of scale.
            assert!(out.peak_trace_bytes >= DEFAULT_BATCH_OPS as u64 * op_bytes);
            assert!(out.peak_trace_bytes < out.trace_ops * op_bytes / 4);
        }
    }
}
