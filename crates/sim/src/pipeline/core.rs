//! The assembled stage core and its cycle loop.
//!
//! Each simulated cycle advances the stages back to front: MCU tick →
//! HBT migration → commit → dispatch → stall bookkeeping → event-skip
//! fast-forward. There is no writeback stage: an op's result is ready
//! once `now` reaches the `complete_at` cycle fixed at dispatch, so
//! commit reads completion off the ROB head directly.
//!
//! Beyond issue width and structural occupancy, the core models:
//!
//! - **Precise exceptions.** A failing AOS check is latched on the
//!   faulting op's ROB entry and raised only when that entry reaches
//!   the commit point (delayed retirement). The flush squashes every
//!   younger op — restoring the chain register and releasing their
//!   LSQ slots and MCQ entries — and refetches them through the front
//!   end after a redirect penalty (`flushes`).
//! - **Memory-order speculation.** Loads probe the store queue: a full
//!   cover by an older resolved store forwards, a same-cycle or
//!   partial overlap replays (`lsq_replays`).
//! - **Chain dependences.** The trace names no architectural
//!   registers, so the one register dependence is the pointer chase: a
//!   chained load starts once the previous link's result is ready, the
//!   cycle held in [`StageCore::chain_ready`]. Its ROB entry keeps the
//!   value it overwrote, which a flush restores.

use aos_isa::Op;
use aos_mcu::{AosException, McuEvent, McuOp};

use crate::machine::{BoundsPort, Machine, MachineConfig, RunStats};

use super::fetch::FetchUnit;
use super::lsq::{LoadPath, LoadStoreQueue, LsqEntry};
use super::rob::{ReorderBuffer, RobEntry};

/// Which structural hazard ended a dispatch group that dispatched
/// nothing. The event-skip fast-forward replays the per-cycle hazard
/// counter the blocked cycle would have charged, once per skipped
/// cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallKind {
    /// Nothing blocked; the group ended because the trace ran dry.
    None,
    /// The front end is redirected until [`FetchUnit::resume_at`].
    Fetch,
    /// The reorder buffer is full.
    Rob,
    /// The load or store queue is full.
    Lsq,
    /// The memory check queue is full.
    Mcq,
}

/// The stage-structured pipeline state, one instance per [`Machine`].
pub struct StageCore {
    /// Front end: trace tap, parking slot, refetch buffer, redirect.
    pub fetch: FetchUnit,
    /// The chain register: the cycle the youngest dispatched chained
    /// load's result is ready, which the next chained load waits for.
    pub chain_ready: u64,
    /// Split load/store queues.
    pub lsq: LoadStoreQueue,
    /// The reorder buffer.
    pub rob: ReorderBuffer,
}

impl StageCore {
    /// Builds the core from the machine geometry.
    pub fn new(config: &MachineConfig) -> Self {
        Self {
            fetch: FetchUnit::new(),
            chain_ready: 0,
            lsq: LoadStoreQueue::new(config.lsq_loads, config.lsq_stores),
            rob: ReorderBuffer::new(config.rob_entries),
        }
    }

    /// Writes a chained load's result cycle into the chain register and
    /// returns the value it overwrote, for the load's ROB entry to
    /// keep; an unchained load writes nothing and returns `None`.
    pub fn link_chain(&mut self, chained: bool, complete_at: u64) -> Option<u64> {
        chained.then(|| std::mem::replace(&mut self.chain_ready, complete_at))
    }

    /// Squashes the youngest ROB entry, restoring the chain register a
    /// squashed chained load overwrote. A flush walks youngest-first,
    /// so the last value restored is the one the oldest squashed load
    /// saw: the chain register as it stood before the flush point.
    pub fn squash_youngest(&mut self) -> Option<RobEntry> {
        let entry = self.rob.pop_tail()?;
        if let Some(ready) = entry.chain_restore {
            self.chain_ready = ready;
        }
        Some(entry)
    }
}

impl Machine {
    /// The stage-structured run loop behind [`Machine::run`].
    pub(crate) fn run_stage<I: Iterator<Item = Op>>(&mut self, mut trace: I) -> RunStats {
        loop {
            self.stage_tick_mcu();
            if self.hbt.in_migration() {
                self.hbt
                    .step_migration(self.config.migration_rows_per_cycle);
            }
            let committed = self.stage_commit();
            let (dispatched, stall_kind) = self.stage_dispatch(&mut trace);
            let stalled =
                dispatched == 0 && (self.stage.fetch.has_buffered() || !self.stage.rob.is_empty());
            if stalled && self.stage.fetch.has_buffered() {
                self.stall_cycles += 1;
            }
            self.prev_cycle_stalled = stalled;
            // Event-skip fast-forward: when the cycle did nothing and
            // every in-flight operation waits on a known future cycle,
            // jump there and replay the per-cycle stall bookkeeping the
            // skipped iterations would have charged. The machine state
            // is frozen across the gap, so nothing else needs replaying.
            // Completion only matters once an entry reaches the commit
            // point, and the ROB head's `complete_at` is a wake
            // candidate.
            if self.config.event_skip
                && dispatched == 0
                && committed == 0
                && !self.hbt.in_migration()
                && (self.stage.fetch.has_buffered()
                    || !self.stage.rob.is_empty()
                    || !self.mcu.is_empty())
            {
                let wake = self.stage_wake_cycle();
                if wake != u64::MAX && wake > self.now + 1 {
                    let skipped = wake - self.now - 1;
                    if self.stage.fetch.has_buffered() {
                        self.stall_cycles += skipped;
                    }
                    match stall_kind {
                        StallKind::Rob => self.stalls_rob += skipped,
                        StallKind::Lsq => self.stalls_lsq += skipped,
                        StallKind::Mcq => self.stalls_mcq += skipped,
                        StallKind::Fetch | StallKind::None => {}
                    }
                    self.now += skipped;
                }
            }
            self.now += 1;
            if !self.stage.fetch.has_buffered() && self.stage.rob.is_empty() && self.mcu.is_empty()
            {
                // Trace might still hold ops (dispatch broke on width).
                match trace.next() {
                    Some(op) => self.stage.fetch.park(op),
                    None => break,
                }
            }
            assert!(self.now < 1 << 40, "simulation failed to make progress");
        }
        self.collect_stats()
    }

    /// The earliest future cycle at which the frozen pipeline can make
    /// progress, or `u64::MAX` when no in-flight work exists. Only
    /// meaningful right after a cycle that committed and dispatched
    /// nothing: the machine state cannot change until one of the
    /// candidates fires.
    fn stage_wake_cycle(&self) -> u64 {
        let mut wake = u64::MAX;
        if let Some(head) = self.stage.rob.head() {
            if !head.faulted && head.complete_at > self.now {
                wake = head.complete_at;
            }
            // A head that is due but still blocked is waiting on its
            // MCQ entry; the MCU candidate below covers it.
        }
        if self.config.aos_enabled && !self.mcu.is_empty() {
            wake = wake.min(self.mcu.next_wake(self.now));
        }
        if self.stage.fetch.resume_at > self.now {
            wake = wake.min(self.stage.fetch.resume_at);
        }
        wake
    }

    /// Steps the MCU and latches any raised exception on the faulting
    /// op's ROB entry, to be raised precisely at the commit point. The
    /// growable-table path (a bounds store that fails only because the
    /// row is full) is an OS resize + retry, not a fault.
    fn stage_tick_mcu(&mut self) {
        if !self.config.aos_enabled || self.mcu.is_empty() {
            return;
        }
        let mut port = BoundsPort {
            hierarchy: &mut self.hierarchy,
        };
        let Some(McuEvent { id, exception }) = self.mcu.tick(self.now, &mut self.hbt, &mut port)
        else {
            return;
        };
        if matches!(exception, AosException::BoundsStoreFailure { .. })
            && self.hbt.try_begin_resize().is_ok()
        {
            // OS handler: allocate a doubled table, migrate in the
            // background, and retry the store (§V-F3).
            self.mcu.retry(id);
            return;
        }
        // Everything else is a real fault: latch it on the owning ROB
        // entry for delayed retirement. A faulted entry is ready to
        // commit whatever its `complete_at` — the op produces an
        // exception, not a value.
        match self.stage.rob.iter_mut().find(|e| e.mcq_id == Some(id)) {
            Some(e) => e.faulted = true,
            None => {
                // The owning entry is gone (cannot happen while flushes
                // squash MCQ entries alongside ROB entries; kept as a
                // defensive fallback so a model bug degrades to
                // event-time accounting, not a hang).
                self.violations += 1;
                self.mcu.drop_failed(id);
            }
        }
    }

    /// Retires up to `issue_width` completed ops from the ROB head
    /// (an op is complete once `now` reaches its `complete_at`); a
    /// faulted head raises its exception and flushes instead.
    fn stage_commit(&mut self) -> u32 {
        let mut committed = 0;
        while committed < self.config.issue_width {
            let Some(head) = self.stage.rob.head() else {
                break;
            };
            if head.faulted {
                self.stage_raise_and_flush();
                committed += 1;
                break;
            }
            if head.complete_at > self.now {
                break;
            }
            if let Some(id) = head.mcq_id {
                if !self.mcu.commit_if_retirable(id) {
                    break;
                }
            }
            let head = self.stage.rob.pop_head();
            self.stage_release(&head);
            committed += 1;
        }
        committed
    }

    /// Architectural retirement bookkeeping shared by clean commits and
    /// the faulting op itself (which retires by raising — the OS
    /// "report and resume" policy then drops it).
    fn stage_release(&mut self, entry: &RobEntry) {
        if entry.is_load || entry.is_store {
            self.stage.lsq.release(entry.seq, entry.is_store);
        }
        // The mix is recorded at commit: squashed wrong-path ops never
        // count, refetched ops count exactly once.
        self.mix.record(&entry.op, self.config.layout);
        self.retired_ops += 1;
        match entry.op {
            Op::Xpacm => self.ptr_strips += 1,
            Op::Autm { pointer } => {
                self.ptr_auths += 1;
                if !self.config.layout.is_signed(pointer) {
                    self.auth_failures += 1;
                }
            }
            _ => {}
        }
    }

    /// The precise-exception path: raise the latched fault at the
    /// commit point, squash everything younger (ROB, chain register,
    /// LSQ, MCQ), refetch the squashed ops through the front end, and
    /// redirect fetch.
    fn stage_raise_and_flush(&mut self) {
        let head = self.stage.rob.pop_head();
        self.violations += 1;
        if let Some(id) = head.mcq_id {
            self.mcu.drop_failed(id);
            self.mcu.squash_newer(id);
        }
        self.stage_release(&head);
        self.stage.fetch.begin_flush();
        while let Some(e) = self.stage.squash_youngest() {
            // Youngest-first: each prepend lands in front, restoring
            // program order.
            self.stage.fetch.prepend_squashed(e.op);
        }
        self.stage.lsq.squash_newer(head.seq);
        self.flushes += 1;
        self.stage.fetch.resume_at = self
            .stage
            .fetch
            .resume_at
            .max(self.now + self.config.mispredict_penalty);
    }

    /// Dispatches up to `issue_width` ops into the ROB, LSQ and MCQ,
    /// charging structural stalls to the unit that blocked (a full MCQ
    /// back-pressures dispatch exactly like a full ROB — the paper's
    /// §IX-A effect).
    fn stage_dispatch(&mut self, trace: &mut impl Iterator<Item = Op>) -> (u32, StallKind) {
        let mut dispatched = 0;
        let mut stall = StallKind::None;
        while dispatched < self.config.issue_width {
            if self.now < self.stage.fetch.resume_at {
                stall = StallKind::Fetch;
                break;
            }
            let Some(op) = self.stage.fetch.take(trace) else {
                break;
            };
            // Structural hazards.
            if self.stage.rob.is_full() {
                self.stalls_rob += 1;
                stall = StallKind::Rob;
                self.stage.fetch.park(op);
                break;
            }
            let memref = op.memory_ref(self.config.layout);
            let takes_lsq = op.occupies_lsq();
            if let Some(m) = memref {
                // LSQ entries are held from dispatch until retirement,
                // as in real hardware.
                let full = takes_lsq
                    && if m.is_store {
                        self.stage.lsq.stores_full()
                    } else {
                        self.stage.lsq.loads_full()
                    };
                if full {
                    self.stalls_lsq += 1;
                    stall = StallKind::Lsq;
                    self.stage.fetch.park(op);
                    break;
                }
            }
            let to_mcu = self.config.aos_enabled && op.needs_mcu();
            if to_mcu && !self.mcu.has_capacity() {
                self.stalls_mcq += 1;
                stall = StallKind::Mcq;
                self.stage.fetch.park(op);
                break;
            }

            // Execute. Pointer-chasing loads read the chain register:
            // they cannot start until the previous link of the
            // traversal delivered their address.
            let chained = matches!(op, Op::Load { chained: true, .. });
            let mut start_at = self.now;
            if chained {
                start_at = start_at.max(self.stage.chain_ready);
            }
            let complete_at = if let Some(m) = memref {
                // The cache access always happens — even a forwarded
                // load probes the hierarchy — so cache and traffic
                // statistics count every architectural access.
                let latency = if m.metadata {
                    self.hierarchy.access_bounds(m.addr, m.bytes, m.is_store)
                } else {
                    self.hierarchy.access_data(m.addr, m.bytes, m.is_store)
                };
                if m.is_store {
                    // Stores retire once address and data are ready and
                    // drain from the post-commit store buffer; their
                    // cache latency is charged as traffic, not as a
                    // retirement block.
                    self.now + 1
                } else {
                    let path = if takes_lsq {
                        self.stage.lsq.classify_load(m.addr, m.bytes, self.now)
                    } else {
                        LoadPath::Normal
                    };
                    match path {
                        LoadPath::Normal => start_at + latency,
                        // Forwarded data arrives a cycle after both the
                        // load's start and the store's data — never
                        // slower than an L1 hit.
                        LoadPath::Forward { data_ready_at } => start_at.max(data_ready_at) + 1,
                        // One bubble to re-issue past the conflicting
                        // store, then the ordinary access latency.
                        LoadPath::Replay => {
                            self.lsq_replays += 1;
                            start_at + latency + 1
                        }
                    }
                }
            } else {
                self.now + op.exec_latency()
            };
            let chain_restore = self.stage.link_chain(chained, complete_at);
            // Branch outcomes are replayed from the trace's
            // profile-calibrated misprediction flags (DESIGN §2).
            if let Op::Branch {
                mispredicted: true, ..
            } = op
            {
                if self.prev_cycle_stalled {
                    // The front end was already blocked, so the
                    // wrong path never issued (§IX-A back-pressure
                    // effect).
                    self.waived_mispredicts += 1;
                } else {
                    self.charged_mispredicts += 1;
                    self.stage.fetch.resume_at = self
                        .stage
                        .fetch
                        .resume_at
                        .max(complete_at + self.config.mispredict_penalty);
                }
            }
            let mcq_id = if to_mcu {
                let mcu_op = match op {
                    Op::Load { pointer, .. } => McuOp::Access {
                        pointer,
                        is_store: false,
                    },
                    Op::Store { pointer, .. } => McuOp::Access {
                        pointer,
                        is_store: true,
                    },
                    Op::BndStr { pointer, size } => McuOp::BndStr { pointer, size },
                    Op::BndClr { pointer } => McuOp::BndClr { pointer },
                    _ => unreachable!("needs_mcu covers only memory and bounds ops"),
                };
                Some(
                    self.mcu
                        .issue(mcu_op, start_at)
                        .unwrap_or_else(|_| unreachable!("capacity checked above")),
                )
            } else {
                None
            };
            let seq = self.stage.rob.alloc(RobEntry {
                seq: 0, // assigned by the ROB
                op,
                complete_at,
                faulted: false,
                mcq_id,
                is_load: takes_lsq && memref.is_some_and(|m| !m.is_store),
                is_store: takes_lsq && memref.is_some_and(|m| m.is_store),
                chain_restore,
            });
            if takes_lsq {
                if let Some(m) = memref {
                    if m.is_store {
                        self.stage.lsq.push_store(LsqEntry {
                            seq,
                            addr: m.addr,
                            bytes: m.bytes,
                            dispatched_at: self.now,
                            data_ready_at: complete_at,
                        });
                    } else {
                        self.stage.lsq.push_load(seq);
                    }
                }
            }
            dispatched += 1;
            // Call-path QARMA (pacia/autia) sits on the critical path:
            // end the dispatch group, costing roughly one fetch bubble.
            if matches!(op, Op::PacCrypto) {
                break;
            }
        }
        (dispatched, stall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_isa::SafetyConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::table_iv(SafetyConfig::Baseline))
    }

    fn entry(complete_at: u64) -> RobEntry {
        RobEntry {
            seq: 0,
            op: Op::IntAlu,
            complete_at,
            faulted: false,
            mcq_id: None,
            is_load: false,
            is_store: false,
            chain_restore: None,
        }
    }

    #[test]
    fn a_head_not_yet_complete_blocks_commit() {
        let mut m = machine();
        m.stage.rob.alloc(entry(5));
        m.stage.rob.alloc(entry(0)); // younger and already due
        assert_eq!(m.stage_commit(), 0, "commit is in order");
        assert_eq!(
            m.stage_wake_cycle(),
            5,
            "the head's completion wakes the core"
        );
        m.now = 4;
        assert_eq!(m.stage_commit(), 0);
        m.now = 5;
        assert_eq!(m.stage_commit(), 2);
        assert_eq!(m.retired_ops, 2);
        assert_eq!(m.stage_wake_cycle(), u64::MAX, "nothing left in flight");
    }

    #[test]
    fn a_faulted_head_raises_at_once() {
        let mut m = machine();
        m.stage.rob.alloc(RobEntry {
            faulted: true,
            ..entry(1_000)
        });
        m.stage.rob.alloc(entry(0));
        m.stage.rob.alloc(entry(0));
        assert_eq!(
            m.stage_wake_cycle(),
            u64::MAX,
            "a faulted head does not wait for its complete_at"
        );
        assert_eq!(m.stage_commit(), 1, "raised before its complete_at");
        assert_eq!((m.violations, m.flushes, m.retired_ops), (1, 1, 1));
        assert!(m.stage.rob.is_empty(), "younger ops squashed");
        assert!(m.stage.fetch.has_buffered(), "and queued for refetch");
    }

    fn load(pointer: u64, chained: bool) -> Op {
        Op::Load {
            pointer,
            bytes: 8,
            chained,
        }
    }

    fn complete_ats(m: &mut Machine) -> Vec<u64> {
        m.stage.rob.iter_mut().map(|e| e.complete_at).collect()
    }

    #[test]
    fn a_chained_load_waits_for_the_previous_link() {
        let mut m = machine();
        let ops = [load(0x1000, true), load(0x2000, true), load(0x3000, false)];
        assert_eq!(m.stage_dispatch(&mut ops.into_iter()).0, 3);
        let done = complete_ats(&mut m);
        assert!(done[1] > done[0], "the second link starts after the first");
        assert!(done[2] < done[1], "an unchained load does not wait");
        assert_eq!(
            m.stage.chain_ready, done[1],
            "the youngest link is read next"
        );
        let restore: Vec<_> = m.stage.rob.iter_mut().map(|e| e.chain_restore).collect();
        assert_eq!(restore, [Some(0), Some(done[0]), None]);
    }

    #[test]
    fn a_flush_restores_the_chain_register() {
        let mut m = machine();
        m.stage.chain_ready = 7;
        m.stage.rob.alloc(RobEntry {
            faulted: true,
            ..entry(1_000)
        });
        let ops = [load(0x1000, true), load(0x2000, false), load(0x3000, true)];
        m.stage_dispatch(&mut ops.into_iter());
        assert!(m.stage.chain_ready > 7);
        m.stage_commit();
        assert_eq!(m.stage.chain_ready, 7, "the squashed links are undone");
        assert!(m.stage.rob.is_empty());
    }

    #[test]
    fn refetched_ops_retire_exactly_once_after_a_flush() {
        let mut m = machine();
        m.stage.rob.alloc(RobEntry {
            faulted: true,
            ..entry(1_000)
        });
        for complete_at in 0..3 {
            m.stage.rob.alloc(entry(complete_at));
        }
        m.stage_commit();
        let stats = m.run([Op::IntMul]);
        assert_eq!(stats.retired_ops, 5, "faulted op + 3 refetched + 1 new");
        assert_eq!(stats.mix.total, 5);
        assert_eq!(stats.flushes, 1);
        assert!(
            stats.cycles >= crate::SimConfig::MISPREDICT_PENALTY,
            "refetch waits out the redirect"
        );
    }
}
