//! Memory check queue entries and their FSM states (paper Fig. 8).

use aos_hbt::CompressedBounds;
use aos_ptrauth::Ahc;

/// An operation enqueued into the MCU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum McuOp {
    /// A load or store issued to the LSU, mirrored into the MCU.
    Access {
        /// The (possibly signed) pointer being dereferenced.
        pointer: u64,
        /// `true` for stores.
        is_store: bool,
    },
    /// `bndstr <Xn>,<Xm>`: store bounds for a freshly signed pointer.
    BndStr {
        /// The signed pointer (its address is the lower bound).
        pointer: u64,
        /// Chunk size in bytes (the upper bound is `address + size`).
        size: u64,
    },
    /// `bndclr <Xn>`: clear the bounds of a pointer being freed.
    BndClr {
        /// The signed pointer being freed.
        pointer: u64,
    },
}

/// FSM states (Fig. 8). `IncCnt` is folded into the transitions: the
/// way counter advances at the point the next line load is issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum McqState {
    /// Just enqueued; operands assumed ready.
    Init,
    /// Waiting for a way line, then performing parallel bounds
    /// checking (load/store FSM).
    BndChk,
    /// Waiting for a way line, then performing occupancy checking
    /// (`bndstr`/`bndclr` FSM).
    OccChk,
    /// Occupancy slot found; waiting for ROB commit before sending the
    /// bounds store.
    BndStr,
    /// Bounds operation failed; raises an AOS exception at the queue
    /// head (unless rescued by a replay first).
    Fail,
    /// Completed; leaves the queue in the tick that completes it (a
    /// `bndstr`/`bndclr` gets here only after its ROB commit).
    Done,
}

/// One MCQ entry: the fields of paper §V-A1 plus bookkeeping for the
/// shared functional/timing implementation. `Copy`, so the drain pass
/// moves kept entries down by plain copies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct McqEntry {
    /// Instruction identity, used by the core model to gate retirement.
    pub id: u64,
    /// The enqueued operation.
    pub op: McuOp,
    /// Decoded pointer fields.
    pub addr: u64,
    pub pac: u64,
    pub ahc: Option<Ahc>,
    /// Encoded bounds for `bndstr` ([`CompressedBounds::EMPTY`] for
    /// `bndclr`, which stores a zero record).
    pub bnd_data: CompressedBounds,
    /// Way the current/next line access targets.
    pub way: u32,
    /// Ways tried so far (`Count`).
    pub count: u32,
    /// First way probed (BWB hint), for wrap-around iteration.
    pub start_way: u32,
    /// Way where a hit landed (for BWB update at retirement) together
    /// with the slot (for the bounds store).
    pub hit: Option<(u32, u32)>,
    /// Set when the ROB has committed the instruction.
    pub committed: bool,
    /// FSM state.
    pub state: McqState,
    /// Cycle at which the entry's next FSM step is due: when its
    /// pending line load completes, or at once after a replay, retry
    /// or ROB commit. `u64::MAX` while the entry is parked on a
    /// stimulus from outside the queue: a failed entry (the OS retries
    /// or drops it, or a replay restarts it) and a `BndStr` entry
    /// waiting for its ROB commit.
    pub ready_at: u64,
    /// Whether the failure event was already reported.
    pub reported: bool,
    /// Whether this check was satisfied by bounds forwarding.
    pub forwarded: bool,
    /// Set for a `bndstr` whose bounds could not be encoded: the entry
    /// fails permanently (retries included) and raises
    /// `MalformedBounds` instead of a store failure.
    pub malformed: bool,
}
