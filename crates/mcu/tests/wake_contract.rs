//! The MCQ's wake contract: every entry has one wake source, so
//! [`MemoryCheckUnit::next_wake`] names the exact next cycle at which
//! [`MemoryCheckUnit::tick`] can do anything. A `bndstr`/`bndclr` that
//! found its slot is parked until the ROB commits it; an entry
//! committed before it reached that state (a replayed one) is not
//! parked again. The property at the end checks the whole contract:
//! ticking every cycle and jumping straight from wake to wake give the
//! same statistics, exceptions and table.

use std::collections::VecDeque;

use aos_hbt::{HashedBoundsTable, HbtConfig, HbtStats};
use aos_mcu::{
    AosException, BoundsMemory, BwbStats, McqState, McuConfig, McuEvent, McuOp, McuStats,
    MemoryCheckUnit,
};
use aos_ptrauth::PointerLayout;
use proptest::prelude::*;

/// Line loads take 0–4 cycles depending on the line, stores one.
struct AddressedLatency;

impl BoundsMemory for AddressedLatency {
    fn load_line(&mut self, addr: u64) -> u64 {
        (addr >> 6) % 5
    }
    fn store_line(&mut self, _addr: u64) -> u64 {
        1
    }
}

/// A 2048-row table starting at one way: nine stores to one row fill
/// it and fail until the table is resized.
fn table() -> HashedBoundsTable {
    HashedBoundsTable::new(HbtConfig {
        pac_size: 11,
        initial_ways: 1,
        max_ways: 4,
        base_addr: 0x1000_0000,
        compressed: true,
    })
}

fn bndstr(pac: u64, base: u64) -> McuOp {
    McuOp::BndStr {
        pointer: PointerLayout::default().compose(base, pac, 1),
        size: 64,
    }
}

#[test]
fn uncommitted_bndstr_is_parked_until_its_commit() {
    let mut mcu = MemoryCheckUnit::new(McuConfig::default(), PointerLayout::default());
    let mut hbt = table();
    let mut port = AddressedLatency;
    let mut events = Vec::new();
    let id = mcu.issue(bndstr(7, 0x4000), 0).unwrap();
    let mut now = 0;
    while mcu.state_of(id) != Some(McqState::BndStr) {
        assert!(now < 16, "the occupancy check finds the empty slot");
        mcu.tick(now, &mut hbt, &mut port, &mut events);
        now += 1;
    }
    assert_eq!(
        mcu.next_wake(now),
        u64::MAX,
        "nothing is due before the commit"
    );
    let stats = mcu.stats();
    for cycle in now..now + 1000 {
        mcu.tick(cycle, &mut hbt, &mut port, &mut events);
    }
    assert_eq!(mcu.stats(), stats, "a parked entry is never stepped");
    assert!(events.is_empty());
    assert_eq!(mcu.state_of(id), Some(McqState::BndStr));
    assert_eq!(hbt.row_occupancy(7), 0, "no store before the commit");

    now += 1000;
    assert!(mcu.commit_if_retirable(id));
    assert_eq!(mcu.next_wake(now), now + 1, "the commit makes it due");
    mcu.tick(now + 1, &mut hbt, &mut port, &mut events);
    assert_eq!(mcu.state_of(id), None, "stored and released in one tick");
    assert_eq!(hbt.row_occupancy(7), 1);
    assert_eq!(mcu.stats().line_stores, stats.line_stores + 1);
    assert_eq!(mcu.stats().retired, stats.retired + 1);
    assert!(events.is_empty(), "a clean completion raises nothing");
    assert_eq!(mcu.next_wake(now + 1), u64::MAX);
}

#[test]
fn committed_replayed_bndstr_stores_without_waiting_again() {
    let mut mcu = MemoryCheckUnit::new(McuConfig::default(), PointerLayout::default());
    let mut hbt = table();
    let mut port = AddressedLatency;
    let mut events = Vec::new();
    // Both find the same empty slot, so the older one's store replays
    // the younger one.
    let older = mcu.issue(bndstr(7, 0x4000), 0).unwrap();
    let younger = mcu.issue(bndstr(7, 0x5000), 0).unwrap();
    let mut now = 0;
    while mcu.state_of(younger) != Some(McqState::BndStr) {
        assert!(now < 16);
        mcu.tick(now, &mut hbt, &mut port, &mut events);
        now += 1;
    }
    assert_eq!(mcu.state_of(older), Some(McqState::BndStr));
    assert!(mcu.commit_if_retirable(older));
    assert!(mcu.commit_if_retirable(younger));
    mcu.tick(now, &mut hbt, &mut port, &mut events);
    assert_eq!(mcu.state_of(older), None, "the older store went out");
    assert_eq!(
        mcu.state_of(younger),
        Some(McqState::Init),
        "and replayed the younger"
    );
    assert_eq!(mcu.stats().replays, 1);

    // The younger entry redoes its occupancy check and, committed
    // already, stores on the tick after it finds a slot again: no
    // further commit is needed.
    while mcu.state_of(younger) != Some(McqState::BndStr) {
        now = mcu.next_wake(now);
        assert!(now < 64, "the replayed entry keeps waking");
        mcu.tick(now, &mut hbt, &mut port, &mut events);
    }
    assert_eq!(mcu.next_wake(now), now + 1, "not parked on a second commit");
    mcu.tick(now + 1, &mut hbt, &mut port, &mut events);
    assert!(mcu.is_empty());
    assert_eq!(hbt.row_occupancy(7), 2);
    assert_eq!(mcu.stats().line_stores, 2);
    assert_eq!(mcu.stats().retired, 2);
}

/// One script step: wait `gap` cycles, then act. `kind` picks the
/// action (0–3 `bndstr`, 4 `bndclr`, 5 access, 6–8 ROB commit, 9 OS
/// handler), `pac` the row and `slot` the chunk.
type Step = (u64, u8, u64, u64);

/// A ROB commit and an OS handler step, as the drain issues them.
const COMMIT: Step = (0, 6, 0, 0);
const HANDLE: Step = (0, 9, 0, 0);

/// The MCU, its table and the simulator-side state a script drives:
/// the ROB's program-order id list and the exception awaiting the OS.
struct Harness {
    mcu: MemoryCheckUnit,
    hbt: HashedBoundsTable,
    rob: VecDeque<u64>,
    raised: Option<(u64, AosException)>,
    /// Every exception raised, with the cycle that raised it.
    exceptions: Vec<(u64, McuEvent)>,
    /// The outcome of every action, so the two modes are seen to
    /// take the same decisions.
    decisions: Vec<(u64, bool)>,
}

impl Harness {
    fn new() -> Self {
        Self {
            mcu: MemoryCheckUnit::new(McuConfig::default(), PointerLayout::default()),
            hbt: table(),
            rob: VecDeque::new(),
            raised: None,
            exceptions: Vec::new(),
            decisions: Vec::new(),
        }
    }

    fn tick(&mut self, now: u64) {
        let mut events = Vec::new();
        self.mcu
            .tick(now, &mut self.hbt, &mut AddressedLatency, &mut events);
        assert!(events.len() <= 1, "at most one exception per tick");
        for ev in events {
            assert!(self.raised.is_none(), "one failure at the head at a time");
            self.raised = Some((ev.id, ev.exception));
            self.exceptions.push((now, ev));
        }
    }

    fn act(&mut self, now: u64, (_, kind, pac, slot): Step) {
        let layout = PointerLayout::default();
        let base = (slot + 1) * 0x100;
        let op = match kind {
            0..=3 => Some(bndstr(pac, base)),
            4 => Some(McuOp::BndClr {
                pointer: layout.compose(base, pac, 1),
            }),
            5 => Some(McuOp::Access {
                pointer: layout.compose(base + 8, pac, u8::from(slot % 4 != 0)),
                is_store: slot % 2 == 1,
            }),
            _ => None,
        };
        if let Some(op) = op {
            let issued = self.mcu.issue(op, now);
            if let Ok(id) = issued {
                self.rob.push_back(id);
            }
            self.decisions.push((now, issued.is_ok()));
        } else if kind < 9 {
            // In-order commit of the oldest instruction, as the ROB
            // does it.
            if let Some(&id) = self.rob.front() {
                let committed = self.mcu.commit_if_retirable(id);
                if committed {
                    self.rob.pop_front();
                }
                self.decisions.push((now, committed));
            }
        } else if let Some((id, exception)) = self.raised.take() {
            // The OS grows a full table and retries the store; any
            // other failure is dropped and squashes what followed it.
            let resized = matches!(exception, AosException::BoundsStoreFailure { .. })
                && self.hbt.try_begin_resize().is_ok();
            if resized {
                self.hbt.finish_migration();
                self.mcu.retry(id);
            } else {
                self.mcu.drop_failed(id);
                self.mcu.squash_newer(id);
                self.rob.retain(|&r| r < id);
            }
            self.decisions.push((now, resized));
        }
    }
}

/// Everything a run of the MCU shows from outside.
type Observed = (
    McuStats,
    BwbStats,
    HbtStats,
    Vec<(u64, McuEvent)>,
    Vec<(u64, bool)>,
    Vec<u32>,
);

/// Cycles the drain after the script may take: far more than the
/// longest script leaves to finish.
const DRAIN_CYCLES: u64 = 4000;

/// Runs `script`, either ticking every cycle or ticking only at the
/// cycles [`MemoryCheckUnit::next_wake`] names. Within a cycle the
/// tick comes first and the action second, as in the stage core.
/// After the script, every cycle commits what it can and answers any
/// failure until the queue is empty, which it must become: a wake
/// that is lost stalls both modes alike, but never drains.
fn drive(script: &[Step], jump: bool) -> Observed {
    let mut h = Harness::new();
    let mut now = 0;
    let advance = |h: &mut Harness, now: &mut u64, target: u64| {
        if jump {
            loop {
                let wake = h.mcu.next_wake(*now);
                if wake > target {
                    break;
                }
                assert!(wake > *now, "a wake lies in the future");
                h.tick(wake);
                *now = wake;
            }
        } else {
            for cycle in *now + 1..=target {
                h.tick(cycle);
            }
        }
        *now = target;
    };
    for &step in script {
        let target = now + step.0;
        advance(&mut h, &mut now, target);
        h.act(now, step);
    }
    let end = now + DRAIN_CYCLES;
    while !h.mcu.is_empty() && now < end {
        let next = now + 1;
        advance(&mut h, &mut now, next);
        h.act(now, COMMIT);
        h.act(now, HANDLE);
    }
    assert!(h.mcu.is_empty(), "the queue drains once everything commits");
    let rows = (0..2).map(|pac| h.hbt.row_occupancy(pac)).collect();
    (
        h.mcu.stats(),
        h.mcu.bwb_stats(),
        h.hbt.stats(),
        h.exceptions,
        h.decisions,
        rows,
    )
}

fn script() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u64..6, 0u8..10, 0u64..2, 0u64..12), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Jumping from wake to wake skips only cycles on which a tick
    /// would have done nothing.
    #[test]
    fn jumping_to_next_wake_matches_ticking_every_cycle(steps in script()) {
        let every = drive(&steps, false);
        let jumped = drive(&steps, true);
        prop_assert_eq!(&every.0, &jumped.0, "MCU stats");
        prop_assert_eq!(&every.1, &jumped.1, "BWB stats");
        prop_assert_eq!(&every.2, &jumped.2, "HBT stats");
        prop_assert_eq!(&every.3, &jumped.3, "exceptions");
        prop_assert_eq!(&every.4, &jumped.4, "decisions");
        prop_assert_eq!(&every.5, &jumped.5, "row occupancy");
    }
}
