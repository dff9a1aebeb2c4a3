//! Conformance tests for the Fig. 8 FSMs: drive the MCQ cycle by cycle
//! with a controllable memory port and assert the documented state
//! transitions, including way iteration (IncCnt), failure at the queue
//! head, commit-gated bounds stores, and replay.

use aos_hbt::{HashedBoundsTable, HbtConfig};
use aos_mcu::{AosException, BoundsMemory, McqState, McuConfig, McuEvent, McuOp, MemoryCheckUnit};
use aos_ptrauth::PointerLayout;
use aos_util::{Counter, TelemetrySnapshot};

/// A memory port with scriptable latency.
struct PortWithLatency(u64);

impl BoundsMemory for PortWithLatency {
    fn load_line(&mut self, _addr: u64) -> u64 {
        self.0
    }
    fn store_line(&mut self, _addr: u64) -> u64 {
        self.0
    }
}

fn setup(ways: u32) -> (MemoryCheckUnit, HashedBoundsTable, PointerLayout) {
    let layout = PointerLayout::default();
    let mut hbt = HashedBoundsTable::new(HbtConfig {
        pac_size: 11,
        initial_ways: 1,
        max_ways: 16,
        base_addr: 0x1000_0000,
        compressed: true,
    });
    while hbt.ways() < ways {
        hbt.begin_resize();
        hbt.finish_migration();
    }
    (
        MemoryCheckUnit::new(McuConfig::default(), layout),
        hbt,
        layout,
    )
}

/// Sets up bounds for `[base, base + size)` in row `pac` the way
/// `malloc` does: a `bndstr` run to completion through the FSMs.
fn bndstr(
    mcu: &mut MemoryCheckUnit,
    hbt: &mut HashedBoundsTable,
    layout: PointerLayout,
    pac: u64,
    base: u64,
    size: u64,
) {
    let pointer = layout.compose(base, pac, 1);
    mcu.run_sync(McuOp::BndStr { pointer, size }, hbt)
        .expect("setup bndstr");
}

/// Whether any record in row `pac` covers `addr`, read straight from
/// the table's storage.
fn covers(hbt: &HashedBoundsTable, pac: u64, addr: u64) -> bool {
    (0..hbt.ways()).any(|way| hbt.peek_way(pac, way).iter().any(|b| b.check(addr)))
}

#[test]
fn unsigned_access_goes_init_to_done_in_one_step() {
    let (mut mcu, mut hbt, _) = setup(1);
    let id = mcu
        .issue(
            McuOp::Access {
                pointer: 0x5000,
                is_store: false,
            },
            0,
        )
        .unwrap();
    assert_eq!(mcu.state_of(id), Some(McqState::Init));
    let mut events = Vec::new();
    events.extend(mcu.tick(0, &mut hbt, &mut PortWithLatency(0)));
    // Done and deallocated in the same tick (unsigned, no commit wait).
    assert_eq!(mcu.state_of(id), None);
    assert!(mcu.commit_if_retirable(id));
    assert!(events.is_empty(), "a clean completion raises nothing");
}

#[test]
fn signed_access_walks_init_bndchk_done() {
    let (mut mcu, mut hbt, layout) = setup(1);
    bndstr(&mut mcu, &mut hbt, layout, 7, 0x4000, 64);
    let ptr = layout.compose(0x4000, 7, 1);
    let id = mcu
        .issue(
            McuOp::Access {
                pointer: ptr,
                is_store: false,
            },
            0,
        )
        .unwrap();
    let mut events = Vec::new();
    let mut port = PortWithLatency(3);
    // Tick 0: Init → BndChk with a line load in flight.
    events.extend(mcu.tick(0, &mut hbt, &mut port));
    assert_eq!(mcu.state_of(id), Some(McqState::BndChk));
    // The line arrives at cycle 0+1+3; earlier ticks leave it pending.
    events.extend(mcu.tick(2, &mut hbt, &mut port));
    assert_eq!(mcu.state_of(id), Some(McqState::BndChk));
    events.extend(mcu.tick(4, &mut hbt, &mut port));
    assert_eq!(mcu.state_of(id), None, "checked and deallocated");
}

#[test]
fn way_iteration_inccnt_until_found() {
    let (mut mcu, mut hbt, layout) = setup(2);
    // Fill way 0 for PAC 7, target bounds land in way 1.
    for i in 0..8u64 {
        bndstr(&mut mcu, &mut hbt, layout, 7, 0x10_000 + i * 0x100, 64);
    }
    bndstr(&mut mcu, &mut hbt, layout, 7, 0x9_0000, 64);
    let ptr = layout.compose(0x9_0000, 7, 1);
    let id = mcu
        .issue(
            McuOp::Access {
                pointer: ptr,
                is_store: false,
            },
            0,
        )
        .unwrap();
    let mut events = Vec::new();
    let mut port = PortWithLatency(0);
    events.extend(mcu.tick(0, &mut hbt, &mut port)); // Init → BndChk(way 0)
    events.extend(mcu.tick(1, &mut hbt, &mut port)); // miss way 0 → IncCnt → way 1
    assert_eq!(mcu.state_of(id), Some(McqState::BndChk));
    let ways_before = mcu.stats().way_iterations;
    events.extend(mcu.tick(2, &mut hbt, &mut port)); // hit way 1 → Done (dealloc)
    assert_eq!(mcu.state_of(id), None);
    assert_eq!(
        mcu.stats().way_iterations - ways_before,
        2,
        "Count reached 1 before the hit"
    );
}

#[test]
fn count_exhaustion_fails_and_faults_at_head() {
    let (mut mcu, mut hbt, layout) = setup(2);
    bndstr(&mut mcu, &mut hbt, layout, 7, 0x10_000, 64);
    // Address with PAC 7 covered by nothing.
    let ptr = layout.compose(0x9_0000, 7, 1);
    let id = mcu
        .issue(
            McuOp::Access {
                pointer: ptr,
                is_store: true,
            },
            0,
        )
        .unwrap();
    let mut events = Vec::new();
    let mut port = PortWithLatency(0);
    for now in 0..3 {
        events.extend(mcu.tick(now, &mut hbt, &mut port));
    }
    assert_eq!(mcu.state_of(id), Some(McqState::Fail));
    assert_eq!(
        events,
        [McuEvent {
            id,
            exception: AosException::BoundsCheckFailure {
                pointer: ptr,
                is_store: true
            }
        }],
        "failure at the head raises the AOS exception"
    );
    assert!(!mcu.commit_if_retirable(id), "a failed check never retires");
    assert_eq!(mcu.stats().exceptions, 1);
}

#[test]
fn bndstr_occchk_waits_for_commit_then_stores() {
    let (mut mcu, mut hbt, layout) = setup(1);
    let ptr = layout.compose(0x4000, 7, 1);
    let id = mcu
        .issue(
            McuOp::BndStr {
                pointer: ptr,
                size: 64,
            },
            0,
        )
        .unwrap();
    let mut events = Vec::new();
    let mut port = PortWithLatency(0);
    events.extend(mcu.tick(0, &mut hbt, &mut port)); // Init → OccChk
    events.extend(mcu.tick(1, &mut hbt, &mut port)); // slot found → BndStr
    assert_eq!(mcu.state_of(id), Some(McqState::BndStr));
    // Without commit the store is never sent.
    for now in 2..10 {
        events.extend(mcu.tick(now, &mut hbt, &mut port));
    }
    assert_eq!(mcu.state_of(id), Some(McqState::BndStr));
    assert!(!covers(&hbt, 7, 0x4000), "no store before commit");
    // Occupancy done: the ROB may commit, and the commit releases the
    // store.
    assert!(mcu.commit_if_retirable(id));
    events.extend(mcu.tick(10, &mut hbt, &mut port));
    events.extend(mcu.tick(11, &mut hbt, &mut port));
    assert_eq!(mcu.state_of(id), None);
    assert!(covers(&hbt, 7, 0x4000), "bounds landed at commit");
}

#[test]
fn bndclr_occchk_matches_base_only() {
    let (mut mcu, mut hbt, layout) = setup(1);
    bndstr(&mut mcu, &mut hbt, layout, 7, 0x4000, 64);
    // bndclr with an interior pointer must NOT match (occupancy check
    // compares the lower bound, §V-A2).
    let interior = layout.compose(0x4010, 7, 1);
    let id = mcu.issue(McuOp::BndClr { pointer: interior }, 0).unwrap();
    let mut events = Vec::new();
    let mut port = PortWithLatency(0);
    for now in 0..4 {
        events.extend(mcu.tick(now, &mut hbt, &mut port));
    }
    assert_eq!(mcu.state_of(id), Some(McqState::Fail));
    assert!(covers(&hbt, 7, 0x4000), "bounds untouched");
}

#[test]
fn replay_rescues_fail_before_it_reaches_the_head() {
    // An older bndstr whose store lands late must replay a younger
    // check that already failed — and the check must then succeed
    // without raising an exception.
    let layout = PointerLayout::default();
    let mut hbt = HashedBoundsTable::new(HbtConfig {
        pac_size: 11,
        initial_ways: 1,
        max_ways: 16,
        base_addr: 0x1000_0000,
        compressed: true,
    });
    let mut mcu = MemoryCheckUnit::new(
        McuConfig {
            bounds_forwarding: false,
            ..McuConfig::default()
        },
        layout,
    );
    let ptr = layout.compose(0x4000, 7, 1);
    let str_id = mcu
        .issue(
            McuOp::BndStr {
                pointer: ptr,
                size: 64,
            },
            0,
        )
        .unwrap();
    let chk_id = mcu
        .issue(
            McuOp::Access {
                pointer: ptr + 8,
                is_store: false,
            },
            0,
        )
        .unwrap();
    let mut events = Vec::new();
    let mut port = PortWithLatency(0);
    // Let the younger check fail first (the bndstr is not committed).
    for now in 0..4 {
        events.extend(mcu.tick(now, &mut hbt, &mut port));
    }
    assert_eq!(mcu.state_of(chk_id), Some(McqState::Fail));
    assert!(events.is_empty(), "not at the head yet: no exception");
    // Commit the bndstr; its store must replay the failed check.
    assert!(mcu.commit_if_retirable(str_id));
    for now in 4..12 {
        events.extend(mcu.tick(now, &mut hbt, &mut port));
    }
    assert!(mcu.is_empty(), "both completed after the replay");
    assert!(mcu.stats().replays >= 1);
    assert!(events.is_empty());
}

#[test]
fn retry_after_resize_reruns_the_fsm() {
    let (mut mcu, mut hbt, layout) = setup(1);
    for i in 0..8u64 {
        bndstr(&mut mcu, &mut hbt, layout, 7, 0x10_000 + i * 0x100, 64);
    }
    let ptr = layout.compose(0x9_0000, 7, 1);
    let id = mcu
        .issue(
            McuOp::BndStr {
                pointer: ptr,
                size: 64,
            },
            0,
        )
        .unwrap();
    // As if the ROB had committed the bndstr before a replay restarted
    // it: after the retry it stores without waiting for a commit.
    mcu.mark_committed(id);
    let mut events = Vec::new();
    let mut port = PortWithLatency(0);
    for now in 0..4 {
        events.extend(mcu.tick(now, &mut hbt, &mut port));
    }
    assert_eq!(mcu.state_of(id), Some(McqState::Fail));
    // OS path: resize, retry the entry.
    hbt.begin_resize();
    mcu.retry(id);
    for now in 4..12 {
        events.extend(mcu.tick(now, &mut hbt, &mut port));
    }
    assert!(mcu.is_empty());
    assert!(covers(&hbt, 7, 0x9_0000), "store succeeded after resize");
}

#[test]
fn failed_clears_count_at_the_head_not_when_replay_rescues_them() {
    // A bndclr younger than the bndstr of the same chunk fails its
    // occupancy check before the store lands; the store's replay
    // rescues it, so it is no failed clear. A second bndclr of the same
    // chunk (a double free) fails at the head and is counted once.
    let (mut mcu, mut hbt, layout) = setup(1);
    let ptr = layout.compose(0x4000, 7, 1);
    let str_id = mcu
        .issue(
            McuOp::BndStr {
                pointer: ptr,
                size: 64,
            },
            0,
        )
        .unwrap();
    let clr_id = mcu.issue(McuOp::BndClr { pointer: ptr }, 0).unwrap();
    let mut events = Vec::new();
    let mut port = PortWithLatency(0);
    for now in 0..4 {
        events.extend(mcu.tick(now, &mut hbt, &mut port));
    }
    assert_eq!(mcu.state_of(clr_id), Some(McqState::Fail));
    assert!(mcu.commit_if_retirable(str_id));
    // As if the ROB had committed the bndclr before the store replays
    // it: the replayed entry then stores without parking again.
    mcu.mark_committed(clr_id);
    for now in 4..12 {
        events.extend(mcu.tick(now, &mut hbt, &mut port));
    }
    assert!(mcu.is_empty(), "both completed after the replay");
    assert!(events.is_empty());
    let failed_clears = |mcu: &MemoryCheckUnit| {
        let mut snap = TelemetrySnapshot::new(true);
        mcu.record_telemetry(&mut snap);
        snap.counter(Counter::HbtFailedClears)
    };
    assert_eq!(failed_clears(&mcu), 0);

    assert!(mcu
        .run_sync(McuOp::BndClr { pointer: ptr }, &mut hbt)
        .is_err());
    assert_eq!(failed_clears(&mcu), 1);
}
