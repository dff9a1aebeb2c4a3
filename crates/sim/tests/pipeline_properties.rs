//! Property tests for the out-of-order stage structures: the LSQ's
//! store→load forwarding path checked against an independent per-byte
//! last-writer memory model, its per-line store filter checked against
//! the plain youngest-first store scan it short-circuits, and ROB
//! squash checked to restore the exact pre-dispatch chain register
//! for arbitrary flush points.
//!
//! Scripts are drawn from the shared `aos_isa::strategy::action_script`
//! generator, interpreted here against the pipeline structures.

use std::collections::VecDeque;

use proptest::prelude::*;

use aos_isa::strategy::action_script;
use aos_isa::{Op, SafetyConfig};
use aos_sim::pipeline::lsq::{LoadPath, LoadStoreQueue, LsqEntry};
use aos_sim::pipeline::rob::RobEntry;
use aos_sim::pipeline::StageCore;
use aos_sim::MachineConfig;

/// Mirror of one in-flight store, kept by the reference model in the
/// same program order as the store queue.
#[derive(Debug, Clone, Copy)]
struct StoreRef {
    seq: u64,
    addr: u64,
    bytes: u32,
    dispatched_at: u64,
    data_ready_at: u64,
}

impl StoreRef {
    fn covers_byte(&self, byte: u64) -> bool {
        byte >= self.addr && byte < self.addr + u64::from(self.bytes)
    }
}

/// The independent forwarding oracle: per-byte last-writer semantics
/// over the mirrored store window. A load may forward exactly when
/// every byte it reads was last written by one and the same in-flight
/// store, that store resolved on an earlier cycle, and the forwarded
/// data is that store's — anything else must not be served from the
/// store queue as a whole (covered bytes force a replay, none force
/// the normal cache path).
fn expected_path(stores: &[StoreRef], addr: u64, bytes: u32, now: u64) -> LoadPath {
    let youngest_writer = |byte: u64| stores.iter().rev().find(|s| s.covers_byte(byte));
    let writers: Vec<Option<u64>> = (addr..addr + u64::from(bytes))
        .map(|byte| youngest_writer(byte).map(|s| s.seq))
        .collect();
    if writers.iter().all(Option::is_none) {
        return LoadPath::Normal;
    }
    if let [Some(first), rest @ ..] = writers.as_slice() {
        if rest.iter().all(|w| *w == Some(*first)) {
            let store = stores
                .iter()
                .find(|s| s.seq == *first)
                .expect("writer is in the window");
            if store.dispatched_at < now {
                return LoadPath::Forward {
                    data_ready_at: store.data_ready_at,
                };
            }
        }
    }
    LoadPath::Replay
}

/// The store-queue scan `classify_load` ran on every load before it
/// gained its per-line filter, kept as the filter's oracle: the
/// youngest overlapping store forwards if it covers the load and
/// resolved on an earlier cycle, and forces a replay otherwise.
fn linear_scan(stores: &[StoreRef], addr: u64, bytes: u32, now: u64) -> LoadPath {
    let load_end = addr + bytes as u64;
    for store in stores.iter().rev() {
        let store_end = store.addr + store.bytes as u64;
        if addr >= store_end || store.addr >= load_end {
            continue; // disjoint
        }
        let covers = store.addr <= addr && store_end >= load_end;
        if covers && store.dispatched_at < now {
            return LoadPath::Forward {
                data_ready_at: store.data_ready_at,
            };
        }
        return LoadPath::Replay;
    }
    LoadPath::Normal
}

/// Addresses for the filter property: the same 256-byte window (four
/// cache lines, so accesses straddle line boundaries) in three regions
/// 16 KiB apart, where equal offsets share a filter bucket.
fn filter_addr(a: u64) -> u64 {
    (a % 3) * 0x4000 + (a / 3) % 256
}

/// Access widths from zero bytes through three cache lines.
fn filter_width(b: u64) -> u32 {
    [0, 1, 2, 4, 8, 16, 64, 130][b as usize % 8]
}

fn store_entry(store: &StoreRef) -> LsqEntry {
    LsqEntry {
        seq: store.seq,
        addr: store.addr,
        bytes: store.bytes,
        dispatched_at: store.dispatched_at,
        data_ready_at: store.data_ready_at,
    }
}

/// A queue holding `stores` (dispatched in slice order) and the
/// classification the filtered queue gives a load.
fn classify_after(stores: &[StoreRef], addr: u64, bytes: u32, now: u64) -> LoadPath {
    let mut lsq = LoadStoreQueue::new(STORE_CAP, STORE_CAP);
    for store in stores {
        lsq.push_store(store_entry(store));
    }
    lsq.classify_load(addr, bytes, now)
}

fn store_ref(seq: u64, addr: u64, bytes: u32) -> StoreRef {
    StoreRef {
        seq,
        addr,
        bytes,
        dispatched_at: 0,
        data_ready_at: 3,
    }
}

#[test]
fn zero_width_load_inside_a_store_still_forwards() {
    // Strictly inside a 16-byte store, and on the first byte of the
    // second line of a store that straddles a line boundary.
    for (store, addr) in [
        (store_ref(0, 0x1000, 16), 0x1008),
        (store_ref(0, 0x1030, 32), 0x1040),
    ] {
        let want = linear_scan(&[store], addr, 0, 1);
        assert_eq!(want, LoadPath::Forward { data_ready_at: 3 });
        assert_eq!(classify_after(&[store], addr, 0, 1), want);
    }
}

#[test]
fn zero_width_store_inside_a_load_still_replays() {
    let store = store_ref(0, 0x1048, 0);
    let want = linear_scan(&[store], 0x1030, 32, 1);
    assert_eq!(want, LoadPath::Replay);
    assert_eq!(classify_after(&[store], 0x1030, 32, 1), want);
}

#[test]
fn store_wider_than_the_filter_covers_every_bucket() {
    // 300 lines: past the 256-line cap, so every bucket is counted
    // once and lines 256..300 wrap onto buckets already counted.
    let wide = store_ref(0, 0x10, 300 * 64);
    for line in [0u64, 1, 255, 256, 299] {
        let addr = 0x10 + line * 64;
        let want = linear_scan(&[wide], addr, 8, 1);
        assert_eq!(want, LoadPath::Forward { data_ready_at: 3 }, "line {line}");
        assert_eq!(classify_after(&[wide], addr, 8, 1), want, "line {line}");
    }
    // Past the store's end the scan runs (every bucket is occupied)
    // and finds nothing.
    assert_eq!(
        classify_after(&[wide], 0x10 + 300 * 64, 8, 1),
        LoadPath::Normal
    );
    // The widest store a trace can carry.
    let widest = store_ref(0, 0x4000, u32::MAX);
    let addr = 0x4000 + u64::from(u32::MAX) - 8;
    assert_eq!(
        linear_scan(&[widest], addr, 8, 1),
        LoadPath::Forward { data_ready_at: 3 }
    );
    assert_eq!(
        classify_after(&[widest], addr, 8, 1),
        LoadPath::Forward { data_ready_at: 3 }
    );
}

const STORE_CAP: usize = 8;

proptest! {
    /// Store→load forwarding never yields stale or mixed data: across
    /// arbitrary interleavings of stores, loads, cycle advances,
    /// commits and squashes, every load classification agrees with the
    /// per-byte last-writer oracle, and the forward/replay paths the
    /// queue returns tally exactly the oracle's verdicts.
    #[test]
    fn store_to_load_forwarding_matches_the_last_writer_oracle(
        script in action_script(0u8..5, 0u64..64, 0u64..64, 1..160),
    ) {
        let mut lsq = LoadStoreQueue::new(STORE_CAP, STORE_CAP);
        let mut mirror: Vec<StoreRef> = Vec::new();
        let mut now: u64 = 0;
        let mut seq: u64 = 0;
        // (forwards, replays) as returned by the queue and as the
        // oracle predicts.
        let mut got_tally = (0u64, 0u64);
        let mut want_tally = (0u64, 0u64);
        let tally = |t: &mut (u64, u64), path: LoadPath| match path {
            LoadPath::Forward { .. } => t.0 += 1,
            LoadPath::Replay => t.1 += 1,
            LoadPath::Normal => {}
        };
        for (kind, a, b) in script {
            match kind {
                // Store dispatch: 16-byte-window addresses force
                // frequent overlap; widths 1/2/4/8 force partial cases.
                0 if !lsq.stores_full() => {
                    let entry = StoreRef {
                        seq,
                        addr: a % 48,
                        bytes: 1 << (b % 4),
                        dispatched_at: now,
                        data_ready_at: now + 1 + b % 3,
                    };
                    seq += 1;
                    lsq.push_store(LsqEntry {
                        seq: entry.seq,
                        addr: entry.addr,
                        bytes: entry.bytes,
                        dispatched_at: entry.dispatched_at,
                        data_ready_at: entry.data_ready_at,
                    });
                    mirror.push(entry);
                }
                // Load probe: classify against the window.
                1 => {
                    let (addr, bytes) = (a % 48, 1 << (b % 4));
                    let got = lsq.classify_load(addr, bytes, now);
                    let want = expected_path(&mirror, addr, bytes, now);
                    prop_assert_eq!(
                        got, want,
                        "load [{}..+{}) at cycle {} against {:?}",
                        addr, bytes, now, mirror
                    );
                    tally(&mut got_tally, got);
                    tally(&mut want_tally, want);
                }
                // Cycle advance: lets same-cycle stores resolve.
                2 => now += 1 + a % 3,
                // In-order commit of the oldest store.
                3 if !mirror.is_empty() => {
                    let oldest = mirror.remove(0);
                    lsq.release(oldest.seq, true);
                }
                // Flush: squash everything younger than a surviving
                // store (or than the newest seq — a no-op squash).
                _ => {
                    let cut = a as usize % (mirror.len() + 1);
                    let keep_seq = mirror.get(cut).map_or(seq, |s| s.seq);
                    lsq.squash_newer(keep_seq);
                    mirror.retain(|s| s.seq <= keep_seq);
                }
            }
            prop_assert_eq!(lsq.stores_len(), mirror.len(), "window drifted");
        }
        prop_assert_eq!(got_tally, want_tally);
    }

    /// The per-line store filter is exact: across arbitrary
    /// interleavings of stores, loads, cycle advances, in-order
    /// commits and squashes, every load classification equals the
    /// plain youngest-first scan over the in-flight stores. Accesses
    /// span up to three lines, straddle line boundaries, and alias in
    /// the filter at 16 KiB apart.
    #[test]
    fn line_filter_matches_the_linear_store_scan(
        script in action_script(0u8..5, 0u64..768, 0u64..64, 1..200),
    ) {
        let mut lsq = LoadStoreQueue::new(STORE_CAP, STORE_CAP);
        // Every in-flight op in program order; stores carry their
        // mirrored entry, loads none.
        let mut window: VecDeque<(u64, Option<StoreRef>)> = VecDeque::new();
        let mut now: u64 = 0;
        let mut seq: u64 = 0;
        for (kind, a, b) in script {
            match kind {
                0 if !lsq.stores_full() => {
                    let store = StoreRef {
                        seq,
                        addr: filter_addr(a),
                        bytes: filter_width(b),
                        dispatched_at: now,
                        data_ready_at: now + 1 + b % 3,
                    };
                    lsq.push_store(store_entry(&store));
                    window.push_back((seq, Some(store)));
                    seq += 1;
                }
                1 => {
                    let (addr, bytes) = (filter_addr(a), filter_width(b));
                    let stores: Vec<StoreRef> =
                        window.iter().filter_map(|(_, store)| *store).collect();
                    prop_assert_eq!(
                        lsq.classify_load(addr, bytes, now),
                        linear_scan(&stores, addr, bytes, now),
                        "load [{:#x}..+{}) at cycle {} against {:?}",
                        addr, bytes, now, stores
                    );
                    if !lsq.loads_full() {
                        lsq.push_load(seq);
                        window.push_back((seq, None));
                        seq += 1;
                    }
                }
                2 => now += 1 + a % 3,
                3 => {
                    if let Some((oldest, store)) = window.pop_front() {
                        lsq.release(oldest, store.is_some());
                    }
                }
                _ => {
                    let cut = a as usize % (window.len() + 1);
                    let keep_seq = window.get(cut).map_or(seq, |(s, _)| *s);
                    lsq.squash_newer(keep_seq);
                    window.retain(|(s, _)| *s <= keep_seq);
                }
            }
            prop_assert_eq!(
                lsq.loads_len() + lsq.stores_len(),
                window.len(),
                "window drifted"
            );
        }
    }

    /// A precise-exception flush is exact: for an arbitrary script of
    /// chained and unchained loads and an arbitrary flush point,
    /// squashing the ROB tail youngest-first restores the chain-ready
    /// cycle the flush point's load saw at dispatch.
    #[test]
    fn rob_squash_restores_the_pre_dispatch_chain_ready(
        script in action_script(0u8..2, 0u64..512, 0u64..64, 1..48),
        cut in 0u64..48,
        initial in 0u64..512,
    ) {
        let mut core = StageCore::new(&MachineConfig::table_iv(SafetyConfig::Aos));
        core.chain_ready = initial;
        let flush_at = cut as usize % (script.len() + 1);
        let mut want = None;
        for (i, (kind, ready, slot)) in script.iter().enumerate() {
            if i == flush_at {
                want = Some(core.chain_ready);
            }
            let chained = *kind == 0;
            let chain_restore = core.link_chain(chained, *ready);
            core.rob.alloc(RobEntry {
                seq: 0, // assigned by alloc
                op: Op::Load { pointer: 0x1000 + slot * 8, bytes: 8, chained },
                complete_at: *ready,
                faulted: false,
                mcq_id: None,
                is_load: true,
                is_store: false,
                chain_restore,
            });
        }
        // A flush point at the end squashes nothing.
        let want = want.unwrap_or(core.chain_ready);
        while core.rob.len() > flush_at {
            prop_assert!(core.squash_youngest().is_some());
        }
        prop_assert_eq!(core.chain_ready, want, "chain register not restored");
    }
}
