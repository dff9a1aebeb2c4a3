//! Black-box behavioural tests of the pipeline model: each test
//! isolates one mechanism (ROB, LSQ, chains, NUCA, crypto bubbles,
//! mispredict waiving) and verifies its first-order effect on cycles.

use aos_isa::{Op, SafetyConfig};
use aos_sim::{Machine, MachineConfig};

fn baseline_config() -> MachineConfig {
    MachineConfig::table_iv(SafetyConfig::Baseline)
}

fn loads(n: u64, stride: u64, chained: bool) -> Vec<Op> {
    (0..n)
        .map(|i| Op::Load {
            pointer: 0x1000_0000 + i * stride,
            bytes: 8,
            chained,
        })
        .collect()
}

#[test]
fn chained_dram_loads_serialize() {
    // Independent streaming loads overlap; chained ones serialize at
    // DRAM latency.
    let independent = Machine::new(baseline_config()).run(loads(2000, 4096, false));
    let chained = Machine::new(baseline_config()).run(loads(2000, 4096, true));
    assert!(
        chained.cycles > independent.cycles * 3,
        "chains must serialize: {} vs {}",
        chained.cycles,
        independent.cycles
    );
}

#[test]
fn larger_rob_hides_more_latency() {
    let trace: Vec<Op> = (0..4000u64)
        .flat_map(|i| {
            [
                Op::Load {
                    pointer: 0x1000_0000 + i * 4096,
                    bytes: 8,
                    chained: false,
                },
                Op::IntAlu,
                Op::IntAlu,
                Op::IntAlu,
            ]
        })
        .collect();
    let mut small = baseline_config();
    small.rob_entries = 16;
    let mut large = baseline_config();
    large.rob_entries = 192;
    let s = Machine::new(small).run(trace.clone());
    let l = Machine::new(large).run(trace);
    assert!(
        s.cycles > l.cycles * 2,
        "a 16-entry ROB cannot overlap DRAM misses: {} vs {}",
        s.cycles,
        l.cycles
    );
}

#[test]
fn lsq_capacity_limits_memory_parallelism() {
    let trace = loads(4000, 4096, false);
    let mut tiny = baseline_config();
    tiny.lsq_loads = 2;
    let mut full = baseline_config();
    full.lsq_loads = 32;
    let t = Machine::new(tiny).run(trace.clone());
    let f = Machine::new(full).run(trace);
    assert!(t.cycles > f.cycles * 4, "{} vs {}", t.cycles, f.cycles);
    assert!(t.stalls_lsq > f.stalls_lsq);
}

#[test]
fn crypto_ops_cost_issue_bubbles() {
    let with_crypto: Vec<Op> = (0..4000)
        .flat_map(|_| [Op::IntAlu, Op::IntAlu, Op::IntAlu, Op::PacCrypto])
        .collect();
    let without: Vec<Op> = (0..4000)
        .flat_map(|_| [Op::IntAlu, Op::IntAlu, Op::IntAlu, Op::IntAlu])
        .collect();
    let c = Machine::new(baseline_config()).run(with_crypto);
    let p = Machine::new(baseline_config()).run(without);
    assert!(
        c.cycles as f64 > p.cycles as f64 * 1.5,
        "each pacia ends its issue group: {} vs {}",
        c.cycles,
        p.cycles
    );
}

#[test]
fn mispredict_waiving_requires_structural_stalls() {
    // With abundant resources, every mispredict is charged.
    let trace: Vec<Op> = (0..2000)
        .flat_map(|i| {
            [
                Op::Branch {
                    pc: 0x100,
                    taken: true,
                    mispredicted: i % 20 == 0,
                },
                Op::IntAlu,
            ]
        })
        .collect();
    let stats = Machine::new(baseline_config()).run(trace);
    assert_eq!(stats.waived_mispredicts, 0, "no stalls, no waivers");
    assert_eq!(stats.charged_mispredicts, 100);
}

#[test]
fn autm_is_cheap_pac_crypto_is_not() {
    let autm_trace: Vec<Op> = (0..8000).map(|_| Op::Autm { pointer: 0x10 }).collect();
    let crypto_trace: Vec<Op> = (0..8000).map(|_| Op::PacCrypto).collect();
    let a = Machine::new(baseline_config()).run(autm_trace);
    let c = Machine::new(baseline_config()).run(crypto_trace);
    assert!(
        a.cycles * 4 < c.cycles,
        "autm (1 cycle, no bubble) vs pacia (4 cycles + bubble): {} vs {}",
        a.cycles,
        c.cycles
    );
}

#[test]
fn remote_nuca_slice_shows_up_in_cycles() {
    // All-even lines (local slice) vs all-odd lines (remote slice),
    // both L2-resident after warmup.
    let local: Vec<Op> = (0..20_000u64)
        .map(|i| Op::Load {
            pointer: 0x100_0000 + (i % 4096) * 128, // even lines
            bytes: 8,
            chained: false,
        })
        .collect();
    let remote: Vec<Op> = (0..20_000u64)
        .map(|i| Op::Load {
            pointer: 0x100_0040 + (i % 4096) * 128, // odd lines
            bytes: 8,
            chained: false,
        })
        .collect();
    let l = Machine::new(baseline_config()).run(local);
    let r = Machine::new(baseline_config()).run(remote);
    assert!(
        r.cycles > l.cycles,
        "remote L2 slice is slower: {} vs {}",
        r.cycles,
        l.cycles
    );
}

#[test]
fn wide_accesses_touch_two_lines() {
    // 24-byte Watchdog metadata records crossing a line boundary incur
    // two fills.
    let trace: Vec<Op> = (0..1000u64)
        .map(|i| Op::WdMeta {
            pointer: 0x200_0000 + i * 170 * 8, // shadow addr crosses lines
            is_store: false,
        })
        .collect();
    let mut cfg = MachineConfig::table_iv(SafetyConfig::Watchdog);
    cfg.with_l1b = false;
    let stats = Machine::new(cfg).run(trace);
    assert!(stats.l1d.misses > 1000, "some records span two lines");
}
