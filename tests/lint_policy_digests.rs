//! Bit-for-bit pin of every static policy's report.
//!
//! Each line of the golden is one FNV-1a digest of the `Debug` of the
//! reports one scan produced over one stream: per-rule counts, every
//! stored diagnostic (op index, PAC, detail text), dropped findings,
//! tracked PACs and, for the linter front end, the live-record
//! figures. The scans per stream are:
//!
//! - `all`: [`MatrixScan::run`] over [`Policy::ALL`];
//! - `single`: each policy scanned on its own, in `Policy::ALL` order;
//! - `subset`: a reversed-order subset without CryptSan;
//! - `lint`: the [`LintReport`](aos_lint::LintReport) of [`lint_stream`].
//!
//! The streams are the six matrix profiles at scale 0.03, clean and
//! with every fault kind at seeds 2 and 4, plus hand-built streams
//! that reach the corners a generated trace never does (unsigned
//! metadata ops, a size-0 sign, class mismatches, a stray strip,
//! collisions, more findings than the storage cap). A change to how
//! the scanner is built must leave the golden unchanged; regenerate
//! only when a policy is meant to change:
//!
//! ```text
//! AOS_UPDATE_GOLDEN=1 cargo test --test lint_policy_digests
//! ```

use aos_fault::{plan_fault, FaultKind, FaultSpec};
use aos_isa::{Op, SafetyConfig};
use aos_lint::{lint_stream, MatrixScan, Policy, MAX_STORED_DIAGNOSTICS};
use aos_ptrauth::{compute_ahc, PointerLayout};
use aos_util::hash::{fnv1a64, FNV1A64_OFFSET};
use aos_util::Telemetry;
use aos_workloads::profile::by_name;
use aos_workloads::TraceGenerator;

const GOLDEN: &str = "tests/golden/lint_policy_digests.txt";
const SCALE: f64 = 0.03;
const PROFILES: [&str; 6] = ["hmmer", "gcc", "omnetpp", "sphinx3", "povray", "astar"];
const SEEDS: [u64; 2] = [2, 4];
const SUBSET: [Policy; 3] = [Policy::PacTight, Policy::PacSan, Policy::Aos];

fn layout() -> PointerLayout {
    PointerLayout::default()
}

fn digest(debug: &str) -> String {
    format!("{:016x}", fnv1a64(FNV1A64_OFFSET, debug.as_bytes()))
}

fn scan(policies: &[Policy], ops: &[Op]) -> String {
    let reports = MatrixScan::run(
        policies,
        ops.iter().copied(),
        layout(),
        &Telemetry::disabled(),
    );
    format!("{reports:?}")
}

/// The four digest lines of one stream.
fn digest_lines(name: &str, ops: &[Op], out: &mut String) {
    let single: String = Policy::ALL.iter().map(|&p| scan(&[p], ops)).collect();
    let lint = format!("{:?}", lint_stream(ops.iter().copied(), layout()));
    for (scan_name, debug) in [
        ("all", scan(&Policy::ALL, ops)),
        ("single", single),
        ("subset", scan(&SUBSET, ops)),
        ("lint", lint),
    ] {
        out.push_str(&format!("{name} {scan_name} {}\n", digest(&debug)));
    }
}

fn signed(addr: u64, pac: u64, size: u64) -> u64 {
    let l = layout();
    l.compose(addr, pac, compute_ahc(addr, size, l.va_size()).bits())
}

fn malloc(ptr: u64, size: u64) -> Vec<Op> {
    vec![
        Op::Pacma { pointer: ptr, size },
        Op::BndStr { pointer: ptr, size },
    ]
}

fn free(ptr: u64) -> Vec<Op> {
    vec![
        Op::BndClr { pointer: ptr },
        Op::Xpacm,
        Op::Pacma {
            pointer: ptr,
            size: 0,
        },
    ]
}

fn load(ptr: u64) -> Op {
    Op::Load {
        pointer: ptr,
        bytes: 8,
        chained: false,
    }
}

/// Streams built by hand, one per corner of the policies' state
/// machines.
fn hand_built() -> Vec<(&'static str, Vec<Op>)> {
    let l = layout();
    let p = signed(0x4000, 7, 64);
    let other_class = l.compose(0x4000, 7, (l.ahc(p) % 3) + 1);
    let small = signed(0x4000, 9, 16);
    let large = signed(0x8000, 9, 1 << 13);
    let cat = |parts: &[Vec<Op>]| parts.concat();
    vec![
        (
            "unsigned-metadata",
            vec![
                Op::BndStr {
                    pointer: 0x4000,
                    size: 64,
                },
                Op::BndClr { pointer: 0x4000 },
                Op::Xpacm,
                Op::Pacma {
                    pointer: 0x4000,
                    size: 64,
                },
                load(0x4000),
            ],
        ),
        (
            "size0-pacma",
            vec![
                Op::Pacma {
                    pointer: p,
                    size: 0,
                },
                load(p),
            ],
        ),
        (
            "size-mismatch",
            vec![
                Op::Pacma {
                    pointer: p,
                    size: 64,
                },
                Op::BndStr {
                    pointer: p,
                    size: 32,
                },
                load(p),
            ],
        ),
        (
            "ahc-mismatch",
            cat(&[
                malloc(p, 64),
                vec![load(other_class)],
                vec![Op::BndClr {
                    pointer: other_class,
                }],
                vec![Op::Xpacm, load(p)],
            ]),
        ),
        (
            "double-bndclr",
            cat(&[malloc(p, 64), vec![Op::BndClr { pointer: p }], free(p)]),
        ),
        (
            "stray-xpacm",
            cat(&[vec![Op::Xpacm], malloc(p, 64), free(p), vec![Op::Xpacm]]),
        ),
        (
            "unpaired-pacma",
            vec![
                Op::Pacma {
                    pointer: signed(0x4000, 0x300, 64),
                    size: 64,
                },
                Op::Pacma {
                    pointer: signed(0x5000, 0x20, 64),
                    size: 64,
                },
            ],
        ),
        (
            "collision",
            cat(&[
                malloc(small, 16),
                malloc(large, 1 << 13),
                vec![load(small), load(large)],
                free(large),
                vec![load(small), load(large)],
                free(small),
                vec![load(small)],
            ]),
        ),
        (
            "over-cap",
            cat(&[
                malloc(p, 64),
                free(p),
                std::iter::repeat_n(load(p), MAX_STORED_DIAGNOSTICS + 40).collect(),
                std::iter::repeat_n(load(signed(0x9000, 0x55, 64)), 30).collect(),
            ]),
        ),
    ]
}

fn digests() -> String {
    let mut out = String::new();
    for (name, ops) in hand_built() {
        digest_lines(name, &ops, &mut out);
    }
    for name in PROFILES {
        let profile = by_name(name).expect("matrix profile exists");
        let clean: Vec<Op> = TraceGenerator::new(profile, SafetyConfig::Aos, SCALE).collect();
        digest_lines(&format!("{name}.clean"), &clean, &mut out);
        for kind in FaultKind::ALL {
            for seed in SEEDS {
                let label = format!("{name}.{}.{seed}", kind.name());
                let spec = FaultSpec { kind, seed };
                match plan_fault(clean.iter().copied(), layout(), spec) {
                    Ok(plan) => {
                        let ops: Vec<Op> = plan.apply(clean.iter().copied()).collect();
                        digest_lines(&label, &ops, &mut out);
                    }
                    Err(e) => {
                        out.push_str(&format!("{label} unplanned {}\n", digest(&e.to_string())))
                    }
                }
            }
        }
    }
    out
}

#[test]
fn every_policy_report_matches_its_digest() {
    let digests = digests();
    if std::env::var_os("AOS_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &digests).expect("write golden");
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; regenerate with AOS_UPDATE_GOLDEN=1");
    let moved: Vec<&str> = digests
        .lines()
        .zip(golden.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, _)| a)
        .collect();
    assert!(
        moved.is_empty() && digests.lines().count() == golden.lines().count(),
        "policy reports moved: {moved:?}"
    );
}

/// The hand-built streams reach the corners they are named for, so
/// the digests above pin those paths and not empty reports.
#[test]
fn hand_built_streams_reach_their_corners() {
    let streams = hand_built();
    let report = |name: &str| {
        let ops = &streams.iter().find(|(n, _)| *n == name).expect("stream").1;
        lint_stream(ops.iter().copied(), layout())
    };
    use aos_lint::Rule;
    assert!(report("over-cap").findings.dropped_diagnostics > 0);
    assert_eq!(
        report("unsigned-metadata").count(Rule::BndstrWithoutPacma),
        1
    );
    assert!(report("size-mismatch").findings.diagnostics[0]
        .detail
        .contains("disagrees"));
    assert_eq!(report("ahc-mismatch").count(Rule::AccessAhcMismatch), 2);
    assert_eq!(report("double-bndclr").count(Rule::DoubleBndclr), 1);
    assert_eq!(report("stray-xpacm").count(Rule::XpacmWithoutBndclr), 2);
    assert_eq!(report("unpaired-pacma").count(Rule::UnbalancedAtEnd), 2);
    let collision = report("collision");
    assert_eq!(collision.peak_live_records, 2);
    assert_eq!(collision.count(Rule::AccessAfterClear), 1);
}
