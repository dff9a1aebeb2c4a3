//! Golden-file pin of the trace generator's output, op for op.
//!
//! Every simulation, fault plan, lint scan and fuzz scenario starts
//! from a `TraceGenerator` stream, so a change that makes generation
//! cheaper (the QARMA round kernel, the Zipf CDF build) must not move
//! one bit of it. The golden file holds one FNV-1a digest over every
//! op of:
//!
//! - each of the 16 SPEC CPU2006 profiles on all five systems at
//!   scale 0.01, and
//! - the six profiles of the static detection matrix (hmmer, gcc,
//!   omnetpp, sphinx3, povray, astar) on AOS at scale 0.03.
//!
//! Regenerate it with:
//!
//! ```text
//! AOS_UPDATE_GOLDEN=1 cargo test --test generator_golden
//! ```

use std::collections::BTreeMap;

use aos_isa::{Op, SafetyConfig};
use aos_workloads::profile::by_name;
use aos_workloads::{TraceGenerator, SPEC2006};

const GOLDEN: &str = "tests/golden/trace_digests.txt";
const GRID_SCALE: f64 = 0.01;
const MATRIX_SCALE: f64 = 0.03;
const MATRIX_PROFILES: [&str; 6] = ["hmmer", "gcc", "omnetpp", "sphinx3", "povray", "astar"];

/// One traced configuration: (profile, system, scale).
type Cell = (&'static str, SafetyConfig, f64);

fn cells() -> Vec<Cell> {
    let grid = SPEC2006
        .iter()
        .flat_map(|p| SafetyConfig::ALL.map(|s| (p.name, s, GRID_SCALE)));
    let matrix = MATRIX_PROFILES
        .iter()
        .map(|&name| (name, SafetyConfig::Aos, MATRIX_SCALE));
    grid.chain(matrix).collect()
}

fn label((name, system, scale): Cell) -> String {
    format!("{name} {system} {scale}")
}

/// The op as three words — a variant tag and its fields — so the
/// digest covers every field without depending on a wire codec.
fn words(op: &Op) -> [u64; 3] {
    match *op {
        Op::IntAlu => [0, 0, 0],
        Op::IntMul => [1, 0, 0],
        Op::FpAlu => [2, 0, 0],
        Op::Branch {
            pc,
            taken,
            mispredicted,
        } => [3, pc, taken as u64 | (mispredicted as u64) << 1],
        Op::Load {
            pointer,
            bytes,
            chained,
        } => [4, pointer, bytes as u64 | (chained as u64) << 32],
        Op::Store { pointer, bytes } => [5, pointer, bytes as u64],
        Op::Pacma { pointer, size } => [6, pointer, size],
        Op::Xpacm => [7, 0, 0],
        Op::Autm { pointer } => [8, pointer, 0],
        Op::PacCrypto => [9, 0, 0],
        Op::BndStr { pointer, size } => [10, pointer, size],
        Op::BndClr { pointer } => [11, pointer, 0],
        Op::WdCheck { pointer } => [12, pointer, 0],
        Op::WdMeta { pointer, is_store } => [13, pointer, is_store as u64],
    }
}

/// Streaming FNV-1a over the ops' words, plus the op count.
#[derive(Clone, Copy)]
struct Digest {
    ops: u64,
    hash: u64,
}

impl Digest {
    fn new() -> Self {
        Self {
            ops: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn push(&mut self, op: &Op) {
        self.ops += 1;
        for word in words(op) {
            for byte in word.to_le_bytes() {
                self.hash = (self.hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    fn render(self) -> String {
        format!("{} {:016x}", self.ops, self.hash)
    }
}

fn generator((name, system, scale): Cell) -> TraceGenerator {
    TraceGenerator::new(by_name(name).expect("known profile"), system, scale)
}

fn digest(cell: Cell) -> Digest {
    let mut d = Digest::new();
    for op in generator(cell) {
        d.push(&op);
    }
    d
}

/// Whether this run rewrites the golden. The tests that only read it
/// then skip: comparing against a file mid-write would be a false
/// alarm.
fn updating() -> bool {
    std::env::var_os("AOS_UPDATE_GOLDEN").is_some()
}

/// The golden digests by cell label.
fn golden() -> BTreeMap<String, String> {
    std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; regenerate with AOS_UPDATE_GOLDEN=1")
        .lines()
        .map(|line| {
            // "<profile> <system> <scale> <ops> <hash>"
            let mut parts = line.rsplitn(3, ' ');
            let hash = parts.next().expect("hash");
            let ops = parts.next().expect("ops");
            let cell = parts.next().expect("cell label");
            (cell.to_string(), format!("{ops} {hash}"))
        })
        .collect()
}

fn expected(golden: &BTreeMap<String, String>, cell: Cell) -> &str {
    golden
        .get(&label(cell))
        .unwrap_or_else(|| panic!("no golden digest for {}", label(cell)))
}

#[test]
fn trace_digests_match_golden() {
    let rendered: String = cells()
        .into_iter()
        .map(|cell| format!("{} {}\n", label(cell), digest(cell).render()))
        .collect();
    if updating() {
        std::fs::write(GOLDEN, &rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; regenerate with AOS_UPDATE_GOLDEN=1");
    for (fresh, pinned) in rendered.lines().zip(golden.lines()) {
        assert_eq!(
            fresh, pinned,
            "generated trace drifted from the golden digest"
        );
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "golden covers a different set of cells"
    );
}

/// Generators that are alive at the same time on one thread, built in
/// the order A, B, A with different Zipf supports, and pulled round
/// robin: each must still produce its own golden trace, so no state
/// built for one generator leaks into another.
#[test]
fn interleaved_generators_keep_their_digests() {
    if updating() {
        return;
    }
    let golden = golden();
    let order: [Cell; 3] = [
        ("omnetpp", SafetyConfig::Aos, MATRIX_SCALE),
        ("gcc", SafetyConfig::Aos, MATRIX_SCALE),
        ("omnetpp", SafetyConfig::Aos, MATRIX_SCALE),
    ];
    let mut live: Vec<(Cell, TraceGenerator, Digest, bool)> = order
        .iter()
        .map(|&cell| (cell, generator(cell), Digest::new(), false))
        .collect();
    while live.iter().any(|(.., done)| !done) {
        for (i, (_, gen, d, done)) in live.iter_mut().enumerate() {
            // Uneven strides keep the three streams out of phase.
            for _ in 0..61 + 36 * i {
                match gen.next() {
                    Some(op) => d.push(&op),
                    None => {
                        *done = true;
                        break;
                    }
                }
            }
        }
    }
    for (cell, _, d, _) in live {
        assert_eq!(d.render(), expected(&golden, cell), "{}", label(cell));
    }

    // Built and drained one after another (A, B, A) on one thread.
    for cell in order {
        assert_eq!(
            digest(cell).render(),
            expected(&golden, cell),
            "{}",
            label(cell)
        );
    }
}

/// Two threads generating the same profiles in opposite orders agree
/// with the golden, so per-thread state cannot change what a thread
/// generates.
#[test]
fn threads_generate_identical_traces() {
    if updating() {
        return;
    }
    let golden = golden();
    let cells: Vec<Cell> = ["sphinx3", "hmmer", "omnetpp"]
        .iter()
        .flat_map(|&name| {
            [SafetyConfig::Baseline, SafetyConfig::Aos].map(|s| (name, s, GRID_SCALE))
        })
        .collect();
    let run = |reverse: bool| {
        let mut order = cells.clone();
        if reverse {
            order.reverse();
        }
        move || {
            order
                .into_iter()
                .map(|cell| (cell, digest(cell)))
                .collect::<Vec<_>>()
        }
    };
    let (forward, backward) = std::thread::scope(|s| {
        let a = s.spawn(run(false));
        let b = s.spawn(run(true));
        (a.join().expect("thread"), b.join().expect("thread"))
    });
    for (cell, d) in forward.into_iter().chain(backward) {
        assert_eq!(d.render(), expected(&golden, cell), "{}", label(cell));
    }
}
