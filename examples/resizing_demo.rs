//! Gradual HBT resizing, narrated: drive PAC collisions until rows
//! overflow and watch the table double its associativity while staying
//! fully available (paper §V-B, §V-F3, Fig. 10).
//!
//! ```text
//! cargo run --release --example resizing_demo
//! ```

use aos_core::hbt::{HashedBoundsTable, HbtConfig};
use aos_core::mcu::{AosException, McuConfig, McuOp, MemoryCheckUnit};
use aos_core::ptrauth::PointerLayout;
use aos_core::{AosProcess, ProcessConfig};

fn main() {
    // Part 1: the raw table mechanics, with a tiny 11-bit PAC space so
    // collisions are easy to provoke. Every bounds store and check is
    // an MCQ entry run through the memory check unit's FSMs, as
    // `AosProcess::malloc` and `load` run them.
    println!("== Part 1: raw table mechanics ==");
    let mut hbt = HashedBoundsTable::new(HbtConfig {
        pac_size: 11,
        initial_ways: 1,
        max_ways: 16,
        base_addr: 0x1000_0000,
        compressed: true,
    });
    let layout = PointerLayout::default();
    let mut mcu = MemoryCheckUnit::new(McuConfig::default(), layout);
    println!(
        "start: {} rows x {} way(s), {} bounds capacity per row",
        hbt.rows(),
        hbt.ways(),
        hbt.row_capacity()
    );
    let pac = 0x2A;
    let chunk = |i: u64| layout.compose(0x4000 + i * 0x1000, pac, 1);
    let mut stored = 0;
    let overflow = loop {
        let bndstr = McuOp::BndStr {
            pointer: chunk(stored),
            size: 64,
        };
        match mcu.run_sync(bndstr, &mut hbt) {
            Ok(_) => stored += 1,
            Err(e) => break e,
        }
    };
    assert_eq!(overflow, AosException::BoundsStoreFailure { pac });
    println!(
        "row {pac:#x} now holds {} records — full",
        hbt.row_occupancy(pac)
    );
    println!(
        "bndstr #{}: {overflow} -> OS begins a gradual resize",
        stored + 1
    );
    hbt.try_begin_resize().expect("below max associativity");
    println!(
        "resized to {} ways; migration in flight: {}",
        hbt.ways(),
        hbt.in_migration()
    );
    let retry = McuOp::BndStr {
        pointer: chunk(stored),
        size: 64,
    };
    mcu.run_sync(retry, &mut hbt).expect("space after resize");
    // The table stays checkable while rows migrate.
    let mut migrated = 0;
    while hbt.in_migration() {
        migrated += hbt.step_migration(256);
        for i in 0..=stored {
            let access = McuOp::Access {
                pointer: chunk(i) + 8,
                is_store: false,
            };
            mcu.run_sync(access, &mut hbt)
                .expect("live during migration");
        }
    }
    println!("migrated {migrated} rows row-by-row; all bounds still present\n");

    // Part 2: the same thing happening organically inside a process.
    println!("== Part 2: a malloc-heavy process (11-bit PACs) ==");
    let mut p = AosProcess::with_config(ProcessConfig {
        layout: PointerLayout::new(46, 11),
        hbt: HbtConfig {
            pac_size: 11,
            initial_ways: 1,
            max_ways: 64,
            base_addr: 0x3800_0000_0000,
            compressed: true,
        },
        ..ProcessConfig::default()
    });
    let mut ptrs = Vec::new();
    for i in 0..60_000u64 {
        ptrs.push(p.malloc(32).expect("heap has room"));
        if i % 10_000 == 9_999 {
            println!(
                "{:>6} live chunks: {} resizes, {} ways, table {} KiB",
                i + 1,
                p.resizes(),
                p.hbt().ways(),
                p.hbt().table_bytes() / 1024
            );
        }
    }
    // Everything is still checkable.
    for &ptr in ptrs.iter().step_by(1111) {
        p.load(ptr).expect("all bounds survive resizing");
    }
    println!("all {} chunks still bounds-checked correctly", ptrs.len());
}
