//! Quickstart: the functional always-on machine in twenty lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use aos_core::{AosProcess, MemorySafetyError};

fn main() {
    let mut process = AosProcess::new();

    // malloc returns a *signed* pointer: PAC and AHC live in the upper
    // bits and travel with it through arithmetic.
    let p = process.malloc(64).expect("allocation fits");
    println!("signed pointer: {p:#018x}");
    println!("raw address:    {:#018x}", process.layout().address(p));
    println!("PAC:            {:#06x}", process.layout().pac(p));
    println!("AHC:            {}", process.layout().ahc(p));

    // Ordinary use just works; every access is bounds checked by the
    // memory check unit.
    for i in 0..8 {
        process.store(p + i * 8, i * 100).expect("in bounds");
    }
    println!("p[3] = {}", process.load(p + 24).expect("in bounds"));

    // One past the end: caught.
    match process.load(p + 64) {
        Err(MemorySafetyError::OutOfBounds { pointer, .. }) => {
            println!("OOB load via {pointer:#x}: detected");
        }
        other => panic!("expected an OOB error, got {other:?}"),
    }

    // Free locks the pointer: it stays signed, but its bounds are gone.
    process.free(p).expect("valid free");
    match process.load(p) {
        Err(MemorySafetyError::UseAfterFree { .. }) => {
            println!("use-after-free: detected");
        }
        other => panic!("expected a UAF error, got {other:?}"),
    }
    match process.free(p) {
        Err(MemorySafetyError::InvalidFree { .. }) => {
            println!("double free: detected");
        }
        other => panic!("expected an invalid-free error, got {other:?}"),
    }

    println!(
        "\nBWB hit rate so far: {:.0}%",
        process.mcu().bwb_stats().hit_rate() * 100.0
    );
    println!(
        "HBT: {} ways, {} bytes",
        process.hbt().ways(),
        process.hbt().table_bytes()
    );
}
