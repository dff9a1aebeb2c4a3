//! The FNV-1a digest of a run's simulated statistics, shared by the
//! golden tests that pin simulator output.

use aos_sim::RunStats;

/// The `Debug` text of every simulated field, as `name: value, `
/// pairs in declaration order. The destructure names every field and
/// drops only `telemetry`, so a field added to `RunStats` fails to
/// compile here until it is hashed or deliberately dropped.
macro_rules! simulated_fields {
    ($stats:expr; $($field:ident),* $(,)?) => {{
        let RunStats { $($field,)* telemetry: _ } = $stats;
        let mut text = String::new();
        $(text.push_str(&format!("{}: {:?}, ", stringify!($field), $field));)*
        text
    }};
}

pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a over the simulated fields' `Debug` text.
pub fn digest(stats: &RunStats) -> u64 {
    fnv1a(&simulated_fields!(stats;
        cycles, retired_ops, mix, l1d, l1b, l2, traffic, mcu, bwb,
        hbt_resizes, hbt_ways, violations, charged_mispredicts,
        waived_mispredicts, stall_cycles, stalls_rob, stalls_lsq,
        stalls_mcq, lsq_replays, flushes,
    ))
}

/// One golden line per run: `label cycles retired_ops digest`.
pub fn golden_line(label: &str, stats: &RunStats) -> String {
    format!(
        "{label} {} {} {:016x}\n",
        stats.cycles,
        stats.retired_ops,
        digest(stats)
    )
}

/// Diffs one rendered line per run against the golden file at `path`
/// (or rewrites it under `AOS_UPDATE_GOLDEN`).
pub fn check_golden(path: &str, rendered: &str, what: &str) {
    if std::env::var_os("AOS_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing; regenerate with AOS_UPDATE_GOLDEN=1");
    for (fresh, pinned) in rendered.lines().zip(golden.lines()) {
        assert_eq!(fresh, pinned, "{what} drifted from the golden digest");
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "golden covers a different set of cells"
    );
}
