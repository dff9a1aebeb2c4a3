//! The paper's headline numbers, pinned so a timing-model change that
//! moves them fails the suite:
//!
//! - the four Fig. 14 per-system geomeans of normalized execution
//!   time, at scale 0.02, to three decimals (against a golden file);
//! - the §IX-A1 gradual-resize counts on AOS at full scale: sphinx3
//!   resizes its HBT once, omnetpp twice (the paper's own numbers),
//!   and a digest of every simulated `RunStats` field of those two
//!   runs (against a second golden file). They are the only cells with
//!   a gradual resize, a retried bounds store and long waits for a ROB
//!   commit, which the scale-0.01 `sim_stats_golden` never reaches.
//!
//! A change that moves the geomeans or the full-scale runs on purpose
//! regenerates both goldens with:
//!
//! ```text
//! AOS_UPDATE_GOLDEN=1 cargo test --test paper_scorecard
//! ```
//!
//! and must regenerate `results/` and the EXPERIMENTS.md scorecard in
//! the same change.

mod run_stats_digest;

use aos_core::experiment::campaign::{matrix, run_campaign, CampaignOptions};
use aos_core::experiment::SystemUnderTest;
use aos_isa::SafetyConfig;
use aos_workloads::profile::by_name;

const GOLDEN: &str = "tests/golden/paper_scorecard.txt";
const RESIZE_GOLDEN: &str = "tests/golden/hbt_resize_digests.txt";
const FIG14_SCALE: f64 = 0.02;

/// The Fig. 14 geomean row, one `system value` line per system in the
/// figure's column order, read off the figure reproduction itself.
fn fig14_geomeans() -> String {
    let figure = aos_bench::reports::named("fig14_")
        .expect("the Fig. 14 report")
        .render(FIG14_SCALE);
    let row = figure
        .lines()
        .find_map(|line| line.strip_prefix("Geomean"))
        .expect("fig14 prints a Geomean row");
    let values: Vec<&str> = row.split_whitespace().collect();
    let systems = ["Watchdog", "PA", "AOS", "PA+AOS"];
    assert_eq!(values.len(), systems.len(), "geomean row: {row:?}");
    let mut out = format!("# Fig. 14 geomean normalized execution time, scale {FIG14_SCALE}\n");
    for (system, value) in systems.iter().zip(values) {
        out.push_str(&format!("{system} {value}\n"));
    }
    out
}

#[test]
fn fig14_geomeans_match_golden() {
    let actual = fig14_geomeans();
    if std::env::var_os("AOS_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &actual).expect("write golden");
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; regenerate with AOS_UPDATE_GOLDEN=1");
    assert_eq!(
        actual, golden,
        "the Fig. 14 geomeans moved; if intentional, rerun with \
         AOS_UPDATE_GOLDEN=1 and regenerate results/"
    );
}

/// §IX-A1: at full scale the AOS HBT grows by gradual resize exactly
/// as often as the paper reports, and every simulated statistic of
/// those runs stays on its pinned digest. The two cells are the
/// slowest in the suite, so they share the campaign runner's two
/// workers.
#[test]
fn hbt_resize_counts_match_the_paper() {
    let expected = [("sphinx3", 1), ("omnetpp", 2)];
    let cells = matrix(
        expected.iter().map(|(name, _)| *by_name(name).unwrap()),
        [SystemUnderTest::standard(SafetyConfig::Aos)],
    );
    let report = run_campaign(&cells, &CampaignOptions::with_threads(2));
    let mut rendered = String::new();
    for ((name, resizes), result) in expected.iter().zip(&report.results) {
        let stats = result.stats().expect("resize cell completes");
        assert_eq!(stats.hbt_resizes, *resizes, "{name} HBT resizes");
        assert_eq!(stats.violations, 0, "{name} is benign");
        rendered.push_str(&run_stats_digest::golden_line(&format!("{name} AOS 1"), stats));
    }
    run_stats_digest::check_golden(RESIZE_GOLDEN, &rendered, "full-scale resize run");
}
