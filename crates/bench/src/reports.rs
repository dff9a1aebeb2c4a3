//! Every file of `results/` as a [`Report`]: its file name, the
//! campaign cells it reads, and a renderer over their stats.
//!
//! [`render_all`] runs the union of the chosen reports' cells once
//! through the campaign runner ([`aos_core::experiment::campaign`]) —
//! one worker per available core (or `AOS_CAMPAIGN_THREADS`) — and
//! renders every report from the shared, input-ordered stats, so
//! Figs. 14, 16, 17 and 18 read the same SPEC grid instead of each
//! simulating it again. [`write()`] puts the rendered files in a
//! directory; [`check`] diffs them byte for byte against one. `aos
//! repro` drives all eleven reports; `aos fig <n>` and `aos table <n>`
//! render one, limited to the cells that report needs.

use std::fmt::Write as _;
use std::path::Path;

use aos_core::experiment::campaign::{
    matrix, run_campaign, CampaignCell, CampaignOptions, CampaignReport, CellResult,
};
use aos_core::experiment::SystemUnderTest;
use aos_core::heap::profile::UsageProfile;
use aos_core::hwcost::table_i;
use aos_core::isa::SafetyConfig;
use aos_core::sim::{MachineConfig, RunStats};
use aos_core::workloads::microbench::pac_distribution;
use aos_core::workloads::profile::{REAL_WORLD, SPEC2006};
use aos_core::workloads::schedule::run_full_schedule;
use aos_core::workloads::WorkloadProfile;
use aos_util::par::{effective_threads, ordered_parallel_map};
use aos_util::stats::geomean;

use crate::ratio;

/// One file of `results/`.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// The file name under `results/`.
    pub file: &'static str,
    /// The campaign cells the report reads at a scale.
    cells: fn(f64) -> Vec<CampaignCell>,
    /// Renders the report at a scale from a grid holding its cells.
    renderer: fn(f64, &Grid) -> String,
}

/// Every report, in `results/` file-name order.
#[rustfmt::skip]
pub const ALL: [Report; 11] = [
    Report { file: "fig11_pac_distribution.txt", cells: none, renderer: |s, _| fig11(s) },
    Report { file: "fig14_exec_time.txt", cells: spec_standard, renderer: fig14 },
    Report { file: "fig15_ablation.txt", cells: spec_fig15, renderer: fig15 },
    Report { file: "fig16_inst_mix.txt", cells: spec_aos, renderer: fig16 },
    Report { file: "fig17_bwb.txt", cells: spec_aos, renderer: fig17 },
    Report { file: "fig18_traffic.txt", cells: spec_standard, renderer: fig18 },
    Report { file: "realworld_exec_time.txt", cells: real_world_standard, renderer: real_world },
    Report { file: "table1_hw_overhead.txt", cells: none, renderer: |_, _| table1() },
    Report { file: "table2_spec_profiles.txt", cells: none, renderer: |s, _| table2(s) },
    Report { file: "table3_realworld_profiles.txt", cells: none, renderer: |s, _| table3(s) },
    Report { file: "table4_sim_params.txt", cells: none, renderer: |_, _| table4() },
];

/// The report whose file name starts with `prefix` (`"fig14_"`,
/// `"table2_"`).
pub fn named(prefix: &str) -> Option<Report> {
    ALL.into_iter()
        .find(|report| report.file.starts_with(prefix))
}

impl Report {
    /// Renders this report alone, simulating only the cells it reads.
    pub fn render(self, scale: f64) -> String {
        (self.renderer)(scale, &Grid::run(&[self], scale))
    }
}

fn none(_: f64) -> Vec<CampaignCell> {
    Vec::new()
}

fn spec_standard(scale: f64) -> Vec<CampaignCell> {
    matrix(SPEC2006.iter().copied(), standard_systems(scale))
}

fn spec_fig15(scale: f64) -> Vec<CampaignCell> {
    matrix(SPEC2006.iter().copied(), fig15_systems(scale))
}

fn spec_aos(scale: f64) -> Vec<CampaignCell> {
    matrix(SPEC2006.iter().copied(), [aos(scale)])
}

fn real_world_standard(scale: f64) -> Vec<CampaignCell> {
    matrix(REAL_WORLD.iter().copied(), standard_systems(scale))
}

/// The distinct cells `reports` read at `scale`, in first-read order.
fn union_cells(reports: &[Report], scale: f64) -> Vec<CampaignCell> {
    let mut cells: Vec<CampaignCell> = Vec::new();
    for cell in reports.iter().flat_map(|r| (r.cells)(scale)) {
        if !cells.iter().any(|c| is_cell(c, &cell.profile, &cell.sut)) {
            cells.push(cell);
        }
    }
    cells
}

fn is_cell(cell: &CampaignCell, profile: &WorkloadProfile, sut: &SystemUnderTest) -> bool {
    cell.profile.name == profile.name && cell.sut == *sut
}

/// The campaign over [`union_cells`]: each cell simulated once.
struct Grid(CampaignReport);

impl Grid {
    fn run(reports: &[Report], scale: f64) -> Grid {
        Grid(run_campaign(
            &union_cells(reports, scale),
            &CampaignOptions::default(),
        ))
    }

    /// The stats of `profile` on `sut`.
    ///
    /// # Panics
    ///
    /// When that cell is missing or failed: the report reading it
    /// would be wrong.
    fn get(&self, profile: &WorkloadProfile, sut: &SystemUnderTest) -> &RunStats {
        let result = self
            .0
            .results
            .iter()
            .find(|r| is_cell(&r.cell, profile, sut));
        result.and_then(CellResult::stats).unwrap_or_else(|| {
            let error = result
                .and_then(CellResult::error)
                .unwrap_or("not in the grid");
            panic!("campaign cell {}/{}: {error}", profile.name, sut.safety)
        })
    }
}

/// Renders `reports` at `scale`, in `reports` order, from one
/// campaign over the distinct cells they read.
pub fn render_all(reports: &[Report], scale: f64) -> Vec<(Report, String)> {
    let grid = Grid::run(reports, scale);
    reports
        .iter()
        .map(|&report| (report, (report.renderer)(scale, &grid)))
        .collect()
}

/// Writes each rendered report into `dir` (created if missing).
///
/// # Errors
///
/// The first I/O error creating the directory or writing a file.
pub fn write(dir: &Path, rendered: &[(Report, String)]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (report, text) in rendered {
        std::fs::write(dir.join(report.file), text)?;
    }
    Ok(())
}

/// Diffs each rendered report byte for byte against its copy in `dir`
/// and describes every mismatch — `<file>: first difference at line
/// <n>` or `<file>: missing` — in `rendered` order (empty = all equal).
pub fn check(dir: &Path, rendered: &[(Report, String)]) -> Vec<String> {
    rendered
        .iter()
        .filter_map(
            |(report, text)| match std::fs::read(dir.join(report.file)) {
                Err(_) => Some(format!("{}: missing", report.file)),
                Ok(expected) => first_differing_line(&expected, text.as_bytes())
                    .map(|line| format!("{}: first difference at line {line}", report.file)),
            },
        )
        .collect()
}

/// The first line (1-based) on which `a` and `b` differ, counting a
/// line one side lacks as a difference; `None` when they are equal.
fn first_differing_line(a: &[u8], b: &[u8]) -> Option<usize> {
    if a == b {
        return None;
    }
    let mut a_lines = a.split_inclusive(|&c| c == b'\n');
    let mut b_lines = b.split_inclusive(|&c| c == b'\n');
    (1..).find(|_| a_lines.next() != b_lines.next())
}

fn rule_line(out: &mut String, header: &str) {
    let _ = writeln!(out, "{}", "-".repeat(header.len()));
}

/// Runs the allocation schedules of all `profiles` in parallel (the
/// Tables II/III substrate — no `Machine`, so no campaign cells).
fn parallel_schedules(profiles: &[WorkloadProfile], scale: f64) -> Vec<UsageProfile> {
    ordered_parallel_map(profiles, effective_threads(None), |_, p| {
        run_full_schedule(p, scale)
    })
}

/// The five standard systems at one scale, figure plotting order.
fn standard_systems(scale: f64) -> [SystemUnderTest; 5] {
    SafetyConfig::ALL.map(|s| SystemUnderTest::scaled(s, scale))
}

fn aos(scale: f64) -> SystemUnderTest {
    SystemUnderTest::scaled(SafetyConfig::Aos, scale)
}

/// Fig. 15's systems: the Baseline divisor, then AOS with neither,
/// either and both of the L1-B cache and bounds compression (the last
/// is the standard AOS system).
fn fig15_systems(scale: f64) -> [SystemUnderTest; 5] {
    let variant = |l1b, compression| SystemUnderTest {
        l1b,
        compression,
        ..aos(scale)
    };
    [
        SystemUnderTest::scaled(SafetyConfig::Baseline, scale),
        variant(false, false),
        variant(true, false),
        variant(false, true),
        variant(true, true),
    ]
}

/// A report's title line, its column header and a rule as long as the
/// header.
fn heading(title: &str, header: &str) -> String {
    format!("{title}\n{header}\n{}\n", "-".repeat(header.len()))
}

/// The normalized columns of Figs. 14 and 18 and the real-world table.
const SYSTEM_COLUMNS: [&str; 4] = ["Watchdog", "PA", "AOS", "PA+AOS"];

/// The table Figs. 14, 15, 18 and the real-world table share: one row
/// per profile of `systems[1..]`'s `metric` over the `systems[0]`
/// divisor's, then the geomean row. With `resizes`, a last column
/// counts that system's HBT resizes (Fig. 14).
fn normalized_table(
    grid: &Grid,
    title: &str,
    columns: [&str; 4],
    profiles: &[WorkloadProfile],
    systems: &[SystemUnderTest; 5],
    metric: fn(&RunStats) -> u64,
    resizes: Option<SystemUnderTest>,
) -> String {
    let [a, b, c, d] = columns;
    let mut header = format!("{:<12} {a:>8} {b:>8} {c:>8} {d:>8}", "name");
    if resizes.is_some() {
        header.push_str(&format!(" {:>6}", "resz"));
    }
    let mut out = heading(title, &header);
    let mut normalized: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
    for profile in profiles {
        let base = metric(grid.get(profile, &systems[0])).max(1) as f64;
        let mut row = String::new();
        for (sut, column) in systems[1..].iter().zip(&mut normalized) {
            let value = metric(grid.get(profile, sut)) as f64 / base;
            column.push(value);
            row.push_str(&ratio(value));
            row.push(' ');
        }
        if let Some(sut) = &resizes {
            let _ = write!(row, "{:>5}", grid.get(profile, sut).hbt_resizes);
        }
        let _ = writeln!(out, "{:<12} {row}", profile.name);
    }
    let _ = write!(out, "{:<12}", "Geomean");
    for column in &normalized {
        let _ = write!(out, " {}", ratio(geomean(column)));
    }
    out.push('\n');
    out
}

/// Fig. 11: the QARMA PAC distribution study.
fn fig11(scale: f64) -> String {
    let allocations = (1_000_000.0 * scale) as u64;
    let mut out = String::new();
    let _ = writeln!(out, "== Fig. 11: PAC distributions by QARMA ==");
    let _ = writeln!(out, "allocations: {allocations}, PAC size: 16 bits");
    let histogram = pac_distribution(allocations, 16);
    let summary = histogram.occupancy_summary();
    let _ = writeln!(out, "measured: {summary}");
    let _ = writeln!(out, "paper:    Avg:16.0, Max:36, Min:3, Stdev: 3.99");
    let max = summary.max as usize;
    let mut occupancy = vec![0u64; max + 1];
    for count in histogram.iter() {
        occupancy[count as usize] += 1;
    }
    let _ = writeln!(out, "\nbins with N occurrences (N: count):");
    let peak = occupancy.iter().copied().max().unwrap_or(1).max(1);
    for (n, &bins) in occupancy.iter().enumerate() {
        if bins == 0 {
            continue;
        }
        let bar = "#".repeat((bins * 60 / peak) as usize);
        let _ = writeln!(out, "{n:>4}: {bins:>6} {bar}");
    }
    out
}

/// The paper's Table I values: (name, size label, area, access,
/// energy, leakage).
pub const TABLE1_PAPER: [(&str, &str, f64, f64, f64, f64); 4] = [
    ("MCQ", "1.3KB", 0.0096, 0.1383, 0.0014, 3.2269),
    ("BWB", "384B", 0.00285, 0.12755, 0.00077, 1.10712),
    ("L1-B Cache", "32KB", 0.1573, 0.2984, 0.0347, 58.295),
    (
        "L1-D Cache (for reference)",
        "64KB",
        0.2628,
        0.3217,
        0.0436,
        122.69,
    ),
];

/// Table I: hardware overhead at 45 nm.
fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table I: hardware overhead (45nm) ==");
    let header = format!(
        "{:<28} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "Structure", "Size", "Area (mm2)", "Access (ns)", "Energy (pJ)", "Leakage (mW)"
    );
    let _ = writeln!(out, "{header}");
    rule_line(&mut out, &header);
    for (row, paper) in table_i().iter().zip(TABLE1_PAPER.iter()) {
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12.5} {:>12.5} {:>12.5} {:>12.4}   (measured)",
            row.name,
            paper.1,
            row.cost.area_mm2,
            row.cost.access_ns,
            row.cost.dynamic_energy_pj,
            row.cost.leakage_mw
        );
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12.5} {:>12.5} {:>12.5} {:>12.4}   (paper)",
            "", "", paper.2, paper.3, paper.4, paper.5
        );
    }
    out
}

/// Table II: SPEC 2006 memory usage profiles.
fn table2(scale: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table II: memory usage profiles for SPEC 2006 (scale {scale}) =="
    );
    let header = format!(
        "{:<12} {:>12} {:>12} {:>12}   {:>12} {:>12} {:>12}",
        "Name", "Max Active", "#Allocation", "Dealloc.", "(paper MA)", "(paper #A)", "(paper #D)"
    );
    let _ = writeln!(out, "{header}");
    rule_line(&mut out, &header);
    let usages = parallel_schedules(SPEC2006, scale);
    for (profile, usage) in SPEC2006.iter().zip(&usages) {
        let _ = writeln!(
            out,
            "{:<12} {:>12} {:>12} {:>12}   {:>12} {:>12} {:>12}",
            profile.name,
            usage.max_live,
            usage.allocations,
            usage.deallocations,
            profile.full_max_active,
            profile.full_allocations,
            profile.full_deallocations
        );
    }
    let _ = writeln!(
        out,
        "\nNote: the paper's soplex row (peak 140 with 64 930 never-freed chunks) is\n\
         internally inconsistent; the measured peak is the arithmetic minimum.\n\
         See EXPERIMENTS.md."
    );
    out
}

/// Table III: real-world benchmark profiles.
fn table3(scale: f64) -> String {
    const DESCRIPTIONS: [(&str, &str); 6] = [
        ("pbzip2", "Compress 1.4GB file, 8 threads"),
        ("pigz", "Compress 1.4GB file, 8 threads"),
        ("axel", "Download 1.4GB file, 8 threads"),
        ("md5sum", "Calculate MD5 hash, 1.4GB file"),
        ("apache", "Apache bench, 10K req."),
        ("mysql", "Sysbench, 100K req."),
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table III: memory usage profiles, real-world benchmarks (scale {scale}) =="
    );
    let header = format!(
        "{:<8} {:<32} {:>10} {:>10} {:>10}",
        "Name", "Description", "Max", "#Alloc.", "Dealloc."
    );
    let _ = writeln!(out, "{header}");
    rule_line(&mut out, &header);
    let usages = parallel_schedules(REAL_WORLD, scale);
    for (profile, usage) in REAL_WORLD.iter().zip(&usages) {
        let desc = DESCRIPTIONS
            .iter()
            .find(|(n, _)| *n == profile.name)
            .map(|(_, d)| *d)
            .unwrap_or("");
        let _ = writeln!(
            out,
            "{:<8} {:<32} {:>10} {:>10} {:>10}",
            profile.name, desc, usage.max_live, usage.allocations, usage.deallocations
        );
    }
    out
}

/// Table IV: the simulation parameters.
pub fn table4() -> String {
    format!(
        "== Table IV: simulation parameters ==\n{}",
        MachineConfig::table_iv(SafetyConfig::Aos).describe()
    )
}

/// Fig. 14: normalized execution time, with the §IX-A1 resize counts.
fn fig14(scale: f64, grid: &Grid) -> String {
    normalized_table(
        grid,
        &format!("== Fig. 14: normalized execution time (scale {scale}) =="),
        SYSTEM_COLUMNS,
        SPEC2006,
        &standard_systems(scale),
        |stats| stats.cycles,
        Some(aos(scale)),
    ) + "paper:       Watchdog +19.4%, PA ~0% (hmmer/omnetpp ~10%), AOS +8.4%,\n\
         PA+AOS +1.5% over AOS; resizes: sphinx3 1, omnetpp 2 (at scale 1.0)\n"
}

/// Fig. 15: the L1-B / bounds-compression ablation.
fn fig15(scale: f64, grid: &Grid) -> String {
    normalized_table(
        grid,
        &format!("== Fig. 15: L1-B cache and bounds-compression ablation (scale {scale}) =="),
        ["No-opt", "L1-B", "Compr", "L1-B+C"],
        SPEC2006,
        &fig15_systems(scale),
        |stats| stats.cycles,
        None,
    ) + "paper: both optimizations matter; compression helps more (reduces L2\n\
         pollution too); gcc/omnetpp drop 60%/68% with both vs none\n"
}

/// Fig. 16: instruction-mix statistics.
fn fig16(scale: f64, grid: &Grid) -> String {
    let mut out = heading(
        &format!(
            "== Fig. 16: instructions of interest per 1B instructions, in millions (scale {scale}) =="
        ),
        &format!(
            "{:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
            "name", "UnsLoad", "UnsStore", "SigLoad", "SigStore", "bnd*", "pac*", "sig%"
        ),
    );
    for profile in SPEC2006 {
        let mix = grid.get(profile, &aos(scale)).mix;
        let m = 1e6;
        let _ = writeln!(
            out,
            "{:<12} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>7.1}%",
            profile.name,
            mix.per_billion(mix.unsigned_loads) / m,
            mix.per_billion(mix.unsigned_stores) / m,
            mix.per_billion(mix.signed_loads) / m,
            mix.per_billion(mix.signed_stores) / m,
            mix.per_billion(mix.bnd_ops) / m,
            mix.per_billion(mix.pac_ops) / m,
            mix.signed_access_fraction() * 100.0
        );
    }
    out + "paper: bzip2/gcc/hmmer/lbm have >80% signed accesses; hmmer >99%;\n\
           gcc/omnetpp show the largest bndstr/bndclr and pac* counts\n"
}

/// Fig. 17: bounds-table accesses per check and BWB hit rate.
fn fig17(scale: f64, grid: &Grid) -> String {
    let mut out = heading(
        &format!("== Fig. 17: bounds-table accesses and BWB hit rate (scale {scale}) =="),
        &format!(
            "{:<12} {:>12} {:>10} {:>10}",
            "name", "#Acc/check", "BWB hit", "HBT ways"
        ),
    );
    for profile in SPEC2006 {
        let stats = grid.get(profile, &aos(scale));
        let _ = writeln!(
            out,
            "{:<12} {:>12.3} {:>9.1}% {:>10}",
            profile.name,
            stats.mcu.accesses_per_check(),
            stats.bwb.hit_rate() * 100.0,
            stats.hbt_ways
        );
    }
    out + "paper: ~1 access per instruction for most workloads (omnetpp highest,\n\
           1.17); BWB hit rate above 80% for most workloads\n"
}

/// Fig. 18: normalized network traffic.
fn fig18(scale: f64, grid: &Grid) -> String {
    normalized_table(
        grid,
        &format!("== Fig. 18: normalized network traffic (scale {scale}) =="),
        SYSTEM_COLUMNS,
        SPEC2006,
        &standard_systems(scale),
        |stats| stats.traffic.total_bytes(),
        None,
    ) + "paper: Watchdog +31% average, PA+AOS +18%; gcc/povray/omnetpp are the\n\
         outliers (4.2x / 4.5x / 3.4x for Watchdog)\n"
}

/// Beyond the paper: the Fig. 14 experiment over the Table III
/// real-world workload models.
fn real_world(scale: f64, grid: &Grid) -> String {
    normalized_table(
        grid,
        &format!(
            "== Beyond the paper: normalized execution time, real-world models (scale {scale}) =="
        ),
        SYSTEM_COLUMNS,
        REAL_WORLD,
        &standard_systems(scale),
        |stats| stats.cycles,
        None,
    ) + "(The paper profiles these six programs in Table III but does not\n\
         simulate them; this extends the Fig. 14 methodology to their models.)\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use aos_util::scratch::ScratchDir;

    fn report(prefix: &str) -> Report {
        named(prefix).expect("a report with that prefix")
    }

    #[test]
    fn reports_are_found_by_file_prefix() {
        assert_eq!(report("fig16_").file, "fig16_inst_mix.txt");
        assert_eq!(report("table2_").file, "table2_spec_profiles.txt");
        // `aos fig 1` must not pick Fig. 11 or Figs. 14-18.
        assert!(named("fig1_").is_none());
    }

    #[test]
    fn static_reports_render() {
        let t1 = report("table1_").render(1.0);
        assert!(t1.contains("MCQ"));
        assert!(t1.contains("(paper)"));
        assert!(table4().contains("8-wide"));
    }

    #[test]
    fn fig11_renders_at_tiny_scale() {
        let s = report("fig11_").render(0.01);
        assert!(s.contains("measured"));
        assert!(s.contains("allocations: 10000"));
    }

    #[test]
    fn the_union_simulates_each_of_its_158_cells_once() {
        let cells = union_cells(&ALL, 1.0);
        // SPEC2006 x (5 standard + 3 non-default Fig. 15 systems) and
        // the real-world models x 5.
        assert_eq!(cells.len(), 16 * 8 + 6 * 5);
        for (i, a) in cells.iter().enumerate() {
            assert!(
                !cells[i + 1..]
                    .iter()
                    .any(|b| is_cell(b, &a.profile, &a.sut)),
                "{} appears twice",
                a.label()
            );
        }
        // Figs. 14, 16, 17 and 18 read nothing beyond Fig. 14's grid.
        let spec = ["fig14_", "fig16_", "fig17_", "fig18_"].map(report);
        assert_eq!(union_cells(&spec, 1.0).len(), 16 * 5);
        assert_eq!(union_cells(&[report("fig16_")], 1.0).len(), 16);
        assert!(union_cells(&[report("table2_"), report("fig11_")], 1.0).is_empty());
    }

    #[test]
    fn check_passes_on_its_own_output_and_names_every_difference() {
        let rendered = render_all(&["fig16_", "fig17_", "table1_"].map(report), 0.002);
        assert!(rendered[0].1.contains("hmmer") && rendered[1].1.contains("omnetpp"));
        let dir = ScratchDir::new("reports-check").expect("scratch dir");
        write(dir.path(), &rendered).expect("write reports");
        assert_eq!(check(dir.path(), &rendered), Vec::<String>::new());

        // One byte changed on line 4 of Fig. 17, and Table I deleted.
        let fig17 = dir.join("fig17_bwb.txt");
        let mut bytes = std::fs::read(&fig17).expect("read fig17");
        let line4 = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(2)
            .map(|(i, _)| i + 1)
            .expect("a fourth line");
        bytes[line4] ^= 1;
        std::fs::write(&fig17, &bytes).expect("edit fig17");
        std::fs::remove_file(dir.join("table1_hw_overhead.txt")).expect("delete table1");

        assert_eq!(
            check(dir.path(), &rendered),
            [
                "fig17_bwb.txt: first difference at line 4",
                "table1_hw_overhead.txt: missing",
            ]
        );
    }

    #[test]
    fn a_truncated_file_differs_on_the_first_line_it_lacks() {
        assert_eq!(first_differing_line(b"a\nb\n", b"a\nb\n"), None);
        assert_eq!(first_differing_line(b"a\nb\n", b"a\n"), Some(2));
        assert_eq!(first_differing_line(b"a\nb", b"a\nb\n"), Some(2));
        assert_eq!(first_differing_line(b"", b"x"), Some(1));
    }
}
