//! The paper's evaluation as code: [`reports`] renders every file of
//! `results/` — Figs. 11 and 14–18, Tables I–IV and the beyond-paper
//! real-world table — from one campaign over the union of the cells
//! the reports read, and diffs the rendered files byte for byte
//! against a directory. The `aos` CLI drives it:
//!
//! ```text
//! aos repro --out results      # write all eleven files
//! aos repro --check results    # exit 1 naming each file that differs
//! aos fig 14 --scale 0.01      # one report, only the cells it reads
//! ```

pub mod reports;

/// Formats a ratio column.
pub fn ratio(value: f64) -> String {
    format!("{value:>8.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(1.0), "   1.000");
    }
}
