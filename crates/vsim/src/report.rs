//! Paper-vs-measured reporting shared by all experiments.

use std::fmt;
use std::time::Duration;

/// A virtual-time span in milliseconds, the unit of every timing row.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// One measured quantity, optionally paired with the paper's value.
#[derive(Debug, Clone)]
pub struct ExpRow {
    /// What was measured.
    pub label: String,
    /// The paper's reported value in `unit`, if the paper gives one.
    pub paper: Option<f64>,
    /// Our measured value in `unit`.
    pub measured: f64,
    /// Unit for both values (e.g. `"ms"`, `"bytes"`, `"msgs"`).
    pub unit: &'static str,
}

impl ExpRow {
    /// Creates a row with a paper reference value.
    pub fn with_paper(
        label: impl Into<String>,
        paper: f64,
        measured: f64,
        unit: &'static str,
    ) -> Self {
        ExpRow {
            label: label.into(),
            paper: Some(paper),
            measured,
            unit,
        }
    }

    /// Creates a measurement-only row (no directly comparable paper value).
    pub fn measured_only(label: impl Into<String>, measured: f64, unit: &'static str) -> Self {
        ExpRow {
            label: label.into(),
            paper: None,
            measured,
            unit,
        }
    }

    /// Percent deviation from the paper value, if one exists.
    pub fn deviation_pct(&self) -> Option<f64> {
        self.paper.map(|p| {
            if p == 0.0 {
                0.0
            } else {
                (self.measured - p) / p * 100.0
            }
        })
    }
}

/// A complete experiment report.
#[derive(Debug, Clone)]
pub struct ExpReport {
    /// Experiment id from DESIGN.md (e.g. `"EXP-4"`).
    pub id: &'static str,
    /// Human title, citing the paper section.
    pub title: String,
    /// Paper-vs-measured rows.
    pub rows: Vec<ExpRow>,
    /// Free-form notes (calibration caveats, shape observations).
    pub notes: Vec<String>,
}

impl ExpReport {
    /// Creates an empty report.
    pub fn new(id: &'static str, title: impl Into<String>) -> Self {
        ExpReport {
            id,
            title: title.into(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: ExpRow) -> &mut Self {
        self.rows.push(row);
        self
    }

    /// Appends a note.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Looks a row up by label (for assertions in tests).
    pub fn row(&self, label: &str) -> Option<&ExpRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Renders the report as a Markdown table (used for EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str("| measurement | paper | measured | deviation |\n");
        out.push_str("|---|---|---|---|\n");
        for r in &self.rows {
            let paper = r
                .paper
                .map(|p| format!("{:.2} {}", p, r.unit))
                .unwrap_or_else(|| "—".into());
            let dev = r
                .deviation_pct()
                .map(|d| format!("{d:+.1}%"))
                .unwrap_or_else(|| "—".into());
            out.push_str(&format!(
                "| {} | {} | {:.2} {} | {} |\n",
                r.label, paper, r.measured, r.unit, dev
            ));
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for n in &self.notes {
                out.push_str(&format!("- {n}\n"));
            }
        }
        out
    }
}

impl fmt::Display for ExpReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {}", self.id, self.title)?;
        writeln!(
            f,
            "   {:<44} {:>12} {:>12} {:>9}",
            "measurement", "paper", "measured", "dev"
        )?;
        for r in &self.rows {
            let paper = r
                .paper
                .map(|p| format!("{:.2} {}", p, r.unit))
                .unwrap_or_else(|| "—".into());
            let dev = r
                .deviation_pct()
                .map(|d| format!("{d:+.1}%"))
                .unwrap_or_else(|| "—".into());
            writeln!(
                f,
                "   {:<44} {:>12} {:>9.2} {} {:>7}",
                r.label, paper, r.measured, r.unit, dev
            )?;
        }
        for n in &self.notes {
            writeln!(f, "   note: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_computation() {
        let r = ExpRow::with_paper("x", 2.0, 2.2, "ms");
        assert!((r.deviation_pct().unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(ExpRow::measured_only("y", 1.0, "ms").deviation_pct(), None);
    }

    #[test]
    fn markdown_contains_rows_and_notes() {
        let mut rep = ExpReport::new("EXP-0", "demo");
        rep.push(ExpRow::with_paper("a", 1.0, 1.1, "ms"));
        rep.note("a note");
        let md = rep.to_markdown();
        assert!(md.contains("EXP-0"));
        assert!(md.contains("| a |"));
        assert!(md.contains("+10.0%"));
        assert!(md.contains("- a note"));
    }

    #[test]
    fn row_lookup() {
        let mut rep = ExpReport::new("EXP-0", "demo");
        rep.push(ExpRow::with_paper("alpha", 1.0, 1.0, "ms"));
        assert!(rep.row("alpha").is_some());
        assert!(rep.row("beta").is_none());
    }
}
