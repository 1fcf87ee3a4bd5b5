//! Plain-text rendering for tables, figures and CSV export.

use hog_sim_core::metrics::StepSeries;
use hog_sim_core::SimTime;
use std::fmt::Write as _;

/// A simple left-aligned text table.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(r[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(line, "{:<w$}  ", cell, w = widths[c]);
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * cols;
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// ASCII line chart of a step series (one value column over time), for
/// regenerating Figure 5 in a terminal.
pub fn ascii_series(
    series: &StepSeries,
    from: SimTime,
    to: SimTime,
    width: usize,
    height: usize,
) -> String {
    let pts = series.resample(from, to, width);
    if pts.is_empty() {
        return String::from("(empty series)\n");
    }
    let max = pts
        .iter()
        .map(|&(_, v)| v)
        .fold(f64::MIN, f64::max)
        .max(1.0);
    let min = 0.0f64;
    let mut grid = vec![vec![' '; width]; height];
    for (x, &(_, v)) in pts.iter().enumerate() {
        let frac = ((v - min) / (max - min)).clamp(0.0, 1.0);
        let y = ((height - 1) as f64 * frac).round() as usize;
        grid[height - 1 - y][x] = '*';
    }
    let mut out = String::new();
    let _ = writeln!(out, "{max:>8.0} ┐");
    for row in grid {
        let line: String = row.into_iter().collect();
        let _ = writeln!(out, "         │{line}");
    }
    let _ = writeln!(out, "{:>8.0} └{}", min, "─".repeat(width));
    let _ = writeln!(
        out,
        "          {:<10} … {:>10}",
        format!("{:.0}s", from.as_secs_f64()),
        format!("{:.0}s", to.as_secs_f64())
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["bin", "jobs"]);
        t.row(&["1".into(), "38".into()]);
        t.row(&["2".into(), "16".into()]);
        let s = t.render();
        assert!(s.contains("bin"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn csv_escapes() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["x,y".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = TextTable::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn ascii_chart_has_dimensions() {
        let mut s = StepSeries::new();
        s.record(SimTime::ZERO, 10.0);
        s.record(SimTime::from_secs(50), 55.0);
        let art = ascii_series(&s, SimTime::ZERO, SimTime::from_secs(100), 40, 10);
        assert!(art.lines().count() >= 12);
        assert!(art.contains('*'));
    }
}
