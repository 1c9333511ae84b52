//! Plain-text table emission for the figure catalogue.
//!
//! The `fig` driver prints the same rows/series the paper's figures
//! plot; this module keeps that output formatting consistent.

use std::fmt::Write as _;

/// A simple column-aligned table builder.
///
/// # Example
///
/// ```
/// use simcore::table::Table;
/// let mut t = Table::new(vec!["algo".into(), "matches".into()]);
/// t.row(vec!["SPAA".into(), "4.91".into()]);
/// t.row(vec!["MCM".into(), "6.72".into()]);
/// let text = t.to_text();
/// assert!(text.contains("SPAA"));
/// assert!(text.lines().count() >= 4); // header + rule + 2 rows
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Convenience constructor from string slices.
    pub fn with_columns(cols: &[&str]) -> Self {
        Table::new(cols.iter().map(|s| s.to_string()).collect())
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:>width$}", c, width = widths[i]);
            }
            out.push('\n');
        };
        write_row(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment() {
        let mut t = Table::with_columns(&["a", "bbbb"]);
        t.row(vec!["xxxxx".into(), "1".into()]);
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::with_columns(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn emptiness() {
        let t = Table::with_columns(&["a"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
