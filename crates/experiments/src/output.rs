//! Table printing and CSV export.

use crate::cli::Options;
use crate::error::ExperimentError;

/// Print a section header for one experiment.
pub fn heading(title: &str) {
    println!();
    println!("== {title} ==");
}

/// A simple column-aligned text table that can also be dumped as CSV.
pub struct Table {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table; `name` becomes the CSV file stem.
    pub fn new(name: &str, columns: &[&str]) -> Table {
        Table {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Print aligned to stdout and, if `--out` was given, write
    /// `<out>/<name>.csv` atomically through the artifact store. A
    /// failed CSV write fails the command: figure CSVs are the whole
    /// point of `--out`, and a run that silently dropped one used to
    /// exit 0 looking successful.
    pub fn emit(&self, opts: &Options) -> Result<(), ExperimentError> {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (w, cell) in widths.iter().zip(cells) {
                s.push_str(&format!("{cell:>w$}  ", w = w));
            }
            s.trim_end().to_string()
        };
        println!("{}", line(&self.columns));
        for row in &self.rows {
            println!("{}", line(row));
        }
        if let Some(dir) = &opts.out {
            // Atomic replace: a crash (or injected disk fault) mid-emit
            // leaves the previous CSV intact, never a torn one.
            opts.storage_at(dir)
                .put_atomic(&format!("{}.csv", self.name), self.to_csv().as_bytes())?;
        }
        Ok(())
    }

    /// The CSV rendering (header line plus one line per row).
    pub(crate) fn to_csv(&self) -> String {
        let mut s = String::new();
        s.push_str(&self.columns.join(","));
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.join(","));
            s.push('\n');
        }
        s
    }
}

/// Format a float with 3 decimal places.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}
