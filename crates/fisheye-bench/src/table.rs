//! Result tables: aligned text for the terminal, CSV for files, and
//! the pass/fail gates an experiment declares on its results.

use std::fmt;

/// How a [`Gate`] compares its observed value with its bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// observed >= bound
    AtLeast,
    /// observed <= bound
    AtMost,
    /// observed == bound
    Equal,
}

/// One pass/fail claim over a table's unrounded values. A NaN
/// observation fails every comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// What the observed value is (`max_overhead`, `all_bit_exact`).
    pub name: &'static str,
    /// The measured value; flags read 1 for true and 0 for false.
    pub observed: f64,
    /// The comparison the value must satisfy.
    pub cmp: Cmp,
    /// The threshold.
    pub bound: f64,
}

impl Gate {
    /// Whether the observed value satisfies the bound.
    pub fn passes(&self) -> bool {
        match self.cmp {
            Cmp::AtLeast => self.observed >= self.bound,
            Cmp::AtMost => self.observed <= self.bound,
            Cmp::Equal => self.observed == self.bound,
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.cmp {
            Cmp::AtLeast => ">=",
            Cmp::AtMost => "<=",
            Cmp::Equal => "==",
        };
        let verdict = if self.passes() { "ok" } else { "FAIL" };
        write!(
            f,
            "{} {} {op} {}: {verdict}",
            self.name, self.observed, self.bound
        )
    }
}

/// A simple column-oriented result table.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Table title (the experiment id + caption).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each row must match `headers` in length).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table (measurement regime,
    /// machine caveats).
    pub notes: Vec<String>,
    /// Pass/fail claims over the rows, checked by the `repro` bin.
    pub gates: Vec<Gate>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Append a row (panics on arity mismatch).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Declare a gate: `observed` must satisfy `cmp` against `bound`.
    pub fn gate(&mut self, name: &'static str, observed: f64, cmp: Cmp, bound: f64) {
        self.gates.push(Gate {
            name,
            observed,
            cmp,
            bound,
        });
    }

    /// Declare a gate that holds when `flag` is true.
    pub fn gate_flag(&mut self, name: &'static str, flag: bool) {
        self.gate(name, f64::from(u8::from(flag)), Cmp::Equal, 1.0);
    }

    /// Render as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let head: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        out.push_str(&head.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(head.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        for g in &self.gates {
            out.push_str(&format!("gate: {g}\n"));
        }
        out
    }

    /// Render as CSV (headers + rows; notes and gates become
    /// `# comments`).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        for g in &self.gates {
            out.push_str(&format!("# gate {g}\n"));
        }
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Print to stdout and write `<dir>/<slug>.csv`, where `<dir>` is
    /// the workspace's canonical `results/` directory (override with
    /// `FISHEYE_RESULTS_DIR`). The `repro` bin and the benches funnel
    /// their CSV output through here so results never scatter.
    pub fn emit(&self, slug: &str) {
        println!("{}", self.render());
        let dir = results_dir();
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{slug}.csv"));
        if let Err(e) = std::fs::write(&path, self.to_csv()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// The directory result CSVs are written to: `FISHEYE_RESULTS_DIR` if
/// set, otherwise the workspace's `results/` directory (resolved
/// relative to this crate's manifest, so it works from any cwd).
pub fn results_dir() -> std::path::PathBuf {
    match std::env::var("FISHEYE_RESULTS_DIR") {
        Ok(dir) => std::path::PathBuf::from(dir),
        Err(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"),
    }
}

/// Format a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a float with 4 decimals — for ratios whose exact equality
/// is the point of the table (T10's per-warp line counts).
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Format nanoseconds-per-pixel from (duration, pixel count).
pub fn ns_per_px(d: std::time::Duration, pixels: u64) -> String {
    format!("{:.2}", d.as_nanos() as f64 / pixels as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("T0 sample", &["a", "long_header", "c"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.row(vec!["10".into(), "200000".into(), "x,y".into()]);
        t.note("measured");
        t.gate("ratio", 1.1501, Cmp::AtMost, 1.15);
        t.gate_flag("exact", true);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let s = sample().render();
        assert!(s.contains("== T0 sample =="));
        assert!(s.contains("long_header"));
        assert!(s.contains("note: measured"));
        assert!(s.contains("gate: ratio 1.1501 <= 1.15: FAIL"), "{s}");
        assert!(s.contains("gate: exact 1 == 1: ok"), "{s}");
        // every data line has the same length as the header line
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1].len(), lines[3].len());
    }

    #[test]
    fn csv_escapes_commas() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("# measured\n# gate ratio 1.1501 <= 1.15: FAIL\n"));
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("a,long_header,c"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.2345), "1.23");
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(ns_per_px(std::time::Duration::from_micros(1), 100), "10.00");
    }
}
