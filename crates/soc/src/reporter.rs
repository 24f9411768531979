//! Structured experiment reports with pluggable output formats.
//!
//! Figure drivers build a [`Report`] — an ordered list of text lines and
//! [`Table`]s with typed [`Cell`]s — instead of `println!`-ing ad hoc.
//! A [`Format`] then renders the report:
//!
//! * [`Format::Human`] — fixed-width ASCII tables (the default);
//! * [`Format::Jsonl`] — one JSON object per line (notes and table rows),
//!   for piping into `jq`/pandas;
//! * [`Format::Csv`] — RFC-4180-style CSV per table, notes as `#` comments.
//!
//! Because rendering is a pure function of the report, the same experiment
//! run can be re-emitted in any format, and parallel sweeps stay
//! byte-identical to sequential ones.

use std::fmt::Write as _;
use std::io::{self, Write};

/// One typed value in a table row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A plain string (labels, pre-formatted odds and ends).
    Str(String),
    /// An integer count.
    Int(i64),
    /// A float rendered with `prec` decimal places in human/CSV output.
    Float {
        /// The value.
        v: f64,
        /// Decimal places for fixed-point rendering.
        prec: usize,
    },
    /// A missing value: `-` in human/CSV output, `null` in JSON, so
    /// numeric columns keep a stable type for structured consumers.
    Missing,
}

impl Cell {
    /// A slowdown cell (3 decimal places, the paper's table precision).
    pub fn slowdown(v: f64) -> Cell {
        Cell::Float { v, prec: 3 }
    }

    /// The human/CSV text of this cell.
    pub fn text(&self) -> String {
        match self {
            Cell::Str(s) => s.clone(),
            Cell::Int(i) => i.to_string(),
            Cell::Float { v, prec } => format!("{v:.prec$}"),
            Cell::Missing => "-".to_owned(),
        }
    }

    fn json_value(&self) -> String {
        match self {
            Cell::Str(s) => json_string(s),
            Cell::Int(i) => i.to_string(),
            Cell::Float { v, .. } => {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_owned()
                }
            }
            Cell::Missing => "null".to_owned(),
        }
    }
}

/// A table column: header text plus the human-format field width.
#[derive(Debug, Clone)]
pub struct Column {
    /// Header text (also the JSON key and CSV header).
    pub name: String,
    /// Right-aligned field width in human output.
    pub width: usize,
}

/// A fixed-width table of typed cells.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Column headers and widths.
    pub columns: Vec<Column>,
    /// Rows; each must have exactly one cell per column.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Builds an empty table from `(header, width)` pairs.
    pub fn new(cols: &[(&str, usize)]) -> Table {
        Table {
            columns: cols
                .iter()
                .map(|(name, width)| Column {
                    name: (*name).to_owned(),
                    width: *width,
                })
                .collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the column count.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push(cells);
    }
}

/// One ordered element of a report.
#[derive(Debug, Clone)]
pub enum Block {
    /// A free-text line (titles, paper-comparison footnotes).
    Text(String),
    /// A blank separator line.
    Blank,
    /// A table.
    Table(Table),
}

/// A complete figure/table report: ordered text and tables.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The report's blocks, in print order.
    pub blocks: Vec<Block>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Appends a text line.
    pub fn text(&mut self, line: impl Into<String>) {
        self.blocks.push(Block::Text(line.into()));
    }

    /// Appends a blank line.
    pub fn blank(&mut self) {
        self.blocks.push(Block::Blank);
    }

    /// Appends a table.
    pub fn table(&mut self, t: Table) {
        self.blocks.push(Block::Table(t));
    }
}

/// An output format for [`render`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Fixed-width ASCII tables.
    #[default]
    Human,
    /// One JSON object per line.
    Jsonl,
    /// CSV tables with `#`-prefixed notes.
    Csv,
}

impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Format, String> {
        match s {
            "human" | "table" => Ok(Format::Human),
            "jsonl" | "json" => Ok(Format::Jsonl),
            "csv" => Ok(Format::Csv),
            other => Err(format!(
                "unknown format {other:?} (expected human, jsonl, or csv)"
            )),
        }
    }
}

/// Renders `report` to `out` in the given format.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn render(report: &Report, format: Format, out: &mut dyn Write) -> io::Result<()> {
    match format {
        Format::Human => render_human(report, out),
        Format::Jsonl => render_jsonl(report, out),
        Format::Csv => render_csv(report, out),
    }
}

/// Renders `report` to a `String` (infallible convenience wrapper).
pub fn render_to_string(report: &Report, format: Format) -> String {
    let mut buf = Vec::new();
    render(report, format, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("reports are UTF-8")
}

fn render_human(report: &Report, out: &mut dyn Write) -> io::Result<()> {
    for block in &report.blocks {
        match block {
            Block::Text(line) => writeln!(out, "{line}")?,
            Block::Blank => writeln!(out)?,
            Block::Table(t) => {
                let mut header = String::new();
                for c in &t.columns {
                    let _ = write!(header, "{:>w$} ", c.name, w = c.width);
                }
                writeln!(out, "{header}")?;
                writeln!(out, "{}", "-".repeat(header.len()))?;
                for row in &t.rows {
                    let mut line = String::new();
                    for (cell, c) in row.iter().zip(&t.columns) {
                        let _ = write!(line, "{:>w$} ", cell.text(), w = c.width);
                    }
                    writeln!(out, "{line}")?;
                }
            }
        }
    }
    Ok(())
}

fn render_jsonl(report: &Report, out: &mut dyn Write) -> io::Result<()> {
    let mut table_idx = 0usize;
    for block in &report.blocks {
        match block {
            Block::Text(line) => {
                writeln!(out, "{{\"type\":\"note\",\"text\":{}}}", json_string(line))?;
            }
            Block::Blank => {}
            Block::Table(t) => {
                for row in &t.rows {
                    let mut obj = format!("{{\"type\":\"row\",\"table\":{table_idx}");
                    for (cell, c) in row.iter().zip(&t.columns) {
                        let _ = write!(obj, ",{}:{}", json_string(&c.name), cell.json_value());
                    }
                    obj.push('}');
                    writeln!(out, "{obj}")?;
                }
                table_idx += 1;
            }
        }
    }
    Ok(())
}

fn render_csv(report: &Report, out: &mut dyn Write) -> io::Result<()> {
    for block in &report.blocks {
        match block {
            Block::Text(line) => writeln!(out, "# {line}")?,
            Block::Blank => writeln!(out)?,
            Block::Table(t) => {
                let header: Vec<String> = t.columns.iter().map(|c| csv_field(&c.name)).collect();
                writeln!(out, "{}", header.join(","))?;
                for row in &t.rows {
                    let fields: Vec<String> =
                        row.iter().map(|cell| csv_field(&cell.text())).collect();
                    writeln!(out, "{}", fields.join(","))?;
                }
            }
        }
    }
    Ok(())
}

/// JSON-escapes `s` into a quoted string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Quotes a CSV field when it contains a delimiter, quote, or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn sample() -> Report {
        let mut r = Report::new();
        r.text("Figure X: demo");
        r.blank();
        let mut t = Table::new(&[("workload", 10), ("slowdown", 9)]);
        t.row(vec![Cell::Str("x264".into()), Cell::slowdown(1.2345)]);
        t.row(vec![Cell::Str("a,b".into()), Cell::Int(7)]);
        r.table(t);
        r
    }

    #[test]
    fn human_layout_matches_legacy_print_header() {
        let s = render_to_string(&sample(), Format::Human);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "Figure X: demo");
        assert_eq!(lines[1], "");
        assert_eq!(lines[2], "  workload  slowdown ");
        assert_eq!(lines[3], "-".repeat(lines[2].len()));
        assert_eq!(lines[4], "      x264     1.234 ");
    }

    #[test]
    fn jsonl_rows_carry_column_keys() {
        let s = render_to_string(&sample(), Format::Jsonl);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], r#"{"type":"note","text":"Figure X: demo"}"#);
        assert!(lines[1].contains(r#""workload":"x264""#));
        assert!(lines[1].contains(r#""slowdown":1.2345"#));
        assert!(lines[2].contains(r#""slowdown":7"#));
    }

    #[test]
    fn csv_quotes_delimiters() {
        let s = render_to_string(&sample(), Format::Csv);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "# Figure X: demo");
        assert_eq!(lines[2], "workload,slowdown");
        assert_eq!(lines[3], "x264,1.234");
        assert_eq!(lines[4], "\"a,b\",7");
    }

    #[test]
    fn format_parsing() {
        assert_eq!(Format::from_str("human"), Ok(Format::Human));
        assert_eq!(Format::from_str("jsonl"), Ok(Format::Jsonl));
        assert_eq!(Format::from_str("csv"), Ok(Format::Csv));
        assert!(Format::from_str("yaml").is_err());
    }

    #[test]
    fn missing_cells_keep_numeric_columns_stable() {
        let mut r = Report::new();
        let mut t = Table::new(&[("w", 4), ("lat", 6)]);
        t.row(vec![Cell::Str("a".into()), Cell::Missing]);
        r.table(t);
        assert!(render_to_string(&r, Format::Human).contains("     - "));
        assert!(render_to_string(&r, Format::Jsonl).contains("\"lat\":null"));
        assert!(render_to_string(&r, Format::Csv).contains("a,-"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), r#""a\"b\\c\n""#);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        let mut t = Table::new(&[("a", 3), ("b", 3)]);
        t.row(vec![Cell::Int(1)]);
    }
}
