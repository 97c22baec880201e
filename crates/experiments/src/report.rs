//! Experiment reports: the rows/series the paper's tables and figures
//! show, renderable as aligned text, CSV, or JSON.

use dve_obs::minijson::{escape, push_f64};

/// One reproduced table or figure.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Short id (`fig1`, `tab2`, `lb`, …).
    pub id: String,
    /// Human title, matching the paper caption.
    pub title: String,
    /// Label of the x-axis / first column (e.g. `"sampling %"`).
    pub x_label: String,
    /// Series names (estimators, or LOWER/ACTUAL/UPPER).
    pub series: Vec<String>,
    /// Per-x-value rows: the x label and one value per series.
    pub rows: Vec<ReportRow>,
    /// Free-form notes (parameters, substitutions, deviations).
    pub notes: Vec<String>,
}

/// One row of a report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRow {
    /// The x value (sampling fraction, skew, n, …) as a display string.
    pub x: String,
    /// One value per series, aligned with [`ExperimentReport::series`].
    pub values: Vec<f64>,
}

impl ExperimentReport {
    /// Creates an empty report shell.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        series: Vec<String>,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            series,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count disagrees with the series count.
    pub fn push_row(&mut self, x: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.series.len(),
            "row width must match series count"
        );
        self.rows.push(ReportRow {
            x: x.into(),
            values,
        });
    }

    /// Appends a note line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders an aligned text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = Vec::with_capacity(self.series.len() + 1);
        widths.push(
            self.rows
                .iter()
                .map(|r| r.x.len())
                .chain([self.x_label.len()])
                .max()
                .unwrap_or(8),
        );
        for (i, s) in self.series.iter().enumerate() {
            let w = self
                .rows
                .iter()
                .map(|r| format_value(r.values[i]).len())
                .chain([s.len()])
                .max()
                .unwrap_or(8);
            widths.push(w);
        }
        let mut out = String::new();
        out.push_str(&format!("## {} — {}\n", self.id, self.title));
        // Header.
        out.push_str(&pad(&self.x_label, widths[0]));
        for (i, s) in self.series.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&pad(s, widths[i + 1]));
        }
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * self.series.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&pad(&row.x, widths[0]));
            for (i, v) in row.values.iter().enumerate() {
                out.push_str("  ");
                out.push_str(&pad(&format_value(*v), widths[i + 1]));
            }
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Renders CSV (header + rows; notes become `#` comment lines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        out.push_str(&self.x_label.replace(',', ";"));
        for s in &self.series {
            out.push(',');
            out.push_str(&s.replace(',', ";"));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.x.replace(',', ";"));
            for v in &row.values {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }

    /// Renders pretty JSON with two-space indentation; non-finite values
    /// become `null`.
    pub fn to_json(&self) -> String {
        let quote = |s: &str| format!("\"{}\"", escape(s));
        let strings = |items: &[String]| items.iter().map(|s| quote(s)).collect();
        let rows = (self.rows.iter())
            .map(|row| {
                let values = row.values.iter().map(|&v| {
                    let mut out = String::new();
                    push_f64(&mut out, v);
                    out
                });
                let values = pretty_array(values.collect(), "      ");
                format!(
                    "{{\n      \"x\": {},\n      \"values\": {values}\n    }}",
                    quote(&row.x)
                )
            })
            .collect();
        format!(
            "{{\n  \"id\": {},\n  \"title\": {},\n  \"x_label\": {},\n  \"series\": {},\n  \"rows\": {},\n  \"notes\": {}\n}}",
            quote(&self.id),
            quote(&self.title),
            quote(&self.x_label),
            pretty_array(strings(&self.series), "  "),
            pretty_array(rows, "  "),
            pretty_array(strings(&self.notes), "  "),
        )
    }
}

/// Lays out rendered JSON `items` one per line, two spaces deeper than
/// the closing bracket at `indent`.
fn pretty_array(items: Vec<String>, indent: &str) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    format!(
        "[\n{indent}  {}\n{indent}]",
        items.join(&format!(",\n{indent}  "))
    )
}

fn pad(s: &str, width: usize) -> String {
    format!("{s:>width$}")
}

/// Compact numeric formatting: integers plain, small values with 4
/// significant decimals, large values with thousands of precision.
fn format_value(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dve_obs::minijson::JsonValue;

    fn sample_report() -> ExperimentReport {
        let mut r = ExperimentReport::new(
            "fig1",
            "error vs sampling rate",
            "sampling %",
            vec!["GEE".into(), "AE".into()],
        );
        r.push_row("0.2", vec![4.25, 1.1234]);
        r.push_row("6.4", vec![1.05, 1.01]);
        r.note("n = 1M");
        r
    }

    #[test]
    fn text_table_is_aligned_and_complete() {
        let t = sample_report().to_text();
        assert!(t.contains("fig1"));
        assert!(t.contains("GEE"));
        assert!(t.contains("1.1234"));
        assert!(t.contains("note: n = 1M"));
        // All rows present.
        assert!(t.contains("0.2") && t.contains("6.4"));
    }

    #[test]
    fn csv_roundtrips_values() {
        let c = sample_report().to_csv();
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines[0], "# n = 1M");
        assert_eq!(lines[1], "sampling %,GEE,AE");
        assert!(lines[2].starts_with("0.2,4.25,"));
    }

    /// Rebuilds a report from its parsed JSON, field by field.
    fn from_json(json: &str) -> ExperimentReport {
        let doc = dve_obs::minijson::parse(json).unwrap();
        let text = |v: &JsonValue| v.as_str().unwrap().to_string();
        let texts = |key| {
            doc.get(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(text)
                .collect()
        };
        ExperimentReport {
            id: text(doc.get("id").unwrap()),
            title: text(doc.get("title").unwrap()),
            x_label: text(doc.get("x_label").unwrap()),
            series: texts("series"),
            rows: (doc.get("rows").unwrap().as_array().unwrap().iter())
                .map(|row| ReportRow {
                    x: text(row.get("x").unwrap()),
                    values: (row.get("values").unwrap().as_array().unwrap().iter())
                        .map(|v| v.as_f64().unwrap())
                        .collect(),
                })
                .collect(),
            notes: texts("notes"),
        }
    }

    #[test]
    fn json_roundtrip() {
        let mut r = sample_report();
        r.note("quote \" and\nnewline");
        assert_eq!(from_json(&r.to_json()), r);
        let empty = ExperimentReport::new("e", "t", "x", vec![]);
        assert_eq!(from_json(&empty.to_json()), empty);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        sample_report().push_row("x", vec![1.0]);
    }

    #[test]
    fn value_formatting() {
        assert_eq!(format_value(3.0), "3");
        assert_eq!(format_value(1.23456), "1.2346");
        assert_eq!(format_value(123456.7), "123456.7");
    }
}
