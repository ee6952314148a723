//! Report writers: CSV artifacts plus terminal-friendly ASCII tables and
//! ANSI heatmaps.
//!
//! The repro environment has no scientific plotting stack, so every figure
//! is emitted twice: a CSV under `target/reports/` for external plotting,
//! and a terminal rendering (table or color-block heatmap) for immediate
//! inspection.

use hycap_errors::HycapError;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// The artifact directory `target/reports/`, created on first use.
///
/// # Errors
///
/// [`HycapError::Io`] when the directory cannot be created.
pub fn reports_dir() -> Result<PathBuf, HycapError> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/reports");
    fs::create_dir_all(&dir).map_err(|e| HycapError::io("create target/reports", &e))?;
    Ok(dir)
}

/// Writes a CSV file into [`reports_dir`], returning its path.
///
/// # Errors
///
/// [`HycapError::Io`] on filesystem errors;
/// [`HycapError::InvalidParameter`] when a row's width differs from the
/// header's.
pub fn write_csv(
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> Result<PathBuf, HycapError> {
    check_widths("csv", headers, rows)?;
    let path = reports_dir()?.join(format!("{name}.csv"));
    let mut file = fs::File::create(&path).map_err(|e| HycapError::io("create csv report", &e))?;
    writeln!(file, "{}", headers.join(",")).map_err(|e| HycapError::io("write csv header", &e))?;
    for row in rows {
        writeln!(file, "{}", row.join(",")).map_err(|e| HycapError::io("write csv row", &e))?;
    }
    Ok(path)
}

/// Checks every row against the header: [`HycapError::InvalidParameter`]
/// naming `what` when a row's width differs from the header's.
fn check_widths(
    what: &'static str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> Result<(), HycapError> {
    match rows.iter().find(|row| row.len() != headers.len()) {
        None => Ok(()),
        Some(row) => Err(HycapError::invalid(
            what,
            format!(
                "{what} row width mismatch: row has {} cells, header {}",
                row.len(),
                headers.len()
            ),
        )),
    }
}

/// Appends an ASCII table with padded columns to `out`, then a blank line.
///
/// # Errors
///
/// [`HycapError::InvalidParameter`] when a row's width differs from the
/// header's; `out` is then left unchanged.
pub fn ascii_table(
    out: &mut String,
    headers: &[&str],
    rows: &[Vec<String>],
) -> Result<(), HycapError> {
    check_widths("table", headers, rows)?;
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let rule = |out: &mut String| {
        for w in &widths {
            let _ = write!(out, "+{}", "-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    let line = |out: &mut String, cells: &[String]| {
        for (w, cell) in widths.iter().zip(cells) {
            let pad = w - cell.chars().count();
            let _ = write!(out, "| {cell}{} ", " ".repeat(pad));
        }
        out.push_str("|\n");
    };
    rule(out);
    line(
        out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    rule(out);
    for row in rows {
        line(out, row);
    }
    rule(out);
    out.push('\n');
    Ok(())
}

/// Appends a heatmap of `values` (row-major, `cols` per row) with ANSI
/// 256-color blocks, low = blue, high = red, to `out`, then a blank line.
/// `NaN` renders as `··`.
///
/// # Errors
///
/// [`HycapError::InvalidParameter`] when `cols == 0` or `values.len()` is
/// not a multiple of `cols`; `out` is then left unchanged.
pub fn ansi_heatmap(
    out: &mut String,
    values: &[f64],
    cols: usize,
    x_label: &str,
    y_label: &str,
) -> Result<(), HycapError> {
    if cols == 0 || !values.len().is_multiple_of(cols) {
        return Err(HycapError::invalid(
            "heatmap",
            format!("{} values do not fill rows of {cols} columns", values.len()),
        ));
    }
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (lo, hi) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let span = (hi - lo).max(1e-12);
    let _ = writeln!(out, "  ↑ {y_label}   (low {lo:.3} … high {hi:.3})");
    // Render top row last-in-memory first so the y axis points up.
    for row in (0..values.len() / cols).rev() {
        out.push_str("  ");
        for col in 0..cols {
            let v = values[row * cols + col];
            if !v.is_finite() {
                out.push_str("··");
                continue;
            }
            let t = (v - lo) / span;
            // Map to the 256-color cube: blue (17) → red (196) ramp.
            let ramp = [17, 19, 26, 32, 37, 72, 108, 143, 178, 208, 202, 196];
            let color = ramp[((t * (ramp.len() - 1) as f64).round() as usize).min(ramp.len() - 1)];
            let _ = write!(out, "\x1b[48;5;{color}m  \x1b[0m");
        }
        out.push('\n');
    }
    let _ = writeln!(out, "  → {x_label}\n");
    Ok(())
}

/// Formats a float for tables: 4 significant digits, scientific when tiny.
pub fn fmt_val(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        let path = write_csv(
            "test_csv_roundtrip",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let content = fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        fs::remove_file(path).ok();
    }

    #[test]
    fn csv_rejects_ragged_rows() {
        let err = write_csv("test_csv_ragged", &["a", "b"], &[vec!["1".into()]]).unwrap_err();
        assert!(matches!(err, HycapError::InvalidParameter { .. }));
        assert!(err.to_string().contains("width mismatch"));
    }

    #[test]
    fn snapshot_writers_roundtrip() {
        use hycap::obs::{MetricsSink, Observer};
        let mut obs = Observer::recording();
        obs.sink.counter("test.counter", 3);
        obs.sink.observe("test.value", 1.5);
        let snap = obs.snapshot();
        let jp = reports_dir().unwrap().join("test_snapshot_writer.json");
        crate::commands::write_snapshot(&jp, &snap).unwrap();
        let json = fs::read_to_string(&jp).unwrap();
        assert!(json.contains("hycap-metrics/1"));
        assert!(json.contains("test.counter"));
        fs::remove_file(jp).ok();
    }

    #[test]
    fn ascii_table_aligns() {
        let mut table = String::new();
        ascii_table(
            &mut table,
            &["name", "value"],
            &[
                vec!["x".into(), "1.0".into()],
                vec!["long-name".into(), "2".into()],
            ],
        )
        .unwrap();
        assert!(table.contains("| name      |"));
        assert!(table.contains("| long-name |"));
        assert!(table.ends_with("+\n\n"), "blank line after the table");
        let widths: Vec<usize> = table
            .trim_end()
            .lines()
            .map(|l| l.chars().count())
            .collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "ragged table:\n{table}"
        );
    }

    #[test]
    fn heatmap_renders_all_cells() {
        let mut hm = String::new();
        ansi_heatmap(&mut hm, &[0.0, 0.5, 1.0, f64::NAN], 2, "x", "y").unwrap();
        assert_eq!(hm.matches("\x1b[48;5;").count(), 3);
        assert!(hm.contains("··"));
        assert!(hm.contains("→ x"));
    }

    #[test]
    fn fmt_val_switches_notation() {
        assert_eq!(fmt_val(0.1234567), "0.1235");
        assert!(fmt_val(1.2e-5).contains('e'));
        assert_eq!(fmt_val(f64::INFINITY), "inf");
        assert_eq!(fmt_val(0.0), "0.0000");
    }

    #[test]
    fn table_validates_widths() {
        let mut out = String::new();
        let err = ascii_table(&mut out, &["a", "b"], &[vec!["1".into()]]).unwrap_err();
        assert!(matches!(err, HycapError::InvalidParameter { .. }));
        assert!(err.to_string().contains("row width mismatch"), "{err}");
        for (values, cols) in [(&[0.0, 1.0, 2.0][..], 2), (&[0.0][..], 0)] {
            let err = ansi_heatmap(&mut out, values, cols, "x", "y").unwrap_err();
            assert!(matches!(err, HycapError::InvalidParameter { .. }));
        }
        assert!(out.is_empty(), "a rejected render writes nothing");
    }
}
