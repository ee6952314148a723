//! Report writers: CSV artifacts plus terminal-friendly ASCII tables and
//! ANSI heatmaps.
//!
//! The repro environment has no scientific plotting stack, so every figure
//! is emitted twice: a CSV under `target/reports/` for external plotting,
//! and a terminal rendering (table or color-block heatmap) for immediate
//! inspection.

use hycap_errors::HycapError;
use hycap_obs::Snapshot;
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
    for row in rows {
        if row.len() != headers.len() {
            return Err(HycapError::invalid(
                "csv rows",
                format!(
                    "csv row width mismatch: row has {} cells, header {}",
                    row.len(),
                    headers.len()
                ),
            ));
        }
    }
    let path = reports_dir()?.join(format!("{name}.csv"));
    let mut file = fs::File::create(&path).map_err(|e| HycapError::io("create csv report", &e))?;
    writeln!(file, "{}", headers.join(",")).map_err(|e| HycapError::io("write csv header", &e))?;
    for row in rows {
        writeln!(file, "{}", row.join(",")).map_err(|e| HycapError::io("write csv row", &e))?;
    }
    Ok(path)
}

/// Writes a metrics [`Snapshot`] as pretty-printed JSON (schema
/// `hycap-metrics/1`) into [`reports_dir`], returning its path.
///
/// # Errors
///
/// [`HycapError::Io`] on filesystem errors.
pub fn write_snapshot_json(name: &str, snapshot: &Snapshot) -> Result<PathBuf, HycapError> {
    let path = reports_dir()?.join(format!("{name}.json"));
    fs::write(&path, snapshot.to_json())
        .map_err(|e| HycapError::io("write metrics snapshot json", &e))?;
    Ok(path)
}

/// Writes an already-serialized JSON document into [`reports_dir`],
/// returning its path. Used by bench bins whose artifact is not a metrics
/// [`Snapshot`] (e.g. throughput reports).
///
/// # Errors
///
/// [`HycapError::Io`] on filesystem errors.
pub fn write_json(name: &str, json: &str) -> Result<PathBuf, HycapError> {
    let path = reports_dir()?.join(format!("{name}.json"));
    fs::write(&path, json).map_err(|e| HycapError::io("write json report", &e))?;
    Ok(path)
}

/// Renders an ASCII table with padded columns.
///
/// # Panics
///
/// Panics when a row's width differs from the header's.
pub fn ascii_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "table row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
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
    rule(&mut out);
    line(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    rule(&mut out);
    for row in rows {
        line(&mut out, row);
    }
    rule(&mut out);
    out
}

/// Renders a heatmap of `values` (row-major, `cols` per row) with ANSI
/// 256-color blocks, low = blue, high = red. `NaN` renders as `··`.
///
/// # Panics
///
/// Panics when `values.len()` is not a multiple of `cols` or `cols == 0`.
pub fn ansi_heatmap(values: &[f64], cols: usize, x_label: &str, y_label: &str) -> String {
    assert!(cols > 0, "need at least one column");
    assert_eq!(values.len() % cols, 0, "values not a multiple of cols");
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (lo, hi) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let span = (hi - lo).max(1e-12);
    let mut out = String::new();
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
    let _ = writeln!(out, "  → {x_label}");
    out
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
        use hycap_obs::{MetricsSink, Observer};
        let mut obs = Observer::recording();
        obs.sink.counter("test.counter", 3);
        obs.sink.observe("test.value", 1.5);
        let snap = obs.snapshot();
        let jp = write_snapshot_json("test_snapshot_writer", &snap).unwrap();
        let json = fs::read_to_string(&jp).unwrap();
        assert!(json.contains("hycap-metrics/1"));
        assert!(json.contains("test.counter"));
        fs::remove_file(jp).ok();
    }

    #[test]
    fn ascii_table_aligns() {
        let table = ascii_table(
            &["name", "value"],
            &[
                vec!["x".into(), "1.0".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        assert!(table.contains("| name      |"));
        assert!(table.contains("| long-name |"));
        let widths: Vec<usize> = table.lines().map(|l| l.chars().count()).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "ragged table:\n{table}"
        );
    }

    #[test]
    fn heatmap_renders_all_cells() {
        let hm = ansi_heatmap(&[0.0, 0.5, 1.0, f64::NAN], 2, "x", "y");
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
    #[should_panic(expected = "row width mismatch")]
    fn table_validates_widths() {
        let _ = ascii_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
