//! Plain-text rendering of tables and figure series.

use std::fmt::Write;

/// Renders a fixed-width table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    push_row(&mut out, headers.iter().copied(), &widths);
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        push_row(&mut out, row.iter().map(String::as_str), &widths);
    }
    out
}

/// Appends one table row to `out`: each cell padded to its column's
/// width, two spaces between columns, trailing whitespace trimmed.
fn push_row<'a>(out: &mut String, cells: impl Iterator<Item = &'a str>, widths: &[usize]) {
    let start = out.len();
    for (i, c) in cells.enumerate() {
        if i > 0 {
            out.push_str("  ");
        }
        let _ = write!(out, "{c:<w$}", w = widths[i]);
    }
    out.truncate(start + out[start..].trim_end().len());
    out.push('\n');
}

/// Renders figure data as columns: x plus one column per series.
pub fn render_series(title: &str, xlabel: &str, series: &[(String, Vec<(f64, f64)>)]) -> String {
    let mut out = format!("# {title}\n");
    let mut headers: Vec<&str> = vec![xlabel];
    for (label, _) in series {
        headers.push(label);
    }
    let xs: Vec<f64> = series
        .first()
        .map(|(_, pts)| pts.iter().map(|p| p.0).collect())
        .unwrap_or_default();
    let rows: Vec<Vec<String>> = xs
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let mut row = vec![format!("{x:.0}")];
            for (_, pts) in series {
                row.push(
                    pts.get(i)
                        .map(|p| format!("{:.1}", p.1))
                        .unwrap_or_default(),
                );
            }
            row
        })
        .collect();
    out.push_str(&render_table(&headers, &rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer-name"));
        // The value column lines up.
        let col = lines[2].find('1').unwrap();
        assert_eq!(lines[3].find('2').unwrap(), col);
    }

    #[test]
    fn series_renders_all_columns() {
        let s = render_series(
            "Figure X",
            "bytes",
            &[
                ("copy".into(), vec![(4096.0, 500.0), (8192.0, 900.0)]),
                (
                    "emulated copy".into(),
                    vec![(4096.0, 400.0), (8192.0, 650.0)],
                ),
            ],
        );
        assert!(s.contains("# Figure X"));
        assert!(s.contains("copy"));
        assert!(s.contains("4096"));
        assert!(s.contains("650.0"));
    }
}
