//! Plain-text and CSV rendering of figures and tables.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::experiment::{Figure, TableOut};

/// Renders a table with aligned columns, paper-style.
pub fn render_table(t: &TableOut) -> String {
    let mut widths: Vec<usize> = t.headers.iter().map(|h| h.len()).collect();
    for row in &t.rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {} ({}) ==\n", t.title, t.id));
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(&t.headers));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in &t.rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// CSV for a table: headers then rows.
pub(crate) fn table_csv(t: &TableOut) -> String {
    let mut out = String::new();
    out.push_str(&t.headers.join(","));
    out.push('\n');
    for row in &t.rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Long-format CSV for a figure: `series,x,y` per point.
pub(crate) fn figure_csv(f: &Figure) -> String {
    let mut out = String::from("series,x,y\n");
    for s in &f.series {
        for (x, y) in &s.points {
            out.push_str(&format!("{},{x},{y}\n", s.label));
        }
    }
    out
}

/// A terminal sparkline of each series (quick visual check of the shapes).
pub fn render_figure_summary(f: &Figure) -> String {
    const BARS: &[char] = &['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let mut out = format!("== {} ({}) ==\n", f.title, f.id);
    for s in &f.series {
        let ys: Vec<f64> = s.points.iter().map(|p| p.1).collect();
        if ys.is_empty() {
            continue;
        }
        // Downsample to at most 60 buckets (mean per bucket).
        let buckets = 60.min(ys.len());
        let per = ys.len() as f64 / buckets as f64;
        let sampled: Vec<f64> = (0..buckets)
            .map(|b| {
                let lo = (b as f64 * per) as usize;
                let hi = (((b + 1) as f64 * per) as usize).clamp(lo + 1, ys.len());
                ys[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect();
        let (lo, hi) = sampled
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
                (l.min(v), h.max(v))
            });
        let spark: String = sampled
            .iter()
            .map(|&v| {
                let t = if hi > lo { (v - lo) / (hi - lo) } else { 0.5 };
                BARS[((t * (BARS.len() - 1) as f64).round() as usize).min(BARS.len() - 1)]
            })
            .collect();
        out.push_str(&format!(
            "{:<12} [{:>12.0} .. {:>12.0}] {spark}\n",
            s.label, lo, hi
        ));
    }
    out
}

/// Writes a figure's CSV under `dir` as `<id>.csv`.
pub fn write_figure_csv(dir: &Path, f: &Figure) -> std::io::Result<std::path::PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.csv", f.id));
    let mut file = fs::File::create(&path)?;
    file.write_all(figure_csv(f).as_bytes())?;
    Ok(path)
}

/// Writes a table's CSV under `dir` as `<id>.csv`.
pub fn write_table_csv(dir: &Path, t: &TableOut) -> std::io::Result<std::path::PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.csv", t.id));
    let mut file = fs::File::create(&path)?;
    file.write_all(table_csv(t).as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Series;

    fn table() -> TableOut {
        TableOut {
            id: "t".to_owned(),
            title: "T".to_owned(),
            headers: vec!["a".into(), "bb".into()],
            rows: vec![vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        }
    }

    fn figure() -> Figure {
        Figure {
            id: "f".to_owned(),
            title: "F".to_owned(),
            xlabel: "x".to_owned(),
            ylabel: "y".to_owned(),
            logy: false,
            series: vec![Series::from_ys("s1", [1.0, 2.0, 3.0])],
        }
    }

    #[test]
    fn table_render_aligns_columns() {
        let s = render_table(&table());
        assert!(s.contains("a    bb"));
        assert!(s.contains("333"));
    }

    #[test]
    fn csv_shapes() {
        assert_eq!(table_csv(&table()), "a,bb\n1,2\n333,4\n");
        let f = figure_csv(&figure());
        assert!(f.starts_with("series,x,y\n"));
        assert!(f.contains("s1,1,1\n"));
        assert_eq!(f.lines().count(), 4);
    }

    #[test]
    fn figure_summary_sparkline_has_one_line_per_series() {
        let s = render_figure_summary(&figure());
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn files_round_trip() {
        let dir = std::env::temp_dir().join("soc-sim-output-test");
        let p = write_table_csv(&dir, &table()).unwrap();
        assert!(p.exists());
        let p = write_figure_csv(&dir, &figure()).unwrap();
        assert!(p.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
