//! Text/CSV rendering of experiment results in the shape of the paper's
//! figures: one series per scheme, x values down the rows.

use irrnet_core::SchemeId;
use std::fmt::Write as _;

/// A figure-shaped result: named x-axis, one series per scheme.
#[derive(Debug, Clone)]
pub struct Series {
    /// x-axis label (e.g. "destinations", "effective applied load").
    pub x_label: String,
    /// y-axis label (e.g. "latency (cycles)").
    pub y_label: String,
    /// x values, in row order.
    pub xs: Vec<f64>,
    /// (scheme, y values aligned with `xs`; `None` = saturated/no data).
    pub series: Vec<(SchemeId, Vec<Option<f64>>)>,
}

impl Series {
    /// New empty series container.
    pub fn new(x_label: &str, y_label: &str, xs: Vec<f64>) -> Self {
        Series { x_label: x_label.into(), y_label: y_label.into(), xs, series: Vec::new() }
    }

    /// Add one scheme's column of y values.
    pub fn push(&mut self, scheme: SchemeId, ys: Vec<Option<f64>>) {
        assert_eq!(ys.len(), self.xs.len(), "series length mismatch");
        self.series.push((scheme, ys));
    }

    /// Aligned human-readable table.
    pub fn to_table(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {title}");
        let _ = write!(out, "{:>12}", self.x_label);
        for (s, _) in &self.series {
            let _ = write!(out, " {:>12}", s.name());
        }
        let _ = writeln!(out);
        for (i, x) in self.xs.iter().enumerate() {
            let _ = write!(out, "{x:>12.4}");
            for (_, ys) in &self.series {
                match ys[i] {
                    Some(y) => {
                        let _ = write!(out, " {y:>12.1}");
                    }
                    None => {
                        let _ = write!(out, " {:>12}", "sat");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// CSV with a header row (`x,scheme1,scheme2,...`); saturated points
    /// are empty cells.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label.replace(' ', "_"));
        for (s, _) in &self.series {
            let _ = write!(out, ",{}", s.name());
        }
        let _ = writeln!(out);
        for (i, x) in self.xs.iter().enumerate() {
            let _ = write!(out, "{x}");
            for (_, ys) in &self.series {
                match ys[i] {
                    Some(y) => {
                        let _ = write!(out, ",{y:.2}");
                    }
                    None => out.push(','),
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// For each x row, which scheme wins (lowest y)?
    pub fn winners(&self) -> Vec<Option<SchemeId>> {
        (0..self.xs.len())
            .map(|i| {
                self.series
                    .iter()
                    .filter_map(|(s, ys)| ys[i].map(|y| (*s, y)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .map(|(s, _)| s)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_core::SchemeId;

    fn sample() -> Series {
        let mut s = Series::new("destinations", "latency", vec![4.0, 8.0]);
        s.push(SchemeId::TREE, vec![Some(100.0), Some(150.0)]);
        s.push(SchemeId::NI_FPFS, vec![Some(200.0), None]);
        s
    }

    #[test]
    fn table_contains_all_cells() {
        let t = sample().to_table("Fig X");
        assert!(t.contains("Fig X"));
        assert!(t.contains("tree"));
        assert!(t.contains("ni-fpfs"));
        assert!(t.contains("150.0"));
        assert!(t.contains("sat"));
    }

    #[test]
    fn csv_round_trip_shape() {
        let c = sample().to_csv();
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "destinations,tree,ni-fpfs");
        assert!(lines[2].ends_with(','), "saturated cell empty: {}", lines[2]);
    }

    #[test]
    fn winners_ignore_saturated() {
        let w = sample().winners();
        assert_eq!(w, vec![Some(SchemeId::TREE), Some(SchemeId::TREE)]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_series_panics() {
        let mut s = Series::new("x", "y", vec![1.0]);
        s.push(SchemeId::TREE, vec![Some(1.0), Some(2.0)]);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use irrnet_core::SchemeId;

    #[test]
    fn winners_handle_fully_saturated_rows() {
        let mut s = Series::new("x", "y", vec![1.0]);
        s.push(SchemeId::TREE, vec![None]);
        s.push(SchemeId::NI_FPFS, vec![None]);
        assert_eq!(s.winners(), vec![None]);
    }

    #[test]
    fn empty_series_renders() {
        let s = Series::new("x", "y", Vec::new());
        assert!(s.to_table("t").contains("# t"));
        assert_eq!(s.to_csv().lines().count(), 1);
    }
}
