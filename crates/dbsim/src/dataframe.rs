//! In-memory dataframe and the scan-query engine — the Pandas half of the
//! paper's simulated database (§5.1.2, Figure 4).
//!
//! The Table 11 **query** primitive is a set of full table scans
//! `df.loc[df.A <= v_i]` where the `v_i` come from a 10-bin histogram of
//! column A (footnote 14). Both are implemented here.

use crate::container::ColumnData;
use fcbench_core::{Error, Precision, Result};

/// A typed in-memory column.
#[derive(Debug, Clone)]
pub enum Column {
    F32(Vec<f32>),
    F64(Vec<f64>),
}

impl Column {
    pub(crate) fn len(&self) -> usize {
        match self {
            Column::F32(v) => v.len(),
            Column::F64(v) => v.len(),
        }
    }

    /// Value at `i` widened to f64.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> f64 {
        match self {
            Column::F32(v) => v[i] as f64,
            Column::F64(v) => v[i],
        }
    }
}

/// An in-memory table of named columns (all the same length).
#[derive(Debug)]
pub struct DataFrame {
    names: Vec<String>,
    columns: Vec<Column>,
}

impl DataFrame {
    /// Build from decoded container columns.
    pub fn from_columns(cols: Vec<ColumnData>) -> Result<DataFrame> {
        let mut names = Vec::with_capacity(cols.len());
        let mut columns = Vec::with_capacity(cols.len());
        let mut rows: Option<usize> = None;
        for c in cols {
            let col = match c.precision {
                Precision::Single => Column::F32(
                    c.bytes
                        .chunks_exact(4)
                        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                        .collect(),
                ),
                Precision::Double => Column::F64(
                    c.bytes
                        .chunks_exact(8)
                        .map(|b| {
                            f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
                        })
                        .collect(),
                ),
            };
            if let Some(r) = rows {
                if col.len() != r {
                    return Err(Error::BadDescriptor(format!(
                        "column {} has {} rows, expected {r}",
                        c.name,
                        col.len()
                    )));
                }
            } else {
                rows = Some(col.len());
            }
            names.push(c.name);
            columns.push(col);
        }
        Ok(DataFrame { names, columns })
    }

    pub fn column(&self, name: &str) -> Option<&Column> {
        let i = self.names.iter().position(|n| n == name)?;
        Some(&self.columns[i])
    }

    /// Histogram edges of `col` with `bins` equal-width bins; returns the
    /// `bins` upper edges used as scan predicates (footnote 14's `v_i`).
    pub(crate) fn histogram_edges(&self, col: &Column, bins: usize) -> Vec<f64> {
        assert!(bins >= 1);
        let n = col.len();
        if n == 0 {
            return Vec::new();
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..n {
            let v = col.get(i);
            if v.is_nan() {
                continue;
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if !lo.is_finite() || !hi.is_finite() {
            return Vec::new();
        }
        let width = (hi - lo) / bins as f64;
        (1..=bins).map(|k| lo + width * k as f64).collect()
    }

    /// Full table scan `col <= v`: count of matching rows (the selected
    /// rows would be materialized by Pandas; counting exercises the same
    /// per-row predicate work without allocation noise).
    pub fn scan_le(&self, col: &Column, v: f64) -> usize {
        let mut hits = 0usize;
        for i in 0..col.len() {
            if col.get(i) <= v {
                hits += 1;
            }
        }
        hits
    }

    /// The paper's full query benchmark: 10-bin histogram of the first
    /// column, then one scan per edge. Returns total matched rows (used
    /// as a checksum so the work cannot be optimized away).
    pub fn run_scan_benchmark(&self) -> usize {
        let Some(col) = self.columns.first() else {
            return 0;
        };
        let edges = self.histogram_edges(col, 10);
        edges.iter().map(|&v| self.scan_le(col, v)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn df() -> DataFrame {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f32> = (0..100).map(|i| (i * 2) as f32).collect();
        DataFrame::from_columns(vec![
            ColumnData::from_f64("a", &a),
            ColumnData::from_f32("b", &b),
        ])
        .unwrap()
    }

    #[test]
    fn shape_and_lookup() {
        let d = df();
        assert_eq!(d.column("a").map(Column::len), Some(100));
        assert_eq!(d.column("b").map(Column::len), Some(100));
        assert!(d.column("z").is_none());
    }

    #[test]
    fn mismatched_columns_rejected() {
        let a: Vec<f64> = vec![1.0, 2.0];
        let b: Vec<f64> = vec![1.0];
        let err = DataFrame::from_columns(vec![
            ColumnData::from_f64("a", &a),
            ColumnData::from_f64("b", &b),
        ])
        .unwrap_err();
        assert!(matches!(err, Error::BadDescriptor(_)));
    }

    #[test]
    fn scan_counts_match_manual_filter() {
        let d = df();
        let a = d.column("a").unwrap();
        assert_eq!(d.scan_le(a, 49.0), 50);
        assert_eq!(d.scan_le(a, -1.0), 0);
        assert_eq!(d.scan_le(a, 1000.0), 100);
    }

    #[test]
    fn histogram_edges_span_range() {
        let d = df();
        let a = d.column("a").unwrap();
        let edges = d.histogram_edges(a, 10);
        assert_eq!(edges.len(), 10);
        assert!((edges[9] - 99.0).abs() < 1e-9, "last edge = max");
        assert!((edges[0] - 9.9).abs() < 1e-9);
        // Edges are increasing.
        for w in edges.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn scan_benchmark_is_deterministic_and_plausible() {
        let d = df();
        let total = d.run_scan_benchmark();
        // Sum over 10 edges of counts 10,20,...,100 = 550.
        assert_eq!(total, 550);
        assert_eq!(d.run_scan_benchmark(), total);
    }

    #[test]
    fn nan_values_are_skipped_in_histogram() {
        let mut vals = vec![1.0f64, 2.0, 3.0];
        vals.push(f64::NAN);
        let d = DataFrame::from_columns(vec![ColumnData::from_f64("x", &vals)]).unwrap();
        let x = d.column("x").unwrap();
        let edges = d.histogram_edges(x, 2);
        assert_eq!(edges.len(), 2);
        assert!((edges[1] - 3.0).abs() < 1e-9);
    }
}
