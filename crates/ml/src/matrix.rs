//! Flat row-major feature matrices for batched inference.
//!
//! The serving path scores many concurrently submitted queries per forest
//! call. Collecting their feature rows into one contiguous buffer — instead
//! of a `Vec<Vec<f64>>` with one heap allocation per request — amortizes the
//! featurized-matrix layout across the whole batch, and the buffer is
//! reusable (`clear` keeps the allocation) so a long-lived batching worker
//! allocates only when a batch outgrows every previous one.

use crate::{MlError, Result};

/// A dense row-major matrix of feature rows with a fixed column count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureMatrix {
    width: usize,
    data: Vec<f64>,
}

impl FeatureMatrix {
    /// Creates an empty matrix whose rows will have `width` columns.
    pub fn new(width: usize) -> Self {
        Self {
            width,
            data: Vec::new(),
        }
    }

    /// Creates an empty matrix with capacity reserved for `rows` rows.
    pub fn with_capacity(width: usize, rows: usize) -> Self {
        Self {
            width,
            data: Vec::with_capacity(width * rows),
        }
    }

    /// Number of columns per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows currently stored.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.width).unwrap_or(0)
    }

    /// True when no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends one feature row. The row length must match the matrix width.
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        if row.len() != self.width {
            return Err(MlError::ShapeMismatch {
                detail: format!(
                    "feature row has {} columns, matrix expects {}",
                    row.len(),
                    self.width
                ),
            });
        }
        self.data.extend_from_slice(row);
        Ok(())
    }

    /// Appends one feature row from an iterator (avoids an intermediate
    /// `Vec` when the row is produced by a projection). The iterator must
    /// yield exactly `width` values.
    pub fn push_row_from(&mut self, row: impl IntoIterator<Item = f64>) -> Result<()> {
        let before = self.data.len();
        self.data.extend(row);
        let pushed = self.data.len() - before;
        if pushed != self.width {
            self.data.truncate(before);
            return Err(MlError::ShapeMismatch {
                detail: format!(
                    "feature row iterator yielded {pushed} columns, matrix expects {}",
                    self.width
                ),
            });
        }
        Ok(())
    }

    /// The `i`-th row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Iterates over the rows in insertion order.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> + Clone {
        self.data.chunks_exact(self.width.max(1))
    }

    /// Removes all rows, keeping the allocation (and optionally adopting a
    /// new width for the next batch).
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Clears the matrix and sets a new column count for subsequent rows.
    pub fn reset(&mut self, width: usize) {
        self.data.clear();
        self.width = width;
    }

    /// Builds a matrix by copying a slice of row vectors (all must share one
    /// length).
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let width = rows.first().map_or(0, Vec::len);
        let mut m = Self::with_capacity(width, rows.len());
        for row in rows {
            m.push_row(row)?;
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_rows() {
        let mut m = FeatureMatrix::new(3);
        assert!(m.is_empty());
        m.push_row(&[1.0, 2.0, 3.0]).unwrap();
        m.push_row(&[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        let collected: Vec<&[f64]> = m.rows().collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[0], &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let mut m = FeatureMatrix::new(2);
        assert!(m.push_row(&[1.0]).is_err());
        assert!(m.push_row_from([1.0, 2.0, 3.0]).is_err());
        // A failed push leaves the matrix unchanged.
        assert!(m.is_empty());
        m.push_row_from([7.0, 8.0]).unwrap();
        assert_eq!(m.row(0), &[7.0, 8.0]);
    }

    #[test]
    fn clear_keeps_allocation_reset_changes_width() {
        let mut m = FeatureMatrix::with_capacity(2, 4);
        m.push_row(&[1.0, 2.0]).unwrap();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.width(), 2);
        m.reset(3);
        m.push_row(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn from_rows_roundtrip() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = FeatureMatrix::from_rows(&rows).unwrap();
        assert_eq!(m.len(), 3);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(m.row(i), row.as_slice());
        }
        let ragged = vec![vec![1.0], vec![2.0, 3.0]];
        assert!(FeatureMatrix::from_rows(&ragged).is_err());
    }

    #[test]
    fn empty_width_zero_matrix_is_sane() {
        let m = FeatureMatrix::new(0);
        assert_eq!(m.len(), 0);
        assert!(m.rows().next().is_none());
    }
}
