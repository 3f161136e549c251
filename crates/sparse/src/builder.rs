//! Incremental builder for boolean sparse matrices.

use crate::matrix::SparseBoolMatrix;
use std::collections::BTreeSet;

/// An updatable boolean matrix that freezes into a [`SparseBoolMatrix`].
///
/// The host matrix engine sets every edge of a graph snapshot here and
/// freezes the result into CSR form for query execution.
///
/// # Examples
///
/// ```
/// use sparse::MatrixBuilder;
/// let mut b = MatrixBuilder::new(3, 3);
/// assert!(b.set(0, 1));
/// assert!(!b.set(0, 1));     // already present
/// assert_eq!(b.build().nnz(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MatrixBuilder {
    nrows: usize,
    ncols: usize,
    rows: Vec<BTreeSet<usize>>,
    nnz: usize,
}

impl MatrixBuilder {
    /// Creates an empty builder of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        MatrixBuilder { nrows, ncols, rows: vec![BTreeSet::new(); nrows], nnz: 0 }
    }

    /// Number of set entries.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Sets entry `(r, c)`. Returns `true` if the entry was newly set.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is out of bounds.
    pub fn set(&mut self, r: usize, c: usize) -> bool {
        assert!(r < self.nrows && c < self.ncols, "entry ({r}, {c}) out of bounds");
        let inserted = self.rows[r].insert(c);
        if inserted {
            self.nnz += 1;
        }
        inserted
    }

    /// Returns `true` if entry `(r, c)` is set.
    pub fn contains(&self, r: usize, c: usize) -> bool {
        r < self.nrows && self.rows[r].contains(&c)
    }

    /// Number of entries in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        if r < self.nrows {
            self.rows[r].len()
        } else {
            0
        }
    }

    /// Freezes the current contents into a CSR matrix.
    pub fn build(&self) -> SparseBoolMatrix {
        let rows: Vec<Vec<usize>> = self.rows.iter().map(|s| s.iter().copied().collect()).collect();
        SparseBoolMatrix::from_rows(self.nrows, self.ncols, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_operations_do_not_change_nnz() {
        let mut b = MatrixBuilder::new(2, 2);
        b.set(0, 1);
        assert!(!b.set(0, 1));
        assert_eq!(b.nnz(), 1);
    }

    #[test]
    fn build_produces_sorted_rows() {
        let mut b = MatrixBuilder::new(1, 5);
        b.set(0, 3);
        b.set(0, 1);
        b.set(0, 4);
        let m = b.build();
        assert_eq!(m.row(0), &[1, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_panics() {
        let mut b = MatrixBuilder::new(1, 1);
        b.set(5, 0);
    }

    #[test]
    fn out_of_bounds_rows_are_empty() {
        let b = MatrixBuilder::new(1, 1);
        assert!(!b.contains(10, 10));
        assert_eq!(b.row_nnz(10), 0);
    }
}
