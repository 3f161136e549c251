//! Immutable CSR boolean sparse matrix.

/// A boolean sparse matrix in compressed-sparse-row form.
///
/// Rows store sorted, deduplicated column indices. The matrix is immutable;
/// build one from triplets.
///
/// # Examples
///
/// ```
/// use sparse::SparseBoolMatrix;
/// let m = SparseBoolMatrix::from_triplets(2, 3, &[(0, 2), (1, 0), (0, 2)]);
/// assert_eq!(m.row(0), &[2]);
/// assert_eq!(m.row(1), &[0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SparseBoolMatrix {
    nrows: usize,
    ncols: usize,
    /// Row offsets into `cols`; length `nrows + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted column indices.
    cols: Vec<usize>,
}

impl SparseBoolMatrix {
    /// Builds a matrix from `(row, col)` triplets; duplicates are collapsed.
    ///
    /// # Panics
    ///
    /// Panics if any triplet is out of bounds.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize)]) -> Self {
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); nrows];
        for &(r, c) in triplets {
            assert!(r < nrows && c < ncols, "triplet ({r}, {c}) out of bounds {nrows}x{ncols}");
            rows[r].push(c);
        }
        Self::from_rows(nrows, ncols, rows)
    }

    /// Builds a matrix from per-row column lists (sorted and deduplicated here).
    pub(crate) fn from_rows(nrows: usize, ncols: usize, mut rows: Vec<Vec<usize>>) -> Self {
        rows.resize(nrows, Vec::new());
        let mut offsets = Vec::with_capacity(nrows + 1);
        let mut cols = Vec::new();
        offsets.push(0);
        for row in &mut rows {
            row.sort_unstable();
            row.dedup();
            cols.extend_from_slice(row);
            offsets.push(cols.len());
        }
        SparseBoolMatrix { nrows, ncols, offsets, cols }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The sorted column indices of row `r` (empty if out of range).
    pub fn row(&self, r: usize) -> &[usize] {
        if r >= self.nrows {
            return &[];
        }
        &self.cols[self.offsets[r]..self.offsets[r + 1]]
    }

    /// Number of entries in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row(r).len()
    }

    /// Iterates over all set entries as `(row, col)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.nrows).flat_map(move |r| self.row(r).iter().map(move |&c| (r, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_triplets_sorts_and_dedups() {
        let m = SparseBoolMatrix::from_triplets(2, 5, &[(0, 4), (0, 1), (0, 4), (1, 0)]);
        assert_eq!(m.row(0), &[1, 4]);
        assert_eq!(m.row(1), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_triplet_panics() {
        let _ = SparseBoolMatrix::from_triplets(2, 2, &[(2, 0)]);
    }

    #[test]
    fn iter_yields_the_triplets_in_row_order() {
        let trip = vec![(0, 1), (1, 0), (1, 2)];
        let m = SparseBoolMatrix::from_triplets(2, 3, &trip);
        assert_eq!(m.iter().collect::<Vec<_>>(), trip);
    }

    #[test]
    fn out_of_range_rows_are_empty() {
        let m = SparseBoolMatrix::from_triplets(2, 2, &[(0, 0)]);
        assert_eq!(m.row(99), &[]);
        assert_eq!(m.row_nnz(99), 0);
    }
}
