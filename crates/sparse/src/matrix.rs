//! Immutable CSR boolean sparse matrix.

use std::fmt;

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
/// assert_eq!(m.nnz(), 2);
/// assert!(m.contains(0, 2));
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
    /// Creates an empty matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        SparseBoolMatrix { nrows, ncols, offsets: vec![0; nrows + 1], cols: Vec::new() }
    }

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

    /// Number of stored (true) entries.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Returns `true` if no entry is set.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
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

    /// Returns `true` if entry `(r, c)` is set.
    pub fn contains(&self, r: usize, c: usize) -> bool {
        self.row(r).binary_search(&c).is_ok()
    }

    /// Iterates over all set entries as `(row, col)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.nrows).flat_map(move |r| self.row(r).iter().map(move |&c| (r, c)))
    }

    /// Approximate resident bytes of the CSR arrays.
    pub fn approx_bytes(&self) -> u64 {
        ((self.offsets.len() + self.cols.len()) * std::mem::size_of::<usize>()) as u64
    }
}

impl fmt::Display for SparseBoolMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SparseBoolMatrix {}x{} ({} nnz)", self.nrows, self.ncols, self.nnz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_the_shape_and_no_entries() {
        let z = SparseBoolMatrix::zeros(3, 4);
        assert_eq!(z.nnz(), 0);
        assert!(z.is_empty());
        assert_eq!(z.nrows(), 3);
        assert_eq!(z.ncols(), 4);
    }

    #[test]
    fn from_triplets_sorts_and_dedups() {
        let m = SparseBoolMatrix::from_triplets(2, 5, &[(0, 4), (0, 1), (0, 4), (1, 0)]);
        assert_eq!(m.row(0), &[1, 4]);
        assert_eq!(m.nnz(), 3);
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
        assert!(!m.contains(99, 0));
    }

    #[test]
    fn display_reports_shape_and_nnz() {
        let m = SparseBoolMatrix::from_triplets(2, 2, &[(0, 0)]);
        assert_eq!(m.to_string(), "SparseBoolMatrix 2x2 (1 nnz)");
    }

    #[test]
    fn approx_bytes_nonzero() {
        let m = SparseBoolMatrix::from_triplets(4, 4, &[(0, 1), (2, 3)]);
        assert!(m.approx_bytes() > 0);
    }
}
