//! GraphBLAS-style operations over the boolean semiring.
//!
//! The paper's execution plans are sequences of GraphBLAS operations; `smxm`
//! (sparse matrix × matrix) performs one hop of path matching. The host
//! baseline runs that product row by row over the graph's own rows
//! (`moctopus::host_baseline`); this kernel remains as the contrast the
//! benchmark times.

use crate::matrix::SparseBoolMatrix;
use crate::scratch::EpochMarks;

/// Boolean sparse matrix × matrix product (`C = A ⊕.⊗ B` over OR/AND).
///
/// Runs Gustavson's row-wise algorithm with an epoch-stamped dense scratch
/// row ([`EpochMarks`]), the same strategy SuiteSparse:GraphBLAS uses for
/// boolean `mxm`: bumping the generation counter clears the scratch in O(1)
/// instead of unmarking every produced column.
///
/// # Panics
///
/// Panics if `a.ncols() != b.nrows()`.
///
/// # Examples
///
/// ```
/// use sparse::{SparseBoolMatrix, ops};
/// let a = SparseBoolMatrix::from_triplets(1, 3, &[(0, 1)]);
/// let b = SparseBoolMatrix::from_triplets(3, 2, &[(1, 0)]);
/// let c = ops::mxm(&a, &b);
/// assert_eq!(c.row(0), &[0]);
/// ```
pub fn mxm(a: &SparseBoolMatrix, b: &SparseBoolMatrix) -> SparseBoolMatrix {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "dimension mismatch: {}x{} * {}x{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    let mut rows: Vec<Vec<usize>> = Vec::with_capacity(a.nrows());
    let mut marks = EpochMarks::with_capacity(b.ncols());
    for r in 0..a.nrows() {
        let mut out = Vec::new();
        marks.next_epoch();
        for &k in a.row(r) {
            for &c in b.row(k) {
                if marks.mark(c) {
                    out.push(c);
                }
            }
        }
        rows.push(out);
    }
    SparseBoolMatrix::from_rows(a.nrows(), b.ncols(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -> 1 -> 2 -> 3, plus 0 -> 2.
    fn chain() -> SparseBoolMatrix {
        SparseBoolMatrix::from_triplets(4, 4, &[(0, 1), (1, 2), (2, 3), (0, 2)])
    }

    #[test]
    fn mxm_matches_manual_two_hop() {
        let adj = chain();
        let two = mxm(&adj, &adj);
        // 0 -> {1,2} -> {2,3}; 1 -> 2 -> 3; 2 -> 3 -> {}.
        assert_eq!(two.iter().collect::<Vec<_>>(), [(0, 2), (0, 3), (1, 3)]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mxm_checks_dimensions() {
        let a = SparseBoolMatrix::from_triplets(2, 3, &[]);
        let b = SparseBoolMatrix::from_triplets(2, 3, &[]);
        let _ = mxm(&a, &b);
    }

    #[test]
    fn mxm_on_builder_snapshots_is_consistent_with_updates() {
        // Simulate the add operator flow: add an edge, re-snapshot.
        let mut triplets: Vec<(usize, usize)> = chain().iter().collect();
        triplets.push((3, 0));
        let adj2 = SparseBoolMatrix::from_triplets(4, 4, &triplets);
        let reach = (1..4).fold(adj2.clone(), |acc, _| mxm(&acc, &adj2));
        // With the cycle closed, node 0 can reach itself in 4 hops.
        assert_eq!(reach.row(0).first(), Some(&0));
    }
}
