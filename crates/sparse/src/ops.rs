//! GraphBLAS-style operations over the boolean semiring.
//!
//! The paper's execution plans are sequences of these operations: `smxm`
//! (sparse matrix × matrix) performs one hop of path matching, element-wise
//! union/difference implement the `add`/`sub` graph-update operators, and the
//! row reduction implements the `mwait` result gathering.

use crate::matrix::SparseBoolMatrix;
use crate::scratch::EpochMarks;
use crate::vector::SparseBoolVector;

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
/// assert!(c.contains(0, 0));
/// assert_eq!(c.nnz(), 1);
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

/// Sparse vector × matrix product (`w = v ⊕.⊗ A`): one hop from a frontier.
///
/// # Panics
///
/// Panics if `v.len() != a.nrows()`.
pub fn vxm(v: &SparseBoolVector, a: &SparseBoolMatrix) -> SparseBoolVector {
    assert_eq!(v.len(), a.nrows(), "dimension mismatch: |v|={} vs {} rows", v.len(), a.nrows());
    let mut out = Vec::new();
    let mut marks = EpochMarks::with_capacity(a.ncols());
    marks.next_epoch();
    for &i in v.indices() {
        for &c in a.row(i) {
            if marks.mark(c) {
                out.push(c);
            }
        }
    }
    SparseBoolVector::from_indices(a.ncols(), out)
}

/// Element-wise union (`C = A ∪ B`), the `add` graph-update operator.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn ewise_union(a: &SparseBoolMatrix, b: &SparseBoolMatrix) -> SparseBoolMatrix {
    assert_eq!((a.nrows(), a.ncols()), (b.nrows(), b.ncols()), "shape mismatch");
    let mut rows: Vec<Vec<usize>> = Vec::with_capacity(a.nrows());
    for r in 0..a.nrows() {
        let mut row: Vec<usize> = a.row(r).to_vec();
        row.extend_from_slice(b.row(r));
        rows.push(row);
    }
    SparseBoolMatrix::from_rows(a.nrows(), a.ncols(), rows)
}

/// Element-wise difference (`C = A \ B`), the `sub` graph-update operator.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn ewise_difference(a: &SparseBoolMatrix, b: &SparseBoolMatrix) -> SparseBoolMatrix {
    assert_eq!((a.nrows(), a.ncols()), (b.nrows(), b.ncols()), "shape mismatch");
    let mut rows: Vec<Vec<usize>> = Vec::with_capacity(a.nrows());
    for r in 0..a.nrows() {
        let remove = b.row(r);
        let row: Vec<usize> =
            a.row(r).iter().copied().filter(|c| remove.binary_search(c).is_err()).collect();
        rows.push(row);
    }
    SparseBoolMatrix::from_rows(a.nrows(), a.ncols(), rows)
}

/// Raises the adjacency matrix to the `k`-th boolean power: `A^k`.
///
/// `k = 0` returns the identity. This is the textbook definition of k-hop
/// reachability from every source simultaneously.
pub fn matrix_power(a: &SparseBoolMatrix, k: usize) -> SparseBoolMatrix {
    assert_eq!(a.nrows(), a.ncols(), "matrix power requires a square matrix");
    let mut result = SparseBoolMatrix::identity(a.nrows());
    for _ in 0..k {
        result = mxm(&result, a);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatrixBuilder;

    /// 0 -> 1 -> 2 -> 3, plus 0 -> 2.
    fn chain() -> SparseBoolMatrix {
        SparseBoolMatrix::from_triplets(4, 4, &[(0, 1), (1, 2), (2, 3), (0, 2)])
    }

    #[test]
    fn mxm_matches_manual_two_hop() {
        let adj = chain();
        let two = mxm(&adj, &adj);
        // 0 -> {1,2} -> {2,3}; 1 -> 2 -> 3; 2 -> 3 -> {}.
        assert!(two.contains(0, 2));
        assert!(two.contains(0, 3));
        assert!(two.contains(1, 3));
        assert!(!two.contains(2, 3));
        assert_eq!(two.nnz(), 3);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mxm_checks_dimensions() {
        let a = SparseBoolMatrix::zeros(2, 3);
        let b = SparseBoolMatrix::zeros(2, 3);
        let _ = mxm(&a, &b);
    }

    #[test]
    fn vxm_expands_a_frontier() {
        let adj = chain();
        let v = SparseBoolVector::from_indices(4, vec![0]);
        let one_hop = vxm(&v, &adj);
        assert_eq!(one_hop.indices(), &[1, 2]);
        let two_hop = vxm(&one_hop, &adj);
        assert_eq!(two_hop.indices(), &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn vxm_checks_dimensions() {
        let v = SparseBoolVector::zeros(3);
        let a = SparseBoolMatrix::zeros(2, 2);
        let _ = vxm(&v, &a);
    }

    #[test]
    fn union_and_difference_are_inverse_for_disjoint_delta() {
        let adj = chain();
        let delta = SparseBoolMatrix::from_triplets(4, 4, &[(3, 0)]);
        let grown = ewise_union(&adj, &delta);
        assert_eq!(grown.nnz(), adj.nnz() + 1);
        let shrunk = ewise_difference(&grown, &delta);
        assert_eq!(shrunk, adj);
    }

    #[test]
    fn difference_ignores_missing_entries() {
        let adj = chain();
        let delta = SparseBoolMatrix::from_triplets(4, 4, &[(3, 3)]);
        assert_eq!(ewise_difference(&adj, &delta), adj);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn union_checks_shapes() {
        let a = SparseBoolMatrix::zeros(2, 2);
        let b = SparseBoolMatrix::zeros(3, 3);
        let _ = ewise_union(&a, &b);
    }

    #[test]
    fn matrix_power_zero_is_identity() {
        let adj = chain();
        assert_eq!(matrix_power(&adj, 0), SparseBoolMatrix::identity(4));
        assert_eq!(matrix_power(&adj, 1), adj);
    }

    #[test]
    fn matrix_power_matches_repeated_mxm() {
        let adj = chain();
        let via_power = matrix_power(&adj, 3);
        let manual = mxm(&mxm(&adj, &adj), &adj);
        assert_eq!(via_power, manual);
    }

    #[test]
    fn mxm_on_builder_snapshots_is_consistent_with_updates() {
        // Simulate the add/sub operator flow: update the builder, re-snapshot.
        let mut b = MatrixBuilder::from_matrix(&chain());
        b.set(3, 0);
        let adj2 = b.build();
        let reach = matrix_power(&adj2, 4);
        // With the cycle closed, node 0 can reach itself in 4 hops.
        assert!(reach.contains(0, 0));
    }
}
