//! A boolean sparse matrix kernel and the scratch set it deduplicates with.
//!
//! RedisGraph — the baseline system in the Moctopus paper — evaluates graph
//! queries by translating them into sparse matrix algebra over the boolean
//! semiring (GraphBLAS). The reproduction's baseline runs those plans row by
//! row over the graph's own sorted rows (`moctopus::host_baseline`), and no
//! workspace crate depends on this one: it is the contrast kernel that the
//! benchmark's `sparse.mxm.ns_per_nnz` and `sparse.marks.ns_per_mark` layers
//! time, and it goes once they retire.
//!
//! * [`SparseBoolMatrix`] — an immutable CSR boolean matrix.
//! * [`ops`] — `mxm` (matrix × matrix) over the boolean semiring: one hop
//!   of path matching.
//! * [`EpochMarks`] — the SuiteSparse-style generation-stamped scratch set
//!   the kernels use to deduplicate produced entries without per-row
//!   clearing.
//!
//! # Examples
//!
//! ```
//! use sparse::{ops, SparseBoolMatrix};
//!
//! // A 3-node cycle 0 -> 1 -> 2 -> 0.
//! let adj = SparseBoolMatrix::from_triplets(3, 3, &[(0, 1), (1, 2), (2, 0)]);
//!
//! // Two-hop reachability = Adj * Adj.
//! let two_hop = ops::mxm(&adj, &adj);
//! assert_eq!(two_hop.row(0), &[2]);
//! ```
#![forbid(unsafe_code)]

pub mod matrix;
pub mod ops;
pub mod scratch;

pub use matrix::SparseBoolMatrix;
pub use scratch::EpochMarks;
