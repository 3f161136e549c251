//! Dense scratch sets for graph traversals, and a boolean sparse matrix
//! kernel.
//!
//! RedisGraph — the baseline system in the Moctopus paper — evaluates graph
//! queries by translating them into sparse matrix algebra over the boolean
//! semiring (GraphBLAS). The reproduction's baseline runs those plans row by
//! row over the graph's own sorted rows (`moctopus::host_baseline`), so
//! the matrix half of this crate is only the contrast kernel the benchmark's
//! `sparse.mxm.ns_per_nnz` layer times:
//!
//! * [`SparseBoolMatrix`] — an immutable CSR boolean matrix.
//! * [`ops`] — `mxm` (matrix × matrix) over the boolean semiring: one hop
//!   of path matching.
//! * [`EpochMarks`] — the SuiteSparse-style generation-stamped scratch set the
//!   kernels (and the distributed query engine in `moctopus`) use to
//!   deduplicate produced entries without per-row clearing, and
//!   [`OrderedBitmap`], which sorts and deduplicates a frontier by setting
//!   bits and scanning words.
//! * [`ProductSet`] — a set of `(node, automaton state)` pairs that starts
//!   sparse and promotes itself to a bitset: the per-query visited set of a
//!   regular-path traversal. A pair inside the key space *is* its node-major
//!   key `node × states + state`; a traversal that carries keys (frontiers,
//!   memoised successors) talks to the set through
//!   [`ProductSet::insert_key`] / [`ProductSet::contains_key`] and never
//!   multiplies or divides, and [`OrderedBitmap::sort_dedup`] orders such a
//!   frontier with the identity mapping.
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
pub mod product;
pub mod scratch;

pub use matrix::SparseBoolMatrix;
pub use product::ProductSet;
pub use scratch::{EpochMarks, OrderedBitmap};
