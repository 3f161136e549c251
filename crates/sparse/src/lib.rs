//! Boolean sparse matrices with GraphBLAS-style operations.
//!
//! RedisGraph — the baseline system in the Moctopus paper — evaluates graph
//! queries by translating them into sparse matrix algebra over the boolean
//! semiring (GraphBLAS). This crate provides the same substrate for the
//! reproduction:
//!
//! * [`SparseBoolMatrix`] — an immutable CSR boolean matrix (the adjacency
//!   matrix and the `Q` / `ans` matrices of the paper's execution plans).
//! * [`MatrixBuilder`] — an incremental builder that sets entries before
//!   freezing into CSR form.
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
//! use sparse::{MatrixBuilder, ops};
//!
//! // A 3-node cycle 0 -> 1 -> 2 -> 0.
//! let mut b = MatrixBuilder::new(3, 3);
//! b.set(0, 1);
//! b.set(1, 2);
//! b.set(2, 0);
//! let adj = b.build();
//!
//! // Two-hop reachability = Adj * Adj.
//! let two_hop = ops::mxm(&adj, &adj);
//! assert!(two_hop.contains(0, 2));
//! assert!(!two_hop.contains(0, 1));
//! ```
#![forbid(unsafe_code)]

pub mod builder;
pub mod matrix;
pub mod ops;
pub mod product;
pub mod scratch;

pub use builder::MatrixBuilder;
pub use matrix::SparseBoolMatrix;
pub use product::ProductSet;
pub use scratch::{EpochMarks, OrderedBitmap};
