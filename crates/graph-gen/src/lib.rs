//! Synthetic SNAP-like workload generators for the Moctopus reproduction.
//!
//! The paper evaluates on 15 real-world SNAP graphs (Table 1). Downloading
//! those traces is not possible in this environment, so this crate generates
//! synthetic graphs that reproduce the properties the evaluation actually
//! depends on:
//!
//! * **Scale** — node count per trace (optionally scaled down uniformly).
//! * **Skew** — the fraction of high-degree nodes (out-degree > 16), which
//!   drives load imbalance across PIM modules and the host/PIM labor division.
//! * **Locality** — road networks are near-planar grids with only local edges,
//!   while web/social graphs mix community-local edges with long-range ones;
//!   this determines how much inter-PIM communication a partitioning scheme
//!   can avoid.
//!
//! The crate exposes three generator families ([`road`], [`powerlaw`],
//! [`uniform`]), the per-trace specifications of Table 1 ([`traces`]),
//! graph statistics for regenerating Table 1 ([`stats`]), helpers for
//! building dynamic update workloads ([`stream`]), and a Zipf-mix edge-label
//! generator for regular-path-query workloads ([`labels`]).
//!
//! # Examples
//!
//! ```
//! use graph_gen::traces::TraceSpec;
//!
//! // Generate a 1/64-scale stand-in for wiki-Talk (trace #8).
//! let spec = TraceSpec::by_trace_id(8).expect("trace #8 exists");
//! let graph = spec.generate(1.0 / 64.0, 42);
//! assert!(graph.node_count() > 1000);
//! ```
#![forbid(unsafe_code)]

pub mod labels;
pub mod powerlaw;
pub mod road;
pub mod stats;
pub mod stream;
pub mod traces;
pub mod uniform;

pub use stats::GraphStats;
pub use traces::{GraphFamily, TraceSpec};
