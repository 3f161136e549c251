//! Workspace façade for the Moctopus reproduction.
//!
//! This crate exists so the repository-level integration tests (`tests/`) and
//! runnable examples (`examples/`) have a package to hang off, and so
//! `cargo doc` produces one landing page linking every layer. All real code
//! lives in the member crates, re-exported here one module per crate:
//!
//! | Module | Crate | Layer |
//! |--------|-------|-------|
//! | [`sparse`] | `crates/sparse` | GraphBLAS-style boolean matrices |
//! | [`graph_store`] | `crates/graph-store` | adjacency / CSR / heterogeneous storage |
//! | [`graph_gen`] | `crates/graph-gen` | synthetic trace generators |
//! | [`graph_partition`] | `crates/graph-partition` | streaming partitioners |
//! | [`pim_sim`] | `crates/pim-sim` | PIM hardware cost model |
//! | [`rpq`] | `crates/rpq` | RPQ parser, automaton, matrix plans |
//! | [`moctopus_runtime`] | `crates/runtime` | deterministic worker-pool execution runtime + request sequencing |
//! | [`moctopus`] | `crates/core` | the three engines |
//! | [`moctopus_server`] | `crates/server` | concurrent serving layer + update-consistent result cache |
//! | [`moctopus_bench`] | `crates/bench` | experiment harness |
//!
//! Start with [`moctopus`] — its crate docs carry the quick-start — and see
//! `ARCHITECTURE.md` at the repository root for the end-to-end story.
#![forbid(unsafe_code)]

pub use graph_gen;
pub use graph_partition;
pub use graph_store;
pub use moctopus;
pub use moctopus_bench;
pub use moctopus_runtime;
pub use moctopus_server;
pub use pim_sim;
pub use rpq;
pub use sparse;
