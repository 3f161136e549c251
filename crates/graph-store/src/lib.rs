//! Graph storage substrates used by the Moctopus reproduction.
//!
//! The crate provides every storage structure the paper's system relies on:
//!
//! * [`ids`] — strongly-typed identifiers ([`NodeId`], [`PartitionId`], [`Label`])
//!   and [`IdMap`], the hash map every id-keyed structure below uses.
//! * [`rows`] — [`SortedRows`], the one sorted-row table behind the local
//!   stores' and the whole-graph view's forward and reverse rows and every
//!   other reverse index.
//! * [`adjacency`] — a dynamic, labelled, directed adjacency-list graph; the
//!   logical "whole graph" view used by generators and baselines.
//! * [`local`] — the per-PIM-module *local graph storage*: a hash map from row
//!   id (NodeId) to row data (labelled next-hop pairs), exactly as described
//!   in Section 3.1 of the paper.
//! * [`heterogeneous`] — the *heterogeneous graph storage* of Section 3.3 for
//!   high-degree nodes kept on the host: a contiguous `cols_vector` on the
//!   host plus `elem_position_map` / `free_list_map` hash maps on the PIM side.
//! * [`degree`] — out-degree tracking and the high-degree threshold (16).
//! * [`labelstats`] — per-label edge/cardinality counters, kept by the row
//!   tables; the input of the cost-based RPQ plan optimizer.
//! * [`edgelist`] — SNAP-style (optionally labelled) edge-list import.
//! * [`snapshot`] / [`wal`] / [`durable`] — the durable storage plane: a
//!   versioned, checksummed snapshot format, an append-only labelled-edge
//!   write-ahead log with per-record CRC and torn-tail-tolerant recovery, and
//!   the generation-numbered store façade tying them together (STORAGE.md).
//!
//! # Examples
//!
//! ```
//! use graph_store::{AdjacencyGraph, Label, NodeId};
//!
//! let mut g = AdjacencyGraph::new();
//! g.insert_edge(NodeId(0), NodeId(1), Label::default());
//! g.insert_edge(NodeId(1), NodeId(2), Label::default());
//! assert_eq!(g.out_degree(NodeId(0)), 1);
//! assert_eq!(g.edge_count(), 2);
//! ```
#![forbid(unsafe_code)]

pub mod adjacency;
mod bytes;
pub mod degree;
pub mod durable;
pub mod edgelist;
pub mod error;
pub mod heterogeneous;
pub mod ids;
pub mod labelstats;
pub mod local;
pub mod rows;
pub mod snapshot;
pub mod wal;

pub use adjacency::AdjacencyGraph;
pub use degree::{DegreeTracker, HIGH_DEGREE_THRESHOLD};
pub use durable::{
    current_generation, generation_snapshot_path, generation_wal_path, DurableStore, RecoveredState,
};
pub use error::GraphStoreError;
pub use heterogeneous::{HeterogeneousStorage, UpdateCost, UpdateOutcome};
pub use ids::{IdMap, Label, LabeledEdgeKey, NodeId, PartitionId};
pub use labelstats::{LabelCounters, LabelStatsSnapshot, LabelStatsTable};
pub use local::LocalGraphStorage;
pub use rows::SortedRows;
pub use snapshot::{HostRowSnapshot, LocalModuleSnapshot, SnapshotState};
pub use wal::{TornTail, WalDecode, WalOp, WalRecord, WalWriter};
