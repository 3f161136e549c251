//! Graph partitioning algorithms for PIM-based graph databases.
//!
//! The paper's central contribution is a *PIM-friendly dynamic graph
//! partitioning algorithm* (Section 3.2) that combines:
//!
//! * a **labor-division approach** — high-degree nodes (out-degree > 16) are
//!   migrated to the host CPU, low-degree nodes are spread over PIM modules —
//!   and
//! * a **greedy-adaptive method** — new nodes are assigned to the partition of
//!   their *first* neighbour (the radical greedy heuristic), a dynamic 1.05×
//!   capacity constraint enforces load balance, and incorrectly partitioned
//!   nodes detected during path matching are migrated afterwards to recover
//!   locality.
//!
//! This crate implements that algorithm ([`GreedyAdaptivePartitioner`])
//! together with the comparison schemes discussed in the paper's background
//! section: consistent hashing ([`HashPartitioner`], used by the PIM-hash
//! contrast system), Linear Deterministic Greedy ([`ldg`]), and the
//! migration-based adaptive method ([`adaptive`]). [`metrics`] quantifies
//! partition quality (locality, edge cut, balance) for the ablation benches.
//!
//! # Examples
//!
//! ```
//! use graph_partition::{GreedyAdaptivePartitioner, StreamingPartitioner};
//! use graph_store::{NodeId, PartitionId};
//!
//! let mut p = GreedyAdaptivePartitioner::new(4);
//! p.on_edge(NodeId(0), NodeId(1));
//! // Node 1 follows its first neighbour (node 0) onto the same module.
//! assert_eq!(p.partition_of(NodeId(0)), p.partition_of(NodeId(1)));
//! ```
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod assignment;
pub mod greedy_adaptive;
pub mod hash;
pub mod ldg;
pub mod metrics;

pub use assignment::PartitionAssignment;
pub use greedy_adaptive::{GreedyAdaptiveConfig, GreedyAdaptivePartitioner, MigrationReport};
pub use hash::HashPartitioner;
pub use metrics::PartitionMetrics;

use graph_store::{NodeId, PartitionId, SnapshotState};

/// A partitioner that assigns graph nodes to computing nodes as edges stream in.
///
/// Implementations are driven edge-by-edge, matching how a graph database
/// ingests updates: the partitioner decides where a node lives the first time
/// it appears in the edge stream. The provided methods fit a partitioner that
/// keeps nothing beyond its assignment, such as [`HashPartitioner`].
pub trait StreamingPartitioner {
    /// Observes an inserted edge and assigns any previously unseen endpoint,
    /// source first. Returns the source's partition after the edge, which a
    /// promotion the edge triggered has already moved to the host.
    fn on_edge(&mut self, src: NodeId, dst: NodeId) -> PartitionId;

    /// Observes a deleted edge. Placement never changes on a delete; the
    /// default keeps no per-edge state to update.
    fn on_edge_delete(&mut self, src: NodeId, dst: NodeId) {
        let _ = (src, dst);
    }

    /// The partition a node is currently assigned to, if it has been seen.
    fn partition_of(&self, node: NodeId) -> Option<PartitionId>;

    /// The full node-to-partition assignment (the `node_partition_vector`).
    fn assignment(&self) -> &PartitionAssignment;

    /// Number of PIM modules the partitioner spreads nodes across.
    fn num_pim_modules(&self) -> usize;

    /// Writes this partitioner's parts of a durable image: the raw
    /// assignment slots and, for a partitioner that keeps them, the degree
    /// table and promotion log. The default writes the slots only.
    fn export_snapshot_parts(&self, image: &mut SnapshotState) {
        image.assignment_slots = self.assignment().export_slots();
    }

    /// Replaces this partitioner's state with the one `image` records.
    ///
    /// Returns `false` — leaving the partitioner untouched — when the image
    /// holds placement parts this partitioner cannot own, i.e. it was
    /// written by an engine placing rows some other way.
    fn restore_snapshot_parts(&mut self, image: &SnapshotState) -> bool;
}
