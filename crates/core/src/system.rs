//! The Moctopus system: the paper's primary contribution.

use crate::config::MoctopusConfig;
use crate::deps::{QueryDeps, UpdateFootprint};
use crate::distributed::{DistributedPimEngine, PlacementPolicy};
use crate::engine::GraphEngine;
use crate::stats::{QueryStats, UpdateStats};
use graph_partition::{GreedyAdaptivePartitioner, MigrationReport, PartitionMetrics};
use graph_store::{Label, LabelStatsSnapshot, NodeId, PartitionId, SnapshotState};
use pim_sim::Timeline;
use rpq::{PlanStrategy, RpqExpr};

/// The Moctopus PIM-based graph data management system.
///
/// Moctopus couples the shared distributed execution engine with the paper's
/// PIM-friendly dynamic graph partitioning algorithm: labor division sends
/// high-degree rows to the host, the radical greedy heuristic keeps
/// neighbouring low-degree rows on the same PIM module, a dynamic 1.05×
/// capacity constraint maintains load balance, and the node migrator repairs
/// incorrectly partitioned rows detected during path matching.
///
/// # Examples
///
/// ```
/// use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem, NodeId};
///
/// let edges: Vec<(NodeId, NodeId)> = (0..32u64).map(|i| (NodeId(i), NodeId((i + 1) % 32))).collect();
/// let mut moctopus = MoctopusSystem::new(MoctopusConfig::small_test());
/// moctopus.insert_edges(&edges);
/// let (results, _stats) = moctopus.k_hop_batch(&[NodeId(4)], 2);
/// assert_eq!(results[0], vec![NodeId(6)]);
/// ```
#[derive(Debug, Clone)]
pub struct MoctopusSystem {
    engine: DistributedPimEngine,
}

impl MoctopusSystem {
    /// Creates an empty Moctopus deployment.
    pub fn new(config: MoctopusConfig) -> Self {
        let partitioner = GreedyAdaptivePartitioner::with_config(config.partitioner_config());
        MoctopusSystem {
            engine: DistributedPimEngine::new(config, PlacementPolicy::GreedyAdaptive(partitioner)),
        }
    }

    /// Builds a system by streaming an edge list through the partitioner and
    /// then running one locality-refinement pass, the steady state a
    /// long-running deployment converges to.
    pub fn from_edge_stream(config: MoctopusConfig, edges: &[(NodeId, NodeId)]) -> Self {
        let mut system = Self::new(config);
        system.insert_edges(edges);
        system.refine_locality();
        system
    }

    /// The system configuration.
    pub fn config(&self) -> &MoctopusConfig {
        self.engine.config()
    }

    /// Runs the detection-and-migration refinement pass (Section 3.2.2) and
    /// returns what it did and how long it took.
    pub fn refine_locality(&mut self) -> (MigrationReport, Timeline) {
        self.engine.refine_locality()
    }

    /// Partition-quality metrics of the current placement.
    pub fn partition_metrics(&self) -> PartitionMetrics {
        self.engine.partition_metrics()
    }

    /// Where a node's row currently lives.
    pub fn partition_of(&self, node: NodeId) -> Option<PartitionId> {
        self.engine.assignment().partition_of(node)
    }

    /// Number of rows promoted to the host (high-degree nodes).
    pub fn host_row_count(&self) -> usize {
        self.engine.host_row_count()
    }

    /// Load-imbalance factor across PIM modules observed so far.
    pub fn load_imbalance(&self) -> f64 {
        self.engine.load_imbalance()
    }

    /// Access to the underlying distributed engine (for experiments that need
    /// transfer counters or the PIM platform state).
    pub fn engine(&self) -> &DistributedPimEngine {
        &self.engine
    }
}

/// Implements [`GraphEngine`] for a system that is a
/// [`DistributedPimEngine`] under one placement policy, held in a field named
/// `engine`: every method forwards to the engine's inherent method, so the
/// two PIM systems differ in their constructors and `name()` only. The
/// invoking module imports the types of the trait's signatures.
macro_rules! impl_graph_engine_over_pim {
    ($system:ident, $name:literal) => {
        impl GraphEngine for $system {
            fn name(&self) -> &'static str {
                $name
            }

            fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> UpdateStats {
                self.engine.insert_edges(edges)
            }

            fn delete_edges(&mut self, edges: &[(NodeId, NodeId)]) -> UpdateStats {
                self.engine.delete_edges(edges)
            }

            fn insert_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
                self.engine.insert_labeled_edges(edges)
            }

            fn delete_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
                self.engine.delete_labeled_edges(edges)
            }

            fn k_hop_batch(
                &mut self,
                sources: &[NodeId],
                k: usize,
            ) -> (Vec<Vec<NodeId>>, QueryStats) {
                self.engine.k_hop_batch(sources, k)
            }

            fn rpq_batch(
                &mut self,
                expr: &RpqExpr,
                sources: &[NodeId],
            ) -> (Vec<Vec<NodeId>>, QueryStats) {
                self.engine.rpq_batch(expr, sources)
            }

            fn rpq_batch_planned(
                &mut self,
                expr: &RpqExpr,
                sources: &[NodeId],
                strategy: PlanStrategy,
            ) -> (Vec<Vec<NodeId>>, QueryStats) {
                self.engine.rpq_batch_planned(expr, sources, strategy)
            }

            fn rpq_batch_tracked(
                &mut self,
                expr: &RpqExpr,
                sources: &[NodeId],
            ) -> (Vec<Vec<NodeId>>, QueryStats, QueryDeps) {
                self.engine.rpq_batch_tracked(expr, sources)
            }

            fn insert_labeled_edges_tracked(
                &mut self,
                edges: &[(NodeId, NodeId, Label)],
            ) -> (UpdateStats, UpdateFootprint) {
                self.engine.insert_labeled_edges_tracked(edges)
            }

            fn delete_labeled_edges_tracked(
                &mut self,
                edges: &[(NodeId, NodeId, Label)],
            ) -> (UpdateStats, UpdateFootprint) {
                self.engine.delete_labeled_edges_tracked(edges)
            }

            fn edge_count(&self) -> usize {
                self.engine.edge_count()
            }

            fn set_threads(&mut self, threads: usize) {
                self.engine.set_threads(threads);
            }

            fn threads(&self) -> usize {
                self.engine.threads()
            }

            fn export_snapshot(&self) -> Option<SnapshotState> {
                Some(self.engine.export_storage())
            }

            fn restore_snapshot(&mut self, snapshot: &SnapshotState) -> bool {
                self.engine.restore_storage(snapshot)
            }

            fn label_stats(&self) -> LabelStatsSnapshot {
                self.engine.label_stats()
            }

            fn export_rev_rows(&self) -> Vec<(NodeId, Vec<(NodeId, Label)>)> {
                self.engine.export_rev_rows()
            }
        }
    };
}
pub(crate) use impl_graph_engine_over_pim;

impl_graph_engine_over_pim!(MoctopusSystem, "Moctopus");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edge_stream_builds_and_refines() {
        let graph = graph_gen::uniform::generate(400, 3.0, 5);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let system = MoctopusSystem::from_edge_stream(MoctopusConfig::small_test(), &edges);
        assert_eq!(system.edge_count(), edges.len());
        let metrics = system.partition_metrics();
        assert!(metrics.load_balance_factor < 2.0);
    }

    #[test]
    fn hubs_are_reported_on_the_host() {
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes: 1000,
            high_degree_fraction: 0.05,
            ..Default::default()
        };
        let graph = graph_gen::powerlaw::generate(&cfg, 2);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let system = MoctopusSystem::from_edge_stream(MoctopusConfig::small_test(), &edges);
        assert!(system.host_row_count() > 0);
        let metrics = system.partition_metrics();
        assert!(metrics.host_node_fraction > 0.0);
    }

    #[test]
    fn query_results_match_the_reference_evaluator() {
        let graph = graph_gen::uniform::generate(300, 4.0, 9);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let mut system = MoctopusSystem::from_edge_stream(MoctopusConfig::small_test(), &edges);
        let reference = rpq::ReferenceEvaluator::new(&graph);
        let sources: Vec<NodeId> = (0..16u64).map(NodeId).collect();
        for k in 1..=3usize {
            let (got, _) = system.k_hop_batch(&sources, k);
            let want = reference.k_hop(&sources, k);
            for (g, w) in got.iter().zip(want.iter()) {
                let w: Vec<NodeId> = w.iter().copied().collect();
                assert_eq!(g, &w, "mismatch at k = {k}");
            }
        }
    }

    #[test]
    fn load_imbalance_starts_at_one() {
        let system = MoctopusSystem::new(MoctopusConfig::small_test());
        assert_eq!(system.load_imbalance(), 1.0);
        assert_eq!(system.config().pim.num_modules, 8);
    }
}
