//! The Moctopus system: the paper's primary contribution.

use crate::config::MoctopusConfig;
use crate::distributed::DistributedPimEngine;
use crate::engine::GraphEngine;
use graph_partition::GreedyAdaptivePartitioner;
use graph_store::NodeId;

/// The Moctopus PIM-based graph data management system.
///
/// Moctopus couples the shared distributed execution engine with the paper's
/// PIM-friendly dynamic graph partitioning algorithm: labor division sends
/// high-degree rows to the host, the radical greedy heuristic keeps
/// neighbouring low-degree rows on the same PIM module, a dynamic 1.05×
/// capacity constraint maintains load balance, and the node migrator repairs
/// incorrectly partitioned rows detected during path matching
/// ([`DistributedPimEngine::refine_locality`]).
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
pub type MoctopusSystem = DistributedPimEngine<GreedyAdaptivePartitioner>;

impl MoctopusSystem {
    /// Creates an empty Moctopus deployment.
    pub fn new(config: MoctopusConfig) -> Self {
        let partitioner = GreedyAdaptivePartitioner::with_config(config.partitioner_config());
        DistributedPimEngine::with_partitioner("Moctopus", config, partitioner)
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
}

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
