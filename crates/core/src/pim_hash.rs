//! The PIM-hash contrast system.

use crate::config::MoctopusConfig;
use crate::distributed::DistributedPimEngine;
use crate::engine::GraphEngine;
use graph_partition::HashPartitioner;
use graph_store::NodeId;

/// The PIM-hash contrast system evaluated in the paper: the same PIM execution
/// engine as Moctopus but with every graph node assigned to a PIM module by a
/// consistent hash — the partitioning scheme used by distributed graph
/// databases such as G-Tran and ByteGraph.
///
/// Hash placement is oblivious to locality (nearly every next-hop crosses the
/// narrow CPU↔PIM bus as inter-PIM traffic) and to skew (high-degree nodes
/// overload individual modules), which is precisely what Figures 4 and 5
/// measure against.
///
/// # Examples
///
/// ```
/// use moctopus::{GraphEngine, MoctopusConfig, NodeId, PimHashSystem};
/// let mut system = PimHashSystem::new(MoctopusConfig::small_test());
/// system.insert_edges(&[(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
/// let (results, _) = system.k_hop_batch(&[NodeId(0)], 2);
/// assert_eq!(results[0], vec![NodeId(2)]);
/// ```
pub type PimHashSystem = DistributedPimEngine<HashPartitioner>;

impl PimHashSystem {
    /// Creates an empty PIM-hash deployment.
    pub fn new(config: MoctopusConfig) -> Self {
        let partitioner = HashPartitioner::new(config.pim.num_modules);
        DistributedPimEngine::with_partitioner("PIM-hash", config, partitioner)
    }

    /// Builds a system by streaming an edge list (no refinement exists for
    /// hash placement).
    pub fn from_edge_stream(config: MoctopusConfig, edges: &[(NodeId, NodeId)]) -> Self {
        let mut system = Self::new(config);
        system.insert_edges(edges);
        system
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MoctopusSystem, PartitionId};

    #[test]
    fn hash_placement_never_uses_the_host() {
        let graph = graph_gen::powerlaw::generate(
            &graph_gen::powerlaw::PowerLawConfig {
                nodes: 800,
                high_degree_fraction: 0.05,
                ..Default::default()
            },
            4,
        );
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let system = PimHashSystem::from_edge_stream(MoctopusConfig::small_test(), &edges);
        let metrics = system.partition_metrics();
        assert_eq!(metrics.host_node_fraction, 0.0);
        assert_eq!(metrics.to_host_edges, 0);
    }

    #[test]
    fn skewed_graphs_imbalance_hash_more_than_moctopus() {
        // The Figure 4 "highly skewed graphs" effect: with hash placement a
        // hub's expansions all land on one module, making it the straggler.
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes: 1500,
            high_degree_fraction: 0.04,
            mean_high_degree: 128.0,
            ..Default::default()
        };
        let graph = graph_gen::powerlaw::generate(&cfg, 8);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let sources: Vec<NodeId> = (0..512u64).map(NodeId).collect();

        let mut hash = PimHashSystem::from_edge_stream(MoctopusConfig::small_test(), &edges);
        let mut moc = MoctopusSystem::from_edge_stream(MoctopusConfig::small_test(), &edges);
        let (_, _) = hash.k_hop_batch(&sources, 2);
        let (_, _) = moc.k_hop_batch(&sources, 2);
        assert!(
            hash.load_imbalance() > moc.load_imbalance(),
            "hash imbalance {} should exceed moctopus {}",
            hash.load_imbalance(),
            moc.load_imbalance()
        );
    }

    #[test]
    fn results_match_moctopus() {
        let graph = graph_gen::road::generate(400, 0.1, 3);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let mut hash = PimHashSystem::from_edge_stream(MoctopusConfig::small_test(), &edges);
        let mut moc = MoctopusSystem::from_edge_stream(MoctopusConfig::small_test(), &edges);
        let sources: Vec<NodeId> = (0..32u64).map(NodeId).collect();
        let (a, _) = hash.k_hop_batch(&sources, 4);
        let (b, _) = moc.k_hop_batch(&sources, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn hubs_stay_on_pim_modules() {
        let mut system = PimHashSystem::new(MoctopusConfig::small_test());
        let edges: Vec<(NodeId, NodeId)> = (1..=30u64).map(|i| (NodeId(0), NodeId(i))).collect();
        system.insert_edges(&edges);
        assert!(matches!(system.assignment().partition_of(NodeId(0)), Some(PartitionId::Pim(_))));
    }
}
