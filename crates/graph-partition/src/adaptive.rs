//! Adaptive (migration-based) repartitioning.
//!
//! The adaptive method (Vaquero et al., SoCC 2013) starts from a hash
//! placement and iteratively migrates nodes towards the partition holding most
//! of their neighbours. It handles dynamic graphs but pays a large
//! communication bill for the migrations — the trade-off the paper's
//! greedy-adaptive method is designed to avoid. Included as an ablation
//! comparison point.

use crate::assignment::PartitionAssignment;
use crate::hash::HashPartitioner;
use graph_store::{AdjacencyGraph, NodeId, PartitionId};

/// Result of adaptive repartitioning.
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// Final node placement.
    pub assignment: PartitionAssignment,
    /// Total node migrations performed across all rounds (each one costs an
    /// inter-module transfer of the node's row data in a real deployment).
    pub migrations: usize,
    /// Number of refinement rounds executed.
    pub rounds: usize,
}

/// Partitions a graph by hash placement followed by `max_rounds` of greedy
/// neighbour-majority migrations under a `slack` capacity constraint.
///
/// # Examples
///
/// ```
/// let g = graph_gen::uniform::generate(500, 4.0, 1);
/// let result = graph_partition::adaptive::partition_graph(&g, 4, 1.05, 3);
/// assert_eq!(result.assignment.len(), g.node_count());
/// ```
pub fn partition_graph(
    graph: &AdjacencyGraph,
    num_modules: usize,
    slack: f64,
    max_rounds: usize,
) -> AdaptiveResult {
    let mut assignment = PartitionAssignment::new(num_modules);
    for node in graph.nodes() {
        assignment.assign(node, HashPartitioner::hash_partition(node, num_modules));
    }
    let capacity = ((graph.node_count() as f64 / num_modules as f64) * slack).ceil() as usize;
    let capacity = capacity.max(1);

    let mut nodes: Vec<NodeId> = graph.nodes().collect();
    nodes.sort();
    let mut total_migrations = 0usize;
    let mut rounds = 0usize;
    for _ in 0..max_rounds {
        rounds += 1;
        let mut moved_this_round = 0usize;
        for &node in &nodes {
            let Some(PartitionId::Pim(current)) = assignment.partition_of(node) else {
                continue;
            };
            let mut counts = vec![0usize; num_modules];
            for &(dst, _) in graph.neighbors(node) {
                if let Some(PartitionId::Pim(m)) = assignment.partition_of(dst) {
                    counts[m as usize] += 1;
                }
            }
            let (best, best_count) = counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, &c)| c)
                .map(|(i, &c)| (i as u32, c))
                .unwrap_or((current, 0));
            if best != current
                && best_count > counts[current as usize]
                && assignment.pim_node_count(best as usize) < capacity
            {
                assignment.assign(node, PartitionId::Pim(best));
                moved_this_round += 1;
            }
        }
        total_migrations += moved_this_round;
        if moved_this_round == 0 {
            break;
        }
    }
    AdaptiveResult { assignment, migrations: total_migrations, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionMetrics;
    use crate::StreamingPartitioner;

    #[test]
    fn improves_locality_over_plain_hash() {
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes: 1500,
            high_degree_fraction: 0.0,
            locality: 0.9,
            community_size: 128,
            ..Default::default()
        };
        let g = graph_gen::powerlaw::generate(&cfg, 9);
        let mut hash = HashPartitioner::new(8);
        for (s, d, _) in g.edges() {
            hash.on_edge(s, d);
        }
        let before = PartitionMetrics::compute(g.edges(), hash.assignment());
        let result = partition_graph(&g, 8, 1.10, 5);
        let after = PartitionMetrics::compute(g.edges(), &result.assignment);
        assert!(after.locality > before.locality);
        assert!(result.migrations > 0, "adaptive refinement should migrate nodes");
    }

    #[test]
    fn stops_early_when_converged() {
        let g = graph_gen::road::generate(100, 0.0, 1);
        let result = partition_graph(&g, 2, 2.0, 50);
        assert!(result.rounds < 50);
    }

    #[test]
    fn migration_count_reflects_work_done() {
        let g = graph_gen::uniform::generate(400, 3.0, 2);
        let one_round = partition_graph(&g, 4, 1.2, 1);
        let many_rounds = partition_graph(&g, 4, 1.2, 6);
        assert!(many_rounds.migrations >= one_round.migrations);
    }

    #[test]
    fn all_nodes_remain_assigned() {
        let g = graph_gen::uniform::generate(300, 3.0, 4);
        let result = partition_graph(&g, 4, 1.05, 3);
        assert_eq!(result.assignment.len(), g.node_count());
        assert_eq!(result.assignment.host_node_count(), 0);
    }
}
