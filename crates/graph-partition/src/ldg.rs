//! Linear Deterministic Greedy (LDG) streaming partitioning.
//!
//! LDG (Stanton & Kliot, KDD 2012) assigns each arriving node to the partition
//! that already contains most of its neighbours, weighted by the partition's
//! remaining capacity. It preserves locality well but, as the paper points
//! out, it must scan every partition per node (expensive when the "partitions"
//! are tens or hundreds of PIM modules) and it needs the total node count in
//! advance to set capacities — which dynamic graph databases do not know.
//! It is included as an offline comparison point for the ablation benches.

use crate::assignment::PartitionAssignment;
use graph_store::{AdjacencyGraph, NodeId, PartitionId};

/// Partitions a fully known graph over `num_modules` partitions with LDG.
///
/// Nodes are streamed in ascending id order (the standard LDG setting). The
/// per-partition capacity is `ceil(n / num_modules) * slack`.
///
/// # Panics
///
/// Panics if `num_modules == 0`.
///
/// # Examples
///
/// ```
/// let g = graph_gen::road::generate(256, 0.0, 1);
/// let assignment = graph_partition::ldg::partition_graph(&g, 4, 1.05);
/// assert_eq!(assignment.len(), g.node_count());
/// ```
pub fn partition_graph(
    graph: &AdjacencyGraph,
    num_modules: usize,
    slack: f64,
) -> PartitionAssignment {
    assert!(num_modules > 0, "at least one partition is required");
    let n = graph.node_count();
    let capacity = ((n as f64 / num_modules as f64).ceil() * slack).ceil() as usize;
    let capacity = capacity.max(1);
    let mut assignment = PartitionAssignment::new(num_modules);

    let mut nodes: Vec<NodeId> = graph.nodes().collect();
    nodes.sort();
    for node in nodes {
        let mut scores = vec![0usize; num_modules];
        for &(dst, _) in graph.neighbors(node) {
            if let Some(PartitionId::Pim(m)) = assignment.partition_of(dst) {
                scores[m as usize] += 1;
            }
        }
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (m, &neighbor_score) in scores.iter().enumerate() {
            let size = assignment.pim_node_count(m);
            if size >= capacity {
                continue;
            }
            let weight = 1.0 - size as f64 / capacity as f64;
            let score = neighbor_score as f64 * weight + weight * 1e-6;
            if score > best_score {
                best_score = score;
                best = m;
            }
        }
        if best_score == f64::NEG_INFINITY {
            // All partitions full (can only happen due to rounding): pick the
            // least loaded one.
            best = assignment.least_loaded_pim();
        }
        assignment.assign(node, PartitionId::Pim(best as u32));
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionMetrics;
    use crate::{HashPartitioner, StreamingPartitioner};

    #[test]
    fn assigns_every_node_within_capacity() {
        let g = graph_gen::uniform::generate(1000, 4.0, 3);
        let a = partition_graph(&g, 8, 1.05);
        assert_eq!(a.len(), g.node_count());
        let capacity = ((1000.0_f64 / 8.0) * 1.05).ceil() as usize;
        for m in 0..8 {
            assert!(a.pim_node_count(m) <= capacity + 1);
        }
        assert_eq!(a.host_node_count(), 0);
    }

    #[test]
    fn ldg_beats_hash_on_locality_for_community_graphs() {
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes: 2000,
            high_degree_fraction: 0.0,
            locality: 0.9,
            community_size: 128,
            ..Default::default()
        };
        let g = graph_gen::powerlaw::generate(&cfg, 5);

        let ldg = partition_graph(&g, 8, 1.05);
        let mut hash = HashPartitioner::new(8);
        for (s, d, _) in g.edges() {
            hash.on_edge(s, d);
        }
        let m_ldg = PartitionMetrics::compute(g.edges(), &ldg);
        let m_hash = PartitionMetrics::compute(g.edges(), hash.assignment());
        assert!(
            m_ldg.locality > m_hash.locality,
            "ldg {} vs hash {}",
            m_ldg.locality,
            m_hash.locality
        );
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panics() {
        let g = graph_gen::road::generate(16, 0.0, 1);
        let _ = partition_graph(&g, 0, 1.05);
    }

    #[test]
    fn single_partition_takes_everything() {
        let g = graph_gen::road::generate(64, 0.0, 2);
        let a = partition_graph(&g, 1, 1.0);
        assert_eq!(a.pim_node_count(0), g.node_count());
    }
}
