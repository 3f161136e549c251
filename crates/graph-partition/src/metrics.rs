//! Partition-quality metrics: locality, edge cut, load balance.
//!
//! These metrics quantify exactly the properties the paper's partitioner
//! optimises: graph locality (next-hops that stay inside the local PIM
//! module, which avoids IPC) and load balance across PIM modules (which keeps
//! the parallel-step straggler in check). The ablation benches report them for
//! every partitioning scheme.

use crate::assignment::PartitionAssignment;
use graph_store::{Label, NodeId, PartitionId};

/// Quality metrics of one node-to-partition assignment for one graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionMetrics {
    /// Edges whose source row lives on a PIM module.
    pub pim_source_edges: usize,
    /// Of those, edges whose destination lives on the *same* module
    /// (next-hops that hit the local MRAM during path matching).
    pub local_edges: usize,
    /// Edges from a PIM-resident row to a row on a *different* PIM module
    /// (each one costs an inter-PIM forward through the CPU).
    pub cut_edges: usize,
    /// Edges from a PIM-resident row to a host-resident (high-degree) row.
    pub to_host_edges: usize,
    /// Edges whose source row lives on the host.
    pub host_source_edges: usize,
    /// Fraction of PIM-sourced next-hops that stay local: `local / (local + cut + to_host)`.
    pub locality: f64,
    /// Max PIM-module node count divided by the mean (1.0 = perfect balance).
    pub load_balance_factor: f64,
    /// Fraction of all nodes assigned to the host.
    pub host_node_fraction: f64,
}

impl PartitionMetrics {
    /// Computes the metrics of `assignment` for the graph holding `edges`
    /// (any order).
    ///
    /// Nodes that the assignment does not cover are ignored (they contribute
    /// no edges), which lets the metric be computed mid-stream.
    pub fn compute(
        edges: impl IntoIterator<Item = (NodeId, NodeId, Label)>,
        assignment: &PartitionAssignment,
    ) -> Self {
        let mut local_edges = 0usize;
        let mut cut_edges = 0usize;
        let mut to_host_edges = 0usize;
        let mut host_source_edges = 0usize;
        for (src, dst, _) in edges {
            let Some(src_p) = assignment.partition_of(src) else { continue };
            let Some(dst_p) = assignment.partition_of(dst) else { continue };
            match (src_p, dst_p) {
                (PartitionId::Host, _) => host_source_edges += 1,
                (PartitionId::Pim(a), PartitionId::Pim(b)) if a == b => local_edges += 1,
                (PartitionId::Pim(_), PartitionId::Pim(_)) => cut_edges += 1,
                (PartitionId::Pim(_), PartitionId::Host) => to_host_edges += 1,
            }
        }
        let pim_source_edges = local_edges + cut_edges + to_host_edges;
        let locality =
            if pim_source_edges == 0 { 1.0 } else { local_edges as f64 / pim_source_edges as f64 };
        let mean = assignment.mean_pim_load();
        let load_balance_factor =
            if mean == 0.0 { 1.0 } else { assignment.max_pim_load() as f64 / mean };
        let host_node_fraction = if assignment.is_empty() {
            0.0
        } else {
            assignment.host_node_count() as f64 / assignment.len() as f64
        };
        PartitionMetrics {
            pim_source_edges,
            local_edges,
            cut_edges,
            to_host_edges,
            host_source_edges,
            locality,
            load_balance_factor,
            host_node_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GreedyAdaptivePartitioner, HashPartitioner, StreamingPartitioner};
    use graph_store::AdjacencyGraph;

    fn two_cliques() -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new();
        for base in [0u64, 100] {
            for u in base..base + 10 {
                for v in base..base + 10 {
                    if u != v {
                        g.insert_edge(NodeId(u), NodeId(v), Label::ANY);
                    }
                }
            }
        }
        g
    }

    #[test]
    fn perfect_split_has_full_locality() {
        let g = two_cliques();
        let mut a = PartitionAssignment::new(2);
        for u in 0u64..10 {
            a.assign(NodeId(u), PartitionId::Pim(0));
        }
        for u in 100u64..110 {
            a.assign(NodeId(u), PartitionId::Pim(1));
        }
        let m = PartitionMetrics::compute(g.edges(), &a);
        assert_eq!(m.locality, 1.0);
        assert_eq!(m.cut_edges, 0);
        assert!((m.load_balance_factor - 1.0).abs() < 1e-9);
        assert_eq!(m.host_node_fraction, 0.0);
    }

    #[test]
    fn split_down_the_middle_of_a_clique_destroys_locality() {
        let g = two_cliques();
        let mut a = PartitionAssignment::new(2);
        for u in 0u64..10 {
            a.assign(NodeId(u), PartitionId::Pim((u % 2) as u32));
        }
        for u in 100u64..110 {
            a.assign(NodeId(u), PartitionId::Pim((u % 2) as u32));
        }
        let m = PartitionMetrics::compute(g.edges(), &a);
        assert!(m.locality < 0.6);
        assert!(m.cut_edges > 0);
    }

    #[test]
    fn host_edges_are_classified_separately() {
        let mut g = AdjacencyGraph::new();
        g.insert_edge(NodeId(0), NodeId(1), Label::ANY);
        g.insert_edge(NodeId(1), NodeId(0), Label::ANY);
        let mut a = PartitionAssignment::new(1);
        a.assign(NodeId(0), PartitionId::Host);
        a.assign(NodeId(1), PartitionId::Pim(0));
        let m = PartitionMetrics::compute(g.edges(), &a);
        assert_eq!(m.host_source_edges, 1);
        assert_eq!(m.to_host_edges, 1);
        assert_eq!(m.local_edges, 0);
        assert!(m.host_node_fraction > 0.0);
    }

    #[test]
    fn unassigned_nodes_are_ignored() {
        let g = two_cliques();
        let a = PartitionAssignment::new(2);
        let m = PartitionMetrics::compute(g.edges(), &a);
        assert_eq!(m.pim_source_edges, 0);
        assert_eq!(m.locality, 1.0);
    }

    #[test]
    fn greedy_adaptive_beats_hash_on_locality() {
        // Community-structured graph streamed in a locality-friendly order:
        // the paper's claim is that the radical greedy heuristic preserves far
        // more locality than hash partitioning.
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes: 3000,
            high_degree_fraction: 0.01,
            locality: 0.9,
            community_size: 128,
            ..Default::default()
        };
        let g = graph_gen::powerlaw::generate(&cfg, 17);
        let mut greedy = GreedyAdaptivePartitioner::new(8);
        let mut hash = HashPartitioner::new(8);
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort();
        for (s, d, _) in edges {
            greedy.on_edge(s, d);
            hash.on_edge(s, d);
        }
        greedy.refine(&g);
        let m_greedy = PartitionMetrics::compute(g.edges(), greedy.assignment());
        let m_hash = PartitionMetrics::compute(g.edges(), hash.assignment());
        assert!(
            m_greedy.locality > m_hash.locality * 1.5,
            "greedy locality {} should clearly beat hash {}",
            m_greedy.locality,
            m_hash.locality
        );
    }
}
