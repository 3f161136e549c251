//! Graph statistics used to regenerate Table 1.

use graph_store::{AdjacencyGraph, HIGH_DEGREE_THRESHOLD};

/// Summary statistics of a generated (or loaded) graph.
///
/// # Examples
///
/// ```
/// use graph_gen::GraphStats;
/// let g = graph_gen::road::generate(256, 0.0, 1);
/// let stats = GraphStats::compute(&g);
/// assert_eq!(stats.nodes, 256);
/// assert_eq!(stats.high_degree_nodes, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Average out-degree.
    pub avg_degree: f64,
    /// Maximum out-degree.
    pub max_degree: usize,
    /// Number of nodes with out-degree above [`HIGH_DEGREE_THRESHOLD`].
    pub high_degree_nodes: usize,
    /// Percentage of high-degree nodes.
    pub high_degree_pct: f64,
}

impl GraphStats {
    /// Computes statistics for a graph.
    pub fn compute(graph: &AdjacencyGraph) -> Self {
        let nodes = graph.node_count();
        let edges = graph.edge_count();
        let max_degree = graph.nodes().map(|n| graph.out_degree(n)).max().unwrap_or(0);
        let high_degree_nodes = graph.count_high_degree(HIGH_DEGREE_THRESHOLD);
        GraphStats {
            nodes,
            edges,
            avg_degree: if nodes == 0 { 0.0 } else { edges as f64 / nodes as f64 },
            max_degree,
            high_degree_nodes,
            high_degree_pct: if nodes == 0 {
                0.0
            } else {
                100.0 * high_degree_nodes as f64 / nodes as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::powerlaw::{generate, PowerLawConfig};
    use graph_store::AdjacencyGraph;

    #[test]
    fn empty_graph_stats_are_zero() {
        let s = GraphStats::compute(&AdjacencyGraph::new());
        assert_eq!(s.nodes, 0);
        assert_eq!(s.edges, 0);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.high_degree_pct, 0.0);
    }

    #[test]
    fn skewed_graph_reports_hubs() {
        let cfg = PowerLawConfig { nodes: 3000, high_degree_fraction: 0.03, ..Default::default() };
        let s = GraphStats::compute(&generate(&cfg, 2));
        assert!(s.high_degree_nodes > 0);
        assert!(s.high_degree_pct > 0.5);
        assert!(s.max_degree > HIGH_DEGREE_THRESHOLD);
        assert!(s.avg_degree > 1.0);
    }

    #[test]
    fn stats_match_direct_counts() {
        let g = crate::uniform::generate(1000, 4.0, 7);
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, g.node_count());
        assert_eq!(s.edges, g.edge_count());
    }
}
