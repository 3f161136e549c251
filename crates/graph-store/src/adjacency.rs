//! Dynamic, labelled, directed adjacency-list graph.
//!
//! [`AdjacencyGraph`] is the logical "whole graph" view used by the workload
//! generators, by the host-only baseline, and as the reference implementation
//! that the partitioned PIM engines are checked against in the integration
//! tests. It supports the dynamic operations the paper's storage engine must
//! handle: edge insertion, edge deletion, and incremental degree tracking.

use crate::ids::{IdMap, Label, NodeId};
use crate::labelstats::LabelStatsTable;
use crate::rows::SortedRows;

/// A directed, labelled multigraph stored as per-node adjacency rows.
///
/// Parallel edges with the *same* label are collapsed (the adjacency matrix is
/// boolean), but the same node pair may be connected by edges with different
/// labels.
///
/// # Examples
///
/// ```
/// use graph_store::{AdjacencyGraph, Label, NodeId};
///
/// let mut g = AdjacencyGraph::new();
/// assert!(g.insert_edge(NodeId(0), NodeId(1), Label(0)));
/// assert!(!g.insert_edge(NodeId(0), NodeId(1), Label(0))); // duplicate
/// assert!(g.insert_edge(NodeId(0), NodeId(1), Label(1))); // new label
/// assert_eq!(g.out_degree(NodeId(0)), 2);
/// assert!(g.remove_edge(NodeId(0), NodeId(1), Label(1)));
/// assert_eq!(g.out_degree(NodeId(0)), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AdjacencyGraph {
    /// Every registered node: edge endpoints, [`AdjacencyGraph::note_node`]
    /// calls and nodes whose rows deletes emptied. The host baseline's cost
    /// model reads its size through `node_count` and `approx_bytes`.
    nodes: IdMap<NodeId, ()>,
    /// Out-neighbours per node: `(destination, label)` pairs, kept **strictly
    /// sorted**; their tally counts each label's edges and source rows.
    out_edges: SortedRows,
    /// In-neighbours per node: `(source, label)` pairs, kept **strictly
    /// sorted** on the same insert/delete path as the out-rows (and
    /// re-derived by transposition on snapshot restore); their tally counts
    /// each label's targets.
    in_edges: SortedRows,
    /// Largest node id ever seen plus one; used to size dense structures.
    id_bound: u64,
}

impl AdjacencyGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room pre-allocated for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        let mut g = AdjacencyGraph::new();
        g.nodes.reserve(nodes);
        g
    }

    /// Builds a graph from an iterator of unlabelled `(src, dst)` pairs.
    ///
    /// All edges receive [`Label::ANY`].
    pub fn from_edges<I>(edges: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut g = AdjacencyGraph::new();
        for (s, d) in edges {
            g.insert_edge(s, d, Label::ANY);
        }
        g
    }

    /// Inserts a directed edge. Returns `true` if the edge was new.
    ///
    /// Both endpoints become known nodes even if they had no prior edges.
    pub fn insert_edge(&mut self, src: NodeId, dst: NodeId, label: Label) -> bool {
        self.note_node(dst);
        let (prior, new) = self.out_edges.insert(src, (dst, label));
        if prior == 0 {
            // A node without a row may not be registered yet.
            self.note_node(src);
        }
        if new {
            self.in_edges.insert(dst, (src, label));
        }
        new
    }

    /// Removes a directed edge. Returns `true` if the edge existed.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId, label: Label) -> bool {
        let (_, present) = self.out_edges.remove(src, (dst, label));
        if present {
            self.in_edges.remove(dst, (src, label));
        }
        present
    }

    /// Returns `true` if the edge is present.
    pub fn has_edge(&self, src: NodeId, dst: NodeId, label: Label) -> bool {
        self.neighbors(src).binary_search(&(dst, label)).is_ok()
    }

    /// Registers a node without adding any edges.
    pub fn note_node(&mut self, node: NodeId) {
        self.nodes.entry(node).or_default();
        self.id_bound = self.id_bound.max(node.0 + 1);
    }

    /// Out-neighbours of `node` (`(destination, label)` pairs, strictly
    /// ascending); empty slice if the node has no out-edges.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, Label)] {
        self.out_edges.get(node).unwrap_or(&[])
    }

    /// Out-degree of `node` (0 if the node is unknown).
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }

    /// In-neighbours of `node` (`(source, label)` pairs, strictly ascending);
    /// empty slice if the node has no in-edges.
    pub fn in_neighbors(&self, node: NodeId) -> &[(NodeId, Label)] {
        self.in_edges.get(node).unwrap_or(&[])
    }

    /// The nodes with an out-edge carrying `label` (any out-edge for
    /// `None`), in arbitrary order.
    pub fn rows_holding(&self, label: Option<Label>) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges.holding(label)
    }

    /// Exports every non-empty in-adjacency row, sorted by node id, with
    /// strictly sorted contents (for tests and diagnostics; snapshots
    /// re-derive the reverse side from forward rows).
    pub fn export_rev_rows(&self) -> Vec<(NodeId, Vec<(NodeId, Label)>)> {
        self.in_edges.export_sorted()
    }

    /// Number of nodes that have been registered (with or without edges).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed edges stored.
    pub fn edge_count(&self) -> usize {
        self.out_edges.entries()
    }

    /// One greater than the largest node id ever seen.
    ///
    /// Dense structures (e.g. the partition vector) can be sized with this.
    pub fn id_bound(&self) -> u64 {
        self.id_bound
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over every node id in the graph (arbitrary order).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        // moctopus-lint: allow(hash-iter-order, reason = "documented arbitrary-order API; order-sensitive callers go through export_rows/to_sorted_edges")
        self.nodes.keys().copied()
    }

    /// Iterates over every directed edge as `(src, dst, label)`: rows in
    /// arbitrary order, each row ascending.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Label)> + '_ {
        self.out_edges.iter().flat_map(|(s, row)| row.iter().map(move |&(d, l)| (s, d, l)))
    }

    /// Collects all edges into a vector sorted by `(src, dst, label)`.
    ///
    /// Useful for deterministic comparisons in tests.
    pub fn to_sorted_edges(&self) -> Vec<(NodeId, NodeId, Label)> {
        let mut v: Vec<_> = self.edges().collect();
        v.sort();
        v
    }

    /// Number of nodes whose out-degree strictly exceeds `threshold`.
    pub fn count_high_degree(&self, threshold: usize) -> usize {
        self.out_edges.iter().filter(|(_, row)| row.len() > threshold).count()
    }

    /// Approximate resident bytes of the adjacency data (for memory budgeting).
    pub fn approx_bytes(&self) -> u64 {
        let per_edge = std::mem::size_of::<(NodeId, Label)>() as u64;
        let per_node =
            (std::mem::size_of::<NodeId>() + std::mem::size_of::<Vec<(NodeId, Label)>>()) as u64;
        self.edge_count() as u64 * per_edge + self.nodes.len() as u64 * per_node
    }

    /// Exports every registered node's row for a durable snapshot, sorted by
    /// node id, each row strictly sorted: the canonical image, which no
    /// insert or delete order can reach. Edge-less rows (registered via
    /// [`AdjacencyGraph::note_node`] or emptied by deletes) are included:
    /// they count toward `node_count` and `approx_bytes`, which the host
    /// baseline's cost model reads.
    pub fn export_rows(&self) -> Vec<(NodeId, Vec<(NodeId, Label)>)> {
        let mut ids: Vec<NodeId> = self.nodes().collect();
        ids.sort_unstable();
        ids.into_iter().map(|n| (n, self.neighbors(n).to_vec())).collect()
    }

    /// Rebuilds a graph from rows exported by
    /// [`AdjacencyGraph::export_rows`] plus the saved id bound.
    ///
    /// Every row id is registered; a row that is not strictly sorted is
    /// sorted and deduplicated. The id bound is taken as-is (it can exceed
    /// every present id after deletions).
    pub fn from_rows(rows: Vec<(NodeId, Vec<(NodeId, Label)>)>, id_bound: u64) -> Self {
        let mut g = AdjacencyGraph { id_bound, ..AdjacencyGraph::default() };
        for (n, row) in rows {
            g.nodes.insert(n, ());
            for &(dst, label) in g.out_edges.install(n, row) {
                g.in_edges.insert(dst, (n, label));
            }
        }
        g
    }

    /// This graph's per-label statistics: the out-rows' tally, with the
    /// in-rows' tally counted as targets.
    pub fn label_stats(&self) -> LabelStatsTable {
        self.out_edges.label_stats().with_targets_from(self.in_edges.label_stats())
    }
}

impl FromIterator<(NodeId, NodeId)> for AdjacencyGraph {
    fn from_iter<I: IntoIterator<Item = (NodeId, NodeId)>>(iter: I) -> Self {
        AdjacencyGraph::from_edges(iter)
    }
}

impl Extend<(NodeId, NodeId, Label)> for AdjacencyGraph {
    fn extend<I: IntoIterator<Item = (NodeId, NodeId, Label)>>(&mut self, iter: I) {
        for (s, d, l) in iter {
            self.insert_edge(s, d, l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new();
        g.insert_edge(NodeId(0), NodeId(1), Label(0));
        g.insert_edge(NodeId(0), NodeId(2), Label(0));
        g.insert_edge(NodeId(1), NodeId(2), Label(1));
        g.insert_edge(NodeId(2), NodeId(0), Label(0));
        g
    }

    #[test]
    fn insert_counts_nodes_and_edges() {
        let g = sample();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.id_bound(), 3);
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let mut g = sample();
        assert!(!g.insert_edge(NodeId(0), NodeId(1), Label(0)));
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn same_pair_different_label_is_a_new_edge() {
        let mut g = sample();
        assert!(g.insert_edge(NodeId(0), NodeId(1), Label(7)));
        assert_eq!(g.out_degree(NodeId(0)), 3);
    }

    #[test]
    fn remove_edge_updates_counts() {
        let mut g = sample();
        assert!(g.remove_edge(NodeId(0), NodeId(1), Label(0)));
        assert!(!g.remove_edge(NodeId(0), NodeId(1), Label(0)));
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(NodeId(0)), 1);
    }

    #[test]
    fn isolated_node_has_zero_degree() {
        let mut g = sample();
        g.note_node(NodeId(99));
        assert_eq!(g.out_degree(NodeId(99)), 0);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.id_bound(), 100);
    }

    #[test]
    fn edges_iterator_matches_edge_count() {
        let g = sample();
        assert_eq!(g.edges().count(), g.edge_count());
        let sorted = g.to_sorted_edges();
        assert_eq!(sorted.len(), 4);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn from_edges_collects_unlabelled_pairs() {
        let g: AdjacencyGraph =
            vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))].into_iter().collect();
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(1), Label::ANY));
    }

    #[test]
    fn count_high_degree_uses_strict_threshold() {
        let mut g = AdjacencyGraph::new();
        for i in 1..=20u64 {
            g.insert_edge(NodeId(0), NodeId(i), Label::ANY);
        }
        for i in 1..=16u64 {
            g.insert_edge(NodeId(100), NodeId(i), Label::ANY);
        }
        assert_eq!(g.count_high_degree(16), 1); // only node 0 exceeds 16
    }

    #[test]
    fn label_stats_stay_incremental_under_churn() {
        let mut g = AdjacencyGraph::new();
        for i in 0..40u64 {
            g.insert_edge(NodeId(i % 6), NodeId((i * 5) % 9), Label((i % 4) as u16 + 1));
            if i % 3 == 0 {
                g.remove_edge(NodeId((i + 2) % 6), NodeId((i * 5 + 10) % 9), Label(1));
            }
            let rebuilt = AdjacencyGraph::from_rows(g.export_rows(), g.id_bound());
            assert_eq!(
                g.label_stats().snapshot(),
                rebuilt.label_stats().snapshot(),
                "incremental stats diverged from rebuilt stats at step {i}"
            );
            assert_eq!(
                g.export_rev_rows(),
                rebuilt.export_rev_rows(),
                "incremental reverse rows diverged from rebuilt transpose at step {i}"
            );
        }
        assert_eq!(g.label_stats().snapshot().total_edges, g.edge_count() as u64);
    }

    #[test]
    fn in_adjacency_mirrors_out_adjacency() {
        let mut g = sample();
        assert_eq!(g.in_neighbors(NodeId(2)), &[(NodeId(0), Label(0)), (NodeId(1), Label(1))]);
        assert_eq!(g.in_neighbors(NodeId(0)).len(), 1);
        g.remove_edge(NodeId(1), NodeId(2), Label(1));
        assert_eq!(g.in_neighbors(NodeId(2)), &[(NodeId(0), Label(0))]);
        // Every (src, dst, label) appears exactly once on each side.
        let forward = g.to_sorted_edges();
        let mut reverse: Vec<(NodeId, NodeId, Label)> = g
            .export_rev_rows()
            .iter()
            .flat_map(|(dst, row)| row.iter().map(move |&(src, l)| (src, *dst, l)))
            .collect();
        reverse.sort();
        assert_eq!(forward, reverse);
    }

    #[test]
    fn node_registry_round_trips_through_sorted_rows() {
        let mut g = sample();
        g.note_node(NodeId(9)); // registered, never an endpoint
        for (d, l) in [(7, 2), (3, 1), (5, 2), (3, 0)] {
            g.insert_edge(NodeId(4), NodeId(d), Label(l));
        }
        g.insert_edge(NodeId(6), NodeId(4), Label(1));
        g.remove_edge(NodeId(6), NodeId(4), Label(1)); // row 6 emptied
        let rows = g.export_rows();
        assert!(rows.iter().all(|(_, row)| row.windows(2).all(|w| w[0] < w[1])));
        assert!(rows.contains(&(NodeId(9), vec![])) && rows.contains(&(NodeId(6), vec![])));
        let back = AdjacencyGraph::from_rows(rows.clone(), g.id_bound());
        assert_eq!(back.export_rows(), rows);
        assert_eq!(
            [back.node_count(), back.edge_count(), back.id_bound() as usize],
            [g.node_count(), g.edge_count(), g.id_bound() as usize]
        );
        assert_eq!(back.approx_bytes(), g.approx_bytes());
        assert_eq!(back.label_stats().snapshot(), g.label_stats().snapshot());
        assert_eq!(back.export_rev_rows(), g.export_rev_rows());
        assert_eq!(g.node_count(), 9);
        assert_eq!(g.neighbors(NodeId(4)).first(), Some(&(NodeId(3), Label(0))));
    }

    #[test]
    fn approx_bytes_grows_with_edges() {
        let mut g = AdjacencyGraph::new();
        let empty = g.approx_bytes();
        for i in 0..100u64 {
            g.insert_edge(NodeId(i), NodeId(i + 1), Label::ANY);
        }
        assert!(g.approx_bytes() > empty);
    }
}
