//! Out-degree tracking and the high-degree node classification.
//!
//! The paper classifies nodes with out-degree exceeding 16 as *high-degree*
//! (Table 1) and assigns them to the host CPU under the labor-division
//! approach. [`DegreeTracker`] maintains out-degrees incrementally as edges
//! stream in so the Node Migrator can detect the exact moment a low-degree
//! node crosses the threshold and must move to the host side.

use crate::ids::{IdMap, NodeId};

/// Out-degree above which a node is considered high-degree (paper, Table 1).
pub const HIGH_DEGREE_THRESHOLD: usize = 16;

/// Incremental out-degree tracker with high-degree classification.
///
/// # Examples
///
/// ```
/// use graph_store::{DegreeTracker, NodeId, HIGH_DEGREE_THRESHOLD};
///
/// let mut t = DegreeTracker::new();
/// for _ in 0..17 {
///     t.record_insert(NodeId(0));
/// }
/// assert!(t.degree(NodeId(0)) > HIGH_DEGREE_THRESHOLD);
/// assert_eq!(t.degree(NodeId(1)), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DegreeTracker {
    degrees: IdMap<NodeId, usize>,
}

impl DegreeTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an out-edge insertion at `src`.
    ///
    /// Returns `true` when this insertion is the one that pushes `src` across
    /// the high-degree threshold (the trigger for host migration).
    pub fn record_insert(&mut self, src: NodeId) -> bool {
        let d = self.degrees.entry(src).or_insert(0);
        *d += 1;
        *d == HIGH_DEGREE_THRESHOLD + 1
    }

    /// Records an out-edge deletion at `src`.
    ///
    /// Returns `true` when the deletion drops `src` back below the threshold.
    pub fn record_delete(&mut self, src: NodeId) -> bool {
        if let Some(d) = self.degrees.get_mut(&src) {
            if *d > 0 {
                *d -= 1;
                return *d == HIGH_DEGREE_THRESHOLD;
            }
        }
        false
    }

    /// Current out-degree of `node` (0 if unknown).
    pub fn degree(&self, node: NodeId) -> usize {
        self.degrees.get(&node).copied().unwrap_or(0)
    }

    /// Iterates over `(node, degree)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        // moctopus-lint: allow(hash-iter-order, reason = "documented arbitrary-order API; durable exports go through export_entries, which sorts")
        self.degrees.iter().map(|(&n, &d)| (n, d))
    }

    /// Exports the degree table sorted by node id, for a durable snapshot.
    ///
    /// Zero-degree entries (nodes whose edges were all deleted) are exported
    /// too: they exist in the live map, and a restored tracker iterates them.
    pub fn export_entries(&self) -> Vec<(NodeId, u64)> {
        // moctopus-lint: allow(hash-iter-order, reason = "collected then sort_by_key on the next line before use")
        let mut entries: Vec<(NodeId, u64)> =
            self.degrees.iter().map(|(&n, &d)| (n, d as u64)).collect();
        entries.sort_by_key(|&(n, _)| n);
        entries
    }

    /// Rebuilds a tracker from entries exported by
    /// [`DegreeTracker::export_entries`].
    pub fn from_entries(entries: Vec<(NodeId, u64)>) -> Self {
        DegreeTracker { degrees: entries.into_iter().map(|(n, d)| (n, d as usize)).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_uses_paper_threshold() {
        // Paper, Table 1: high-degree means out-degree above 16.
        assert_eq!(HIGH_DEGREE_THRESHOLD, 16);
    }

    #[test]
    fn crossing_threshold_is_reported_once() {
        let mut t = DegreeTracker::new();
        for _ in 0..HIGH_DEGREE_THRESHOLD {
            assert!(!t.record_insert(NodeId(5)));
        }
        assert!(t.record_insert(NodeId(5))); // degree 17 > 16
        assert!(!t.record_insert(NodeId(5)));
    }

    #[test]
    fn deletion_can_demote_a_node() {
        let mut t = DegreeTracker::new();
        for _ in 0..HIGH_DEGREE_THRESHOLD + 2 {
            t.record_insert(NodeId(1));
        }
        assert!(!t.record_delete(NodeId(1))); // degree 17, still high
        assert!(t.record_delete(NodeId(1))); // degree 16, demoted
        assert!(!t.record_delete(NodeId(1))); // degree 15: nothing left to report
        assert_eq!(t.degree(NodeId(1)), 15);
    }

    #[test]
    fn delete_on_unknown_node_is_noop() {
        let mut t = DegreeTracker::default();
        assert!(!t.record_delete(NodeId(42)));
        assert_eq!(t.degree(NodeId(42)), 0);
    }

    #[test]
    fn tracked_nodes_counts_distinct_sources() {
        let mut t = DegreeTracker::default();
        t.record_insert(NodeId(0));
        t.record_insert(NodeId(0));
        t.record_insert(NodeId(1));
        let mut degrees: Vec<_> = t.iter().collect();
        degrees.sort();
        assert_eq!(degrees, vec![(NodeId(0), 2), (NodeId(1), 1)]);
    }

    #[test]
    fn threshold_is_strict() {
        let mut t = DegreeTracker::new();
        for _ in 0..16 {
            assert!(!t.record_insert(NodeId(7)), "degree 16 is not above 16");
        }
        assert!(t.record_insert(NodeId(7)));
        assert_eq!(t.degree(NodeId(7)), 17);
    }
}
