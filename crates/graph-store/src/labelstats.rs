//! Incrementally maintained per-label degree/cardinality statistics.
//!
//! The cost-based RPQ optimizer (`rpq::optimizer`) prices candidate execution
//! plans with three quantities per edge label: how many edges carry the
//! label, how many distinct nodes have an out-edge with it, and how many
//! distinct nodes have an in-edge with it. [`LabelStatsTable`] maintains all
//! three **incrementally** — every storage substrate updates it on the same
//! code path that updates its row data (edge insert/delete, row
//! install/take, snapshot restore), so producing a statistics snapshot never
//! rescans stored rows. The "incremental equals rebuilt-from-scratch"
//! property is unit-tested on every store and across the PIM engines'
//! promotion/migration paths.
//!
//! Statistics are *observables of the planner only*: they never influence
//! served results, query statistics, or dependency footprints (the
//! plan-invariance contract in ARCHITECTURE.md §optimizer).

use crate::ids::{IdMap, Label, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Aggregate counters for one edge label.
///
/// Forward records maintain `edges` and `sources`; the mirrored reverse-row
/// records ([`LabelStatsTable::record_rev_insert`] etc.) maintain `targets`.
/// A store that carries both sides of an edge calls both.
///
/// # Examples
///
/// ```
/// use graph_store::{Label, LabelStatsTable, NodeId};
/// let mut t = LabelStatsTable::new();
/// t.record_insert(NodeId(0), NodeId(1), Label(3));
/// t.record_insert(NodeId(0), NodeId(2), Label(3));
/// t.record_rev_insert(NodeId(1), Label(3));
/// t.record_rev_insert(NodeId(2), Label(3));
/// let snap = t.snapshot();
/// let c = snap.counters(Label(3));
/// assert_eq!((c.edges, c.sources, c.targets), (2, 1, 2));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelCounters {
    /// Number of stored edges carrying the label.
    pub edges: u64,
    /// Number of distinct nodes with at least one out-edge of the label.
    pub sources: u64,
    /// Number of distinct nodes with at least one in-edge of the label.
    pub targets: u64,
}

/// Per-label bookkeeping: the degree multiplicity maps are needed so
/// deletions know when a node's last edge of the label disappears (the
/// distinct-source/target counts must decrement exactly then). The maps are
/// never iterated — counters derive from their lengths — so hash-map order
/// cannot leak into any observable.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct LabelEntry {
    /// Edges of this label currently stored.
    edges: u64,
    /// Out-degree (for this label) per source node with degree ≥ 1.
    out_degree: IdMap<NodeId, u32>,
    /// In-degree (for this label) per target node with degree ≥ 1,
    /// maintained exclusively by the reverse-row record methods.
    in_degree: IdMap<NodeId, u32>,
}

impl LabelEntry {
    /// True when neither side of the bookkeeping references the label any
    /// more; only then may the per-label entry be dropped (a store can hold
    /// reverse rows for a label whose forward rows all live elsewhere).
    fn is_empty(&self) -> bool {
        self.edges == 0 && self.out_degree.is_empty() && self.in_degree.is_empty()
    }
}

/// Incrementally maintained per-label statistics of one storage substrate.
///
/// Maintained by [`crate::LocalGraphStorage`], [`crate::HeterogeneousStorage`]
/// and [`crate::AdjacencyGraph`] on every labelled mutation; read by the
/// engines through [`LabelStatsTable::snapshot`]. The table is keyed on a
/// [`BTreeMap`] so snapshots list labels in ascending order deterministically.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LabelStatsTable {
    per_label: BTreeMap<Label, LabelEntry>,
}

impl LabelStatsTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one stored edge `src --label--> dst` (forward row side).
    ///
    /// Forward records deliberately do **not** touch the distinct-target map:
    /// targets are owned by the reverse-row side
    /// ([`LabelStatsTable::record_rev_insert`]), which lives in the store that
    /// owns `dst`'s reverse row. This keeps summed target counts exact when
    /// per-store snapshots merge.
    pub fn record_insert(&mut self, src: NodeId, _dst: NodeId, label: Label) {
        let entry = self.per_label.entry(label).or_default();
        entry.edges += 1;
        *entry.out_degree.entry(src).or_insert(0) += 1;
    }

    /// Records the removal of one stored edge `src --label--> dst`.
    ///
    /// Removing an edge that was never recorded is a no-op (the stores only
    /// call this after their own presence check succeeded).
    pub fn record_delete(&mut self, src: NodeId, _dst: NodeId, label: Label) {
        let Some(entry) = self.per_label.get_mut(&label) else { return };
        entry.edges = entry.edges.saturating_sub(1);
        if let Some(d) = entry.out_degree.get_mut(&src) {
            *d -= 1;
            if *d == 0 {
                entry.out_degree.remove(&src);
            }
        }
        if entry.is_empty() {
            self.per_label.remove(&label);
        }
    }

    /// Records one reverse-row entry `dst <--label-- src` arriving in the
    /// store that owns `dst`'s reverse row. Only the distinct-target map
    /// moves; the edge itself is counted by the forward side.
    pub fn record_rev_insert(&mut self, dst: NodeId, label: Label) {
        let entry = self.per_label.entry(label).or_default();
        *entry.in_degree.entry(dst).or_insert(0) += 1;
    }

    /// Records the removal of one reverse-row entry for `dst`.
    pub fn record_rev_delete(&mut self, dst: NodeId, label: Label) {
        let Some(entry) = self.per_label.get_mut(&label) else { return };
        if let Some(d) = entry.in_degree.get_mut(&dst) {
            *d -= 1;
            if *d == 0 {
                entry.in_degree.remove(&dst);
            }
        }
        if entry.is_empty() {
            self.per_label.remove(&label);
        }
    }

    /// Records a whole reverse row arriving in the store (reverse-row
    /// migration / snapshot rebuild): one reverse insert per in-edge entry.
    pub fn record_rev_row_installed(&mut self, node: NodeId, rev_row: &[(NodeId, Label)]) {
        for &(_src, label) in rev_row {
            self.record_rev_insert(node, label);
        }
    }

    /// Records a whole reverse row leaving the store (reverse-row migration):
    /// one reverse delete per in-edge entry.
    pub fn record_rev_row_taken(&mut self, node: NodeId, rev_row: &[(NodeId, Label)]) {
        for &(_src, label) in rev_row {
            self.record_rev_delete(node, label);
        }
    }

    /// Distinct sources of `label` in this store, ascending by node id.
    ///
    /// The planned executors seed backward useful-set sweeps from this set;
    /// sorting makes the seed order deterministic.
    pub fn sources_of(&self, label: Label) -> Vec<NodeId> {
        let Some(entry) = self.per_label.get(&label) else { return Vec::new() };
        // moctopus-lint: allow(hash-iter-order, reason = "collected then sorted on the next line before use")
        let mut v: Vec<NodeId> = entry.out_degree.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Records a whole row arriving in the store (row migration / snapshot
    /// restore): one insert per next-hop entry.
    pub fn record_row_installed(&mut self, node: NodeId, row: &[(NodeId, Label)]) {
        for &(dst, label) in row {
            self.record_insert(node, dst, label);
        }
    }

    /// Records a whole row leaving the store (row migration): one delete per
    /// next-hop entry.
    pub fn record_row_taken(&mut self, node: NodeId, row: &[(NodeId, Label)]) {
        for &(dst, label) in row {
            self.record_delete(node, dst, label);
        }
    }

    /// Total stored edges across all labels.
    pub fn total_edges(&self) -> u64 {
        self.per_label.values().map(|e| e.edges).sum()
    }

    /// A deterministic point-in-time snapshot (labels ascending).
    pub fn snapshot(&self) -> LabelStatsSnapshot {
        let per_label: Vec<(Label, LabelCounters)> = self
            .per_label
            .iter()
            .map(|(&label, entry)| {
                (
                    label,
                    LabelCounters {
                        edges: entry.edges,
                        sources: entry.out_degree.len() as u64,
                        targets: entry.in_degree.len() as u64,
                    },
                )
            })
            .collect();
        let total_edges = per_label.iter().map(|(_, c)| c.edges).sum();
        LabelStatsSnapshot { per_label, total_edges }
    }
}

/// A point-in-time, store-order-independent view of per-label statistics.
///
/// Snapshots from the PIM modules and the host store merge by summation
/// ([`LabelStatsSnapshot::merge`]). Every node's forward row lives in exactly
/// one store, so summed source counts are exact; with the reverse-row index
/// (PR 10) every node's reverse row also lives in exactly one store, so
/// summed target counts are now exact too (they were previously a documented
/// over-approximation derived from forward rows).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelStatsSnapshot {
    /// Counters per label, ascending by label id.
    pub per_label: Vec<(Label, LabelCounters)>,
    /// Total stored edges across all labels.
    pub total_edges: u64,
}

impl LabelStatsSnapshot {
    /// Counters for `label` (all-zero if the label is absent).
    pub fn counters(&self, label: Label) -> LabelCounters {
        match self.per_label.binary_search_by_key(&label, |&(l, _)| l) {
            Ok(i) => self.per_label[i].1,
            Err(_) => LabelCounters::default(),
        }
    }

    /// Number of distinct nodes with any out-edge, summed over labels'
    /// source sets (an upper bound used to cap frontier estimates).
    pub fn node_hint(&self) -> u64 {
        let sources: u64 = self.per_label.iter().map(|(_, c)| c.sources).sum();
        let targets: u64 = self.per_label.iter().map(|(_, c)| c.targets).sum();
        sources.max(targets).max(1)
    }

    /// Folds another snapshot into this one by summation, keeping the label
    /// list sorted.
    pub fn merge(&mut self, other: &LabelStatsSnapshot) {
        for &(label, c) in &other.per_label {
            match self.per_label.binary_search_by_key(&label, |&(l, _)| l) {
                Ok(i) => {
                    let mine = &mut self.per_label[i].1;
                    mine.edges += c.edges;
                    mine.sources += c.sources;
                    mine.targets += c.targets;
                }
                Err(i) => self.per_label.insert(i, (label, c)),
            }
        }
        self.total_edges += other.total_edges;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_delete_roundtrip_is_empty() {
        let mut t = LabelStatsTable::new();
        t.record_insert(NodeId(0), NodeId(1), Label(1));
        t.record_insert(NodeId(0), NodeId(2), Label(1));
        t.record_delete(NodeId(0), NodeId(1), Label(1));
        t.record_delete(NodeId(0), NodeId(2), Label(1));
        assert_eq!(t.snapshot(), LabelStatsSnapshot::default());
        assert_eq!(t.total_edges(), 0);
    }

    /// Mirrors forward records with their reverse-row records, the way a
    /// single store holding both sides of every edge would.
    fn record_both(t: &mut LabelStatsTable, src: NodeId, dst: NodeId, label: Label) {
        t.record_insert(src, dst, label);
        t.record_rev_insert(dst, label);
    }

    fn delete_both(t: &mut LabelStatsTable, src: NodeId, dst: NodeId, label: Label) {
        t.record_delete(src, dst, label);
        t.record_rev_delete(dst, label);
    }

    #[test]
    fn distinct_counts_track_multiplicity() {
        let mut t = LabelStatsTable::new();
        record_both(&mut t, NodeId(0), NodeId(1), Label(2));
        record_both(&mut t, NodeId(0), NodeId(2), Label(2));
        record_both(&mut t, NodeId(3), NodeId(1), Label(2));
        let c = t.snapshot().counters(Label(2));
        assert_eq!((c.edges, c.sources, c.targets), (3, 2, 2));
        // Deleting one of node 0's two label-2 edges keeps it a source.
        delete_both(&mut t, NodeId(0), NodeId(1), Label(2));
        let c = t.snapshot().counters(Label(2));
        assert_eq!((c.edges, c.sources, c.targets), (2, 2, 2));
        // Deleting the other removes it.
        delete_both(&mut t, NodeId(0), NodeId(2), Label(2));
        let c = t.snapshot().counters(Label(2));
        assert_eq!((c.edges, c.sources, c.targets), (1, 1, 1));
    }

    #[test]
    fn forward_records_never_touch_targets() {
        let mut t = LabelStatsTable::new();
        t.record_insert(NodeId(0), NodeId(1), Label(2));
        let c = t.snapshot().counters(Label(2));
        assert_eq!((c.edges, c.sources, c.targets), (1, 1, 0));
    }

    #[test]
    fn rev_records_alone_keep_a_label_entry_alive() {
        // A store can hold only the reverse row of a node whose in-edges all
        // originate in other stores: edges == 0 there, but targets must
        // still be counted until the reverse entries leave.
        let mut t = LabelStatsTable::new();
        t.record_rev_insert(NodeId(5), Label(7));
        t.record_rev_insert(NodeId(5), Label(7));
        let c = t.snapshot().counters(Label(7));
        assert_eq!((c.edges, c.sources, c.targets), (0, 0, 1));
        t.record_rev_delete(NodeId(5), Label(7));
        let c = t.snapshot().counters(Label(7));
        assert_eq!((c.edges, c.sources, c.targets), (0, 0, 1));
        t.record_rev_delete(NodeId(5), Label(7));
        assert_eq!(t.snapshot(), LabelStatsSnapshot::default());
    }

    #[test]
    fn rev_row_install_take_mirror_each_other() {
        let mut t = LabelStatsTable::new();
        let rev_row = vec![(NodeId(1), Label(1)), (NodeId(2), Label(2)), (NodeId(3), Label(1))];
        t.record_rev_row_installed(NodeId(0), &rev_row);
        assert_eq!(t.snapshot().counters(Label(1)).targets, 1);
        assert_eq!(t.snapshot().counters(Label(2)).targets, 1);
        t.record_rev_row_taken(NodeId(0), &rev_row);
        assert_eq!(t.snapshot(), LabelStatsSnapshot::default());
    }

    #[test]
    fn sources_of_is_sorted_and_exact() {
        let mut t = LabelStatsTable::new();
        t.record_insert(NodeId(9), NodeId(1), Label(2));
        t.record_insert(NodeId(3), NodeId(1), Label(2));
        t.record_insert(NodeId(9), NodeId(4), Label(2));
        t.record_insert(NodeId(5), NodeId(1), Label(8));
        assert_eq!(t.sources_of(Label(2)), vec![NodeId(3), NodeId(9)]);
        assert_eq!(t.sources_of(Label(8)), vec![NodeId(5)]);
        assert!(t.sources_of(Label(1)).is_empty());
        t.record_delete(NodeId(9), NodeId(1), Label(2));
        t.record_delete(NodeId(9), NodeId(4), Label(2));
        assert_eq!(t.sources_of(Label(2)), vec![NodeId(3)]);
    }

    #[test]
    fn row_install_take_mirror_each_other() {
        let mut t = LabelStatsTable::new();
        let row = vec![(NodeId(1), Label(1)), (NodeId(2), Label(2)), (NodeId(3), Label(1))];
        t.record_row_installed(NodeId(0), &row);
        assert_eq!(t.snapshot().counters(Label(1)).edges, 2);
        assert_eq!(t.total_edges(), 3);
        t.record_row_taken(NodeId(0), &row);
        assert_eq!(t.snapshot(), LabelStatsSnapshot::default());
    }

    #[test]
    fn snapshot_lists_labels_ascending_and_merges_by_sum() {
        let mut a = LabelStatsTable::new();
        a.record_insert(NodeId(0), NodeId(1), Label(5));
        a.record_insert(NodeId(0), NodeId(1), Label(2));
        let mut snap = a.snapshot();
        let labels: Vec<u16> = snap.per_label.iter().map(|&(l, _)| l.0).collect();
        assert_eq!(labels, vec![2, 5]);

        let mut b = LabelStatsTable::new();
        b.record_insert(NodeId(7), NodeId(8), Label(3));
        b.record_insert(NodeId(7), NodeId(9), Label(5));
        snap.merge(&b.snapshot());
        let labels: Vec<u16> = snap.per_label.iter().map(|&(l, _)| l.0).collect();
        assert_eq!(labels, vec![2, 3, 5]);
        assert_eq!(snap.counters(Label(5)).edges, 2);
        assert_eq!(snap.total_edges, 4);
    }

    #[test]
    fn unknown_label_counters_are_zero() {
        let snap = LabelStatsTable::new().snapshot();
        assert_eq!(snap.counters(Label(9)), LabelCounters::default());
        assert_eq!(snap.node_hint(), 1, "empty snapshots still cap at one node");
    }

    #[test]
    fn delete_of_unrecorded_edge_is_noop() {
        let mut t = LabelStatsTable::new();
        t.record_delete(NodeId(0), NodeId(1), Label(1));
        assert_eq!(t.snapshot(), LabelStatsSnapshot::default());
    }
}
