//! Per-label edge/cardinality statistics, counted by the row tables.
//!
//! The cost-based RPQ optimizer (`rpq::optimizer`) prices candidate execution
//! plans with three quantities per edge label: how many edges carry the
//! label, how many distinct nodes have an out-edge with it, and how many
//! distinct nodes have an in-edge with it. A [`LabelStatsTable`] holds those
//! counters and nothing else — no per-node state.
//!
//! The row tables keep them. A [`crate::SortedRows`] tallies, per label, the
//! entries carrying it and the rows holding it, inside the write that changes
//! the row: a label's row count moves only on a 0↔1 transition, which the
//! write reads off the row it already holds. The two layouts that are not
//! sorted rows — the host `cols_vector` of [`crate::HeterogeneousStorage`] and
//! the history-ordered out-rows of [`crate::AdjacencyGraph`] — call the same
//! tally; a host row reads its transitions from its own live-slot count per
//! label instead of scanning a hub row. A store's statistics are its forward table's tally (edges and
//! sources) plus its reverse table's row count (targets), so a snapshot never
//! rescans stored rows.
//!
//! Statistics are *observables of the planner only*: they never influence
//! served results, query statistics, or dependency footprints (the
//! plan-invariance contract in ARCHITECTURE.md §optimizer).

use crate::ids::Label;

/// Aggregate counters for one edge label.
///
/// A row table counts `edges` (entries carrying the label) and `sources`
/// (rows holding it); a store adds its reverse table's row count as
/// `targets`.
///
/// # Examples
///
/// ```
/// use graph_store::{Label, LocalGraphStorage, NodeId};
/// let mut s = LocalGraphStorage::new();
/// s.insert_edge(NodeId(0), NodeId(1), Label(3));
/// s.insert_edge(NodeId(0), NodeId(2), Label(3));
/// s.insert_rev_edge(NodeId(1), NodeId(0), Label(3));
/// s.insert_rev_edge(NodeId(2), NodeId(0), Label(3));
/// let c = s.label_stats().snapshot().counters(Label(3));
/// assert_eq!((c.edges, c.sources, c.targets), (2, 1, 2));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelCounters {
    /// Number of stored edges carrying the label.
    pub edges: u64,
    /// Number of distinct nodes with at least one out-edge of the label.
    pub sources: u64,
    /// Number of distinct nodes with at least one in-edge of the label.
    pub targets: u64,
}

/// Per-label counters of one row table, or of a whole store.
///
/// Kept by [`crate::SortedRows`] and by the two row layouts that are not
/// sorted rows; read by the engines through [`LabelStatsTable::snapshot`].
/// The counters are a short list sorted by label (a graph has few labels),
/// so a snapshot is one copy and lists labels in ascending order
/// deterministically. A label whose edge count reaches zero is dropped.
#[derive(Debug, Clone, Default)]
pub struct LabelStatsTable {
    per_label: Vec<(Label, LabelCounters)>,
}

impl LabelStatsTable {
    /// The position of `label`'s counters, or where they would go.
    fn find(&self, label: Label) -> Result<usize, usize> {
        self.per_label.binary_search_by_key(&label, |&(l, _)| l)
    }

    /// The counters of `label`, created at zero when absent.
    fn counters_mut(&mut self, label: Label) -> &mut LabelCounters {
        let i = self.find(label).unwrap_or_else(|i| {
            self.per_label.insert(i, (label, LabelCounters::default()));
            i
        });
        &mut self.per_label[i].1
    }

    /// One entry of `label` entered a row; `first` says the row held no
    /// other entry of that label (a 0→1 transition).
    pub(crate) fn add(&mut self, label: Label, first: bool) {
        let c = self.counters_mut(label);
        c.edges += 1;
        c.sources += u64::from(first);
    }

    /// One entry of `label` left a row; `last` says the row holds no other
    /// entry of that label any more (a 1→0 transition).
    pub(crate) fn remove(&mut self, label: Label, last: bool) {
        self.shrink(label, 1, u64::from(last));
    }

    /// A whole row arrived: per distinct label, its entries and one row.
    pub(crate) fn add_row(&mut self, labels: impl IntoIterator<Item = Label>) {
        for (label, n) in label_runs(labels) {
            let c = self.counters_mut(label);
            c.edges += n;
            c.sources += 1;
        }
    }

    /// A whole row left: per distinct label, its entries and one row.
    pub(crate) fn remove_row(&mut self, labels: impl IntoIterator<Item = Label>) {
        for (label, n) in label_runs(labels) {
            self.shrink(label, n, 1);
        }
    }

    /// How many rows of the counted table hold `label`.
    pub(crate) fn rows_holding(&self, label: Label) -> usize {
        self.find(label).map_or(0, |i| self.per_label[i].1.sources as usize)
    }

    fn shrink(&mut self, label: Label, edges: u64, rows: u64) {
        let Ok(i) = self.find(label) else { return };
        let c = &mut self.per_label[i].1;
        c.edges = c.edges.saturating_sub(edges);
        c.sources = c.sources.saturating_sub(rows);
        if c.edges == 0 {
            self.per_label.remove(i);
        }
    }

    /// The statistics of a store whose forward rows `self` counts and whose
    /// reverse rows `rev` counts: the reverse rows holding a label are its
    /// distinct targets. The edge itself is counted on the forward side only,
    /// which keeps summed counts exact when per-store snapshots merge.
    pub(crate) fn with_targets_from(&self, rev: &LabelStatsTable) -> LabelStatsTable {
        let mut table = self.clone();
        for &(label, c) in &rev.per_label {
            table.counters_mut(label).targets += c.sources;
        }
        table
    }

    /// A deterministic point-in-time snapshot (labels ascending).
    pub fn snapshot(&self) -> LabelStatsSnapshot {
        let total_edges = self.per_label.iter().map(|(_, c)| c.edges).sum();
        LabelStatsSnapshot { per_label: self.per_label.clone(), total_edges }
    }
}

/// `(label, entries)` per distinct label of a row, ascending by label.
fn label_runs(labels: impl IntoIterator<Item = Label>) -> Vec<(Label, u64)> {
    let mut labels: Vec<Label> = labels.into_iter().collect();
    labels.sort_unstable();
    labels.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as u64)).collect()
}

/// A point-in-time, store-order-independent view of per-label statistics.
///
/// Snapshots from the PIM modules and the host store merge by summation
/// ([`LabelStatsSnapshot::merge`]). Every node's forward row lives in exactly
/// one store, so summed source counts are exact; every node's reverse row
/// also lives in exactly one store, so summed target counts are exact too.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    use crate::ids::NodeId;
    use crate::{AdjacencyGraph, LocalGraphStorage, SortedRows};

    fn e(node: u64, label: u16) -> (NodeId, Label) {
        (NodeId(node), Label(label))
    }

    /// `(edges, sources, targets)` of `label` in a store's statistics.
    fn counters(s: &LocalGraphStorage, label: u16) -> (u64, u64, u64) {
        let c = s.label_stats().snapshot().counters(Label(label));
        (c.edges, c.sources, c.targets)
    }

    /// Writes both sides of an edge into one store, as a store holding
    /// both endpoints' rows receives them.
    fn both(s: &mut LocalGraphStorage, (src, dst): (u64, u64), label: u16, insert: bool) {
        let (src, dst, label) = (NodeId(src), NodeId(dst), Label(label));
        let written = if insert {
            [s.insert_edge(src, dst, label).1, s.insert_rev_edge(dst, src, label).1]
        } else {
            [s.remove_edge(src, dst, label).1, s.remove_rev_edge(dst, src, label).1]
        };
        assert_eq!(written, [true, true], "both sides written");
    }

    #[test]
    fn insert_delete_roundtrip_is_empty() {
        let mut t = SortedRows::default();
        t.insert(NodeId(0), e(1, 1));
        t.insert(NodeId(0), e(2, 1));
        t.remove(NodeId(0), e(1, 1));
        t.remove(NodeId(0), e(2, 1));
        assert_eq!(t.label_stats().snapshot(), LabelStatsSnapshot::default());
    }

    #[test]
    fn distinct_counts_track_multiplicity() {
        let mut s = LocalGraphStorage::new();
        for pair in [(0, 1), (0, 2), (3, 1)] {
            both(&mut s, pair, 2, true);
        }
        assert_eq!(counters(&s, 2), (3, 2, 2));
        // Deleting one of node 0's two label-2 edges keeps it a source.
        both(&mut s, (0, 1), 2, false);
        assert_eq!(counters(&s, 2), (2, 2, 2));
        // Deleting the other removes it.
        both(&mut s, (0, 2), 2, false);
        assert_eq!(counters(&s, 2), (1, 1, 1));
    }

    #[test]
    fn forward_records_never_touch_targets() {
        let mut s = LocalGraphStorage::new();
        assert!(s.insert_edge(NodeId(0), NodeId(1), Label(2)).1);
        assert_eq!(counters(&s, 2), (1, 1, 0));
    }

    #[test]
    fn rev_records_alone_keep_a_label_entry_alive() {
        // A store can hold only the reverse row of a node whose in-edges all
        // originate in other stores: edges == 0 there, but targets must
        // still be counted until the reverse entries leave.
        let mut s = LocalGraphStorage::new();
        assert!(s.insert_rev_edge(NodeId(5), NodeId(1), Label(7)).1);
        assert!(s.insert_rev_edge(NodeId(5), NodeId(2), Label(7)).1);
        assert_eq!(counters(&s, 7), (0, 0, 1));
        assert!(s.remove_rev_edge(NodeId(5), NodeId(1), Label(7)).1);
        assert_eq!(counters(&s, 7), (0, 0, 1));
        assert!(s.remove_rev_edge(NodeId(5), NodeId(2), Label(7)).1);
        assert_eq!(s.label_stats().snapshot(), LabelStatsSnapshot::default());
    }

    #[test]
    fn rev_row_install_take_mirror_each_other() {
        let mut s = LocalGraphStorage::new();
        s.install_rev_row(NodeId(0), vec![e(1, 1), e(2, 2), e(3, 1)]);
        assert_eq!((counters(&s, 1), counters(&s, 2)), ((0, 0, 1), (0, 0, 1)));
        s.take_rev_row(NodeId(0));
        assert_eq!(s.label_stats().snapshot(), LabelStatsSnapshot::default());
    }

    #[test]
    fn sources_of_is_sorted_and_exact() {
        let mut g = AdjacencyGraph::new();
        for (src, dst, label) in [(9, 1, 2), (3, 1, 2), (9, 4, 2), (5, 1, 8)] {
            g.insert_edge(NodeId(src), NodeId(dst), Label(label));
        }
        let sources = |g: &AdjacencyGraph, l| g.label_stats().snapshot().counters(Label(l)).sources;
        assert_eq!((sources(&g, 2), sources(&g, 8), sources(&g, 1)), (2, 1, 0));
        g.remove_edge(NodeId(9), NodeId(1), Label(2));
        assert_eq!(sources(&g, 2), 2, "row 9 still holds label 2");
        g.remove_edge(NodeId(9), NodeId(4), Label(2));
        assert_eq!(sources(&g, 2), 1);
    }

    #[test]
    fn row_install_take_mirror_each_other() {
        let mut t = SortedRows::default();
        t.install(NodeId(0), vec![e(1, 1), e(2, 2), e(3, 1)]);
        assert_eq!(t.label_stats().snapshot().counters(Label(1)).edges, 2);
        assert_eq!(t.label_stats().snapshot().total_edges, 3);
        t.take(NodeId(0));
        assert_eq!(t.label_stats().snapshot(), LabelStatsSnapshot::default());
    }

    #[test]
    fn snapshot_lists_labels_ascending_and_merges_by_sum() {
        let labels =
            |s: &LabelStatsSnapshot| s.per_label.iter().map(|&(l, _)| l.0).collect::<Vec<u16>>();
        let mut a = SortedRows::default();
        a.insert(NodeId(0), e(1, 5));
        a.insert(NodeId(0), e(1, 2));
        let mut snap = a.label_stats().snapshot();
        assert_eq!(labels(&snap), vec![2, 5]);

        let mut b = SortedRows::default();
        b.insert(NodeId(7), e(8, 3));
        b.insert(NodeId(7), e(9, 5));
        snap.merge(&b.label_stats().snapshot());
        assert_eq!(labels(&snap), vec![2, 3, 5]);
        assert_eq!(snap.counters(Label(5)).edges, 2);
        assert_eq!(snap.total_edges, 4);
    }

    #[test]
    fn unknown_label_counters_are_zero() {
        let snap = LabelStatsTable::default().snapshot();
        assert_eq!(snap.counters(Label(9)), LabelCounters::default());
        assert_eq!(snap.node_hint(), 1, "empty snapshots still cap at one node");
    }

    #[test]
    fn delete_of_unrecorded_edge_is_noop() {
        let mut t = SortedRows::default();
        t.remove(NodeId(0), e(1, 1));
        t.take(NodeId(4));
        assert_eq!(t.label_stats().snapshot(), LabelStatsSnapshot::default());
    }
}
