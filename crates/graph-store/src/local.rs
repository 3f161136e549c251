//! Per-PIM-module *local graph storage*.
//!
//! Each PIM module owns a disjoint slice of the adjacency matrix, partitioned
//! by row (graph node). The paper stores the slice in a hash map from row id
//! (NodeId) to row data (the next-hop NodeIds), chosen for its concurrency and
//! scalability on the wimpy PIM cores. [`LocalGraphStorage`] reproduces that
//! structure and additionally models the resident MRAM bytes. Nothing caps
//! them: the 64 MB MRAM of an UPMEM module is not enforced.
//!
//! Rows carry the property-graph edge label alongside each next-hop id, so
//! regular path queries can match label constraints inside the module without
//! a second lookup structure. Conceptually the row is stored
//! struct-of-arrays: an 8-byte id array that plain k-hop traversals stream,
//! and a 2-byte label array that only label-constrained scans touch — the
//! cost model charges the two arrays separately.

use crate::ids::{Label, NodeId};
use crate::labelstats::LabelStatsTable;
use crate::rows::{reverse_row_api, SortedRows};

/// Hash-map based adjacency-matrix segment held by one PIM module.
///
/// Rows are kept **sorted** (strictly ascending `(next-hop, label)` pairs):
/// duplicate detection on insert and the membership test on delete are binary
/// searches instead of linear scans, and rows migrated between modules can be
/// installed without re-normalising them. The same node pair may appear with
/// several distinct labels (one boolean adjacency matrix per label). Forward
/// and reverse rows are two [`SortedRows`] tables, which also count the label
/// statistics; this type adds the byte model.
///
/// # Examples
///
/// ```
/// use graph_store::{Label, LocalGraphStorage, NodeId};
///
/// let mut s = LocalGraphStorage::new();
/// assert_eq!(s.insert_edge(NodeId(4), NodeId(9), Label::ANY), (0, true));
/// assert_eq!(s.insert_edge(NodeId(4), NodeId(7), Label(2)), (1, true));
/// assert_eq!(s.insert_edge(NodeId(4), NodeId(7), Label(2)), (2, false));
/// assert_eq!(s.row(NodeId(4)).unwrap(), &[(NodeId(7), Label(2)), (NodeId(9), Label::ANY)]);
/// assert_eq!(s.edge_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LocalGraphStorage {
    rows: SortedRows,
    /// Reverse rows: for each node whose reverse row this module owns, the
    /// strictly sorted `(source, label)` in-edges. Maintained explicitly by
    /// the engine's mirrored writes — forward mutations never touch it.
    rev_rows: SortedRows,
}

/// Modeled MRAM bytes per stored edge: an 8-byte next-hop id plus a 2-byte
/// label in the row's parallel label array.
const EDGE_SLOT_BYTES: u64 = (std::mem::size_of::<NodeId>() + std::mem::size_of::<Label>()) as u64;

/// Modeled MRAM bytes of a table: 8 bytes of id plus 2 bytes of label per
/// entry, and 16 bytes of hash-map entry overhead per row.
fn table_bytes(rows: &SortedRows) -> u64 {
    rows.entries() as u64 * EDGE_SLOT_BYTES + rows.len() as u64 * 16
}

impl LocalGraphStorage {
    /// Creates an empty segment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a directed labelled edge into the row of `src`. Returns the
    /// row's length before the write and whether the edge was new: each
    /// per-label adjacency matrix is boolean, so a duplicate changes nothing.
    pub fn insert_edge(&mut self, src: NodeId, dst: NodeId, label: Label) -> (usize, bool) {
        self.rows.insert(src, (dst, label))
    }

    /// Removes a directed labelled edge from the row of `src`. Returns the
    /// row's length before the write (0 if there is no row) and whether the
    /// edge was present.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId, label: Label) -> (usize, bool) {
        self.rows.remove(src, (dst, label))
    }

    /// Returns the row (`(next-hop, label)` pairs, ascending) for `src`, if
    /// stored locally.
    #[inline]
    pub fn row(&self, src: NodeId) -> Option<&[(NodeId, Label)]> {
        self.rows.get(src)
    }

    /// Returns `true` if this module stores a row for `src`.
    pub fn contains_row(&self, src: NodeId) -> bool {
        self.rows.get(src).is_some()
    }

    /// Removes an entire row and returns its labelled next-hop data, strictly
    /// sorted (used when a node is migrated to another computing node).
    pub fn take_row(&mut self, src: NodeId) -> Option<Vec<(NodeId, Label)>> {
        self.rows.take(src)
    }

    /// Installs a full row received from another computing node.
    ///
    /// Any existing row for `src` is replaced. Rows handed over by
    /// [`LocalGraphStorage::take_row`] are already strictly sorted, so the
    /// common migration path skips normalisation entirely; unsorted input is
    /// still accepted and normalised.
    pub fn install_row(&mut self, src: NodeId, next_hops: Vec<(NodeId, Label)>) {
        self.rows.install(src, next_hops);
    }

    /// Number of rows stored locally.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of directed edges stored locally.
    pub fn edge_count(&self) -> usize {
        self.rows.entries()
    }

    /// Returns `true` if no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over the locally stored rows in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[(NodeId, Label)])> + '_ {
        self.rows.iter()
    }

    /// The nodes whose rows hold a `label` edge (any edge for `None`), in
    /// arbitrary order: a row scan that skips a label this segment lacks.
    pub fn rows_holding(&self, label: Option<Label>) -> impl Iterator<Item = NodeId> + '_ {
        self.rows.holding(label)
    }

    /// Approximate bytes resident in MRAM for this segment's forward rows.
    pub fn resident_bytes(&self) -> u64 {
        table_bytes(&self.rows)
    }

    /// Exports every row, sorted by row id, for a durable snapshot.
    ///
    /// Row contents come out verbatim (they are strictly sorted already), so
    /// [`LocalGraphStorage::from_sorted_rows`] rebuilds a segment whose future
    /// behaviour is indistinguishable from the original — the canonical,
    /// deterministic byte image the snapshot format requires.
    pub fn export_rows(&self) -> Vec<(NodeId, Vec<(NodeId, Label)>)> {
        self.rows.export_sorted()
    }

    /// Rebuilds a segment from rows exported by
    /// [`LocalGraphStorage::export_rows`] (strictly sorted, as exported).
    pub fn from_sorted_rows(sorted_rows: Vec<(NodeId, Vec<(NodeId, Label)>)>) -> Self {
        let mut store = Self::default();
        for (node, row) in sorted_rows {
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "snapshot row must be sorted");
            store.install_row(node, row);
        }
        store
    }

    /// This segment's per-label statistics: its forward rows' tally, with
    /// the rows of its reverse table counted as targets.
    pub fn label_stats(&self) -> LabelStatsTable {
        self.rows.label_stats().with_targets_from(self.rev_rows.label_stats())
    }

    reverse_row_api!();

    /// Approximate MRAM bytes of the reverse index, modelled exactly like
    /// forward rows but reported separately, so forward residency stays
    /// forward bytes only.
    pub fn rev_bytes(&self) -> u64 {
        table_bytes(&self.rev_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANY: Label = Label::ANY;

    #[test]
    fn insert_and_lookup_rows() {
        let mut s = LocalGraphStorage::new();
        assert!(s.insert_edge(NodeId(1), NodeId(2), ANY).1);
        assert!(s.insert_edge(NodeId(1), NodeId(3), ANY).1);
        assert!(s.insert_edge(NodeId(2), NodeId(1), ANY).1);
        assert_eq!(s.row_count(), 2);
        assert_eq!(s.edge_count(), 3);
        assert_eq!(s.row(NodeId(1)).unwrap(), &[(NodeId(2), ANY), (NodeId(3), ANY)]);
        assert!(s.row(NodeId(9)).is_none());
    }

    #[test]
    fn duplicate_insert_and_absent_delete_change_nothing() {
        let mut s = LocalGraphStorage::new();
        assert_eq!(s.insert_edge(NodeId(1), NodeId(2), ANY), (0, true));
        assert_eq!(s.insert_edge(NodeId(1), NodeId(2), ANY), (1, false));
        assert_eq!(s.remove_edge(NodeId(1), NodeId(3), ANY), (1, false));
        assert_eq!(s.remove_edge(NodeId(7), NodeId(2), ANY), (0, false));
        assert_eq!(s.edge_count(), 1);
    }

    #[test]
    fn same_pair_with_another_label_is_a_new_edge() {
        let mut s = LocalGraphStorage::new();
        assert!(s.insert_edge(NodeId(1), NodeId(2), Label(1)).1);
        assert!(s.insert_edge(NodeId(1), NodeId(2), Label(2)).1);
        assert_eq!(s.edge_count(), 2);
        assert_eq!(s.row(NodeId(1)).unwrap(), &[(NodeId(2), Label(1)), (NodeId(2), Label(2))]);
        assert!(s.remove_edge(NodeId(1), NodeId(2), Label(1)).1);
        assert_eq!(s.row(NodeId(1)).unwrap(), &[(NodeId(2), Label(2))]);
    }

    #[test]
    fn remove_edge_and_row_cleanup() {
        let mut s = LocalGraphStorage::new();
        assert!(s.insert_edge(NodeId(1), NodeId(2), ANY).1);
        assert!(s.remove_edge(NodeId(1), NodeId(2), ANY).1);
        assert!(!s.contains_row(NodeId(1)));
        assert_eq!(s.edge_count(), 0);
        assert_eq!(s.remove_edge(NodeId(1), NodeId(2), ANY), (0, false));
        // Removing a present pair under the wrong label is also not found.
        assert!(s.insert_edge(NodeId(1), NodeId(2), Label(3)).1);
        assert_eq!(s.remove_edge(NodeId(1), NodeId(2), Label(4)), (1, false));
    }

    #[test]
    fn take_and_install_row_preserve_edge_count() {
        let mut a = LocalGraphStorage::new();
        assert!(a.insert_edge(NodeId(5), NodeId(6), ANY).1);
        assert!(a.insert_edge(NodeId(5), NodeId(7), Label(1)).1);
        let row = a.take_row(NodeId(5)).unwrap();
        assert_eq!(a.edge_count(), 0);

        let mut b = LocalGraphStorage::new();
        b.install_row(NodeId(5), row);
        assert_eq!(b.edge_count(), 2);
        assert_eq!(b.row(NodeId(5)).unwrap(), &[(NodeId(6), ANY), (NodeId(7), Label(1))]);
    }

    #[test]
    fn install_row_dedups_and_replaces() {
        let mut s = LocalGraphStorage::new();
        s.install_row(NodeId(1), vec![(NodeId(3), ANY), (NodeId(2), ANY), (NodeId(3), ANY)]);
        assert_eq!(s.row(NodeId(1)).unwrap(), &[(NodeId(2), ANY), (NodeId(3), ANY)]);
        assert_eq!(s.edge_count(), 2);
        s.install_row(NodeId(1), vec![(NodeId(9), ANY)]);
        assert_eq!(s.edge_count(), 1);
    }

    #[test]
    fn rows_stay_sorted_under_churn() {
        let mut s = LocalGraphStorage::new();
        for dst in [9u64, 3, 7, 1, 5] {
            assert!(s.insert_edge(NodeId(0), NodeId(dst), ANY).1);
        }
        let dsts: Vec<u64> = s.row(NodeId(0)).unwrap().iter().map(|&(d, _)| d.0).collect();
        assert_eq!(dsts, vec![1, 3, 5, 7, 9]);
        assert!(s.remove_edge(NodeId(0), NodeId(5), ANY).1);
        assert!(s.insert_edge(NodeId(0), NodeId(4), ANY).1);
        let dsts: Vec<u64> = s.row(NodeId(0)).unwrap().iter().map(|&(d, _)| d.0).collect();
        assert_eq!(dsts, vec![1, 3, 4, 7, 9]);
    }

    #[test]
    fn install_row_accepts_presorted_input_unchanged() {
        let mut s = LocalGraphStorage::new();
        s.install_row(NodeId(2), vec![(NodeId(1), ANY), (NodeId(4), ANY), (NodeId(8), ANY)]);
        assert_eq!(s.row(NodeId(2)).unwrap().len(), 3);
        assert_eq!(s.edge_count(), 3);
    }

    #[test]
    fn resident_bytes_reflects_contents() {
        let mut s = LocalGraphStorage::new();
        assert_eq!(s.resident_bytes(), 0);
        assert!(s.insert_edge(NodeId(0), NodeId(1), ANY).1);
        assert_eq!(s.resident_bytes(), 10 + 16);
    }

    /// Transposes exported forward rows into the reverse rows a single store
    /// holding both sides of every edge would carry.
    fn transpose(rows: &[(NodeId, Vec<(NodeId, Label)>)]) -> Vec<(NodeId, Vec<(NodeId, Label)>)> {
        let mut map: std::collections::BTreeMap<NodeId, Vec<(NodeId, Label)>> =
            std::collections::BTreeMap::new();
        for &(src, ref row) in rows {
            for &(dst, label) in row {
                map.entry(dst).or_default().push((src, label));
            }
        }
        map.into_iter()
            .map(|(n, mut v)| {
                v.sort();
                (n, v)
            })
            .collect()
    }

    #[test]
    fn label_stats_stay_incremental_under_churn() {
        // A deterministic insert/delete/migrate interleaving with the reverse
        // side mirrored the way the engine does it: after every step, the
        // incrementally maintained stats must equal the stats of a store
        // rebuilt from scratch via the snapshot path (forward rows restored,
        // reverse rows re-derived by transposition), and the incremental
        // reverse rows must equal the independent transpose exactly.
        let mut s = LocalGraphStorage::new();
        for i in 0..40u64 {
            let (src, dst, label) =
                (NodeId(i % 7), NodeId((i * 3) % 11), Label((i % 4) as u16 + 1));
            if s.insert_edge(src, dst, label).1 {
                assert!(s.insert_rev_edge(dst, src, label).1);
            }
            if i % 5 == 0 {
                let (ds, dd, dl) = (NodeId((i + 2) % 7), NodeId((i * 3 + 6) % 11), Label(1));
                if s.remove_edge(ds, dd, dl).1 {
                    assert!(s.remove_rev_edge(dd, ds, dl).1);
                }
            }
            if i % 9 == 0 {
                if let Some(row) = s.take_row(NodeId(i % 7)) {
                    s.install_row(NodeId(i % 7), row);
                }
                if let Some(rev) = s.take_rev_row(NodeId((i * 3) % 11)) {
                    s.install_rev_row(NodeId((i * 3) % 11), rev);
                }
            }
            let mut rebuilt = LocalGraphStorage::from_sorted_rows(s.export_rows());
            for (n, rev) in transpose(&s.export_rows()) {
                rebuilt.install_rev_row(n, rev);
            }
            assert_eq!(
                s.label_stats().snapshot(),
                rebuilt.label_stats().snapshot(),
                "incremental stats diverged from rebuilt stats at step {i}"
            );
            assert_eq!(
                s.export_rev_rows(),
                transpose(&s.export_rows()),
                "reverse rows diverged from the forward transpose at step {i}"
            );
        }
        let total_edges = s.label_stats().snapshot().total_edges;
        assert!(total_edges > 0);
        assert_eq!(total_edges, s.edge_count() as u64);
        assert_eq!(s.rev_edge_count(), s.edge_count());
        assert!(s.rev_bytes() > 0);
        assert_eq!(
            s.resident_bytes(),
            LocalGraphStorage::from_sorted_rows(s.export_rows()).resident_bytes()
        );
    }

    #[test]
    fn rev_rows_are_sorted_and_duplicate_rejected() {
        let mut s = LocalGraphStorage::new();
        assert!(s.insert_rev_edge(NodeId(4), NodeId(9), Label(1)).1);
        assert!(s.insert_rev_edge(NodeId(4), NodeId(2), Label(1)).1);
        assert!(s.insert_rev_edge(NodeId(4), NodeId(2), Label(3)).1);
        assert_eq!(s.insert_rev_edge(NodeId(4), NodeId(2), Label(1)), (3, false));
        assert_eq!(
            s.rev_row(NodeId(4)).unwrap(),
            &[(NodeId(2), Label(1)), (NodeId(2), Label(3)), (NodeId(9), Label(1))]
        );
        assert_eq!(s.rev_edge_count(), 3);
        // Reverse rows never count toward forward residency.
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.rev_bytes(), 3 * 10 + 16);
        assert!(s.remove_rev_edge(NodeId(4), NodeId(9), Label(1)).1);
        assert_eq!(s.remove_rev_edge(NodeId(4), NodeId(9), Label(1)), (2, false));
        let taken = s.take_rev_row(NodeId(4)).unwrap();
        assert_eq!(taken.len(), 2);
        assert_eq!(s.rev_bytes(), 0);
        assert_eq!(s.label_stats().snapshot(), Default::default());
    }
}
