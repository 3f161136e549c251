//! The sorted-row table: the one implementation of "a map from node to a
//! strictly sorted `(neighbour, label)` row".
//!
//! [`crate::LocalGraphStorage`] and [`crate::AdjacencyGraph`] keep two
//! (forward rows and reverse rows), [`crate::HeterogeneousStorage`] one
//! (reverse rows; its forward hub rows keep the paper's slot layout). The
//! stores add what differs between them — layout, byte model, cost policy —
//! and leave probing, binary search, empty-row cleanup, entry counting and
//! the label statistics here.
//!
//! The statistics are a [`LabelStatsTable`] tally (per label: entries, rows)
//! each write updates from its row: a 0↔1 transition scans that one row up to
//! the first other entry of the label; `take` and `install` adjust once per
//! distinct label.

use crate::ids::{IdMap, Label, NodeId};
use crate::labelstats::LabelStatsTable;
use std::collections::hash_map::Entry;

/// Rows keyed by node, each a strictly ascending `(neighbour, label)` list;
/// an empty row is never stored.
///
/// Every write probes the map once and reports the row's length **before**
/// the write, which is what the engines price a row access with.
///
/// # Examples
///
/// ```
/// use graph_store::{Label, NodeId, SortedRows};
///
/// let mut rows = SortedRows::default();
/// assert_eq!(rows.insert(NodeId(1), (NodeId(9), Label(2))), (0, true));
/// assert_eq!(rows.insert(NodeId(1), (NodeId(4), Label(2))), (1, true));
/// assert_eq!(rows.insert(NodeId(1), (NodeId(9), Label(2))), (2, false));
/// assert_eq!(rows.get(NodeId(1)).unwrap(), &[(NodeId(4), Label(2)), (NodeId(9), Label(2))]);
/// assert_eq!(rows.remove(NodeId(1), (NodeId(4), Label(2))), (2, true));
/// assert_eq!(rows.entries(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SortedRows {
    rows: IdMap<NodeId, Vec<(NodeId, Label)>>,
    entries: usize,
    /// Per label: entries carrying it (`edges`), rows holding it (`sources`).
    tally: LabelStatsTable,
}

/// `true` if `row` holds an entry with `label`.
fn holds(row: &[(NodeId, Label)], label: Label) -> bool {
    row.iter().any(|&(_, l)| l == label)
}

impl SortedRows {
    /// Inserts `entry` into `node`'s row. Returns the row's prior length and
    /// whether the entry was new.
    pub fn insert(&mut self, node: NodeId, entry: (NodeId, Label)) -> (usize, bool) {
        let row = self.rows.entry(node).or_default();
        let prior = row.len();
        let Err(pos) = row.binary_search(&entry) else { return (prior, false) };
        self.tally.add(entry.1, !holds(row, entry.1));
        row.insert(pos, entry);
        self.entries += 1;
        (prior, true)
    }

    /// Removes `entry` from `node`'s row. Returns the row's prior length
    /// (0 if there is no row) and whether the entry was present.
    pub fn remove(&mut self, node: NodeId, entry: (NodeId, Label)) -> (usize, bool) {
        let Entry::Occupied(mut slot) = self.rows.entry(node) else { return (0, false) };
        let prior = slot.get().len();
        let Ok(pos) = slot.get().binary_search(&entry) else { return (prior, false) };
        let last = if prior == 1 {
            slot.remove();
            true
        } else {
            let row = slot.get_mut();
            row.remove(pos);
            !holds(row, entry.1)
        };
        self.tally.remove(entry.1, last);
        self.entries -= 1;
        (prior, true)
    }

    /// The row of `node`, if it has one.
    #[inline]
    pub fn get(&self, node: NodeId) -> Option<&[(NodeId, Label)]> {
        self.rows.get(&node).map(Vec::as_slice)
    }

    /// Removes and returns the whole row of `node`.
    pub fn take(&mut self, node: NodeId) -> Option<Vec<(NodeId, Label)>> {
        let row = self.rows.remove(&node)?;
        self.entries -= row.len();
        self.tally.remove_row(row.iter().map(|&(_, l)| l));
        Some(row)
    }

    /// Replaces the row of `node` and returns the row as stored. Strictly
    /// sorted input (a row handed over by [`SortedRows::take`], a snapshot
    /// row) is stored verbatim; anything else is sorted and deduplicated
    /// first.
    pub fn install(&mut self, node: NodeId, mut row: Vec<(NodeId, Label)>) -> &[(NodeId, Label)] {
        if !row.windows(2).all(|w| w[0] < w[1]) {
            row.sort_unstable();
            row.dedup();
        }
        self.take(node);
        if row.is_empty() {
            return &[];
        }
        self.entries += row.len();
        self.tally.add_row(row.iter().map(|&(_, l)| l));
        self.rows.entry(node).or_insert(row)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no row is stored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of entries across all rows.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// The per-label tally: `edges` counts entries, `sources` counts rows.
    pub(crate) fn label_stats(&self) -> &LabelStatsTable {
        &self.tally
    }

    /// The nodes whose rows hold an entry of `label` (any entry for `None`),
    /// in arbitrary order. The scan stops at the tally's row count, so a
    /// label the table lacks costs nothing.
    pub(crate) fn holding(&self, label: Option<Label>) -> impl Iterator<Item = NodeId> + '_ {
        let rows = label.map_or(self.len(), |l| self.tally.rows_holding(l));
        let hit = self.iter().filter(move |(_, row)| label.is_none_or(|l| holds(row, l)));
        hit.map(|(n, _)| n).take(rows)
    }

    /// Iterates the rows in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[(NodeId, Label)])> + '_ {
        // moctopus-lint: allow(hash-iter-order, reason = "documented arbitrary-order API; durable exports go through export_sorted, which sorts")
        self.rows.iter().map(|(&n, v)| (n, v.as_slice()))
    }

    /// Every row, cloned, ascending by node: the canonical image snapshots
    /// and the differential tests read.
    pub fn export_sorted(&self) -> Vec<(NodeId, Vec<(NodeId, Label)>)> {
        let mut rows: Vec<_> = self.iter().map(|(n, v)| (n, v.to_vec())).collect();
        rows.sort_unstable_by_key(|&(n, _)| n);
        rows
    }
}

/// The reverse-row methods of a store that owns reverse rows — a
/// `rev_rows: SortedRows` mirrored by the engine, whose tally counts the
/// store's distinct targets. Written once so the PIM-side and the host-side
/// store cannot drift apart.
macro_rules! reverse_row_api {
    () => {
        /// Inserts a reverse-row entry: `dst` is reached by an edge from
        /// `src` with `label`. The entry lands in the reverse row of `dst`,
        /// which this store must own. Returns the row's length before the
        /// write and whether the entry was new.
        ///
        /// Reverse rows mirror forward rows held elsewhere: they never count
        /// toward forward residency (placement stays driven by forward data
        /// alone); `rev_bytes` reports their footprint.
        pub fn insert_rev_edge(&mut self, dst: NodeId, src: NodeId, label: Label) -> (usize, bool) {
            self.rev_rows.insert(dst, (src, label))
        }

        /// Removes a reverse-row entry from the reverse row of `dst`.
        /// Returns the row's length before the write (0 if there is no row)
        /// and whether the entry was present.
        pub fn remove_rev_edge(&mut self, dst: NodeId, src: NodeId, label: Label) -> (usize, bool) {
            self.rev_rows.remove(dst, (src, label))
        }

        /// Returns the reverse row (`(source, label)` pairs, ascending) for
        /// `dst`, if stored here.
        pub fn rev_row(&self, dst: NodeId) -> Option<&[(NodeId, Label)]> {
            self.rev_rows.get(dst)
        }

        /// Removes an entire reverse row and returns its strictly sorted
        /// contents (used when the node's placement migrates).
        pub fn take_rev_row(&mut self, dst: NodeId) -> Option<Vec<(NodeId, Label)>> {
            self.rev_rows.take(dst)
        }

        /// Installs a full reverse row received from another computing node.
        ///
        /// Any existing reverse row for `dst` is replaced; presorted input
        /// (the migration path) is installed verbatim.
        pub fn install_rev_row(&mut self, dst: NodeId, in_edges: Vec<(NodeId, Label)>) {
            self.rev_rows.install(dst, in_edges);
        }

        /// Number of reverse-row entries stored.
        pub fn rev_edge_count(&self) -> usize {
            self.rev_rows.entries()
        }

        /// Exports every reverse row, sorted by node id (for tests and
        /// diagnostics; snapshots rebuild reverse rows from forward rows).
        pub fn export_rev_rows(&self) -> Vec<(NodeId, Vec<(NodeId, Label)>)> {
            self.rev_rows.export_sorted()
        }
    };
}
pub(crate) use reverse_row_api;
