//! Heterogeneous graph storage for high-degree nodes (paper Section 3.3).
//!
//! High-degree nodes live on the host so their long next-hop lists can be read
//! with contiguous memory accesses, but updating those lists (duplicate
//! detection, free-slot management) would hammer the host CPU. The paper
//! splits the structure across the two sides:
//!
//! * **Host side** — `cols_vector`: one contiguous array of next-hop NodeIds
//!   per high-degree row (with a parallel 2-byte label array for the
//!   property-graph edge labels), with a size and a capacity. Queries read it
//!   with a single sequential fetch; updates only write one slot.
//! * **PIM side** — `elem_position_map`: a hash map from labelled edge
//!   `(row, col, label)` to its position inside the row's `cols_vector`; and
//!   `free_list_map`: a hash map from row to the list of free positions. The
//!   PIM module performs the existence check and the free-slot allocation,
//!   amortising the host's update cost.
//!
//! [`HeterogeneousStorage`] models both halves and reports, for every update,
//! how much work landed on each side ([`UpdateCost`]) so the simulator can
//! charge the host and the PIM module separately.

use crate::error::GraphStoreError;
use crate::ids::{IdMap, Label, LabeledEdgeKey, NodeId};
use crate::labelstats::LabelStatsTable;
use crate::rows::{reverse_row_api, SortedRows};
use std::collections::hash_map::Entry;

/// A sentinel stored in free slots of a `cols_vector`.
///
/// The paper's Figure 3 marks free positions with `-1`; we use `u64::MAX`.
pub(crate) const FREE_SLOT: NodeId = NodeId(u64::MAX);

/// One exported host row, `(row, slots, free)`: the row id, its
/// `cols_vector` slots verbatim (free slots hold the sentinel id), and the
/// free list in pop order. See [`HeterogeneousStorage::export_rows`].
pub type ExportedHostRow = (NodeId, Vec<(NodeId, Label)>, Vec<u64>);

/// Host bytes written for one slot's label: the default [`Label::ANY`] is
/// elided (only the 8-byte id array is touched), every other label also
/// writes its 2-byte entry in the parallel label array — matching the
/// PIM-side MRAM-write accounting of the local stores.
fn label_slot_bytes(label: Label) -> u64 {
    if label == Label::ANY {
        0
    } else {
        std::mem::size_of::<Label>() as u64
    }
}

/// The live slots, in slot order.
fn live(slots: &[(NodeId, Label)]) -> impl Iterator<Item = (NodeId, Label)> + '_ {
    slots.iter().copied().filter(|&(dst, _)| dst != FREE_SLOT)
}

/// The labels of the live slots.
fn live_labels(slots: &[(NodeId, Label)]) -> impl Iterator<Item = Label> + '_ {
    live(slots).map(|(_, l)| l)
}

/// Where the work of one storage operation landed.
///
/// All quantities are in the unit the PIM simulator charges for them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateCost {
    /// Bytes the host CPU read from its DRAM (sequential).
    pub host_bytes_read: u64,
    /// Bytes the host CPU wrote to its DRAM.
    pub host_bytes_written: u64,
    /// Hash-map lookups performed on the PIM side.
    pub pim_lookups: u64,
    /// Hash-map mutations (insert/remove) performed on the PIM side.
    pub pim_mutations: u64,
}

impl UpdateCost {
    /// Adds another cost onto this one.
    pub fn accumulate(&mut self, other: UpdateCost) {
        self.host_bytes_read += other.host_bytes_read;
        self.host_bytes_written += other.host_bytes_written;
        self.pim_lookups += other.pim_lookups;
        self.pim_mutations += other.pim_mutations;
    }
}

/// Result of an insert/delete against the heterogeneous storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Whether the structure changed (false for duplicate insert / missing delete).
    pub changed: bool,
    /// Work split between host and PIM side for this operation.
    pub cost: UpdateCost,
}

/// One high-degree row: the host-resident contiguous `cols_vector` (next-hop
/// ids plus the parallel label array).
#[derive(Debug, Clone, Default)]
struct ColsVector {
    slots: Vec<(NodeId, Label)>,
    live: usize,
    /// Live slots per label the row holds, so a write reads its label's
    /// 0↔1 transition here instead of scanning a hub row. Free slots carry
    /// `Label::ANY` beside the sentinel id and never count.
    labels: Vec<(Label, u32)>,
}

impl ColsVector {
    /// A row over `slots` as stored, free slots included.
    fn new(slots: Vec<(NodeId, Label)>) -> Self {
        let mut cols = ColsVector::default();
        for (_, label) in live(&slots) {
            cols.gain(label);
        }
        ColsVector { slots, ..cols }
    }

    /// One more live slot of `label`; `true` if it is the row's first.
    fn gain(&mut self, label: Label) -> bool {
        self.live += 1;
        if let Some((_, n)) = self.labels.iter_mut().find(|(l, _)| *l == label) {
            *n += 1;
            return false;
        }
        self.labels.push((label, 1));
        true
    }

    /// One live slot of `label` fewer; `true` if it was the row's last.
    fn lose(&mut self, label: Label) -> bool {
        self.live -= 1;
        let Some(i) = self.labels.iter().position(|&(l, _)| l == label) else { return false };
        self.labels[i].1 -= 1;
        let last = self.labels[i].1 == 0;
        if last {
            self.labels.swap_remove(i);
        }
        last
    }
}

/// Heterogeneous storage for the host-resident (high-degree) adjacency rows.
///
/// # Examples
///
/// ```
/// use graph_store::{HeterogeneousStorage, Label, NodeId};
///
/// let mut s = HeterogeneousStorage::new();
/// let outcome = s.insert_edge(NodeId(1), NodeId(2), Label::ANY);
/// assert!(outcome.changed);
/// assert_eq!(s.neighbors(NodeId(1)), vec![(NodeId(2), Label::ANY)]);
/// // A second insert of the same labelled edge is detected on the PIM side.
/// assert!(!s.insert_edge(NodeId(1), NodeId(2), Label::ANY).changed);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HeterogeneousStorage {
    /// Host side: contiguous next-hop arrays.
    cols: IdMap<NodeId, ColsVector>,
    /// PIM side: labelled edge -> position within the row's cols_vector.
    elem_position_map: IdMap<LabeledEdgeKey, usize>,
    /// PIM side: row -> free positions inside its cols_vector.
    free_list_map: IdMap<NodeId, Vec<usize>>,
    /// Number of live edges across all rows.
    edge_count: usize,
    /// Per-label tally of the live slots: edges, and rows holding the label.
    tally: LabelStatsTable,
    /// Reverse rows for nodes whose reverse placement is the host: strictly
    /// sorted `(source, label)` in-edges per node. A plain secondary index —
    /// reverse scans are sequential host reads, so no slot/free-list
    /// machinery is needed. Maintained explicitly by the engine's mirrored
    /// writes; forward mutations never touch it.
    rev_rows: SortedRows,
}

impl HeterogeneousStorage {
    /// Creates an empty heterogeneous storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a complete row (used when a node is promoted to the host).
    ///
    /// Returns the cost of building the auxiliary PIM-side maps.
    pub fn install_row(&mut self, row: NodeId, next_hops: Vec<(NodeId, Label)>) -> UpdateCost {
        let mut cost = UpdateCost::default();
        // Drop any previous contents of the row.
        if let Some(old) = self.cols.remove(&row) {
            for &(dst, label) in &old.slots {
                if dst != FREE_SLOT {
                    self.elem_position_map.remove(&(row, dst, label));
                    cost.pim_mutations += 1;
                }
            }
            self.tally.remove_row(live_labels(&old.slots));
            self.edge_count -= old.live;
        }
        self.free_list_map.remove(&row);

        let mut slots = Vec::with_capacity(next_hops.len());
        for (dst, label) in next_hops {
            let Entry::Vacant(position) = self.elem_position_map.entry((row, dst, label)) else {
                continue; // duplicate within the provided row
            };
            position.insert(slots.len());
            slots.push((dst, label));
            cost.pim_mutations += 1;
            cost.host_bytes_written += label_slot_bytes(label);
        }
        cost.host_bytes_written += (slots.len() * std::mem::size_of::<NodeId>()) as u64;
        let cols = ColsVector::new(slots);
        self.edge_count += cols.live;
        self.tally.add_row(live_labels(&cols.slots));
        self.cols.insert(row, cols);
        cost
    }

    /// Removes a row entirely and returns its live labelled next-hops (used
    /// when a node is demoted back to a PIM module).
    pub fn take_row(&mut self, row: NodeId) -> Option<Vec<(NodeId, Label)>> {
        let cols = self.cols.remove(&row)?;
        let mut hops = Vec::with_capacity(cols.live);
        for &(dst, label) in &cols.slots {
            if dst != FREE_SLOT {
                self.elem_position_map.remove(&(row, dst, label));
                hops.push((dst, label));
            }
        }
        self.tally.remove_row(live_labels(&hops));
        self.free_list_map.remove(&row);
        self.edge_count -= cols.live;
        Some(hops)
    }

    /// Inserts a labelled edge following the paper's four-step protocol:
    /// existence check (PIM), free-slot allocation (PIM), position-map update
    /// (PIM), and a single host write into `cols_vector`.
    pub fn insert_edge(&mut self, src: NodeId, dst: NodeId, label: Label) -> UpdateOutcome {
        let mut cost = UpdateCost::default();
        // Step 1: PIM-side existence check (the probe that finds the edge
        // absent also reserves its position-map entry for step 3).
        cost.pim_lookups += 1;
        let Entry::Vacant(position) = self.elem_position_map.entry((src, dst, label)) else {
            return UpdateOutcome { changed: false, cost };
        };
        let cols = self.cols.entry(src).or_default();
        // Step 2: PIM-side free-slot allocation.
        cost.pim_lookups += 1;
        let pos = match self.free_list_map.get_mut(&src).and_then(Vec::pop) {
            Some(free) => {
                cost.pim_mutations += 1;
                free
            }
            None => {
                // Grow the cols_vector; the host appends a slot.
                cols.slots.push((FREE_SLOT, Label::ANY));
                cols.slots.len() - 1
            }
        };
        // Step 3: PIM-side position-map update.
        position.insert(pos);
        cost.pim_mutations += 1;
        // Step 4: host writes the slot (id array, plus the label array for
        // non-default labels).
        cols.slots[pos] = (dst, label);
        let first = cols.gain(label);
        cost.host_bytes_written += std::mem::size_of::<NodeId>() as u64 + label_slot_bytes(label);
        self.edge_count += 1;
        self.tally.add(label, first);
        UpdateOutcome { changed: true, cost }
    }

    /// Deletes a labelled edge: the PIM side locates the slot and returns it
    /// to the free list, the host overwrites the slot with the free marker.
    pub fn delete_edge(&mut self, src: NodeId, dst: NodeId, label: Label) -> UpdateOutcome {
        let mut cost = UpdateCost::default();
        cost.pim_lookups += 1;
        let Some(pos) = self.elem_position_map.remove(&(src, dst, label)) else {
            return UpdateOutcome { changed: false, cost };
        };
        cost.pim_mutations += 1;
        // moctopus-lint: allow(panic-in-lib, reason = "elem_position_map membership (checked above) implies the row exists; divergence is a corruption bug check_invariants catches")
        let cols = self.cols.get_mut(&src).expect("row must exist for a mapped edge");
        cols.slots[pos] = (FREE_SLOT, Label::ANY);
        let last = cols.lose(label);
        cost.host_bytes_written += std::mem::size_of::<NodeId>() as u64;
        self.free_list_map.entry(src).or_default().push(pos);
        cost.pim_mutations += 1;
        self.edge_count -= 1;
        self.tally.remove(label, last);
        UpdateOutcome { changed: true, cost }
    }

    /// Returns `true` if the labelled edge exists (PIM-side lookup).
    pub fn has_edge(&self, src: NodeId, dst: NodeId, label: Label) -> bool {
        self.elem_position_map.contains_key(&(src, dst, label))
    }

    /// Returns `true` if a row is stored for `src`.
    pub fn contains_row(&self, src: NodeId) -> bool {
        self.cols.contains_key(&src)
    }

    /// Live labelled next-hops of `src` (host-side sequential read).
    pub fn neighbors(&self, src: NodeId) -> Vec<(NodeId, Label)> {
        self.row_scan(src).1.collect()
    }

    /// `src`'s row as a query scan reads it, with one probe of the host
    /// table: the slot count of its `cols_vector` (live and free: the host
    /// fetches the whole id array, and a label-constrained scan the whole
    /// label array too) and the live labelled next-hops in slot order, not
    /// materialised.
    pub fn row_scan(&self, src: NodeId) -> (usize, impl Iterator<Item = (NodeId, Label)> + '_) {
        let slots = self.cols.get(&src).map_or(&[][..], |c| &c.slots[..]);
        (slots.len(), live(slots))
    }

    /// Live out-degree of `src`.
    pub fn out_degree(&self, src: NodeId) -> usize {
        self.cols.get(&src).map(|c| c.live).unwrap_or(0)
    }

    /// Number of rows stored.
    pub fn row_count(&self) -> usize {
        self.cols.len()
    }

    /// Number of live edges across all rows.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// This storage's per-label statistics: the tally of its `cols_vector`
    /// rows, with the rows of its reverse table counted as targets.
    pub fn label_stats(&self) -> LabelStatsTable {
        self.tally.with_targets_from(self.rev_rows.label_stats())
    }

    /// Bytes of live next-hop ids resident on the host across all rows.
    ///
    /// Derived from the incrementally maintained edge counter, so the query
    /// engine can charge host random accesses against the resident set size
    /// without iterating every row per query. Counts the 8-byte id arrays
    /// (the structures random accesses chase); label arrays are charged at
    /// scan time.
    pub fn live_bytes(&self) -> u64 {
        (self.edge_count * std::mem::size_of::<NodeId>()) as u64
    }

    /// Iterates over rows as `(row, live labelled next-hops)`, reading the
    /// slots in place.
    pub fn iter(
        &self,
    ) -> impl Iterator<Item = (NodeId, impl Iterator<Item = (NodeId, Label)> + '_)> + '_ {
        self.rows().map(|(r, c)| (r, live(&c.slots)))
    }

    /// The rows holding a live `label` edge (any live edge for `None`), in
    /// arbitrary order, read off each row's label counts, not its slots.
    pub fn rows_holding(&self, label: Option<Label>) -> impl Iterator<Item = NodeId> + '_ {
        let hit = move |c: &ColsVector| c.labels.iter().any(|&(l, _)| label.is_none_or(|x| x == l));
        self.rows().filter(move |(_, c)| hit(c)).map(|(r, _)| r)
    }

    /// Every row with its `cols_vector`, in arbitrary order.
    fn rows(&self) -> impl Iterator<Item = (NodeId, &ColsVector)> + '_ {
        // moctopus-lint: allow(hash-iter-order, reason = "arbitrary-order row view; the stored-edge consumers (partition metrics, reverse-row rebuild) reduce order-independently, seed lists are sorted, and durable exports use export_rows, which sorts")
        self.cols.iter().map(|(&r, c)| (r, c))
    }

    /// Validates internal consistency between the host-side `cols_vector`s and
    /// the PIM-side maps. Used by property tests.
    ///
    /// # Errors
    ///
    /// Returns [`GraphStoreError::EdgeNotFound`] describing the first
    /// inconsistency encountered.
    pub fn check_invariants(&self) -> Result<(), GraphStoreError> {
        let mut live_total = 0usize;
        // moctopus-lint: allow(hash-iter-order, reason = "validation pass: the first-error choice varies, but any inconsistency fails the property test regardless of order")
        for (&row, cols) in &self.cols {
            let mut live = 0usize;
            for (pos, &(dst, label)) in cols.slots.iter().enumerate() {
                if dst == FREE_SLOT {
                    continue;
                }
                live += 1;
                match self.elem_position_map.get(&(row, dst, label)) {
                    Some(&p) if p == pos => {}
                    _ => return Err(GraphStoreError::EdgeNotFound(row, dst)),
                }
            }
            if live != cols.live {
                return Err(GraphStoreError::NodeNotFound(row));
            }
            live_total += live;
            if let Some(free) = self.free_list_map.get(&row) {
                for &pos in free {
                    if pos >= cols.slots.len() || cols.slots[pos].0 != FREE_SLOT {
                        return Err(GraphStoreError::NodeNotFound(row));
                    }
                }
            }
        }
        if live_total != self.edge_count {
            return Err(GraphStoreError::NodeNotFound(NodeId(u64::MAX)));
        }
        Ok(())
    }

    reverse_row_api!();

    /// Host bytes of the reverse index (8-byte id + 2-byte label per entry),
    /// reported separately from [`HeterogeneousStorage::live_bytes`] so
    /// forward accounting stays untouched by the mirror.
    pub fn rev_bytes(&self) -> u64 {
        self.rev_rows.entries() as u64
            * (std::mem::size_of::<NodeId>() + std::mem::size_of::<Label>()) as u64
    }

    /// Exports every row for a durable snapshot, sorted by row id.
    ///
    /// Each entry is `(row, slots, free)`: the host-side `cols_vector`
    /// **verbatim** — free slots included, as the sentinel id — plus the
    /// row's free list in its exact pop order. Both must be preserved
    /// byte-for-byte: the slot layout determines a scan's slot count (and
    /// thus every future query cost), and the free-list order determines
    /// which slot the next insert reuses.
    pub fn export_rows(&self) -> Vec<ExportedHostRow> {
        // moctopus-lint: allow(hash-iter-order, reason = "collected then sorted by row id before use, below")
        let mut rows: Vec<ExportedHostRow> = self
            .cols
            .iter()
            .map(|(&row, cols)| {
                let free: Vec<u64> = self
                    .free_list_map
                    .get(&row)
                    .map(|f| f.iter().map(|&p| p as u64).collect())
                    .unwrap_or_default();
                (row, cols.slots.clone(), free)
            })
            .collect();
        rows.sort_by_key(|&(row, _, _)| row);
        rows
    }

    /// Rebuilds a storage from rows exported by
    /// [`HeterogeneousStorage::export_rows`].
    ///
    /// The PIM-side `elem_position_map` is rederived from the live slots
    /// (position = slot index) and the live/edge counters are recomputed, so
    /// the result satisfies [`HeterogeneousStorage::check_invariants`] and
    /// behaves identically to the exported original.
    pub fn from_rows(rows: Vec<ExportedHostRow>) -> Self {
        let mut s = HeterogeneousStorage::new();
        for (row, slots, free) in rows {
            for (pos, &(dst, label)) in slots.iter().enumerate() {
                if dst != FREE_SLOT {
                    s.elem_position_map.insert((row, dst, label), pos);
                }
            }
            let cols = ColsVector::new(slots);
            s.tally.add_row(live_labels(&cols.slots));
            s.edge_count += cols.live;
            if !free.is_empty() {
                s.free_list_map.insert(row, free.into_iter().map(|p| p as usize).collect());
            }
            s.cols.insert(row, cols);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANY: Label = Label::ANY;

    #[test]
    fn insert_appends_then_reuses_free_slots() {
        let mut s = HeterogeneousStorage::new();
        assert!(s.insert_edge(NodeId(1), NodeId(5), ANY).changed);
        assert!(s.insert_edge(NodeId(1), NodeId(6), ANY).changed);
        assert!(s.delete_edge(NodeId(1), NodeId(5), ANY).changed);
        // The freed slot (position 0) must be reused by the next insert.
        assert!(s.insert_edge(NodeId(1), NodeId(7), ANY).changed);
        assert_eq!(s.row_scan(NodeId(1)).0, 2); // still only two slots
        let mut n: Vec<NodeId> = s.neighbors(NodeId(1)).into_iter().map(|(d, _)| d).collect();
        n.sort();
        assert_eq!(n, vec![NodeId(6), NodeId(7)]);
        s.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_insert_only_costs_a_pim_lookup() {
        let mut s = HeterogeneousStorage::new();
        s.insert_edge(NodeId(1), NodeId(2), ANY);
        let outcome = s.insert_edge(NodeId(1), NodeId(2), ANY);
        assert!(!outcome.changed);
        assert_eq!(outcome.cost.host_bytes_written, 0);
        assert_eq!(outcome.cost.pim_lookups, 1);
        assert_eq!(s.edge_count(), 1);
    }

    #[test]
    fn labelled_insert_charges_the_label_array_write() {
        let mut s = HeterogeneousStorage::new();
        // Default label: id array only (byte-identical to the unlabelled path).
        assert_eq!(s.insert_edge(NodeId(1), NodeId(2), ANY).cost.host_bytes_written, 8);
        // Non-default label: id array + 2-byte label array entry, matching the
        // PIM local store's MRAM-write accounting.
        assert_eq!(s.insert_edge(NodeId(1), NodeId(3), Label(5)).cost.host_bytes_written, 10);
        let install = s.install_row(NodeId(9), vec![(NodeId(1), ANY), (NodeId(2), Label(3))]);
        assert_eq!(install.host_bytes_written, 16 + 2);
    }

    #[test]
    fn same_pair_under_a_new_label_is_a_distinct_edge() {
        let mut s = HeterogeneousStorage::new();
        assert!(s.insert_edge(NodeId(1), NodeId(2), Label(1)).changed);
        assert!(s.insert_edge(NodeId(1), NodeId(2), Label(2)).changed);
        assert_eq!(s.edge_count(), 2);
        assert!(s.has_edge(NodeId(1), NodeId(2), Label(1)));
        assert!(!s.has_edge(NodeId(1), NodeId(2), Label(3)));
        assert!(s.delete_edge(NodeId(1), NodeId(2), Label(1)).changed);
        assert!(!s.delete_edge(NodeId(1), NodeId(2), Label(1)).changed);
        assert_eq!(s.out_degree(NodeId(1)), 1);
        s.check_invariants().unwrap();
    }

    #[test]
    fn delete_missing_edge_is_a_noop() {
        let mut s = HeterogeneousStorage::new();
        let outcome = s.delete_edge(NodeId(3), NodeId(4), ANY);
        assert!(!outcome.changed);
        assert_eq!(s.edge_count(), 0);
    }

    #[test]
    fn insert_cost_splits_work_between_sides() {
        let mut s = HeterogeneousStorage::new();
        let outcome = s.insert_edge(NodeId(1), NodeId(2), ANY);
        // Host does exactly one 8-byte write; PIM does the lookups/updates.
        assert_eq!(outcome.cost.host_bytes_written, 8);
        assert!(outcome.cost.pim_lookups >= 2);
        assert!(outcome.cost.pim_mutations >= 1);
    }

    #[test]
    fn install_and_take_row_roundtrip() {
        let mut s = HeterogeneousStorage::new();
        s.install_row(NodeId(9), vec![(NodeId(1), ANY), (NodeId(2), Label(3)), (NodeId(3), ANY)]);
        assert_eq!(s.out_degree(NodeId(9)), 3);
        assert_eq!(s.edge_count(), 3);
        s.check_invariants().unwrap();
        let mut row = s.take_row(NodeId(9)).unwrap();
        row.sort();
        assert_eq!(row, vec![(NodeId(1), ANY), (NodeId(2), Label(3)), (NodeId(3), ANY)]);
        assert_eq!(s.edge_count(), 0);
        assert!(s.take_row(NodeId(9)).is_none());
    }

    #[test]
    fn install_row_replaces_previous_contents() {
        let mut s = HeterogeneousStorage::new();
        s.install_row(NodeId(1), vec![(NodeId(2), ANY), (NodeId(3), ANY)]);
        s.install_row(NodeId(1), vec![(NodeId(4), ANY)]);
        assert_eq!(s.neighbors(NodeId(1)), vec![(NodeId(4), ANY)]);
        assert_eq!(s.edge_count(), 1);
        assert!(!s.has_edge(NodeId(1), NodeId(2), ANY));
        s.check_invariants().unwrap();
    }

    #[test]
    fn install_row_ignores_duplicates_in_input() {
        let mut s = HeterogeneousStorage::new();
        s.install_row(NodeId(1), vec![(NodeId(2), ANY), (NodeId(2), ANY), (NodeId(3), ANY)]);
        assert_eq!(s.out_degree(NodeId(1)), 2);
        s.check_invariants().unwrap();
    }

    #[test]
    fn figure3_insert_example() {
        // Paper Figure 3: inserting edge <1, 2>: the free list hands out a
        // position, the position map records it, the host writes one slot.
        let mut s = HeterogeneousStorage::new();
        s.install_row(
            NodeId(1),
            vec![(NodeId(5), ANY), (NodeId(6), ANY), (NodeId(7), ANY), (NodeId(4), ANY)],
        );
        s.delete_edge(NodeId(1), NodeId(6), ANY).changed.then_some(()).unwrap();
        let before = s.row_scan(NodeId(1)).0;
        let outcome = s.insert_edge(NodeId(1), NodeId(2), ANY);
        assert!(outcome.changed);
        assert_eq!(outcome.cost.host_bytes_written, 8);
        assert_eq!(s.row_scan(NodeId(1)).0, before); // slot reused, no growth
        assert!(s.has_edge(NodeId(1), NodeId(2), ANY));
        s.check_invariants().unwrap();
    }

    #[test]
    fn live_bytes_tracks_the_full_iteration() {
        let mut s = HeterogeneousStorage::new();
        s.install_row(NodeId(1), vec![(NodeId(2), ANY), (NodeId(3), ANY)]);
        s.insert_edge(NodeId(4), NodeId(5), ANY);
        s.delete_edge(NodeId(1), NodeId(2), ANY);
        let iterated: u64 = s.iter().map(|(_, hops)| hops.count() as u64 * 8).sum();
        assert_eq!(s.live_bytes(), iterated);
        assert_eq!(s.live_bytes(), 16);
    }

    /// Transposes exported host rows (live slots only) into the reverse rows
    /// a storage mirroring both sides of every edge would carry.
    fn transpose(rows: &[ExportedHostRow]) -> Vec<(NodeId, Vec<(NodeId, Label)>)> {
        let mut map: std::collections::BTreeMap<NodeId, Vec<(NodeId, Label)>> =
            std::collections::BTreeMap::new();
        for &(src, ref slots, _) in rows {
            for &(dst, label) in slots {
                if dst != FREE_SLOT {
                    map.entry(dst).or_default().push((src, label));
                }
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
        // After every step of a deterministic insert/delete/install/take
        // interleaving — with the reverse side mirrored the way the engine
        // does it — the incrementally maintained stats must equal the stats
        // of a storage rebuilt from scratch via the snapshot path (forward
        // rows restored, reverse rows re-derived by transposition), and the
        // incremental reverse rows must equal the independent transpose.
        let mut s = HeterogeneousStorage::new();
        for i in 0..48u64 {
            let (src, dst, label) =
                (NodeId(i % 5), NodeId((i * 7) % 13), Label((i % 3) as u16 + 1));
            if s.insert_edge(src, dst, label).changed {
                assert!(s.insert_rev_edge(dst, src, label).1);
            }
            if i % 4 == 0 {
                let (ds, dd, dl) = (NodeId((i + 1) % 5), NodeId((i * 7 + 7) % 13), Label(1));
                if s.delete_edge(ds, dd, dl).changed {
                    assert!(s.remove_rev_edge(dd, ds, dl).1);
                }
            }
            if i % 11 == 0 {
                if let Some(row) = s.take_row(NodeId(i % 5)) {
                    s.install_row(NodeId(i % 5), row);
                }
                if let Some(rev) = s.take_rev_row(NodeId((i * 7) % 13)) {
                    s.install_rev_row(NodeId((i * 7) % 13), rev);
                }
            }
            let mut rebuilt = HeterogeneousStorage::from_rows(s.export_rows());
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
            s.check_invariants().unwrap();
        }
        assert_eq!(s.label_stats().snapshot().total_edges, s.edge_count() as u64);
        assert_eq!(s.rev_edge_count(), s.edge_count());
        assert!(s.rev_bytes() > 0);
    }

    #[test]
    fn rev_index_is_independent_of_forward_slots() {
        let mut s = HeterogeneousStorage::new();
        assert!(s.insert_rev_edge(NodeId(7), NodeId(1), Label(2)).1);
        assert!(s.insert_rev_edge(NodeId(7), NodeId(1), Label(3)).1);
        assert_eq!(s.insert_rev_edge(NodeId(7), NodeId(1), Label(2)), (2, false));
        assert_eq!(s.rev_row(NodeId(7)).unwrap(), &[(NodeId(1), Label(2)), (NodeId(1), Label(3))]);
        // Reverse entries never count as live edges or host live bytes.
        assert_eq!(s.edge_count(), 0);
        assert_eq!(s.live_bytes(), 0);
        assert_eq!(s.rev_bytes(), 20);
        s.check_invariants().unwrap();
        assert!(s.remove_rev_edge(NodeId(7), NodeId(1), Label(2)).1);
        assert!(s.remove_rev_edge(NodeId(7), NodeId(1), Label(3)).1);
        assert!(s.rev_row(NodeId(7)).is_none());
        assert_eq!(s.label_stats().snapshot(), Default::default());
    }

    #[test]
    fn iter_reports_live_rows() {
        let mut s = HeterogeneousStorage::new();
        s.install_row(NodeId(1), vec![(NodeId(2), ANY)]);
        s.install_row(NodeId(3), vec![(NodeId(4), ANY), (NodeId(5), ANY)]);
        let mut rows: Vec<_> = s.iter().map(|(r, hops)| (r, hops.count())).collect();
        rows.sort();
        assert_eq!(rows, vec![(NodeId(1), 1), (NodeId(3), 2)]);
        assert_eq!(s.row_count(), 2);
    }
}
