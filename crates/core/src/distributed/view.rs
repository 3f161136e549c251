//! The row view: every forward row in one node-indexed CSR that both hop
//! loops read instead of the stores' row maps, and the owner classes the
//! k-hop loop charges from. Derived state, like the hop scratch: built on
//! the calling thread before a parallel region, read-only inside it,
//! dropped by every write, never cloned or persisted (CONCURRENCY.md §6
//! rule 10).

use super::ErasedEngine;
use graph_store::{Label, NodeId, PartitionId};
use std::ops::Range;

/// How one forward row's entries split by where their next rows live: on
/// any PIM module, and on the row's own module (never, for a host row). The
/// k-hop loop charges an expansion's transfers from these counts.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct OwnerClasses {
    pub(super) on_pim: u32,
    pub(super) on_own: u32,
}

impl OwnerClasses {
    /// Counts the entries of a row on `row` whose next rows live on `dsts`.
    fn count(row: Option<PartitionId>, dsts: impl Iterator<Item = Option<PartitionId>>) -> Self {
        let mut classes = OwnerClasses::default();
        for dst in dsts.filter(|dst| matches!(dst, Some(PartitionId::Pim(_)))) {
            classes.on_pim += 1;
            classes.on_own += u32::from(dst == row);
        }
        classes
    }
}

/// Which column a loop reads beside the ids: the NFA-product loop matches
/// labels, the k-hop loop charges owner classes.
#[derive(Debug, Clone, Copy)]
pub(super) enum Column {
    Labels,
    Owners,
}

/// Every forward row, contiguous in node-id order: node `n`'s entries are
/// `ids[starts[n]..starts[n + 1]]` with their `labels`, in the order its
/// store yields them (a module row ascending, a host row in slot order),
/// and its row's owner classes are `classes[n]`. Each of the two columns
/// is filled only once a loop needs it: the k-hop loop never reads labels,
/// the NFA-product loop never reads classes. Dropping the view keeps the
/// buffers, so a rebuild refills them in place.
#[derive(Debug, Default)]
pub(super) struct RowView {
    pub(super) built: bool,
    /// Whether `labels` matches `ids`.
    labelled: bool,
    /// Whether `classes` matches `ids` and the owner directory.
    classified: bool,
    /// Frontier entries the hop loops expanded plus the entries they
    /// produced since the view was dropped: a sum of thread-invariant
    /// counts, kept beside the stats and never in them.
    pub(super) work: usize,
    starts: Vec<u32>,
    ids: Vec<u32>,
    labels: Vec<Label>,
    classes: Vec<OwnerClasses>,
    /// Every host row's slot count (freed slots included), by node.
    host_slots: Vec<(NodeId, usize)>,
}

impl Clone for RowView {
    fn clone(&self) -> Self {
        RowView::default()
    }
}

impl RowView {
    /// Forgets the rows after a write; the buffers stay for the rebuild.
    pub(super) fn drop_rows(&mut self) {
        (self.built, self.labelled, self.classified, self.work) = (false, false, false, 0);
    }
}

/// One of two iterators: a row from the view or from a store, a module row
/// or a host row. Its `fold` dispatches once per row, not once per entry.
enum Either<A, B> {
    Left(A),
    Right(B),
}

impl<T, A: Iterator<Item = T>, B: Iterator<Item = T>> Iterator for Either<A, B> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            Either::Left(it) => it.next(),
            Either::Right(it) => it.next(),
        }
    }

    fn fold<Acc, F: FnMut(Acc, T) -> Acc>(self, init: Acc, f: F) -> Acc {
        match self {
            Either::Left(it) => it.fold(init, f),
            Either::Right(it) => it.fold(init, f),
        }
    }
}

impl ErasedEngine {
    /// Builds a dropped row view once the loops' work since the drop reaches
    /// the stored edge count, which a build reads once each: a run of
    /// queries between writes pays for at most about as much again, and one
    /// that never gets there reads the stores. A built view gets `column`
    /// if it lacks it. Runs on the calling thread before any worker does. A
    /// directory bound or an edge count past `u32` never builds a view.
    pub(super) fn prepare_row_view(&mut self, column: Column) {
        let bound = self.partitioner.assignment().id_bound();
        let fits = bound <= u64::from(u32::MAX) && self.edge_count <= u32::MAX as usize;
        if !self.view.built {
            if self.view.work < self.edge_count || !fits {
                return;
            }
            let RowView { starts, host_slots, .. } = &mut self.view;
            starts.clear();
            starts.resize(bound as usize + 1, 0);
            host_slots.clear();
            for (node, row) in self.local_stores.iter().flat_map(|store| store.iter()) {
                starts[node.index() + 1] = row.len() as u32;
            }
            for (node, row) in self.host_store.iter() {
                starts[node.index() + 1] = row.count() as u32;
                host_slots.push((node, self.host_store.row_scan(node).0));
            }
            host_slots.sort_unstable();
            (1..starts.len()).for_each(|i| starts[i] += starts[i - 1]);
            self.fill_view(false);
            self.view.built = true;
        }
        match column {
            Column::Labels if !self.view.labelled => {
                self.fill_view(true);
                self.view.labelled = true;
            }
            Column::Owners if !self.view.classified => {
                self.classify_view();
                self.view.classified = true;
            }
            _ => {}
        }
    }

    /// Counts every row's owner classes off the view's ids and the owner
    /// directory.
    fn classify_view(&mut self) {
        let owners = self.partitioner.assignment();
        let RowView { starts, ids, classes, .. } = &mut self.view;
        classes.clear();
        classes.extend(starts.windows(2).enumerate().map(|(n, span)| {
            let row = ids[span[0] as usize..span[1] as usize].iter();
            let dsts = row.map(|&u| owners.partition_of(NodeId(u64::from(u))));
            OwnerClasses::count(owners.partition_of(NodeId(n as u64)), dsts)
        }));
    }

    /// Writes every forward row's ids (or, with `labels`, its labels) into
    /// the view at the offsets `starts` holds.
    fn fill_view(&mut self, labels: bool) {
        let RowView { starts, ids, labels: column, .. } = &mut self.view;
        let total = starts[starts.len() - 1] as usize;
        // The rows tile `0..total`: every position is written below.
        if labels {
            column.resize(total, Label::ANY);
        } else {
            ids.resize(total, 0);
        }
        let mut fill = |node: NodeId, row: &mut dyn Iterator<Item = (NodeId, Label)>| {
            let at = starts[node.index()] as usize;
            if labels {
                row.zip(&mut column[at..]).for_each(|((_, label), l)| *l = label);
            } else {
                row.zip(&mut ids[at..]).for_each(|((u, _), id)| *id = u.0 as u32);
            }
        };
        for (node, row) in self.local_stores.iter().flat_map(|store| store.iter()) {
            fill(node, &mut row.iter().copied());
        }
        for (node, mut row) in self.host_store.iter() {
            fill(node, &mut row);
        }
    }

    /// The view's span of `node`'s row with the entries a scan of it is
    /// charged for, when the view is built: a module row's length, a host
    /// row's slot count (freed slots included).
    fn view_span(&self, node: NodeId, owner: Option<PartitionId>) -> Option<(usize, Range<usize>)> {
        let view = &self.view;
        if !view.built {
            return None;
        }
        let i = node.index();
        let span = view.starts.get(i..i + 2).map_or(0..0, |w| w[0] as usize..w[1] as usize);
        let scanned = match owner {
            Some(PartitionId::Host) => view
                .host_slots
                .binary_search_by_key(&node, |&(n, _)| n)
                .map_or(0, |at| view.host_slots[at].1),
            _ => span.len(),
        };
        Some((scanned, span))
    }

    /// The forward row of `node` from its owner's store, with the entries
    /// a scan of it is charged for; a node with no owner has no row.
    fn store_row(
        &self,
        node: NodeId,
        owner: Option<PartitionId>,
    ) -> (usize, impl Iterator<Item = (NodeId, Label)> + '_) {
        match owner {
            Some(PartitionId::Host) => {
                let (slots, row) = self.host_store.row_scan(node);
                (slots, Either::Right(row))
            }
            Some(PartitionId::Pim(m)) => {
                let row = self.local_stores[m as usize].row(node).unwrap_or(&[]);
                (row.len(), Either::Left(row.iter().copied()))
            }
            None => (0, Either::Left([].iter().copied())),
        }
    }

    /// The labelled forward row of `node`, which `owner` holds, as its
    /// store yields it, with the entries a scan of it is charged for. Read
    /// from the row view when one is built — its label column filled by
    /// `prepare_row_view(Column::Labels)` — and from the owner's store
    /// otherwise.
    pub(super) fn forward_row(
        &self,
        node: NodeId,
        owner: Option<PartitionId>,
    ) -> (usize, impl Iterator<Item = (NodeId, Label)> + '_) {
        let view = &self.view;
        if let Some((scanned, span)) = self.view_span(node, owner) {
            debug_assert!(view.labelled, "a labelled scan before the label column was filled");
            let entries = view.ids[span.clone()].iter().zip(&view.labels[span]);
            return (scanned, Either::Left(entries.map(|(&u, &l)| (NodeId(u64::from(u)), l))));
        }
        let (scanned, row) = self.store_row(node, owner);
        (scanned, Either::Right(row))
    }

    /// [`ErasedEngine::forward_row`] without the labels but with the row's
    /// owner classes: what the k-hop loop scans and charges. Read from the
    /// row view when one is built — its class column filled by
    /// `prepare_row_view(Column::Owners)` — and otherwise counted off the
    /// owner's store row, one owner lookup per entry.
    pub(super) fn forward_ids(
        &self,
        node: NodeId,
        owner: Option<PartitionId>,
    ) -> (usize, OwnerClasses, impl Iterator<Item = NodeId> + '_) {
        let view = &self.view;
        if let Some((scanned, span)) = self.view_span(node, owner) {
            debug_assert!(view.classified, "a k-hop scan before the class column was filled");
            let classes = view.classes.get(node.index()).copied().unwrap_or_default();
            let ids = view.ids[span].iter().map(|&u| NodeId(u64::from(u)));
            return (scanned, classes, Either::Left(ids));
        }
        let owners = self.partitioner.assignment();
        let dsts = self.store_row(node, owner).1.map(|(u, _)| owners.partition_of(u));
        let classes = OwnerClasses::count(owner, dsts);
        let (scanned, row) = self.store_row(node, owner);
        (scanned, classes, Either::Right(row.map(|(u, _)| u)))
    }
}
