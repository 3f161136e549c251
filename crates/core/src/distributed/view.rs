//! The row view: every forward row in one node-indexed CSR that both hop
//! loops read instead of the stores' row maps. Derived state, like the hop
//! scratch: built on the calling thread before a parallel region, read-only
//! inside it, dropped by every write, never cloned or persisted
//! (CONCURRENCY.md §6 rule 10).

use super::ErasedEngine;
use graph_store::{Label, NodeId, PartitionId};

/// Every forward row, contiguous in node-id order: node `n`'s entries are
/// `ids[starts[n]..starts[n + 1]]` with their `labels`, in the order its
/// store yields them (a module row ascending, a host row in slot order).
/// Dropping it keeps the buffers, so a rebuild refills them in place.
#[derive(Debug, Default)]
pub(super) struct RowView {
    pub(super) built: bool,
    /// Frontier entries the hop loops expanded plus the entries they
    /// produced since the view was dropped: a sum of thread-invariant
    /// counts, kept beside the stats and never in them.
    pub(super) work: usize,
    starts: Vec<u32>,
    ids: Vec<u32>,
    labels: Vec<Label>,
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
        (self.built, self.work) = (false, 0);
    }
}

/// A row's entries from the view, a module store or the host store: one
/// iterator type whose `fold` dispatches once per row, not once per entry.
enum Entries<V, M, H> {
    View(V),
    Module(M),
    Host(H),
}

impl<T, V, M, H> Iterator for Entries<V, M, H>
where
    V: Iterator<Item = T>,
    M: Iterator<Item = T>,
    H: Iterator<Item = T>,
{
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            Entries::View(it) => it.next(),
            Entries::Module(it) => it.next(),
            Entries::Host(it) => it.next(),
        }
    }

    fn fold<B, F: FnMut(B, T) -> B>(self, init: B, f: F) -> B {
        match self {
            Entries::View(it) => it.fold(init, f),
            Entries::Module(it) => it.fold(init, f),
            Entries::Host(it) => it.fold(init, f),
        }
    }
}

impl ErasedEngine {
    /// Builds a dropped row view once the loops' work since the drop reaches
    /// the stored edge count, which a build reads once each: a run of
    /// queries between writes pays for at most about as much again, and one
    /// that never gets there reads the stores. Runs on the calling thread
    /// before any worker does. A directory bound or an edge count past
    /// `u32` never builds a view.
    pub(super) fn prepare_row_view(&mut self) {
        let bound = self.partitioner.assignment().id_bound();
        let fits = bound <= u64::from(u32::MAX) && self.edge_count <= u32::MAX as usize;
        if self.view.built || self.view.work < self.edge_count || !fits {
            return;
        }
        let RowView { starts, ids, labels, host_slots, .. } = &mut self.view;
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
        let total = starts[starts.len() - 1] as usize;
        // The rows tile `0..total`: every position is written below.
        ids.resize(total, 0);
        labels.resize(total, Label::ANY);
        let mut fill = |node: NodeId, row: &mut dyn Iterator<Item = (NodeId, Label)>| {
            let at = starts[node.index()] as usize;
            for ((u, label), (id, l)) in row.zip(ids[at..].iter_mut().zip(&mut labels[at..])) {
                (*id, *l) = (u.0 as u32, label);
            }
        };
        for (node, row) in self.local_stores.iter().flat_map(|store| store.iter()) {
            fill(node, &mut row.iter().copied());
        }
        for (node, mut row) in self.host_store.iter() {
            fill(node, &mut row);
        }
        self.view.built = true;
    }

    /// The forward row of `node`, which `owner` holds, as its store yields
    /// it, with the entries a scan of it is charged for: a module row's
    /// length, a host row's slot count (freed slots included). Read from the
    /// row view when one is built, from the owner's store otherwise; a node
    /// with no owner has no row.
    pub(super) fn forward_row(
        &self,
        node: NodeId,
        owner: Option<PartitionId>,
    ) -> (usize, impl Iterator<Item = (NodeId, Label)> + '_) {
        let view = &self.view;
        if view.built {
            let i = node.index();
            let span = view.starts.get(i..i + 2).map_or(0..0, |w| w[0] as usize..w[1] as usize);
            let scanned = match owner {
                Some(PartitionId::Host) => view
                    .host_slots
                    .binary_search_by_key(&node, |&(n, _)| n)
                    .map_or(0, |at| view.host_slots[at].1),
                _ => span.len(),
            };
            let entries = view.ids[span.clone()].iter().zip(&view.labels[span]);
            return (scanned, Entries::View(entries.map(|(&u, &l)| (NodeId(u64::from(u)), l))));
        }
        match owner {
            Some(PartitionId::Host) => {
                let (slots, row) = self.host_store.row_scan(node);
                (slots, Entries::Host(row))
            }
            Some(PartitionId::Pim(m)) => {
                let row = self.local_stores[m as usize].row(node).unwrap_or(&[]);
                (row.len(), Entries::Module(row.iter().copied()))
            }
            None => (0, Entries::Module([].iter().copied())),
        }
    }
}
