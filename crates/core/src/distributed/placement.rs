//! Where rows live: the stored-edge views, partition metrics, Moctopus'
//! locality refinement, and the reverse-row rebuild behind a restored
//! image. Every method here that moves a row takes `&mut self`, which is
//! what ends an expansion memo's life (CONCURRENCY.md §6 rule 8).

use super::{row_label_wire_bytes, DistributedPimEngine, ErasedEngine, ID_BYTES};
use graph_partition::{
    GreedyAdaptivePartitioner, MigrationReport, PartitionMetrics, StreamingPartitioner,
};
use graph_store::{HeterogeneousStorage, Label, LocalGraphStorage, NodeId, PartitionId};
use pim_sim::{Phase, Timeline};

/// The edges of one PIM module's store, rows in arbitrary order.
fn module_edges(store: &LocalGraphStorage) -> impl Iterator<Item = (NodeId, NodeId, Label)> + '_ {
    store.iter().flat_map(|(src, row)| row.iter().map(move |&(dst, l)| (src, dst, l)))
}

/// The live edges of the host store, rows in arbitrary order.
fn host_edges(store: &HeterogeneousStorage) -> impl Iterator<Item = (NodeId, NodeId, Label)> + '_ {
    store.iter().flat_map(|(src, row)| row.map(move |(dst, l)| (src, dst, l)))
}

impl<P: StreamingPartitioner + Sync + 'static> DistributedPimEngine<P> {
    /// Partition-quality metrics of the current placement.
    pub fn partition_metrics(&self) -> PartitionMetrics {
        PartitionMetrics::compute(self.erased().stored_edges(), self.partitioner.assignment())
    }
}

impl ErasedEngine {
    /// Every stored edge, module stores first, then the host store; rows in
    /// arbitrary order (consumers are order-independent or sort).
    pub(super) fn stored_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Label)> + '_ {
        self.local_stores.iter().flat_map(module_edges).chain(host_edges(&self.host_store))
    }

    /// Deterministically reconstructs the in-adjacency secondary index (and
    /// its reverse label statistics) from freshly restored forward rows:
    /// every stored edge's reverse entry is routed to the destination row's
    /// owner under the restored assignment — exactly where incremental
    /// maintenance would have put it. Snapshots never carry reverse rows
    /// (see STORAGE.md): the stores keep them sorted on insert and every
    /// edge lives in exactly one forward store, so the rebuilt index is
    /// independent of the order used here. That is what lets the rebuild go
    /// one store at a time, copying only that store's edges out before
    /// mirroring them, never the whole graph's.
    pub(super) fn rebuild_rev_rows(&mut self) {
        for m in 0..self.local_stores.len() {
            let store = &self.local_stores[m];
            let mut edges = Vec::with_capacity(store.edge_count());
            edges.extend(module_edges(store));
            self.mirror_rev_entries(edges);
        }
        let mut edges = Vec::with_capacity(self.host_store.edge_count());
        edges.extend(host_edges(&self.host_store));
        self.mirror_rev_entries(edges);
    }

    /// Inserts the reverse entry of every edge at its destination's owner.
    fn mirror_rev_entries(&mut self, edges: Vec<(NodeId, NodeId, Label)>) {
        for (src, dst, label) in edges {
            match self.owner(dst) {
                Some(PartitionId::Host) => {
                    self.host_store.insert_rev_edge(dst, src, label);
                }
                Some(PartitionId::Pim(m)) => {
                    self.local_stores[m as usize].insert_rev_edge(dst, src, label);
                }
                None => {}
            }
        }
    }
}

impl DistributedPimEngine<GreedyAdaptivePartitioner> {
    /// Runs the adaptive refinement: detects incorrectly partitioned nodes,
    /// migrates their rows to the module holding most of their neighbours, and
    /// charges the migration traffic.
    ///
    /// In the real system detection piggybacks on every batch of path-matching
    /// queries, so the placement keeps improving over time; this method models
    /// that steady state by iterating the detect-and-migrate pass until it
    /// converges (at most a handful of rounds), each round reading the
    /// module stores' forward rows in place — no copy of the graph. Returns
    /// the combined migration report and the simulated time of the whole
    /// pass. Hash placement (the contrast system) has no such pass.
    pub fn refine_locality(&mut self) -> (MigrationReport, Timeline) {
        const MAX_ROUNDS: usize = 4;
        let mut timeline = Timeline::new();
        let mut combined = MigrationReport::default();
        self.view.drop_rows();
        for _ in 0..MAX_ROUNDS {
            // Every PIM-resident node's out-row lives in its owner's store;
            // host rows are never refined.
            let mut rows: Vec<_> =
                self.local_stores.iter().flat_map(LocalGraphStorage::iter).collect();
            rows.sort_unstable_by_key(|&(node, _)| node);
            let report = self.partitioner.refine_rows(rows);
            let mut ipc_bytes = 0u64;
            for &(node, from, to) in &report.migrations {
                let (PartitionId::Pim(from), PartitionId::Pim(to)) = (from, to) else { continue };
                if let Some(row) = self.local_stores[from as usize].take_row(node) {
                    let bytes = row.len() as u64 * ID_BYTES + row_label_wire_bytes(&row) + ID_BYTES;
                    ipc_bytes += bytes;
                    self.local_stores[to as usize].install_row(node, row);
                }
                // The reverse row migrates with the node (colocation
                // invariant), charged like the forward row.
                if let Some(rev) = self.local_stores[from as usize].take_rev_row(node) {
                    let bytes = rev.len() as u64 * ID_BYTES + row_label_wire_bytes(&rev) + ID_BYTES;
                    ipc_bytes += bytes;
                    self.local_stores[to as usize].install_rev_row(node, rev);
                }
            }
            timeline.charge(Phase::Ipc, self.pim.ipc_transfer_cost(ipc_bytes));
            timeline.transfers.record_inter_pim(ipc_bytes, report.migrated as u64);
            let done = report.migrated == 0;
            combined.examined += report.examined;
            combined.migrated += report.migrated;
            combined.migrations.extend(report.migrations);
            if done {
                break;
            }
        }
        (combined, timeline)
    }
}
