//! The update funnel: every insert and delete — labelled or not, tracked or
//! not — runs one sequential loop over the batch and charges it at the
//! batch's barrier (CONCURRENCY.md §3.1, the paragraph on updates).

use super::{label_wire_bytes, row_label_wire_bytes, ErasedEngine, EDGE_BYTES, ID_BYTES};
use crate::deps::UpdateFootprint;
use crate::stats::{StatsDelta, UpdateStats};
use graph_store::{Label, NodeId, PartitionId};
use pim_sim::{Phase, Timeline};

/// An unlabelled edge as the default-labelled edge it is.
pub(super) fn unlabelled(&(src, dst): &(NodeId, NodeId)) -> (NodeId, NodeId, Label) {
    (src, dst, Label::ANY)
}

/// The two edge writes of the update funnel (`DistributedPimEngine::apply`)
/// and of the host baseline's update loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EdgeOp {
    Insert,
    Delete,
}

impl ErasedEngine {
    /// The update funnel: every update method of the `GraphEngine` impl runs
    /// this one loop (the unlabelled ones stream `Label::ANY` in without
    /// materialising a labelled copy; the tracked ones pass a footprint for
    /// the host-store flag). Batches mutate the stores and the partitioner,
    /// so the loop is sequential. The batch arrives as a trait object so
    /// that the loop is not generic: it is compiled once, in this crate.
    ///
    /// Per edge, in this order (`tests/update_cost_golden.rs` pins every
    /// [`UpdateStats`] bit):
    ///
    /// 1. the partitioner sees the edge and, on an insert, names the
    ///    source's owner after it; an insert that pushes the source across
    ///    the degree threshold migrates its rows to the host first;
    /// 2. the forward write at the source's owner and its charge — one probe
    ///    of the row, whose length *before* the write prices the access;
    /// 3. if that changed the store, the mirrored write into the reverse row
    ///    at the destination's owner (reverse rows colocate with the node's
    ///    forward placement, so backward sweeps read them without extra
    ///    routing) and its charge: a PIM-resident reverse row pays the
    ///    CPU→PIM routing of the edge plus one MRAM entry write, a
    ///    host-resident one the host-side write (the host coordinator
    ///    already holds the edge). The mirror always changes its row: the
    ///    forward store just deduplicated the edge; an unchanged store looks
    ///    up no destination owner.
    pub(super) fn apply(
        &mut self,
        op: EdgeOp,
        edges: &mut dyn ExactSizeIterator<Item = (NodeId, NodeId, Label)>,
        mut footprint: Option<&mut UpdateFootprint>,
    ) -> UpdateStats {
        let batch_len = edges.len();
        let mut delta = StatsDelta::new(self.config.pim.num_modules);
        self.view.drop_rows();
        let insert = op == EdgeOp::Insert;

        for (src, dst, label) in edges {
            let owner = if insert {
                // Partitioning decision happens on edge arrival (radical greedy).
                let before = self.owner(src);
                let after = self.partitioner.on_edge(src, dst);
                // Labor division: the node may have just crossed the threshold.
                if let (Some(PartitionId::Pim(old)), PartitionId::Host) = (before, after) {
                    self.promote_to_host(src, old as usize, &mut delta);
                }
                after
            } else {
                self.partitioner.on_edge_delete(src, dst);
                let Some(owner) = self.owner(src) else { continue };
                owner
            };
            // Host-store bytes move when a touched row is (or becomes)
            // host-resident — a promotion installs the row there.
            let mut host_store = owner == PartitionId::Host;
            let label_bytes = label_wire_bytes(label);

            let applied = match owner {
                PartitionId::Host => {
                    // Heterogeneous storage: the PIM side checks existence
                    // and manages the slot, the host writes one position.
                    let outcome = if insert {
                        self.host_store.insert_edge(src, dst, label)
                    } else {
                        self.host_store.delete_edge(src, dst, label)
                    };
                    let aux = self.aux_module(src);
                    delta.per_module[aux] += self.pim.pim_hash_lookup_cost(ID_BYTES)
                        * outcome.cost.pim_lookups as f64
                        + self.pim.pim_instructions_cost(60 * outcome.cost.pim_mutations);
                    delta.host_time +=
                        self.pim.host_sequential_read_cost(outcome.cost.host_bytes_written)
                            + self.pim.host_instructions_cost(40);
                    // The host exchanges a small request/response with the PIM
                    // side to learn the slot position.
                    delta.cpu_to_pim_bytes += EDGE_BYTES + label_bytes;
                    delta.pim_to_cpu_bytes += ID_BYTES;
                    outcome.changed
                }
                PartitionId::Pim(m) => {
                    let store = &mut self.local_stores[m as usize];
                    let (row_len, applied) = if insert {
                        store.insert_edge(src, dst, label)
                    } else {
                        store.remove_edge(src, dst, label)
                    };
                    delta.cpu_to_pim_bytes += EDGE_BYTES + label_bytes;
                    delta.per_module[m as usize] +=
                        self.pim.pim_hash_lookup_cost(row_len as u64 * ID_BYTES)
                            + self.pim.mram_write_cost(ID_BYTES + label_bytes);
                    applied
                }
            };

            // Both partitioners assign the destination an owner on edge
            // arrival, so the lookup only misses for nodes outside the
            // stream (defensive).
            let rev_owner = if applied { self.owner(dst) } else { None };
            delta.applied += usize::from(applied);
            match rev_owner {
                Some(PartitionId::Host) => {
                    host_store = true;
                    if insert {
                        self.host_store.insert_rev_edge(dst, src, label);
                    } else {
                        self.host_store.remove_rev_edge(dst, src, label);
                    }
                    delta.host_time += self.pim.host_sequential_read_cost(ID_BYTES + label_bytes);
                }
                Some(PartitionId::Pim(m)) => {
                    let store = &mut self.local_stores[m as usize];
                    if insert {
                        store.insert_rev_edge(dst, src, label);
                    } else {
                        store.remove_rev_edge(dst, src, label);
                    }
                    delta.cpu_to_pim_bytes += EDGE_BYTES + label_bytes;
                    delta.per_module[m as usize] +=
                        self.pim.mram_write_cost(ID_BYTES + label_bytes);
                }
                None => {}
            }
            if let Some(fp) = footprint.as_deref_mut() {
                fp.host_store |= host_store;
            }
        }

        if insert {
            self.edge_count += delta.applied;
        } else {
            self.edge_count -= delta.applied;
        }
        // The batch's barrier: the accumulated delta becomes its timeline.
        let mut timeline = Timeline::new();
        let pim_time = self.pim.parallel_step(&delta.per_module);
        timeline.charge(Phase::PimCompute, pim_time);
        timeline.charge(Phase::HostCompute, delta.host_time);
        timeline.charge(
            Phase::Cpc,
            self.pim.cpc_transfer_cost(delta.cpu_to_pim_bytes)
                + self.pim.cpc_transfer_cost(delta.pim_to_cpu_bytes),
        );
        timeline.transfers.record_cpu_to_pim(delta.cpu_to_pim_bytes, batch_len as u64);
        timeline.transfers.record_pim_to_cpu(delta.pim_to_cpu_bytes, 1);
        UpdateStats { timeline, requested: batch_len, applied: delta.applied }
    }

    /// Moves a newly promoted high-degree row from its PIM module to the host
    /// (the Node Migrator of Figure 1), charging into the batch's delta.
    fn promote_to_host(&mut self, node: NodeId, old_module: usize, delta: &mut StatsDelta) {
        if let Some(row) = self.local_stores[old_module].take_row(node) {
            let bytes = row.len() as u64 * ID_BYTES + row_label_wire_bytes(&row);
            delta.per_module[old_module] += self.pim.mram_read_cost(bytes);
            delta.pim_to_cpu_bytes += bytes;
            let cost = self.host_store.install_row(node, row);
            delta.host_time += self.pim.host_sequential_read_cost(cost.host_bytes_written);
        }
        // The reverse row rides along: in-adjacency colocates with the node's
        // forward placement, so it is read from the old module and written
        // into the host-side secondary index.
        if let Some(rev) = self.local_stores[old_module].take_rev_row(node) {
            let bytes = rev.len() as u64 * ID_BYTES + row_label_wire_bytes(&rev);
            delta.per_module[old_module] += self.pim.mram_read_cost(bytes);
            delta.pim_to_cpu_bytes += bytes;
            delta.host_time += self.pim.host_sequential_read_cost(bytes);
            self.host_store.install_rev_row(node, rev);
        }
    }
}
