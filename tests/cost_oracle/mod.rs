//! The k-hop cost oracle shared by `batch_frontier_equivalence` and
//! `khop_lane_groups`: ARCHITECTURE.md §1's per-hop formulation recomputed
//! from the logical graph and the owner directory alone, one query at a
//! time, so any divergence in the engine's cost accounting (bytes *or* float
//! charge order) shows.

use graph_partition::PartitionAssignment;
use graph_store::{AdjacencyGraph, NodeId, PartitionId};
use moctopus::MoctopusConfig;
use pim_sim::{Phase, PimSystem, SimTime, Timeline};

const ENTRY_BYTES: u64 = 8;
const ID_BYTES: u64 = 8;

/// Recomputes the query timeline from the logical graph and the owner
/// directory, following ARCHITECTURE.md §1 / the paper's execution plan
/// verbatim (sorted frontiers, `sort`+`dedup` per hop). Insert-only
/// workloads keep every heterogeneous-storage row free of free slots, so a
/// host row's byte size equals its out-degree × 8.
pub fn oracle_query_timeline(
    graph: &AdjacencyGraph,
    assignment: &PartitionAssignment,
    config: &MoctopusConfig,
    sources: &[NodeId],
    k: usize,
) -> (Vec<Vec<NodeId>>, Timeline, usize) {
    let mut pim = PimSystem::new(config.pim);
    let module_count = config.pim.num_modules;
    let mut timeline = Timeline::new();
    let mut expansions = 0usize;

    let host_resident_bytes: u64 = assignment
        .iter()
        .filter(|&(_, p)| p == PartitionId::Host)
        .map(|(n, _)| graph.neighbors(n).len() as u64 * ID_BYTES)
        .sum();

    let dispatch_bytes: u64 = sources
        .iter()
        .filter(|&&s| matches!(assignment.partition_of(s), Some(PartitionId::Pim(_))))
        .count() as u64
        * ENTRY_BYTES;
    timeline.charge(Phase::Cpc, pim.cpc_transfer_cost(dispatch_bytes));
    timeline.transfers.record_cpu_to_pim(dispatch_bytes, 1);

    let mut frontiers: Vec<Vec<NodeId>> = sources.iter().map(|&s| vec![s]).collect();
    for _hop in 0..k {
        let mut per_module = vec![SimTime::ZERO; module_count];
        let mut host_time = SimTime::ZERO;
        let mut ipc_bytes = 0u64;
        let mut ipc_messages = 0u64;
        let mut cpc_bytes = 0u64;
        let mut next_frontiers: Vec<Vec<NodeId>> = vec![Vec::new(); frontiers.len()];
        for (q, frontier) in frontiers.iter().enumerate() {
            let next = &mut next_frontiers[q];
            for &v in frontier {
                expansions += 1;
                let row_bytes = graph.neighbors(v).len() as u64 * ID_BYTES;
                match assignment.partition_of(v) {
                    Some(PartitionId::Host) => {
                        host_time += pim.host_random_access_cost(1, host_resident_bytes)
                            + pim.host_sequential_read_cost(row_bytes);
                        for &(u, _) in graph.neighbors(v) {
                            if matches!(assignment.partition_of(u), Some(PartitionId::Pim(_))) {
                                cpc_bytes += ENTRY_BYTES;
                            }
                            next.push(u);
                        }
                    }
                    Some(PartitionId::Pim(m)) => {
                        per_module[m as usize] += pim.pim_hash_lookup_cost(row_bytes);
                        for &(u, _) in graph.neighbors(v) {
                            match assignment.partition_of(u) {
                                Some(PartitionId::Pim(m2)) if m2 == m => {}
                                Some(PartitionId::Pim(_)) => {
                                    ipc_bytes += ENTRY_BYTES;
                                    ipc_messages += 1;
                                }
                                _ => cpc_bytes += ENTRY_BYTES,
                            }
                            next.push(u);
                        }
                    }
                    None => {}
                }
            }
            next.sort();
            next.dedup();
        }
        let pim_time = pim.parallel_step(&per_module);
        timeline.charge(Phase::PimCompute, pim_time);
        timeline.charge(Phase::HostCompute, host_time);
        timeline.charge(Phase::Cpc, pim.cpc_transfer_cost(cpc_bytes));
        timeline.charge(
            Phase::Ipc,
            pim.ipc_transfer_cost(ipc_bytes) + pim.host_instructions_cost(ipc_messages * 25),
        );
        timeline.transfers.record_pim_to_cpu(cpc_bytes, 1);
        timeline.transfers.record_inter_pim(ipc_bytes, ipc_messages);
        frontiers = next_frontiers;
    }

    let matched_pairs: usize = frontiers.iter().map(Vec::len).sum();
    let gather_bytes = matched_pairs as u64 * ENTRY_BYTES;
    timeline.charge(Phase::Cpc, pim.cpc_transfer_cost(gather_bytes));
    timeline.transfers.record_pim_to_cpu(gather_bytes, 1);
    timeline.charge(
        Phase::Reduce,
        pim.host_sequential_read_cost(gather_bytes)
            + pim.host_instructions_cost(matched_pairs as u64 * 8),
    );
    (frontiers, timeline, expansions)
}
