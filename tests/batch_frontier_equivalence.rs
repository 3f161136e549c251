//! Property tests pinning the batch-frontier query engine to its contract.
//!
//! The engine rewrite (dense owner directory, epoch-marked dedup, recycled
//! frontier buffers) is a pure reproduction-speed optimisation: results must
//! match `rpq::ReferenceEvaluator`, and every simulated charge must equal the
//! naive per-hop formulation documented in ARCHITECTURE.md §1 — dispatch
//! bytes for PIM-resident sources, per-entry CPC/IPC bytes with 25 host
//! instructions per forwarded entry, straggler-dominated PIM steps, and the
//! gather + reduce tail. The oracle below recomputes that formulation from
//! the logical graph and the owner directory alone, so any divergence in the
//! engine's cost accounting (bytes *or* float charge order) fails the test.

use graph_partition::{PartitionAssignment, StreamingPartitioner};
use graph_store::{AdjacencyGraph, NodeId, PartitionId};
use moctopus::distributed::DistributedPimEngine;
use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem, PimHashSystem, QueryStats};
use pim_sim::{Phase, PimSystem, SimTime, Timeline};
use proptest::prelude::*;
use rpq::ReferenceEvaluator;

const ENTRY_BYTES: u64 = 8;
const ID_BYTES: u64 = 8;

/// Recomputes the query timeline from the logical graph and the owner
/// directory, following ARCHITECTURE.md §1 / the paper's execution plan
/// verbatim (sorted frontiers, `sort`+`dedup` per hop). Insert-only
/// workloads keep every heterogeneous-storage row free of free slots, so a
/// host row's byte size equals its out-degree × 8.
fn oracle_query_timeline(
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

/// Loads a graph into an engine of the requested policy and checks, for each
/// k, that results match the reference evaluator and that the timeline is
/// identical to the oracle's naive formulation.
fn check_engine(graph: &AdjacencyGraph, policy_id: usize) -> Result<(), TestCaseError> {
    let config = MoctopusConfig::small_test();
    if policy_id == 0 {
        engine_for(graph, MoctopusSystem::new(config), |engine| {
            engine.refine_locality();
        })
    } else {
        engine_for(graph, PimHashSystem::new(config), |_| {})
    }
}

/// [`check_engine`] on one engine, `refine` run after the edges are in.
fn engine_for<P: StreamingPartitioner + Sync + 'static>(
    graph: &AdjacencyGraph,
    mut engine: DistributedPimEngine<P>,
    refine: fn(&mut DistributedPimEngine<P>),
) -> Result<(), TestCaseError> {
    let mut edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
    edges.sort();
    engine.insert_edges(&edges);
    refine(&mut engine);
    let reference = ReferenceEvaluator::new(graph);
    // A spread of known sources plus one id outside the graph (no-op path).
    let mut sources: Vec<NodeId> = (0..24u64).map(NodeId).collect();
    sources.push(NodeId(1 << 40));
    for k in 1..=3usize {
        let (got, stats): (Vec<Vec<NodeId>>, QueryStats) = engine.k_hop_batch(&sources, k);
        let want = reference.k_hop(&sources, k);
        for (g, w) in got.iter().zip(want.iter()) {
            let w: Vec<NodeId> = w.iter().copied().collect();
            prop_assert_eq!(g, &w, "result mismatch at k = {}", k);
        }
        let (oracle_results, oracle_timeline, oracle_expansions) =
            oracle_query_timeline(graph, engine.assignment(), engine.config(), &sources, k);
        prop_assert_eq!(&got, &oracle_results, "oracle frontier mismatch at k = {}", k);
        prop_assert_eq!(
            stats.timeline.transfers,
            oracle_timeline.transfers,
            "transfer counters diverge at k = {}",
            k
        );
        for phase in Phase::ALL {
            prop_assert_eq!(
                stats.timeline.time(phase),
                oracle_timeline.time(phase),
                "phase {} charge diverges at k = {}",
                phase,
                k
            );
        }
        prop_assert_eq!(stats.expansions, oracle_expansions);
        prop_assert_eq!(stats.matched_pairs, got.iter().map(Vec::len).sum::<usize>());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Uniform graphs, both placement policies.
    #[test]
    fn uniform_graphs_match_reference_and_cost_oracle(
        nodes in 60usize..320,
        degree_tenths in 10u32..60,
        seed in 0u64..1000,
        policy_id in 0usize..2,
    ) {
        let graph = graph_gen::uniform::generate(nodes, degree_tenths as f64 / 10.0, seed);
        check_engine(&graph, policy_id)?;
    }

    /// Power-law (skewed, hub-promoting) graphs, both placement policies.
    #[test]
    fn power_law_graphs_match_reference_and_cost_oracle(
        nodes in 120usize..500,
        hub_percent in 0u32..6,
        seed in 0u64..1000,
        policy_id in 0usize..2,
    ) {
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes,
            high_degree_fraction: hub_percent as f64 / 100.0,
            ..Default::default()
        };
        let graph = graph_gen::powerlaw::generate(&cfg, seed);
        check_engine(&graph, policy_id)?;
    }
}
