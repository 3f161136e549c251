//! Property tests pinning the batch-frontier query engine to its contract.
//!
//! The engine rewrite (dense owner directory, epoch-marked dedup, recycled
//! frontier buffers) is a pure reproduction-speed optimisation: results must
//! match `rpq::ReferenceEvaluator`, and every simulated charge must equal the
//! naive per-hop formulation documented in ARCHITECTURE.md §1 — dispatch
//! bytes for PIM-resident sources, per-entry CPC/IPC bytes with 25 host
//! instructions per forwarded entry, straggler-dominated PIM steps, and the
//! gather + reduce tail. The oracle (`tests/cost_oracle/mod.rs`) recomputes that formulation from
//! the logical graph and the owner directory alone, so any divergence in the
//! engine's cost accounting (bytes *or* float charge order) fails the test.

use graph_partition::StreamingPartitioner;
use graph_store::{AdjacencyGraph, NodeId};
use moctopus::distributed::DistributedPimEngine;
use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem, PimHashSystem, QueryStats};
use pim_sim::Phase;
use proptest::prelude::*;
use rpq::ReferenceEvaluator;

mod cost_oracle;

use cost_oracle::oracle_query_timeline;

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
