//! The k-hop loop's lane groups against a per-query oracle.
//!
//! A k-hop call cuts its batch into contiguous query ranges, one per worker,
//! and runs each range in groups of up to 64 queries, one bit of a lane mask
//! each: a row is scanned once per group and hop, its lanes ORed into a dense
//! array that is then read in id order, by a word scan where the touched
//! slots are dense and by a sort where they are sparse. Each worker adds
//! its own charges, in whole picoseconds, into a private delta.
//!
//! Every batch size around the group boundaries (1, 2, 31–33, 63–65, 128,
//! 130 sources) runs at k = 0..4 on one to four threads, untracked and
//! tracked, on both PIM engines. Batches repeat sources and carry ids the
//! graph never named: one inside the owner directory, the directory bound
//! itself, ids past it and `NodeId(u64::MAX)`. Answers, the complete
//! `QueryStats` and the `QueryDeps` must equal the one-thread run and a
//! per-query BFS priced by the naive formulation of ARCHITECTURE.md §1 (the
//! cost oracle `tests/cost_oracle/mod.rs`, shared with
//! `batch_frontier_equivalence`), to the picosecond. The graph's far ids
//! make some hops sparse in the directory and its hubs give Moctopus a host
//! lane.

use graph_partition::StreamingPartitioner;
use graph_store::{AdjacencyGraph, NodeId, HIGH_DEGREE_THRESHOLD};
use moctopus::distributed::DistributedPimEngine;
use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem, PimHashSystem, QueryDeps, QueryStats};
use pim_sim::Phase;
use rpq::RpqExpr;
use std::collections::BTreeSet;

mod cost_oracle;

use cost_oracle::oracle_query_timeline;

/// Nodes `0..NODES` form the graph's core.
const NODES: u64 = 300;
/// Every seventh core node also points at `FAR + node`, which points back.
const FAR: u64 = 20_000;
/// An id inside the owner directory that no edge names.
const UNNAMED: u64 = 10_000;

/// Batch sizes on and around every lane-group boundary.
const BATCHES: [usize; 10] = [1, 2, 31, 32, 33, 63, 64, 65, 128, 130];

/// A ring, a stride, four hubs past the high-degree threshold and the far
/// detours.
fn edges() -> Vec<(NodeId, NodeId)> {
    let mut edges = BTreeSet::new();
    for i in 0..NODES {
        edges.insert((i, (i + 1) % NODES));
        edges.insert((i, (i * 7 + 3) % NODES));
        if i % 7 == 0 {
            edges.insert((i, FAR + i));
            edges.insert((FAR + i, (i * 13 + 5) % NODES));
        }
    }
    for hub in [0, 50, 150, 299] {
        for j in 0..HIGH_DEGREE_THRESHOLD as u64 + 8 {
            edges.insert((hub, (hub + 17 * j + 9) % NODES));
        }
    }
    edges.into_iter().map(|(s, d)| (NodeId(s), NodeId(d))).collect()
}

/// `len` sources: core nodes, far nodes, the unnamed id, the directory bound,
/// ids past it and `u64::MAX`, every fifth one a repeat of the one before.
fn batch(len: usize, bound: u64) -> Vec<NodeId> {
    let mut pool: Vec<u64> = vec![FAR + 7, UNNAMED, bound, bound + 5, 1 << 40, u64::MAX, FAR];
    pool.extend((0..NODES).step_by(3));
    let mut sources: Vec<NodeId> = Vec::with_capacity(len);
    for i in 0..len {
        let id = match sources.last() {
            Some(&prev) if i % 5 == 4 => prev.0,
            _ => pool[(i * 37 + len) % pool.len()],
        };
        sources.push(NodeId(id));
    }
    sources
}

/// What the cost oracle prices for one call: its answers and stats, and as
/// deps every node its frontiers hold at hops 0..=k plus the host lane when
/// any hop charged host time.
fn oracle<P: StreamingPartitioner + Sync + 'static>(
    graph: &AdjacencyGraph,
    engine: &DistributedPimEngine<P>,
    sources: &[NodeId],
    k: usize,
) -> (Vec<Vec<NodeId>>, QueryStats, QueryDeps) {
    let price =
        |hops| oracle_query_timeline(graph, engine.assignment(), engine.config(), sources, hops);
    let (answers, timeline, expansions) = price(k);
    let mut deps = QueryDeps {
        host_lane: !timeline.time(Phase::HostCompute).is_zero(),
        ..QueryDeps::default()
    };
    for hop in 0..=k {
        price(hop).0.iter().flatten().for_each(|&v| deps.nodes.insert(v));
    }
    let matched_pairs = answers.iter().map(Vec::len).sum();
    let stats =
        QueryStats { timeline, batch_size: sources.len(), hops: k, matched_pairs, expansions };
    (answers, stats, deps)
}

/// What one engine answers for every batch and k, untracked and tracked.
type Observed = Vec<(Vec<Vec<NodeId>>, QueryStats, Option<QueryDeps>)>;

/// Runs every batch at k = 0..4 on `engine` and checks each call against the
/// oracle; returns the observations for the cross-thread comparison.
fn observe<P: StreamingPartitioner + Sync + 'static>(
    engine: &mut DistributedPimEngine<P>,
    graph: &AdjacencyGraph,
) -> Observed {
    let bound = engine.assignment().id_bound();
    assert!(bound > FAR, "the far ids size the owner directory");
    assert_eq!(engine.partition_of(NodeId(UNNAMED)), None, "no edge names UNNAMED");
    let mut seen = Observed::new();
    for len in BATCHES {
        let sources = batch(len, bound);
        for k in 0..=4 {
            let (want, want_stats, want_deps) = oracle(graph, engine, &sources, k);
            let who = format!(
                "{} at {} threads, {len} sources, k = {k}",
                engine.name(),
                engine.threads()
            );
            let (got, stats) = engine.k_hop_batch(&sources, k);
            assert_eq!(got, want, "{who}: answers");
            assert_eq!(stats, want_stats, "{who}: stats");
            seen.push((got, stats, None));
            let (got, stats, deps) = engine.rpq_batch_tracked(&RpqExpr::k_hop(k), &sources);
            assert_eq!(got, want, "{who}: tracked answers");
            assert_eq!(stats, want_stats, "{who}: tracked stats");
            assert_eq!(deps, want_deps, "{who}: deps");
            seen.push((got, stats, Some(deps)));
        }
    }
    seen
}

/// Both engines at `threads`: Moctopus refined, with its hubs on the host.
fn observe_at(threads: usize, edges: &[(NodeId, NodeId)], graph: &AdjacencyGraph) -> [Observed; 2] {
    let config = MoctopusConfig::small_test().with_threads(threads);
    let mut moctopus = MoctopusSystem::new(config);
    moctopus.insert_edges(edges);
    moctopus.refine_locality();
    assert!(moctopus.host_row_count() >= 4, "the hubs are host-lane rows");
    let mut hash = PimHashSystem::new(config);
    hash.insert_edges(edges);
    [observe(&mut moctopus, graph), observe(&mut hash, graph)]
}

#[test]
fn lane_groups_match_the_per_query_oracle_and_one_thread_at_every_batch_size() {
    let edges = edges();
    let graph = AdjacencyGraph::from_edges(edges.iter().copied());
    let serial = observe_at(1, &edges, &graph);
    for threads in 2..=4 {
        assert_eq!(observe_at(threads, &edges, &graph), serial, "{threads} threads");
    }
}
