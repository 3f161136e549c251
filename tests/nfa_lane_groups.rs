//! The NFA-product loop's lane groups against the reference evaluator and
//! the one-thread run.
//!
//! An NFA-product call cuts its batch into lane groups of 64 queries (the
//! last one shorter), and each worker runs every hop of a contiguous range
//! of groups: a batch of 65 or more runs on two workers and up. Per call a worker keeps one
//! memo entry per product key it reaches, holding the key's expansion and
//! its group's `visited` and `next` lane words, and adds its charges, in
//! whole picoseconds, into a private delta per hop.
//!
//! Every batch size around the group boundaries (1, 63–65, 127–129 sources)
//! runs automata of 2 to 10 states on one to four threads, on both PIM
//! engines: forward, tracked, and under the two pruned plans
//! (`Bidirectional`, `RareLabelSplit`). Batches repeat sources inside a
//! group and carry ids the graph never named: one inside the owner
//! directory, the directory bound itself, ids past it and
//! `NodeId(u64::MAX)`. Every answer must equal `rpq::ReferenceEvaluator`'s,
//! and the complete `QueryStats` and `QueryDeps` the one-thread run's.

use graph_store::{AdjacencyGraph, Label, NodeId, HIGH_DEGREE_THRESHOLD};
use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem, PimHashSystem, QueryDeps, QueryStats};
use rpq::{parser, Nfa, PlanStrategy, ReferenceEvaluator};
use std::collections::BTreeSet;

/// Nodes `0..NODES` form the graph's core.
const NODES: u64 = 300;
/// Every seventh core node also points at `FAR + node`, which points back.
const FAR: u64 = 20_000;
/// An id inside the owner directory that no edge names.
const UNNAMED: u64 = 10_000;

/// Batch sizes on and around every lane-group boundary.
const BATCHES: [usize; 7] = [1, 63, 64, 65, 127, 128, 129];

/// Closures, chains and alternations whose automata have 2 to 10 states
/// (the parser's smallest automaton, of one atom, has two).
const EXPRS: [&str; 10] = [
    "1?",
    "1/2",
    "1+",
    "1+/8",
    "(1/2)*",
    "1/2/3/1/2",
    "1/2/3/1/2/3",
    "(1|8)+",
    "1/2/3/1/2/3/1/2",
    "1/(2|3)*/4",
];

/// A labelled ring, a labelled stride, four label-8 hubs past the
/// high-degree threshold and label-2 far detours.
fn edges() -> Vec<(NodeId, NodeId, Label)> {
    let mut edges = BTreeSet::new();
    for i in 0..NODES {
        edges.insert((i, (i + 1) % NODES, 1));
        edges.insert((i, (i * 7 + 3) % NODES, (i % 3) as u16 + 1));
        if i % 7 == 0 {
            edges.insert((i, FAR + i, 2));
            edges.insert((FAR + i, (i * 13 + 5) % NODES, 3));
        }
    }
    for hub in [0, 50, 150, 299] {
        for j in 0..HIGH_DEGREE_THRESHOLD as u64 + 8 {
            edges.insert((hub, (hub + 17 * j + 9) % NODES, 8));
        }
    }
    edges.into_iter().map(|(s, d, l)| (NodeId(s), NodeId(d), Label(l))).collect()
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

/// What one engine reports for every batch and expression: forward,
/// tracked and under both pruned plans.
type Observed = Vec<(Vec<Vec<NodeId>>, QueryStats, Option<QueryDeps>)>;

/// Runs every batch and expression on `engine`, checks each answer against
/// the reference evaluator and returns the observations.
fn observe(engine: &mut dyn GraphEngine, graph: &AdjacencyGraph, bound: u64) -> Observed {
    let reference = ReferenceEvaluator::new(graph);
    let mut seen = Observed::new();
    for len in BATCHES {
        let sources = batch(len, bound);
        for text in EXPRS {
            let expr = parser::parse(text).expect("fixture query parses");
            let want: Vec<Vec<NodeId>> = reference
                .evaluate(&expr, &sources)
                .into_iter()
                .map(|set| set.into_iter().collect())
                .collect();
            let who =
                format!("{} at {} threads, {len} sources, {text}", engine.name(), engine.threads());
            let (got, stats) = engine.rpq_batch(&expr, &sources);
            assert_eq!(got, want, "{who}: answers");
            assert_eq!(stats.batch_size, len, "{who}");
            seen.push((got, stats, None));
            let (got, stats, deps) = engine.rpq_batch_tracked(&expr, &sources);
            assert_eq!(got, want, "{who}: tracked answers");
            assert_eq!(&stats, &seen.last().unwrap().1, "{who}: tracked stats");
            for &s in &sources {
                let mut bucket = moctopus::DepMask::EMPTY;
                bucket.insert(s);
                assert!(deps.nodes.intersects(bucket), "{who}: deps cover source {s}");
            }
            seen.push((got, stats, Some(deps)));
            for strategy in
                [PlanStrategy::Bidirectional, PlanStrategy::RareLabelSplit { split_at: 1 }]
            {
                let (got, stats) = engine.rpq_batch_planned(&expr, &sources, strategy);
                assert_eq!(got, want, "{who}: answers under {strategy:?}");
                seen.push((got, stats, None));
            }
        }
    }
    seen
}

/// Both engines at `threads`: Moctopus refined, with its hubs on the host.
fn observe_at(
    threads: usize,
    edges: &[(NodeId, NodeId, Label)],
    graph: &AdjacencyGraph,
) -> [Observed; 2] {
    let config = MoctopusConfig::small_test().with_threads(threads);
    let mut moctopus = MoctopusSystem::new(config);
    moctopus.insert_labeled_edges(edges);
    moctopus.refine_locality();
    assert!(moctopus.host_row_count() >= 4, "the hubs are host-lane rows");
    let bound = moctopus.assignment().id_bound();
    assert!(bound > FAR, "the far ids size the owner directory");
    assert_eq!(moctopus.partition_of(NodeId(UNNAMED)), None, "no edge names UNNAMED");
    let mut hash = PimHashSystem::new(config);
    hash.insert_labeled_edges(edges);
    [observe(&mut moctopus, graph, bound), observe(&mut hash, graph, bound)]
}

#[test]
fn the_fixture_automata_have_two_to_ten_states() {
    let states: BTreeSet<usize> = EXPRS
        .iter()
        .map(|text| Nfa::from_expr(&parser::parse(text).expect("parses")).state_count())
        .collect();
    assert_eq!(states, (2..=10).collect(), "{states:?}");
}

#[test]
fn lane_groups_match_the_reference_and_one_thread_at_every_batch_size() {
    let edges = edges();
    let mut graph = AdjacencyGraph::new();
    for &(s, d, l) in &edges {
        graph.insert_edge(s, d, l);
    }
    let serial = observe_at(1, &edges, &graph);
    for threads in 2..=4 {
        let parallel = observe_at(threads, &edges, &graph);
        for (engine, (got, want)) in parallel.iter().zip(&serial).enumerate() {
            for (i, (got, want)) in got.iter().zip(want).enumerate() {
                let who = format!("engine {engine} at {threads} threads, observation {i}");
                assert_eq!(got.0, want.0, "{who}: answers");
                assert_eq!(got.1, want.1, "{who}: stats");
                assert_eq!(got.2, want.2, "{who}: deps");
            }
        }
    }
}
