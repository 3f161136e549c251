//! The k-hop loop's owner-class counts against a fresh engine's.
//!
//! The k-hop loop charges an expansion's IPC and CPC transfers per row, from
//! two counts per forward row (entries whose next row is on a PIM module,
//! and on the row's own module). They are derived, never kept across a
//! write: a column of the row view, filled from the owner directory, or a
//! count of the store row's entries by owner when no view is built. Writes
//! move rows and owners — forward writes, promotions to the host,
//! refinement, restore. A twin restored from the engine's snapshot counts
//! every row on an engine that has seen none of those writes, so after each
//! step of an update stream the engine's k-hop answers and `QueryStats` must
//! equal the twin's.
//! The streams cross the high-degree threshold (promotions, Moctopus only),
//! carry self-loops and one node pair under two labels, and interleave
//! refinement, snapshot/restore and clones, at one and two worker threads.

use graph_store::{Label, NodeId, HIGH_DEGREE_THRESHOLD};
use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem, PimHashSystem};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Node ids the streams use; `NODES` itself is never named by an edge.
const NODES: u64 = 40;

/// One step of a stream.
#[derive(Debug, Clone)]
enum Step {
    /// Insert a batch of labelled edges.
    Insert(Vec<(u64, u64, u16)>),
    /// Delete the live edges at these positions (modulo the live count) of
    /// the ordered set of live edges.
    Delete(Vec<usize>),
    /// Moctopus' locality refinement (nothing for PIM-hash).
    Refine,
    /// Continue on a fresh engine restored from this one's snapshot.
    Restore,
    /// Continue on a clone.
    Clone,
}

/// What every stream starts with: a self-loop on node 0, which is then
/// promoted; node 5 naming node 0 under two labels, and node 3 naming node 9
/// under two labels; another self-loop; and enough out-edges of node 0 to
/// carry it across the high-degree threshold.
fn prologue() -> Step {
    let mut edges = vec![(0, 0, 1), (5, 0, 1), (5, 0, 2), (3, 9, 1), (3, 9, 2), (7, 7, 2)];
    edges.extend((1..=HIGH_DEGREE_THRESHOLD as u64 + 2).map(|dst| (0, dst, 1)));
    Step::Insert(edges)
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Sources lean on three hubs so that they, too, cross the threshold.
    let src = prop_oneof![2 => 0..3u64, 3 => 0..NODES];
    let edge = (src, 0..NODES, 1..4u16);
    prop_oneof![
        6 => prop::collection::vec(edge, 1..12).prop_map(Step::Insert),
        3 => prop::collection::vec(0..1000usize, 1..6).prop_map(Step::Delete),
        1 => (0..1u8).prop_map(|_| Step::Refine),
        1 => (0..1u8).prop_map(|_| Step::Restore),
        1 => (0..1u8).prop_map(|_| Step::Clone),
    ]
}

fn labelled(edges: &[(u64, u64, u16)]) -> Vec<(NodeId, NodeId, Label)> {
    edges.iter().map(|&(s, d, l)| (NodeId(s), NodeId(d), Label(l))).collect()
}

/// `fresh` at `threads` worker threads, restored from `engine`'s snapshot.
fn restored<E: GraphEngine>(engine: &E, fresh: &impl Fn() -> E, threads: usize) -> E {
    let image = engine.export_snapshot().expect("a PIM engine exports its image");
    let mut twin = fresh();
    twin.set_threads(threads);
    assert!(twin.restore_snapshot(&image), "an engine restores its own image");
    twin
}

/// Asserts that `engine`'s k-hop answers and stats equal those of a twin
/// whose tallies were counted from scratch. 600 sources make a first hop
/// wide enough for two workers.
fn assert_matches_recount<E: GraphEngine>(
    engine: &mut E,
    fresh: &impl Fn() -> E,
    threads: usize,
    ctx: &str,
) {
    let mut twin = restored(engine, fresh, threads);
    let sources: Vec<NodeId> = (0..600u64).map(|i| NodeId(i % (NODES + 1))).collect();
    for k in 1..=3 {
        let (answers, stats) = engine.k_hop_batch(&sources, k);
        let (want_answers, want_stats) = twin.k_hop_batch(&sources, k);
        assert_eq!(answers, want_answers, "{ctx}: k = {k} answers");
        assert_eq!(stats, want_stats, "{ctx}: k = {k} stats");
    }
}

/// Runs `steps` after the prologue on an engine from `fresh` at `threads`
/// worker threads, checking against a recount after every step, and
/// returns the final engine.
fn run<E: GraphEngine + Clone>(
    fresh: impl Fn() -> E,
    refine: impl Fn(&mut E),
    steps: &[Step],
    threads: usize,
) -> E {
    let mut engine = fresh();
    engine.set_threads(threads);
    let mut live: BTreeSet<(u64, u64, u16)> = BTreeSet::new();
    for (i, step) in std::iter::once(&prologue()).chain(steps).enumerate() {
        match step {
            Step::Insert(edges) => {
                engine.insert_labeled_edges(&labelled(edges));
                live.extend(edges);
            }
            Step::Delete(positions) => {
                if live.is_empty() {
                    continue;
                }
                let picked: Vec<(u64, u64, u16)> = positions
                    .iter()
                    .filter_map(|&p| live.iter().nth(p % live.len()).copied())
                    .collect();
                engine.delete_labeled_edges(&labelled(&picked));
                for edge in &picked {
                    live.remove(edge);
                }
            }
            Step::Refine => refine(&mut engine),
            Step::Restore => engine = restored(&engine, &fresh, threads),
            Step::Clone => engine = engine.clone(),
        }
        let ctx = format!("{} at {threads} threads, step {i} ({step:?})", engine.name());
        assert_matches_recount(&mut engine, &fresh, threads, &ctx);
    }
    engine
}

fn moctopus() -> MoctopusSystem {
    MoctopusSystem::new(MoctopusConfig::small_test())
}

fn pim_hash() -> PimHashSystem {
    PimHashSystem::new(MoctopusConfig::small_test())
}

fn refine_moctopus(engine: &mut MoctopusSystem) {
    engine.refine_locality();
}

/// A scripted stream that does each thing at least once: promotions of a
/// hub with a self-loop and a two-label in-neighbour, deletes through a
/// promoted row and into it, refinement, restore and clone, then more
/// writes on the restored and cloned engines.
#[test]
fn scripted_stream_keeps_the_tallies_exact() {
    let hub_edges: Vec<(u64, u64, u16)> =
        (0..=HIGH_DEGREE_THRESHOLD as u64 + 2).map(|dst| (1, (dst + 20) % NODES, 2)).collect();
    let steps = vec![
        Step::Insert((0..NODES).map(|n| (n, (n * 7 + 3) % NODES, 1)).collect()),
        Step::Insert(hub_edges),
        Step::Insert(vec![(1, 1, 3), (6, 1, 1), (6, 1, 3), (2, 0, 1)]),
        Step::Refine,
        Step::Delete(vec![0, 1, 2, 17]),
        Step::Restore,
        Step::Insert(vec![(9, 3, 1), (9, 3, 2), (0, 0, 3), (4, 4, 1)]),
        Step::Clone,
        Step::Delete(vec![3, 5, 8, 13, 21]),
        Step::Refine,
        Step::Insert((0..NODES).map(|n| (2, n, 1 + (n % 3) as u16)).collect()),
    ];
    for threads in [1, 2] {
        let mut engine = run(moctopus, refine_moctopus, &steps, threads);
        assert!(engine.host_row_count() >= 2, "the stream promotes at least two hubs");
        // Both transfer classes the tallies price are charged.
        let sources: Vec<NodeId> = (0..NODES).map(NodeId).collect();
        let (_, stats) = engine.k_hop_batch(&sources, 2);
        let transfers = stats.timeline.transfers;
        assert!(transfers.inter_pim_bytes > 0 && transfers.pim_to_cpu_bytes > 0);
        run(pim_hash, |_| {}, &steps, threads);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random streams keep both engines' tallies equal to a recount at one
    /// and two worker threads.
    #[test]
    fn random_streams_keep_the_tallies_exact(
        steps in prop::collection::vec(step_strategy(), 1..16),
        threads in 1..3usize,
    ) {
        run(moctopus, refine_moctopus, &steps, threads);
        run(pim_hash, |_| {}, &steps, threads);
    }
}
