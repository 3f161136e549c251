//! Parallel-runtime equivalence: executing the engines at `--threads ∈
//! {1, 2, 4, 8}` must be **observably identical** to single-threaded
//! execution — same `k_hop_batch`/`rpq_batch` results, same simulated
//! `SimTime` per phase, same transfer-byte tallies — over labelled uniform
//! and power-law graphs with interleaved labelled updates.
//!
//! This is the executable form of the determinism contract in CONCURRENCY.md
//! (disjoint module ownership, private worker scratch, id-ordered merge):
//! `QueryStats`/`UpdateStats` derive `PartialEq` over the full per-phase
//! `Timeline` **including the floating-point `SimTime` values and the raw
//! `TransferStats` counters**, so a single inequality anywhere — a float
//! accumulated in a different order, one byte charged on the wrong bus —
//! fails the test.

use graph_gen::labels::{relabel, LabelMixConfig};
use graph_store::{AdjacencyGraph, Label, NodeId};
use moctopus::{GraphEngine, HostBaseline, MoctopusConfig, MoctopusSystem, PimHashSystem};
use proptest::prelude::*;

/// Thread counts the equivalence sweep compares against the 1-thread run.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Queries covering every execution strategy: label chain (matrix chain /
/// label-filtered hops), closure with alternation (NFA product / automaton
/// sweep), plain k-hop fast path, and transitive closure.
const QUERIES: [&str; 4] = ["1/2/3", "1/(2|3)*/4", ".{2}", "1+"];

/// Builds the three engines at the given thread count, loaded with the
/// labelled stream (Moctopus refined once, as in the experiment harness).
fn engines_at(threads: usize, edges: &[(NodeId, NodeId, Label)]) -> Vec<Box<dyn GraphEngine>> {
    let cfg = MoctopusConfig::small_test().with_threads(threads);
    let mut moctopus = MoctopusSystem::new(cfg);
    moctopus.insert_labeled_edges(edges);
    moctopus.refine_locality();
    let mut pim_hash = PimHashSystem::new(cfg);
    pim_hash.insert_labeled_edges(edges);
    let mut baseline = HostBaseline::new(cfg);
    baseline.insert_labeled_edges(edges);
    vec![Box::new(moctopus), Box::new(pim_hash), Box::new(baseline)]
}

/// A batch of labelled edges, as consumed by the labelled update paths.
type LabeledBatch = Vec<(NodeId, NodeId, Label)>;

/// Deterministic update batches for the interleaving: new labelled edges and
/// deletions of existing ones.
fn update_batches(model: &AdjacencyGraph, seed: u64) -> (LabeledBatch, LabeledBatch) {
    let inserts: Vec<(NodeId, NodeId, Label)> =
        graph_gen::stream::sample_new_edges(model, 24, seed)
            .into_iter()
            .enumerate()
            .map(|(i, (s, d))| (s, d, Label((i % 4) as u16 + 1)))
            .collect();
    let mut deletes = graph_gen::labels::labeled_edge_stream(model);
    deletes.truncate(16);
    (inserts, deletes)
}

/// Runs the full workload — queries, k-hop batches, interleaved updates,
/// more queries — on engines at `threads` and at 1 thread, asserting every
/// observable output (results + complete stats) is identical pairwise.
fn assert_thread_equivalence(
    model: &AdjacencyGraph,
    edges: &[(NodeId, NodeId, Label)],
    sources: &[NodeId],
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut reference_engines = engines_at(1, edges);
    let (inserts, deletes) = update_batches(model, seed);

    for &threads in &THREAD_COUNTS[1..] {
        let mut parallel_engines = engines_at(threads, edges);
        for (reference, parallel) in reference_engines.iter_mut().zip(&mut parallel_engines) {
            prop_assert_eq!(parallel.threads(), threads);

            // Phase 1: queries over the freshly built graph.
            for text in QUERIES {
                let expr = rpq::parser::parse(text).expect("query set must parse");
                let (want, want_stats) = reference.rpq_batch(&expr, sources);
                let (got, got_stats) = parallel.rpq_batch(&expr, sources);
                prop_assert_eq!(
                    &got,
                    &want,
                    "{} results differ at {} threads on {:?}",
                    reference.name(),
                    threads,
                    text
                );
                prop_assert_eq!(
                    got_stats,
                    want_stats,
                    "{} SimTime/transfer stats differ at {} threads on {:?}",
                    reference.name(),
                    threads,
                    text
                );
            }
            for k in 1..=3usize {
                let (want, want_stats) = reference.k_hop_batch(sources, k);
                let (got, got_stats) = parallel.k_hop_batch(sources, k);
                prop_assert_eq!(&got, &want, "k-hop results differ at {} threads", threads);
                prop_assert_eq!(got_stats, want_stats, "k-hop stats differ at {} threads", threads);
            }

            // Phase 2: interleaved labelled updates, stats compared too.
            let want_ins = reference.insert_labeled_edges(&inserts);
            let got_ins = parallel.insert_labeled_edges(&inserts);
            prop_assert_eq!(got_ins, want_ins, "insert stats differ at {} threads", threads);
            let want_del = reference.delete_labeled_edges(&deletes);
            let got_del = parallel.delete_labeled_edges(&deletes);
            prop_assert_eq!(got_del, want_del, "delete stats differ at {} threads", threads);

            // Phase 3: queries over the updated graph (exercises promoted
            // rows, emptied rows, and the refreshed baseline matrices).
            for text in QUERIES {
                let expr = rpq::parser::parse(text).expect("query set must parse");
                let (want, want_stats) = reference.rpq_batch(&expr, sources);
                let (got, got_stats) = parallel.rpq_batch(&expr, sources);
                prop_assert_eq!(
                    &got,
                    &want,
                    "post-update results differ at {} threads on {:?}",
                    threads,
                    text
                );
                prop_assert_eq!(
                    got_stats,
                    want_stats,
                    "post-update stats differ at {} threads on {:?}",
                    threads,
                    text
                );
            }
        }
        // The 1-thread engines advanced through the updates; rebuild them so
        // every thread count is compared from the same pristine state.
        reference_engines = engines_at(1, edges);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Labelled uniform graphs: thread counts 2/4/8 match 1 exactly.
    #[test]
    fn uniform_labelled_graphs_are_thread_count_invariant(
        seed in 0u64..200,
        nodes in 60usize..160,
        degree_tenths in 20usize..50,
    ) {
        let topology = graph_gen::uniform::generate(nodes, degree_tenths as f64 / 10.0, seed);
        let model = relabel(&topology, &LabelMixConfig::default(), seed);
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        let sources: Vec<NodeId> = (0..16u64).map(NodeId).collect();
        assert_thread_equivalence(&model, &edges, &sources, seed)?;
    }

    /// Labelled power-law graphs (hub promotion, host lane active): thread
    /// counts 2/4/8 match 1 exactly.
    #[test]
    fn power_law_labelled_graphs_are_thread_count_invariant(
        seed in 0u64..200,
        nodes in 120usize..300,
    ) {
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes,
            high_degree_fraction: 0.04,
            ..Default::default()
        };
        let topology = graph_gen::powerlaw::generate(&cfg, seed);
        let model = relabel(&topology, &LabelMixConfig::default(), seed);
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        let sources: Vec<NodeId> = (0..16u64).map(NodeId).collect();
        assert_thread_equivalence(&model, &edges, &sources, seed)?;
    }
}

/// Thread counts far above the module count (8 modules in `small_test`) must
/// degrade to idle workers, not wrong answers.
#[test]
fn oversubscribed_thread_count_is_still_identical() {
    let topology = graph_gen::uniform::generate(100, 3.0, 7);
    let model = relabel(&topology, &LabelMixConfig::default(), 7);
    let edges = graph_gen::labels::labeled_edge_stream(&model);
    let sources: Vec<NodeId> = (0..8u64).map(NodeId).collect();

    let mut serial = engines_at(1, &edges);
    let mut oversubscribed = engines_at(64, &edges);
    for (a, b) in serial.iter_mut().zip(&mut oversubscribed) {
        let (want, want_stats) = a.k_hop_batch(&sources, 3);
        let (got, got_stats) = b.k_hop_batch(&sources, 3);
        assert_eq!(got, want, "{} differs when oversubscribed", a.name());
        assert_eq!(got_stats, want_stats);
    }
}

/// `set_threads` reconfigures a live engine without disturbing its contents
/// or its determinism.
#[test]
fn set_threads_on_a_live_engine_keeps_outputs_identical() {
    let topology = graph_gen::uniform::generate(150, 4.0, 11);
    let model = relabel(&topology, &LabelMixConfig::default(), 11);
    let edges = graph_gen::labels::labeled_edge_stream(&model);
    let sources: Vec<NodeId> = (0..12u64).map(NodeId).collect();

    let mut engine = MoctopusSystem::new(MoctopusConfig::small_test());
    engine.insert_labeled_edges(&edges);
    let (want, want_stats) = engine.k_hop_batch(&sources, 2);
    for threads in [2, 4, 1, 8] {
        engine.set_threads(threads);
        assert_eq!(engine.threads(), threads);
        let (got, got_stats) = engine.k_hop_batch(&sources, 2);
        assert_eq!(got, want, "results moved after set_threads({threads})");
        assert_eq!(got_stats, want_stats, "stats moved after set_threads({threads})");
    }
}

/// Frontier entries each additional worker of a hop must bring: the hop
/// loops clamp a hop's worker count by its work, one worker plus one per
/// this many entries (`ENTRIES_PER_EXTRA_WORKER`, pinned — with the sizes
/// used below — by a unit test next to `active_workers` in
/// `moctopus::distributed`, which also asserts on a fixture of its own that
/// such hops really leave the inline path).
const ENTRIES_PER_EXTRA_WORKER: usize = 256;

/// A batch whose first hop alone engages all 8 workers that `small_test`'s 8
/// modules allow several times over: a first hop has one entry per source,
/// so 7 × 1024 sources cross the clamp at 2, 4 and 8 threads by
/// construction, and the merge stage's per-query chunks hold hundreds of
/// queries each. The property tests above use 16 sources and run every hop
/// inline; these fixtures are what keeps the multi-worker execute and merge
/// stages covered.
const WIDE_BATCH: usize = 7 * 1024;

/// The wide fixture: a 240-node labelled uniform graph and `WIDE_BATCH`
/// sources cycling over its nodes (later hops are wider still).
fn wide_fixture() -> (LabeledBatch, Vec<NodeId>) {
    let topology = graph_gen::uniform::generate(240, 3.0, 23);
    let model = relabel(&topology, &LabelMixConfig::default(), 23);
    let edges = graph_gen::labels::labeled_edge_stream(&model);
    let sources = (0..WIDE_BATCH as u64).map(|i| NodeId(i % 240)).collect();
    (edges, sources)
}

/// The k-hop loop with every worker active: threads 2/4/8 match 1 exactly.
#[test]
fn wide_k_hop_batches_reach_every_worker_and_stay_identical() {
    let (edges, sources) = wide_fixture();
    let mut reference = engines_at(1, &edges);
    let wants: Vec<_> = reference.iter_mut().map(|e| e.k_hop_batch(&sources, 3)).collect();
    for &threads in &THREAD_COUNTS[1..] {
        for (engine, (want, want_stats)) in engines_at(threads, &edges).iter_mut().zip(&wants) {
            assert!(want_stats.expansions >= WIDE_BATCH, "the first hop expands every source");
            let (got, got_stats) = engine.k_hop_batch(&sources, 3);
            assert_eq!(&got, want, "{} k-hop results differ at {threads} threads", engine.name());
            assert_eq!(&got_stats, want_stats, "{} k-hop stats differ at {threads}", engine.name());
        }
    }
}

/// The NFA-product loop with every worker active, on a transitive closure
/// and on a closure between two label steps: threads 2/4/8 match 1 exactly.
#[test]
fn wide_closure_batches_reach_every_worker_and_stay_identical() {
    let (edges, sources) = wide_fixture();
    for text in ["1+", "1/(2|3)*/4"] {
        let expr = rpq::parser::parse(text).expect("query set must parse");
        let mut reference = engines_at(1, &edges);
        let wants: Vec<_> = reference.iter_mut().map(|e| e.rpq_batch(&expr, &sources)).collect();
        for &threads in &THREAD_COUNTS[1..] {
            for (engine, (want, want_stats)) in engines_at(threads, &edges).iter_mut().zip(&wants) {
                assert!(want_stats.expansions >= WIDE_BATCH, "the first hop expands every source");
                let (got, got_stats) = engine.rpq_batch(&expr, &sources);
                assert_eq!(&got, want, "{} {text} differs at {threads} threads", engine.name());
                assert_eq!(&got_stats, want_stats, "{} {text} stats at {threads}", engine.name());
            }
        }
    }
}

/// `MOCTOPUS_THREADS` is how CI runs this suite — every suite — on the
/// parallel path. `MoctopusConfig` maps a value it cannot parse to one
/// thread, so a typo in a workflow file would leave the 4-thread legs green
/// on the inline path alone; this is the test that goes red instead.
#[test]
fn a_set_moctopus_threads_variable_parses_and_reaches_the_default_config() {
    let Ok(raw) = std::env::var("MOCTOPUS_THREADS") else { return };
    let threads: usize = raw.parse().unwrap_or_else(|e| {
        panic!("MOCTOPUS_THREADS={raw:?} is not a thread count ({e}): this run tested 1 thread")
    });
    assert_eq!(MoctopusConfig::paper_defaults().threads, threads);
    assert_eq!(MoctopusConfig::small_test().threads, threads);
}

/// Thread counts for the fixtures below: 3 does not divide `small_test`'s 8
/// modules, so the even and the weighted module split differ in more than
/// the host lane.
const SPLIT_THREAD_COUNTS: [usize; 4] = [2, 3, 4, 8];

/// One engine's observable output for a fixture: answers, the complete
/// stats, and (for tracked calls) the dependency footprint.
type Observed = (Vec<Vec<NodeId>>, moctopus::QueryStats, Option<moctopus::QueryDeps>);

/// Everything the hop loops can be asked, in one sweep: the k-hop loop, the
/// NFA-product loop through its tracked entry point (answers, stats and
/// deps), and the planned executions that run the same loop pruned — the
/// bidirectional plan always, the rare-label split (whose host-side join is
/// quadratic in the batch) on `small` batches only.
fn observe(engine: &mut dyn GraphEngine, sources: &[NodeId], k: usize) -> Vec<Observed> {
    let parse = |text: &str| rpq::parser::parse(text).expect("query set must parse");
    let mut seen: Vec<Observed> = Vec::new();
    let (answers, stats) = engine.k_hop_batch(sources, k);
    seen.push((answers, stats, None));
    for text in ["1+", "(1|8)+"] {
        let (answers, stats, deps) = engine.rpq_batch_tracked(&parse(text), sources);
        seen.push((answers, stats, Some(deps)));
    }
    let planned = [
        ("(1|8)+", rpq::PlanStrategy::Bidirectional),
        ("1*/8/2*", rpq::PlanStrategy::RareLabelSplit { split_at: 1 }),
    ];
    let small = sources.len() <= 16;
    for (text, strategy) in planned.into_iter().take(if small { 2 } else { 1 }) {
        let (answers, stats) = engine.rpq_batch_planned(&parse(text), sources, strategy);
        seen.push((answers, stats, None));
    }
    seen
}

/// Asserts that every engine, at every thread count of
/// [`SPLIT_THREAD_COUNTS`], observes on every batch of sources exactly what
/// it does at one thread.
fn assert_observations_match(edges: &[(NodeId, NodeId, Label)], batches: &[&[NodeId]], k: usize) {
    let observe_all = |engine: &mut Box<dyn GraphEngine>| -> Vec<Observed> {
        batches.iter().flat_map(|sources| observe(engine.as_mut(), sources, k)).collect()
    };
    let wants: Vec<_> = engines_at(1, edges).iter_mut().map(observe_all).collect();
    for threads in SPLIT_THREAD_COUNTS {
        for (engine, want) in engines_at(threads, edges).iter_mut().zip(&wants) {
            let got = observe_all(engine);
            for (i, (got, want)) in got.iter().zip(want).enumerate() {
                let who = format!("{} at {threads} threads, observation {i}", engine.name());
                assert_eq!(got.0, want.0, "{who}: answers differ");
                assert_eq!(got.1, want.1, "{who}: stats differ");
                assert_eq!(got.2, want.2, "{who}: deps differ");
            }
        }
    }
}

/// The weighted module split. A power-law graph where a sixth of the nodes
/// are hubs that most edges point at: under labor division (Moctopus) the
/// host lane scans most entries of every hop past the first, so the k-hop
/// loop's module → worker split — balanced on the previous hop's tallies —
/// differs from the even one and changes from hop to hop, while PIM-hash
/// (no host lane) and the first hop keep the even split.
#[test]
fn hub_heavy_batches_are_identical_under_the_weighted_split() {
    let cfg = graph_gen::powerlaw::PowerLawConfig {
        nodes: 120,
        high_degree_fraction: 0.16,
        mean_high_degree: 24.0,
        hub_in_bias: 0.6,
        ..Default::default()
    };
    let topology = graph_gen::powerlaw::generate(&cfg, 41);
    let model = relabel(&topology, &LabelMixConfig::default(), 41);
    let edges = graph_gen::labels::labeled_edge_stream(&model);
    // The first hop already runs on two workers; the hub rows it scans make
    // every later one wide enough for all eight.
    let sources: Vec<NodeId> = (0..320u64).map(|i| NodeId(i % 120)).collect();
    assert!(sources.len() >= ENTRIES_PER_EXTRA_WORKER);

    let mut moctopus = MoctopusSystem::new(MoctopusConfig::small_test().with_threads(1));
    moctopus.insert_labeled_edges(&edges);
    assert!(moctopus.host_row_count() >= 12, "the hubs were promoted to the host lane");

    assert_observations_match(&edges, &[&sources], 3);
}

/// The per-query merge with fewer queries than workers. A fan — node 0
/// points at 1200 nodes, each of which points on — so a *single* query's
/// second hop carries 1200 frontier entries: enough for 4 workers (5 at 8
/// threads) to expand it, and then to split a merge stage that has one
/// query (or two) to hand out. Node 0 is a hub, so under labor division it
/// is also a hop whose whole work is the host lane's.
#[test]
fn one_and_two_query_batches_are_identical_on_many_workers() {
    let fan = 1200u64;
    assert!(fan as usize >= 4 * ENTRIES_PER_EXTRA_WORKER);
    let mut edges: LabeledBatch = Vec::new();
    for i in 1..=fan {
        edges.push((NodeId(0), NodeId(i), Label(1)));
        edges.push((NodeId(i), NodeId(fan + i), Label(1)));
        edges.push((NodeId(i), NodeId(2 * fan + 1 + i * 7 % fan), Label(8)));
        edges.push((NodeId(fan + i), NodeId(2 * fan + 1 + i % 97), Label(2)));
        if i % 50 == 0 {
            edges.push((NodeId(fan + i), NodeId(0), Label(1)));
        }
    }
    assert_observations_match(&edges, &[&[NodeId(0)], &[NodeId(0), NodeId(fan + 50)]], 3);
}

/// One call whose hops change worker count both ways — and with it the
/// module → worker map under which the NFA-product loop's per-worker
/// expansion memos were filled. Source 0 fans out to eight nodes, then
/// through a gateway into a hub (a host-lane row under labor division) that
/// floods 640 nodes, all of which funnel into one long chain: first hops of
/// a few entries (inline), a flood hop (every worker a thread count allows),
/// then a forty-hop tail (inline again). Source 1 reaches those eight nodes
/// three hops late — *during* that flood, so pairs that worker 0 expanded
/// inline are expanded again under a wide split, on whichever workers own
/// their modules now — and replays the flood three hops later. Source 2
/// comes in by a side door (another host-lane row) onto 100 of the flooded
/// nodes once the floods are over: pairs that the flood's workers expanded
/// and worker 0 only tagged are worker 0's now. Label-8 rungs and a label-2
/// rail give the alternation and the split plan — two automata, two legs,
/// one scratch — something to match; the tracked calls compare `QueryDeps`.
#[test]
fn hops_that_alternate_between_one_and_many_workers_are_identical() {
    let (fan, tail) = (640u64, 40u64);
    assert!(fan as usize >= 2 * ENTRIES_PER_EXTRA_WORKER);
    let (gateway, hub, side, chain, rail) = (10, 11, 12, 1000, 2000);
    let mut edges: LabeledBatch = vec![(NodeId(gateway), NodeId(hub), Label(1))];
    let path = |edges: &mut LabeledBatch, nodes: &[u64]| {
        for step in nodes.windows(2) {
            edges.push((NodeId(step[0]), NodeId(step[1]), Label(1)));
        }
    };
    for early in 40..48 {
        path(&mut edges, &[0, early, gateway]);
        // Source 1: three hops behind source 0.
        path(&mut edges, &[1, 20, 21, 22, early]);
    }
    // Source 2: nine hops to the side door, which opens after both floods.
    path(&mut edges, &[2, 30, 31, 32, 33, 34, 35, 36, 37, side]);
    for i in 0..fan {
        edges.push((NodeId(hub), NodeId(100 + i), Label(1)));
        edges.push((NodeId(100 + i), NodeId(chain), Label(if i % 9 == 0 { 8 } else { 1 })));
        if i < 100 {
            edges.push((NodeId(side), NodeId(100 + i), Label(1)));
        }
    }
    for i in 0..tail {
        edges.push((NodeId(chain + i), NodeId(chain + i + 1), Label(1)));
        edges.push((NodeId(chain + i), NodeId(rail + i), Label(8)));
        edges.push((NodeId(rail + i), NodeId(rail + i + 1), Label(2)));
    }

    let mut moctopus = MoctopusSystem::new(MoctopusConfig::small_test().with_threads(1));
    moctopus.insert_labeled_edges(&edges);
    assert!(moctopus.host_row_count() >= 2, "hub and side door are host-lane rows");

    let sources = [NodeId(0), NodeId(1), NodeId(2)];
    assert_observations_match(&edges, &[&sources, &sources[1..]], 3);
}
