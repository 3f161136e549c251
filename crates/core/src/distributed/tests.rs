//! Unit tests of the PIM engine under both placements.

use super::*;
use crate::{MoctopusSystem, PimHashSystem};
use graph_store::AdjacencyGraph;
use pim_sim::SimTime;
use rpq::LabelSpec;

fn moctopus_engine() -> MoctopusSystem {
    MoctopusSystem::new(MoctopusConfig::small_test())
}

fn hash_engine() -> PimHashSystem {
    PimHashSystem::new(MoctopusConfig::small_test())
}

/// Moctopus' refinement pass, as a step of a test run on both placements.
fn refine(e: &mut MoctopusSystem) {
    e.refine_locality();
}

/// Hash placement has no refinement pass to run.
fn no_refinement(_: &mut PimHashSystem) {}

fn ring_edges(n: u64) -> Vec<(NodeId, NodeId)> {
    (0..n).map(|i| (NodeId(i), NodeId((i + 1) % n))).collect()
}

#[test]
fn insert_and_query_a_ring() {
    let mut e = moctopus_engine();
    let stats = e.insert_edges(&ring_edges(32));
    assert_eq!(stats.applied, 32);
    assert_eq!(e.edge_count(), 32);
    assert!(stats.latency() > SimTime::ZERO);

    let (results, qstats) = e.k_hop_batch(&[NodeId(0), NodeId(30)], 3);
    assert_eq!(results[0], vec![NodeId(3)]);
    assert_eq!(results[1], vec![NodeId(1)]);
    assert_eq!(qstats.batch_size, 2);
    assert_eq!(qstats.hops, 3);
    assert_eq!(qstats.matched_pairs, 2);
    assert!(qstats.latency() > SimTime::ZERO);
}

#[test]
fn duplicate_inserts_are_not_applied_twice() {
    let mut e = moctopus_engine();
    e.insert_edges(&ring_edges(8));
    let stats = e.insert_edges(&ring_edges(8));
    assert_eq!(stats.applied, 0);
    assert_eq!(e.edge_count(), 8);
}

#[test]
fn delete_removes_edges_and_affects_queries() {
    let mut e = moctopus_engine();
    e.insert_edges(&ring_edges(8));
    let del = e.delete_edges(&[(NodeId(0), NodeId(1))]);
    assert_eq!(del.applied, 1);
    assert_eq!(e.edge_count(), 7);
    let (results, _) = e.k_hop_batch(&[NodeId(0)], 1);
    assert!(results[0].is_empty());
    // Deleting a missing edge is a no-op.
    let del2 = e.delete_edges(&[(NodeId(0), NodeId(1))]);
    assert_eq!(del2.applied, 0);
}

#[test]
fn high_degree_nodes_move_to_the_host_store() {
    let mut e = moctopus_engine();
    let hub_edges: Vec<(NodeId, NodeId)> = (1..=20u64).map(|i| (NodeId(0), NodeId(i))).collect();
    e.insert_edges(&hub_edges);
    assert_eq!(e.assignment().partition_of(NodeId(0)), Some(PartitionId::Host));
    assert_eq!(e.host_row_count(), 1);
    // The hub's row is complete on the host: a 1-hop query returns all 20.
    let (results, _) = e.k_hop_batch(&[NodeId(0)], 1);
    assert_eq!(results[0].len(), 20);
}

/// Merged per-label statistics stay incremental across the engine's
/// structural paths — hub promotion to the host store, locality-driven
/// row migration, deletes on both lanes — matching a from-scratch
/// rebuild (a graph built from the stored edges tallies from zero)
/// on **every** counter exactly: with reverse rows colocated at the
/// destination's owner, distinct-target sets live in exactly one store
/// each and summed counts are exact (they used to be an
/// over-approximation band).
#[test]
fn label_stats_stay_incremental_across_promotion_and_migration() {
    fn check<P: StreamingPartitioner + Sync + 'static>(e: &DistributedPimEngine<P>, phase: &str) {
        let got = e.label_stats();
        assert_eq!(got.total_edges as usize, e.edge_count(), "{phase}: total_edges drifted");
        let mut view = AdjacencyGraph::new();
        view.extend(e.erased().stored_edges());
        let want = view.label_stats().snapshot();
        assert_eq!(got.per_label.len(), want.per_label.len(), "{phase}: label sets differ");
        for (&(l, g), &(lw, w)) in got.per_label.iter().zip(&want.per_label) {
            assert_eq!(l, lw, "{phase}: label order differs");
            assert_eq!(g.edges, w.edges, "{phase}: label {l:?} edge count drifted");
            // Every forward row lives in exactly one store, so summed
            // distinct source counts are exact — and the reverse rows'
            // colocation invariant makes the distinct target counts
            // exact too (each destination's in-degree entry lives only
            // in its owner's table).
            assert_eq!(g.sources, w.sources, "{phase}: label {l:?} source count drifted");
            assert_eq!(g.targets, w.targets, "{phase}: label {l:?} target count drifted");
        }
    }

    fn churn<P: StreamingPartitioner + Sync + 'static>(
        fresh: fn() -> DistributedPimEngine<P>,
        refine: fn(&mut DistributedPimEngine<P>),
        edges: &[(NodeId, NodeId, Label)],
    ) {
        let mut e = fresh();
        e.insert_labeled_edges(edges);
        check(&e, "after inserts");

        refine(&mut e);
        check(&e, "after migration");

        let victims: Vec<(NodeId, NodeId, Label)> = edges.iter().step_by(3).copied().collect();
        e.delete_labeled_edges(&victims);
        check(&e, "after deletes");

        // A twin restored from the durable image rebuilds the exact same
        // merged statistics, bit for bit.
        let mut twin = fresh();
        assert!(twin.restore_snapshot(&e.export_snapshot().expect("PIM engines export images")));
        assert_eq!(twin.label_stats(), e.label_stats(), "restored stats must be identical");
    }

    let mut edges: Vec<(NodeId, NodeId, Label)> = Vec::new();
    // A 20-out-degree hub (crosses HIGH_DEGREE_THRESHOLD → host
    // promotion under the greedy-adaptive policy) plus labelled churn.
    for i in 1..=20u64 {
        edges.push((NodeId(0), NodeId(i), Label((i % 3 + 1) as u16)));
    }
    for i in 1..40u64 {
        edges.push((NodeId(i), NodeId((i * 7) % 40), Label((i % 5 + 1) as u16)));
    }

    churn(moctopus_engine, refine, &edges);
    churn(hash_engine, no_refinement, &edges);
    // The greedy engine really promoted the hub (the host-lane stats
    // paths were exercised, not just the PIM ones).
    let mut greedy = moctopus_engine();
    greedy.insert_labeled_edges(&edges);
    assert_eq!(greedy.assignment().partition_of(NodeId(0)), Some(PartitionId::Host));
}

#[test]
fn spec_sources_are_the_models_sorted_sources() {
    fn check<P: StreamingPartitioner + Sync + 'static>(
        e: &DistributedPimEngine<P>,
        edges: &[(NodeId, NodeId, Label)],
        gone: &[(NodeId, NodeId, Label)],
        phase: &str,
    ) {
        let model: std::collections::BTreeSet<_> =
            edges.iter().filter(|v| !gone.contains(v)).collect();
        let labels = model.iter().map(|v| v.2).chain([Label(99)]);
        for spec in labels.map(LabelSpec::Exact).chain([LabelSpec::Any]) {
            // The model iterates by source: equal sources are adjacent.
            let mut want: Vec<NodeId> =
                model.iter().filter(|v| spec.matches(v.2)).map(|v| v.0).collect();
            want.dedup();
            let mut delta = StatsDelta::new(e.config.pim.num_modules);
            assert_eq!(e.erased().spec_sources(spec, &mut delta), want, "{phase}: {spec:?}");
        }
    }

    fn churn<P: StreamingPartitioner + Sync + 'static>(
        mut e: DistributedPimEngine<P>,
        refine: fn(&mut DistributedPimEngine<P>),
        greedy: bool,
        edges: &[(NodeId, NodeId, Label)],
        victims: &[(NodeId, NodeId, Label)],
    ) {
        e.insert_labeled_edges(edges);
        let hubs = [NodeId(0), NodeId(7)].map(|n| e.assignment().partition_of(n));
        assert_eq!(hubs == [Some(PartitionId::Host); 2], greedy, "hubs on the host");
        check(&e, edges, &[], "after promotion");
        e.delete_labeled_edges(victims);
        check(&e, edges, victims, "after deletes");
        refine(&mut e);
        check(&e, edges, victims, "after migration");
    }

    // Two hubs past HIGH_DEGREE_THRESHOLD holding each of their labels
    // several times (`Label::ANY` among them), plus churn; every fourth
    // edge leaves again, so the hub rows keep free slots.
    let edges: Vec<(NodeId, NodeId, Label)> = (1..=24u64)
        .flat_map(|i| [(0, i, i % 3 + 1), (7, i + 16, i % 2 * 4), (i, i * 7 % 40, i % 5 + 1)])
        .map(|(s, d, l)| (NodeId(s), NodeId(d), Label(l as u16)))
        .collect();
    let victims: Vec<_> = edges.iter().step_by(4).copied().collect();
    churn(moctopus_engine(), refine, true, &edges, &victims);
    churn(hash_engine(), no_refinement, false, &edges, &victims);
}

#[test]
fn hash_engine_keeps_hubs_on_pim_modules() {
    let mut e = hash_engine();
    let hub_edges: Vec<(NodeId, NodeId)> = (1..=20u64).map(|i| (NodeId(0), NodeId(i))).collect();
    e.insert_edges(&hub_edges);
    assert!(matches!(e.assignment().partition_of(NodeId(0)), Some(PartitionId::Pim(_))));
    assert_eq!(e.host_row_count(), 0);
    let (results, _) = e.k_hop_batch(&[NodeId(0)], 1);
    assert_eq!(results[0].len(), 20);
}

#[test]
fn moctopus_and_hash_agree_on_query_results() {
    let graph = graph_gen::uniform::generate(300, 4.0, 7);
    let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
    let mut a = moctopus_engine();
    let mut b = hash_engine();
    a.insert_edges(&edges);
    b.insert_edges(&edges);
    a.refine_locality();
    let sources: Vec<NodeId> = (0..20u64).map(NodeId).collect();
    for k in 1..=3 {
        let (ra, _) = a.k_hop_batch(&sources, k);
        let (rb, _) = b.k_hop_batch(&sources, k);
        assert_eq!(ra, rb, "engines disagree at k = {k}");
    }
}

#[test]
fn refine_locality_moves_rows_and_charges_ipc() {
    let mut e = moctopus_engine();
    // Mis-leading stream: cross-cluster edges first.
    let mut edges = Vec::new();
    for i in 0..10u64 {
        edges.push((NodeId(i), NodeId(100 + i)));
    }
    for base in [0u64, 100] {
        for u in base..base + 10 {
            for v in base..base + 10 {
                if u != v && (u + v) % 2 == 0 {
                    edges.push((NodeId(u), NodeId(v)));
                }
            }
        }
    }
    e.insert_edges(&edges);
    let before = e.partition_metrics().locality;
    let (report, timeline) = e.refine_locality();
    let after = e.partition_metrics().locality;
    if report.migrated > 0 {
        assert!(timeline.transfers.inter_pim_bytes > 0);
        assert!(after >= before);
    }
    // Query results survive the migration.
    let (results, _) = e.k_hop_batch(&[NodeId(0)], 1);
    assert!(!results[0].is_empty());
}

#[test]
fn query_timeline_charges_every_phase() {
    let graph = graph_gen::uniform::generate(500, 4.0, 11);
    let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
    let mut e = moctopus_engine();
    e.insert_edges(&edges);
    let sources: Vec<NodeId> = (0..64u64).map(NodeId).collect();
    let (_, stats) = e.k_hop_batch(&sources, 2);
    assert!(stats.timeline.time(Phase::PimCompute) > SimTime::ZERO);
    assert!(stats.timeline.time(Phase::Cpc) > SimTime::ZERO);
    assert!(stats.timeline.time(Phase::Reduce) > SimTime::ZERO);
    assert!(stats.expansions >= 64);
}

#[test]
fn zero_hop_query_returns_sources() {
    let mut e = moctopus_engine();
    e.insert_edges(&ring_edges(8));
    let (results, stats) = e.k_hop_batch(&[NodeId(3)], 0);
    assert_eq!(results[0], vec![NodeId(3)]);
    assert_eq!(stats.matched_pairs, 1);
}

#[test]
fn unknown_sources_yield_empty_results() {
    let mut e = moctopus_engine();
    e.insert_edges(&ring_edges(8));
    let (results, _) = e.k_hop_batch(&[NodeId(999)], 2);
    assert!(results[0].is_empty());
}

#[test]
fn rpq_k_hop_fast_path_charges_exactly_like_k_hop_batch() {
    let graph = graph_gen::uniform::generate(300, 4.0, 7);
    let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
    let sources: Vec<NodeId> = (0..32u64).map(NodeId).collect();
    let mut a = moctopus_engine();
    let mut b = moctopus_engine();
    a.insert_edges(&edges);
    b.insert_edges(&edges);
    let (ra, sa) = a.rpq_batch(&rpq::RpqExpr::k_hop(3), &sources);
    let (rb, sb) = b.k_hop_batch(&sources, 3);
    assert_eq!(ra, rb);
    assert_eq!(sa, sb, "`.{{3}}` must take the k-hop path, cost model included");
}

#[test]
fn labelled_rpq_follows_label_constraints() {
    let mut e = moctopus_engine();
    // 0 -1-> 1 -2-> 2, plus a decoy 0 -3-> 3 -2-> 4.
    e.insert_labeled_edges(&[
        (NodeId(0), NodeId(1), Label(1)),
        (NodeId(1), NodeId(2), Label(2)),
        (NodeId(0), NodeId(3), Label(3)),
        (NodeId(3), NodeId(4), Label(2)),
    ]);
    let expr = rpq::parser::parse("1/2").unwrap();
    let (results, stats) = e.rpq_batch(&expr, &[NodeId(0)]);
    assert_eq!(results[0], vec![NodeId(2)]);
    assert_eq!(stats.matched_pairs, 1);
    assert!(stats.latency() > SimTime::ZERO);

    // Transitive closure over any label reaches everything.
    let star = rpq::parser::parse(".*").unwrap();
    let (closure, _) = e.rpq_batch(&star, &[NodeId(0)]);
    assert_eq!(closure[0].len(), 5, "star includes the source itself");
}

#[test]
fn labelled_updates_change_rpq_answers() {
    let mut e = moctopus_engine();
    e.insert_labeled_edges(&[(NodeId(0), NodeId(1), Label(1))]);
    let expr = rpq::parser::parse("1+").unwrap();
    let (before, _) = e.rpq_batch(&expr, &[NodeId(0)]);
    assert_eq!(before[0], vec![NodeId(1)]);

    e.insert_labeled_edges(&[(NodeId(1), NodeId(2), Label(1))]);
    let (extended, _) = e.rpq_batch(&expr, &[NodeId(0)]);
    assert_eq!(extended[0], vec![NodeId(1), NodeId(2)]);

    let del = e.delete_labeled_edges(&[(NodeId(1), NodeId(2), Label(1))]);
    assert_eq!(del.applied, 1);
    let (after, _) = e.rpq_batch(&expr, &[NodeId(0)]);
    assert_eq!(after[0], vec![NodeId(1)]);
    // Deleting under the wrong label is a no-op.
    let miss = e.delete_labeled_edges(&[(NodeId(0), NodeId(1), Label(9))]);
    assert_eq!(miss.applied, 0);
}

#[test]
fn rpq_handles_cycles_and_hub_rows() {
    let mut e = moctopus_engine();
    // A hub that gets promoted to the host, with a label-1 cycle.
    let mut edges: Vec<(NodeId, NodeId, Label)> =
        (1..=20u64).map(|i| (NodeId(0), NodeId(i), Label(1))).collect();
    edges.push((NodeId(1), NodeId(0), Label(1)));
    e.insert_labeled_edges(&edges);
    assert_eq!(e.assignment().partition_of(NodeId(0)), Some(PartitionId::Host));
    let expr = rpq::parser::parse("1+").unwrap();
    let (results, stats) = e.rpq_batch(&expr, &[NodeId(1)]);
    // 1 -> 0 -> everything (including 0 and 1 themselves via the cycle).
    assert_eq!(results[0].len(), 21);
    assert!(stats.hops >= 2);
}

#[test]
fn thread_count_never_changes_results_or_charges() {
    // The unit-level determinism check (tests/parallel_equivalence.rs
    // does the full property sweep): a 3-worker engine over 8 modules
    // must report bit-identical stats to the sequential one, on both
    // query loops, including after its scratch has been warmed up.
    let graph = graph_gen::uniform::generate(400, 4.0, 17);
    let edges: Vec<(NodeId, NodeId, Label)> =
        graph.edges().map(|(s, d, _)| (s, d, Label((d.0 % 3) as u16 + 1))).collect();
    // 1100 sources: three query ranges of hundreds of queries each, so all
    // three workers run in both loops.
    let sources: Vec<NodeId> = (0..1100u64).map(|i| NodeId(i % 400)).collect();
    assert!(active_workers(3, sources.len()) > 1);

    // Pin the baseline to one worker explicitly: `small_test()` honours
    // MOCTOPUS_THREADS, and the CI 4-thread leg must still compare the
    // parallel engine against the true sequential path.
    let mut serial = MoctopusSystem::new(MoctopusConfig::small_test().with_threads(1));
    assert_eq!(serial.threads(), 1);
    let mut parallel = MoctopusSystem::new(MoctopusConfig::small_test().with_threads(3));
    assert_eq!(parallel.threads(), 3);

    let serial_ins = serial.insert_labeled_edges(&edges);
    let parallel_ins = parallel.insert_labeled_edges(&edges);
    assert_eq!(serial_ins, parallel_ins);

    for round in 0..2 {
        for k in 1..=3 {
            let (want, want_stats) = serial.k_hop_batch(&sources, k);
            let (got, got_stats) = parallel.k_hop_batch(&sources, k);
            assert_eq!(got, want, "k = {k}, round {round}");
            assert_eq!(got_stats, want_stats, "k = {k}, round {round}");
        }
        // The comparison means something only if the parallel engine left
        // the inline path — in each loop, so the contexts are taken in
        // between: a k-hop call splits its queries over three worker
        // contexts, and each of them expanded some.
        let khop_ctxs = std::mem::take(&mut parallel.scratch.khop_ctxs);
        assert_eq!(khop_ctxs.len(), 3, "k-hop never ran wide");
        assert!(khop_ctxs.iter().all(|ctx| ctx.expansions > 0), "a k-hop worker sat idle");
        let expr = rpq::parser::parse("1/(2|3)*/1").unwrap();
        let (want, want_stats) = serial.rpq_batch(&expr, &sources);
        let (got, got_stats) = parallel.rpq_batch(&expr, &sources);
        assert_eq!(got, want, "round {round}");
        assert_eq!(got_stats, want_stats, "round {round}");
        // The product loop splits its lane groups over three worker
        // contexts too, and each of them expanded some.
        let nfa_ctxs = std::mem::take(&mut parallel.scratch.nfa_ctxs);
        assert_eq!(nfa_ctxs.len(), 3, "the product never ran wide");
        assert!(nfa_ctxs.iter().all(|ctx| ctx.expansions > 0), "a product worker sat idle");
    }
    assert_eq!(serial.scratch.nfa_ctxs.len(), 1, "one thread means one product worker");
    assert_eq!(serial.scratch.khop_ctxs.len(), 1, "one thread means one k-hop worker");
}

#[test]
fn a_clone_leaves_the_scratch_behind_and_charges_identically() {
    let mut original = moctopus_engine();
    let edges: Vec<_> = ring_edges(300).into_iter().map(|(s, d)| (s, d, Label(1))).collect();
    original.insert_labeled_edges(&edges);
    let flood = rpq::parser::parse("1+").unwrap();
    let sources: Vec<NodeId> = (0..8u64).map(NodeId).collect();
    let want = original.rpq_batch(&flood, &sources);
    let want_k = original.k_hop_batch(&sources, 3);
    // The warmed engine holds the last call's memo entries and a k-hop
    // worker's lane array; its clone holds none of it.
    let warmed = &original.scratch;
    assert!(!warmed.nfa_ctxs[0].entries.is_empty() && warmed.khop_ctxs[0].expansions > 0);
    let mut clone = original.clone();
    let cold = &clone.scratch;
    assert!(cold.nfa_ctxs.is_empty() && cold.khop_ctxs.is_empty());
    assert_eq!(clone.rpq_batch(&flood, &sources), want);
    assert_eq!(clone.k_hop_batch(&sources, 3), want_k);
    assert_eq!(original.rpq_batch(&flood, &sources), want, "the original is unharmed");
}

/// `tests/parallel_equivalence.rs`'s key-split fixture (nodes `1000..1601`
/// reached in two automaton states, a hub on either side of node 1300),
/// which that test compares at threads 1–4. A lone source is one lane group
/// on two workers, so the call splits its keys: each worker expands pairs,
/// builds only keys of its own node range — the ranges tile the keys and
/// start and end on a node — and together they build each key the
/// one-thread run builds, once. The second call reads the row view.
/// 128 sources are two lane groups on two workers, and each of them expands
/// product pairs.
#[test]
fn a_key_split_between_two_states_of_one_node_runs_wide() {
    let mut edges = vec![(NodeId(0), NodeId(1), Label(1)), (NodeId(0), NodeId(2), Label(8))];
    for n in (1000..1601).map(NodeId) {
        edges.extend([(NodeId(1), n, Label(1)), (NodeId(2), n, Label(8))]);
        edges.push((n, NodeId(5000 + n.0 % 50), Label(1)));
    }
    for hub in [1003, 1597] {
        edges.extend((0..20).map(|j| (NodeId(hub), NodeId(6000 + j), Label(8))));
    }
    let flood = rpq::parser::parse("(1|8)+").unwrap();
    let states = Nfa::from_expr(&flood).state_count();
    let built = |ctx: &nfa::NfaCtx| ctx.entries.iter().filter(|e| e.expansion.is_some()).count();
    let mut serial = MoctopusSystem::new(MoctopusConfig::small_test().with_threads(1));
    let mut parallel = MoctopusSystem::new(MoctopusConfig::small_test().with_threads(2));
    for e in [&mut serial, &mut parallel] {
        e.insert_labeled_edges(&edges);
    }
    let lone = [NodeId(0)];
    for view in [false, true] {
        assert_eq!(parallel.rpq_batch(&flood, &lone), serial.rpq_batch(&flood, &lone));
        assert_eq!(parallel.reads_row_view(), view);
        let ctxs = &parallel.scratch.nfa_ctxs;
        assert_eq!(ctxs.len(), 2);
        assert!(ctxs.iter().all(|ctx| ctx.expansions > 0), "the lone group never ran wide");
        let one_thread = built(&serial.scratch.nfa_ctxs[0]);
        assert_eq!(ctxs.iter().map(built).sum::<usize>(), one_thread, "a key built twice");
        let tiled = (ctxs[0].keys.start, ctxs[0].keys.end);
        assert_eq!(tiled, (0, ctxs[1].keys.start), "ranges that do not tile the keys");
        for ctx in ctxs {
            assert_eq!((ctx.keys.start % states, ctx.keys.end % states), (0, 0), "off a node");
            assert!(ctx.entries.iter().all(|e| ctx.keys.contains(&e.key)), "a foreign key");
        }
    }
    let batch: Vec<NodeId> = [NodeId(0), NodeId(1), NodeId(1 << 40), NodeId(1300)].repeat(32);
    assert_eq!(parallel.rpq_batch(&flood, &batch), serial.rpq_batch(&flood, &batch));
    let ctxs = &parallel.scratch.nfa_ctxs;
    assert_eq!(ctxs.len(), 2);
    assert!(ctxs.iter().all(|ctx| ctx.expansions > 0), "the product never ran wide");
}

#[test]
fn worker_count_is_clamped_by_frontier_work() {
    // One worker, plus one per ENTRIES_PER_EXTRA_WORKER (256) frontier
    // entries, never more than the layout is wide. These are the sizes
    // the fixtures in tests/parallel_equivalence.rs are built around.
    let wide = [(0, 1), (255, 1), (256, 2), (767, 3), (768, 4), (1791, 7), (1792, 8)];
    for (entries, workers) in wide {
        assert_eq!(active_workers(8, entries), workers, "{entries} entries");
    }
    assert_eq!(active_workers(8, usize::MAX), 8);
    assert_eq!(active_workers(2, 1792), 2);
    assert_eq!(active_workers(0, 1792), 1, "a degenerate layout still gets a worker");
}

/// A batch of dead ends beside one long sweep: the loop keeps one memo
/// entry per product key a worker reaches — with the lane words of its
/// group — and nothing per query, so the dead ends cost an entry each
/// however large the owner directory is.
#[test]
fn dead_end_batches_never_promote_a_visited_set() {
    // A 50 001-node owner directory (the edge into node 50 000 sizes it)
    // holding one 3000-node label-1 chain.
    let mut e = hash_engine();
    e.set_threads(1);
    let mut edges: Vec<(NodeId, NodeId, Label)> =
        (0..2999u64).map(|i| (NodeId(i), NodeId(i + 1), Label(1))).collect();
    edges.push((NodeId(2999), NodeId(50_000), Label(2)));
    e.insert_labeled_edges(&edges);
    assert!(e.erased().directory_bound() > 50_000);

    // 1024 sources that go nowhere: the chain's dead end, ids the
    // directory covers but no edge ever named, and ids far outside it.
    let mut sources: Vec<NodeId> = vec![NodeId(50_000)];
    sources.extend((3000..3511u64).map(NodeId));
    sources.extend((0..512u64).map(|i| NodeId((1 << 40) + i)));
    assert_eq!(sources.len(), 1024);
    // ... and one that sweeps the chain.
    sources.push(NodeId(0));

    let flood = rpq::parser::parse("1+").unwrap();
    let (answers, stats) = e.rpq_batch(&flood, &sources);
    assert_eq!(stats.hops, 3000);
    assert!(answers[..1024].iter().all(Vec::is_empty));
    assert_eq!(answers[1024].len(), 2999);
    // One worker, one entry per keyed source (512 of them) plus one per
    // pair the sweep reached past its source (3000, the last a dead end):
    // nothing sized by the batch times the directory.
    let ctx = &e.scratch.nfa_ctxs[0];
    assert_eq!(ctx.entries.len(), 512 + 3000);
    assert_eq!(e.scratch.nfa_ctxs.len(), 1);
}

/// Key order is `(node, state)` order: `read_reached` reads a group's
/// reached keys in key order, and so hands out each lane's accepted nodes
/// ascending.
#[test]
fn key_and_pair_are_inverse_and_order_preserving() {
    let space = nfa::KeySpace::new(50, 3);
    let mut useful = nfa::KeySet::new(space);
    let mut last = None;
    for node in 0..50u64 {
        for state in 0..3u32 {
            let key = space.key(node, state).expect("inside the key space");
            assert_eq!(space.pair(key), (node, state));
            assert!(last < Some(key));
            last = Some(key);
            assert!(!useful.contains(key) && useful.insert(key) && !useful.insert(key));
        }
    }
    assert_eq!(last, Some(space.bound() - 1));
    assert_eq!([space.key(50, 0), space.key(0, 3), space.key(1 << 40, 0)], [None; 3]);
}

/// A key space whose `nodes × states` would overflow is clamped, not
/// wrapped; one with no states or no nodes has no keys at all.
#[test]
fn an_overflowing_key_space_is_clamped_not_wrapped() {
    let space = nfa::KeySpace::new(u64::MAX, u32::MAX);
    let nodes = usize::MAX as u64 / u64::from(u32::MAX);
    assert_eq!(space.bound() as u64, nodes * u64::from(u32::MAX));
    assert_eq!(space.key(nodes - 1, u32::MAX - 1), Some(space.bound() - 1));
    assert_eq!([space.key(nodes, 0), space.key(u64::MAX, u32::MAX - 1)], [None; 2]);
    for (nodes, states) in [(100, 0), (0, 4)] {
        let empty = nfa::KeySpace::new(nodes, states);
        assert_eq!((empty.bound(), empty.key(0, 0)), (0, None));
    }
}

/// An entry index past what a memo slot holds is filed in the overflow
/// map, never wrapped: with the slot limit shrunk to eight entries every
/// answer and charge equals an engine's that slots every entry.
#[test]
fn entry_indices_past_the_slot_limit_take_the_overflow_map() {
    let graph = graph_gen::uniform::generate(200, 3.0, 5);
    let edges: Vec<(NodeId, NodeId, Label)> =
        graph.edges().map(|(s, d, _)| (s, d, Label((d.0 % 2) as u16 + 1))).collect();
    let mut slotted = moctopus_engine();
    slotted.set_threads(1);
    slotted.insert_labeled_edges(&edges);
    let mut capped = slotted.clone();
    let mut ctx = nfa::NfaCtx::default();
    ctx.slot_cap = 9;
    capped.scratch.nfa_ctxs = vec![ctx];
    let sources: Vec<NodeId> = (0..70u64).map(|i| NodeId(i * 3 % 200)).collect();
    for text in ["1+", "(1|2)*/2", "1/2/1"] {
        let expr = rpq::parser::parse(text).unwrap();
        assert_eq!(
            capped.rpq_batch_tracked(&expr, &sources),
            slotted.rpq_batch_tracked(&expr, &sources)
        );
        let ctx = &capped.scratch.nfa_ctxs[0];
        assert!(ctx.entries.len() > 8, "{text} never passed the limit");
        assert_eq!(ctx.overflow.len(), ctx.entries.len() - 8, "{text}");
    }
}

#[test]
fn wire_charges_elide_the_default_label() {
    // The same topology inserted unlabelled and with Label::ANY must
    // charge identical transfer bytes; a non-default label pays extra.
    let edges: Vec<(NodeId, NodeId)> = ring_edges(16);
    let any: Vec<(NodeId, NodeId, Label)> =
        edges.iter().map(|&(s, d)| (s, d, Label::ANY)).collect();
    let labelled: Vec<(NodeId, NodeId, Label)> =
        edges.iter().map(|&(s, d)| (s, d, Label(5))).collect();

    let mut a = hash_engine();
    let mut b = hash_engine();
    let mut c = hash_engine();
    let sa = a.insert_edges(&edges);
    let sb = b.insert_labeled_edges(&any);
    let sc = c.insert_labeled_edges(&labelled);
    assert_eq!(
        sa.timeline.transfers, sb.timeline.transfers,
        "ANY-labelled inserts must charge like unlabelled ones"
    );
    assert_eq!(
        sc.timeline.transfers.cpu_to_pim_bytes,
        sb.timeline.transfers.cpu_to_pim_bytes + edges.len() as u64 * 4,
        "each non-default label costs LABEL_BYTES on the CPU->PIM bus, \
         once on the forward route and once on the mirrored reverse write"
    );
}

/// Hub promotion must raise the host-lane dependency on queries and the
/// host-store flag on the updates that created/touched the hub.
#[test]
fn tracking_observes_the_host_lane() {
    let mut engine = moctopus_engine();
    let hub: Vec<(NodeId, NodeId, Label)> =
        (1..=20u64).map(|i| (NodeId(0), NodeId(i), Label::ANY)).collect();
    let (stats, fp) = engine.insert_labeled_edges_tracked(&hub);
    assert_eq!(stats.applied, 20);
    assert!(fp.host_store, "the batch promoted node 0 to the host store");
    assert!(!fp.cost_global && !fp.result_global);
    assert_eq!(fp.per_label.len(), 1, "one label in the batch");

    let (results, _, deps) = engine.rpq_batch_tracked(&rpq::RpqExpr::k_hop(1), &[NodeId(0)]);
    assert_eq!(results[0].len(), 20);
    assert!(deps.host_lane, "expanding the promoted hub row is host-lane work");

    // A PIM-only update reports no host-store involvement.
    let (_, fp2) = engine.insert_labeled_edges_tracked(&[(NodeId(5), NodeId(7), Label(2))]);
    assert!(!fp2.host_store);
}
