//! Property-based tests of the partitioning invariants the paper relies on.

use graph_partition::{
    GreedyAdaptiveConfig, GreedyAdaptivePartitioner, HashPartitioner, PartitionMetrics,
    StreamingPartitioner,
};
use graph_store::{
    AdjacencyGraph, Label, NodeId, PartitionId, SnapshotState, HIGH_DEGREE_THRESHOLD,
};
use moctopus::distributed::DistributedPimEngine;
use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem, Phase, PimHashSystem};
use moctopus_bench::{HarnessOptions, RpqWorkload, TraceWorkload};
use proptest::prelude::*;

/// Generates a random edge stream over a bounded id space.
fn edge_stream(max_node: u64, max_edges: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..max_node, 0..max_node), 1..max_edges)
}

/// Generates a labelled multigraph stream over `0..140`: sources come from
/// `0..120` only (so `120..140` have in-edges and no row), some pairs repeat
/// under a second label, and up to three hubs are interleaved with enough
/// out-edges to cross the promotion threshold.
fn labelled_multigraph() -> impl Strategy<Value = Vec<(u64, u64, u16)>> {
    let edge = (0..120u64, 0..140u64, 0..3u16, 0..4u8);
    (prop::collection::vec(edge, 1..700), 0..4u64).prop_map(|(edges, hubs)| {
        let mut out = Vec::new();
        for (i, (s, d, l, twin)) in edges.into_iter().enumerate() {
            out.push((s, d, l));
            if twin == 0 {
                out.push((s, d, l + 1));
            }
            for h in 0..hubs {
                out.push((h * 7, (h * 31 + i as u64 * 5) % 140, 0));
            }
        }
        out
    })
}

fn build_graph(edges: &[(u64, u64)]) -> AdjacencyGraph {
    let mut g = AdjacencyGraph::new();
    for &(s, d) in edges {
        if s != d {
            g.insert_edge(NodeId(s), NodeId(d), Label::ANY);
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every endpoint that ever appears in the stream ends up assigned, and
    /// high-degree sources end up on the host.
    #[test]
    fn greedy_adaptive_assigns_every_node(edges in edge_stream(200, 600)) {
        let mut p = GreedyAdaptivePartitioner::new(4);
        let mut g = AdjacencyGraph::new();
        for &(s, d) in &edges {
            if s == d { continue; }
            if g.insert_edge(NodeId(s), NodeId(d), Label::ANY) {
                p.on_edge(NodeId(s), NodeId(d));
            }
        }
        for node in g.nodes() {
            let part = p.partition_of(node);
            prop_assert!(part.is_some(), "node {node} was never assigned");
            if g.out_degree(node) > HIGH_DEGREE_THRESHOLD {
                prop_assert_eq!(part, Some(PartitionId::Host), "hub {} must be on the host", node);
            }
        }
        // The number of promotions matches the number of host-resident nodes.
        prop_assert_eq!(p.promotions().len(), p.assignment().host_node_count());
    }

    /// The dynamic capacity constraint keeps PIM loads within the slack bound
    /// (plus the small floor used while the graph is tiny).
    #[test]
    fn capacity_constraint_bounds_load(edges in edge_stream(400, 1500)) {
        let mut p = GreedyAdaptivePartitioner::new(8);
        for &(s, d) in &edges {
            if s != d {
                p.on_edge(NodeId(s), NodeId(d));
            }
        }
        let a = p.assignment();
        let limit = p.capacity_limit();
        for m in 0..8 {
            prop_assert!(
                a.pim_node_count(m) <= limit + 1,
                "module {} holds {} nodes, limit {}",
                m, a.pim_node_count(m), limit
            );
        }
    }

    /// Hash partitioning never places anything on the host and is stable:
    /// the same node always hashes to the same module.
    #[test]
    fn hash_partitioner_is_stable_and_host_free(edges in edge_stream(300, 800)) {
        let mut p = HashPartitioner::new(8);
        for &(s, d) in &edges {
            p.on_edge(NodeId(s), NodeId(d));
        }
        for (node, part) in p.assignment().iter() {
            prop_assert!(!part.is_host());
            prop_assert_eq!(part, HashPartitioner::hash_partition(node, 8));
        }
    }

    /// Refinement never violates the capacity constraint and never reduces the
    /// number of assigned nodes.
    #[test]
    fn refinement_preserves_assignment_and_balance(edges in edge_stream(250, 900)) {
        let mut p = GreedyAdaptivePartitioner::new(4);
        let g = build_graph(&edges);
        let mut sorted: Vec<_> = g.edges().collect();
        sorted.sort();
        for (s, d, _) in sorted {
            p.on_edge(s, d);
        }
        let assigned_before = p.assignment().len();
        let report = p.refine(&g);
        let assigned_after = p.assignment().len();

        prop_assert_eq!(assigned_before, assigned_after);
        prop_assert!(report.migrated <= report.examined);
        // Every recorded migration moves a node between two distinct PIM modules.
        for (_, from, to) in &report.migrations {
            prop_assert!(!from.is_host() && !to.is_host());
            prop_assert!(from != to);
        }
        let limit = p.capacity_limit();
        for m in 0..4 {
            prop_assert!(p.assignment().pim_node_count(m) <= limit + 1);
        }
    }

    /// `refine(&graph)` is `refine_rows` over the graph's history-ordered
    /// rows: fed the same rows sorted by `(dst, label)` — the order the
    /// engine's module stores hold them in — `refine_rows` reports the same
    /// migrations in the same order and leaves the same placement, round
    /// after round.
    #[test]
    fn refine_rows_is_refine_over_sorted_rows(edges in labelled_multigraph()) {
        let mut g = AdjacencyGraph::new();
        let mut by_graph = GreedyAdaptivePartitioner::new(4);
        for &(s, d, l) in &edges {
            if g.insert_edge(NodeId(s), NodeId(d), Label(l)) {
                by_graph.on_edge(NodeId(s), NodeId(d));
            }
        }
        let mut by_rows = by_graph.clone();
        let mut nodes: Vec<NodeId> = g.nodes().collect();
        nodes.sort_unstable();
        let rows: Vec<(NodeId, Vec<(NodeId, Label)>)> = nodes
            .into_iter()
            .map(|n| {
                let mut row = g.neighbors(n).to_vec();
                row.sort_unstable();
                (n, row)
            })
            .collect();
        for _ in 0..2 {
            let want = by_graph.refine(&g);
            let got = by_rows.refine_rows(rows.iter().map(|(n, row)| (*n, row.as_slice())));
            prop_assert_eq!(got, want);
            prop_assert_eq!(
                by_rows.assignment().export_slots(),
                by_graph.assignment().export_slots()
            );
        }
    }

    /// Disabling labor division keeps every node on the PIM side.
    #[test]
    fn ablation_without_labor_division_uses_no_host(edges in edge_stream(150, 500)) {
        let mut cfg = GreedyAdaptiveConfig::paper_defaults(4);
        cfg.labor_division = false;
        let mut p = GreedyAdaptivePartitioner::with_config(cfg);
        for &(s, d) in &edges {
            if s != d {
                p.on_edge(NodeId(s), NodeId(d));
            }
        }
        prop_assert_eq!(p.assignment().host_node_count(), 0);
    }
}

#[test]
fn partition_metrics_are_internally_consistent() {
    let graph = graph_gen::powerlaw::generate(
        &graph_gen::powerlaw::PowerLawConfig { nodes: 1200, ..Default::default() },
        3,
    );
    let mut p = GreedyAdaptivePartitioner::new(8);
    let mut edges: Vec<_> = graph.edges().collect();
    edges.sort();
    for (s, d, _) in edges {
        p.on_edge(s, d);
    }
    p.refine(&graph);
    let m = PartitionMetrics::compute(graph.edges(), p.assignment());
    assert_eq!(m.pim_source_edges, m.local_edges + m.cut_edges + m.to_host_edges);
    assert_eq!(
        m.pim_source_edges + m.host_source_edges,
        graph.edge_count(),
        "every edge must be classified exactly once"
    );
    assert!(m.locality >= 0.0 && m.locality <= 1.0);
    assert!(m.load_balance_factor >= 1.0 - 1e-9);
}

/// FNV-1a over 64-bit words: order-sensitive, so a reordered migration shows.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
}

fn partition_word(p: PartitionId) -> u64 {
    match p {
        PartitionId::Host => u64::MAX,
        PartitionId::Pim(m) => u64::from(m),
    }
}

/// What one `refine_locality` call reported, charged and left in storage.
#[derive(Debug, PartialEq, Eq)]
struct Refined {
    examined: usize,
    migrated: usize,
    migrations: u64,
    timeline: u64,
    storage: u64,
}

/// The durable image of `system`.
fn image(system: &MoctopusSystem) -> SnapshotState {
    system.export_snapshot().expect("a PIM engine exports its storage plane")
}

fn refined(system: &mut MoctopusSystem) -> Refined {
    let (report, timeline) = system.refine_locality();
    let x = &timeline.transfers;
    let migrations = report.migrations.iter();
    Refined {
        examined: report.examined,
        migrated: report.migrated,
        migrations: fnv(
            migrations.flat_map(|&(n, from, to)| [n.0, partition_word(from), partition_word(to)])
        ),
        timeline: fnv(Phase::ALL.iter().map(|&p| timeline.time(p).as_nanos().to_bits()).chain([
            x.inter_pim_bytes,
            x.inter_pim_messages,
            x.cpu_to_pim_bytes,
            x.pim_to_cpu_bytes,
        ])),
        storage: fnv(image(system).encode_file().into_iter().map(u64::from)),
    }
}

/// The engine's refinement — which rows it examines, every migration in
/// order, the IPC it charges and the storage image it leaves — on a k-hop
/// trace and on a labelled workload. The constants were printed at the
/// commit before refinement read the module stores in place (it used to
/// copy every stored edge into a whole-graph view first); the labelled
/// workload's `timeline` was re-pinned once when `SimTime` became whole
/// picoseconds.
#[test]
fn engine_refinement_is_pinned() {
    let options = HarnessOptions { scale: 0.01, threads: 1, ..HarnessOptions::default() };
    let trace = TraceWorkload::generate(12, &options);
    let mut system = MoctopusSystem::new(options.system_config());
    system.insert_edges(&trace.edges);
    let got = refined(&mut system);
    let want = Refined {
        examined: 10_728,
        migrated: 1549,
        migrations: 0x7ddf_4b80_4589_1831,
        timeline: 0x03d7_6079_8cf3_e1c0,
        storage: 0x9012_1272_f187_bf48,
    };
    assert_eq!(got, want, "trace 12: {got:#x?}");
    // `from_edge_stream` is ingest plus this very pass.
    let streamed = trace.moctopus(&options);
    assert_eq!(image(&streamed), image(&system));

    let options = HarnessOptions { scale: 0.02, threads: 1, ..HarnessOptions::default() };
    let rpq = RpqWorkload::power_law(&options);
    let mut system = MoctopusSystem::new(options.system_config());
    system.insert_labeled_edges(&rpq.edges);
    let got = refined(&mut system);
    let want = Refined {
        examined: 10_244,
        migrated: 1179,
        migrations: 0xf860_deff_36a9_e2ed,
        timeline: 0x030b_4637_e315_c0e7,
        storage: 0xbc1c_1742_48d4_cb4f,
    };
    assert_eq!(got, want, "power-law: {got:#x?}");
}

/// `partition_metrics()` counts the edges the stores hold exactly as
/// [`PartitionMetrics::compute`] counts a model graph of the same edges,
/// after ingest, after refinement and after deletes.
fn check_partition_metrics<P: StreamingPartitioner + Sync + 'static>(
    mut system: DistributedPimEngine<P>,
    refine: fn(&mut DistributedPimEngine<P>),
) -> DistributedPimEngine<P> {
    let mut edges: Vec<(NodeId, NodeId, Label)> = Vec::new();
    // Two hubs past the promotion threshold, one of them interleaved with
    // the rest of the stream.
    for i in 1..=24u64 {
        edges.push((NodeId(0), NodeId(i * 3), Label(1)));
    }
    for i in 0..300u64 {
        let src = NodeId(i % 97 + 1);
        edges.push((src, NodeId((i * 37 + 11) % 150), Label((i % 3) as u16)));
        if i % 5 == 0 {
            // The same pair under a second label.
            edges.push((src, NodeId((i * 37 + 11) % 150), Label(3)));
        }
        if i % 10 == 0 {
            edges.push((NodeId(98), NodeId(i / 2 + 100), Label(2)));
        }
    }
    let mut model = AdjacencyGraph::new();
    for &(s, d, l) in &edges {
        model.insert_edge(s, d, l);
    }
    let check = |e: &DistributedPimEngine<P>, model: &AdjacencyGraph, phase: &str| {
        let want = PartitionMetrics::compute(model.edges(), e.assignment());
        assert_eq!(e.partition_metrics(), want, "{}: {phase}", e.name());
    };

    system.insert_labeled_edges(&edges);
    check(&system, &model, "after ingest");
    refine(&mut system);
    check(&system, &model, "after refinement");
    let deletes: Vec<_> = edges.iter().copied().step_by(3).collect();
    for &(s, d, l) in &deletes {
        model.remove_edge(s, d, l);
    }
    system.delete_labeled_edges(&deletes);
    check(&system, &model, "after deletes");
    system
}

#[test]
fn partition_metrics_count_the_stored_edges() {
    let moctopus =
        check_partition_metrics(MoctopusSystem::new(MoctopusConfig::small_test()), |s| {
            s.refine_locality();
        });
    assert_eq!(moctopus.host_row_count(), 2, "both hubs live on the host");
    // Hash placement has no refinement pass to run.
    check_partition_metrics(PimHashSystem::new(MoctopusConfig::small_test()), |_| {});
}

#[test]
fn locality_aware_placement_reduces_ipc() {
    // Community graph streamed in order: Moctopus should incur much less
    // inter-PIM traffic than hash placement (the Figure 5 effect).
    let cfg = graph_gen::powerlaw::PowerLawConfig {
        nodes: 2000,
        high_degree_fraction: 0.02,
        locality: 0.9,
        community_size: 128,
        ..Default::default()
    };
    let graph = graph_gen::powerlaw::generate(&cfg, 3);
    let mut edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
    edges.sort();
    let mut moc = MoctopusSystem::new(MoctopusConfig::small_test());
    let mut hash = PimHashSystem::new(MoctopusConfig::small_test());
    moc.insert_edges(&edges);
    hash.insert_edges(&edges);
    moc.refine_locality();
    let sources: Vec<NodeId> = (0..256u64).map(NodeId).collect();
    let (_, moc_stats) = moc.k_hop_batch(&sources, 3);
    let (_, hash_stats) = hash.k_hop_batch(&sources, 3);
    assert!(
        moc_stats.timeline.transfers.inter_pim_bytes * 2
            < hash_stats.timeline.transfers.inter_pim_bytes,
        "moctopus ipc {} should be well below hash ipc {}",
        moc_stats.timeline.transfers.inter_pim_bytes,
        hash_stats.timeline.transfers.inter_pim_bytes
    );
}
