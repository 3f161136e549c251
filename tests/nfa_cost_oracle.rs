//! An independent cost oracle for the NFA-product loop.
//!
//! `tests/batch_frontier_equivalence.rs` recomputes every k-hop charge from
//! the logical graph; this file does the same for general regular path
//! queries. The oracle below is the naive sequential formulation of
//! ARCHITECTURE.md §1 ("General RPQs"): per query a sorted `(node, state)`
//! frontier and a global visited set; every frontier entry is expanded by the
//! computing node that owns its row and charged one label-constrained scan
//! (`row_len × (ID_BYTES + LABEL_BYTES)`); every matched transition whose
//! successor leaves the module charges `ENTRY_BYTES + STATE_BYTES` to the IPC
//! or CPC bus; a hop's PIM latency is the slowest module; answers are
//! gathered and reduced on the host. It shares no code with the engine, so a
//! hop loop that charged the right values in a *consistently* different order
//! — which the thread-count sweeps of `parallel_equivalence.rs` cannot see,
//! because they compare the engine with itself — fails here.
//!
//! The non-forward plans have no independent formulation, so their complete
//! `QueryStats` are pinned instead: the constants at the bottom were produced
//! by the commit *before* the expansion memo landed (PR 24's parent, by
//! running this file with `NFA_COST_ORACLE_PRINT=1` there) and must never
//! move without a stated reason.

use graph_gen::labels::{labeled_edge_stream, relabel, LabelMixConfig};
use graph_partition::PartitionAssignment;
use graph_store::{AdjacencyGraph, Label, NodeId, PartitionId};
use moctopus::{
    GraphEngine, MoctopusConfig, MoctopusSystem, Phase, PimHashSystem, QueryDeps, QueryStats,
};
use pim_sim::{PimSystem, SimTime, Timeline};
use rpq::{Nfa, PlanStrategy, RpqExpr};
use std::collections::BTreeSet;

const ID_BYTES: u64 = 8;
const LABEL_BYTES: u64 = 2;
/// One routed product entry: the node id plus the automaton state.
const PRODUCT_ENTRY_BYTES: u64 = 8 + 2;
const GATHER_ENTRY_BYTES: u64 = 8;

/// `(expression, a split position with a mandatory exact pivot — or one the
/// split plan must decline, falling back to forward)`.
const QUERIES: [(&str, usize); 5] =
    [("1+", 1), ("1*/8", 1), ("(1|8)+", 1), ("1/(2|3)*/4", 2), ("(1/2)+", 1)];

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 4];

type Edge = (NodeId, NodeId, Label);

/// The naive formulation. Insert-only fixtures keep every host row free of
/// free slots, so a host row scans exactly its out-degree.
fn oracle(
    graph: &AdjacencyGraph,
    assignment: &PartitionAssignment,
    config: &MoctopusConfig,
    nfa: &Nfa,
    sources: &[NodeId],
) -> (Vec<Vec<NodeId>>, QueryStats) {
    let mut pim = PimSystem::new(config.pim);
    let mut timeline = Timeline::new();
    let owner = |n: NodeId| assignment.partition_of(n);
    let host_resident_bytes: u64 = assignment
        .iter()
        .filter(|&(_, p)| p == PartitionId::Host)
        .map(|(n, _)| graph.neighbors(n).len() as u64 * ID_BYTES)
        .sum();

    let on_pim = sources.iter().filter(|&&s| matches!(owner(s), Some(PartitionId::Pim(_))));
    let dispatch_bytes = on_pim.count() as u64 * PRODUCT_ENTRY_BYTES;
    timeline.charge(Phase::Cpc, pim.cpc_transfer_cost(dispatch_bytes));
    timeline.transfers.record_cpu_to_pim(dispatch_bytes, 1);

    let start = nfa.start() as u32;
    let mut visited: Vec<BTreeSet<(NodeId, u32)>> =
        sources.iter().map(|&s| BTreeSet::from([(s, start)])).collect();
    let mut frontiers: Vec<Vec<(NodeId, u32)>> =
        sources.iter().map(|&s| vec![(s, start)]).collect();
    let (mut hops, mut expansions) = (0usize, 0usize);

    while frontiers.iter().any(|f| !f.is_empty()) {
        hops += 1;
        let mut per_module = vec![SimTime::ZERO; config.pim.num_modules];
        let mut host_time = SimTime::ZERO;
        let (mut ipc_bytes, mut ipc_messages, mut cpc_bytes) = (0u64, 0u64, 0u64);
        for (frontier, seen) in frontiers.iter_mut().zip(&mut visited) {
            let mut produced: BTreeSet<(NodeId, u32)> = BTreeSet::new();
            for &(v, state) in frontier.iter() {
                expansions += 1;
                let row = graph.neighbors(v);
                let scan_bytes = row.len() as u64 * (ID_BYTES + LABEL_BYTES);
                let lane = owner(v);
                match lane {
                    Some(PartitionId::Host) => {
                        host_time += pim.host_random_access_cost(1, host_resident_bytes)
                            + pim.host_sequential_read_cost(scan_bytes);
                    }
                    Some(PartitionId::Pim(m)) => {
                        per_module[m as usize] += pim.pim_hash_lookup_cost(scan_bytes);
                    }
                    None => continue,
                }
                for &(u, label) in row {
                    for &(spec, next_state) in nfa.transitions_from(state as usize) {
                        if !spec.matches(label) {
                            continue;
                        }
                        match (lane, owner(u)) {
                            (Some(PartitionId::Host), Some(PartitionId::Pim(_))) => {
                                cpc_bytes += PRODUCT_ENTRY_BYTES;
                            }
                            (Some(PartitionId::Host), _) => {}
                            (Some(PartitionId::Pim(m)), Some(PartitionId::Pim(m2))) => {
                                if m != m2 {
                                    ipc_bytes += PRODUCT_ENTRY_BYTES;
                                    ipc_messages += 1;
                                }
                            }
                            _ => cpc_bytes += PRODUCT_ENTRY_BYTES,
                        }
                        produced.insert((u, next_state as u32));
                    }
                }
            }
            // The next frontier: what this hop produced that the query has
            // not visited before, in `(node, state)` order.
            *frontier = produced.into_iter().filter(|&pair| seen.insert(pair)).collect();
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
    }

    let answers: Vec<Vec<NodeId>> = visited
        .iter()
        .map(|seen| {
            let accepted = seen.iter().filter(|&&(_, state)| nfa.is_accepting(state as usize));
            let mut nodes: Vec<NodeId> = accepted.map(|&(node, _)| node).collect();
            nodes.dedup();
            nodes
        })
        .collect();
    let matched_pairs: usize = answers.iter().map(Vec::len).sum();
    let gather_bytes = matched_pairs as u64 * GATHER_ENTRY_BYTES;
    timeline.charge(Phase::Cpc, pim.cpc_transfer_cost(gather_bytes));
    timeline.transfers.record_pim_to_cpu(gather_bytes, 1);
    timeline.charge(
        Phase::Reduce,
        pim.host_sequential_read_cost(gather_bytes)
            + pim.host_instructions_cost(matched_pairs as u64 * 8),
    );
    let stats = QueryStats { timeline, batch_size: sources.len(), hops, matched_pairs, expansions };
    (answers, stats)
}

/// A `QueryStats` as the words it is made of: every phase by its `f64` bits
/// (so `-0.0` and a differently rounded sum both show), then every counter.
fn words(stats: &QueryStats) -> Vec<u64> {
    let t = &stats.timeline;
    let x = &t.transfers;
    let mut out: Vec<u64> = Phase::ALL.iter().map(|&p| t.time(p).as_nanos().to_bits()).collect();
    out.extend([
        x.cpu_to_pim_bytes,
        x.pim_to_cpu_bytes,
        x.inter_pim_bytes,
        x.cpu_to_pim_messages,
        x.pim_to_cpu_messages,
        x.inter_pim_messages,
        stats.batch_size as u64,
        stats.hops as u64,
        stats.matched_pairs as u64,
        stats.expansions as u64,
    ]);
    out
}

/// Moctopus (greedy-adaptive placement, labor division on) and PIM-hash over
/// `edges` at `threads` worker threads, nothing refined yet.
fn systems_at(threads: usize, edges: &[Edge]) -> (MoctopusSystem, PimHashSystem) {
    let cfg = MoctopusConfig::small_test().with_threads(threads);
    assert!(cfg.labor_division);
    let (mut moctopus, mut pim_hash) = (MoctopusSystem::new(cfg), PimHashSystem::new(cfg));
    moctopus.insert_labeled_edges(edges);
    pim_hash.insert_labeled_edges(edges);
    (moctopus, pim_hash)
}

/// The two engines of [`systems_at`] as the experiment harness runs them:
/// Moctopus refined once.
fn engines_at(threads: usize, edges: &[Edge]) -> Vec<Box<dyn GraphEngine>> {
    let (mut moctopus, pim_hash) = systems_at(threads, edges);
    moctopus.refine_locality();
    vec![Box::new(moctopus), Box::new(pim_hash)]
}

/// The owner directories of [`engines_at`]'s engines (placement does not
/// depend on the thread count) and Moctopus' host-lane row count.
fn assignments(edges: &[Edge]) -> (Vec<PartitionAssignment>, usize) {
    let (mut moctopus, pim_hash) = systems_at(1, edges);
    moctopus.refine_locality();
    let directories = [moctopus.assignment().clone(), pim_hash.assignment().clone()];
    (directories.to_vec(), moctopus.host_row_count())
}

/// Every way a batch RPQ can be asked of an engine, in a fixed order:
/// plain, tracked, then the two non-forward plans.
fn observe(
    engine: &mut dyn GraphEngine,
    expr: &RpqExpr,
    split_at: usize,
    sources: &[NodeId],
) -> [(Vec<Vec<NodeId>>, QueryStats, Option<QueryDeps>); 4] {
    let (plain, plain_stats) = engine.rpq_batch(expr, sources);
    let (tracked, tracked_stats, deps) = engine.rpq_batch_tracked(expr, sources);
    let (bidi, bidi_stats) = engine.rpq_batch_planned(expr, sources, PlanStrategy::Bidirectional);
    let split = PlanStrategy::RareLabelSplit { split_at };
    let (split, split_stats) = engine.rpq_batch_planned(expr, sources, split);
    [
        (plain, plain_stats, None),
        (tracked, tracked_stats, Some(deps)),
        (bidi, bidi_stats, None),
        (split, split_stats, None),
    ]
}

/// Checks both engines over `edges` at every thread count: the forward
/// entry points against the oracle, bit for bit; the planned ones for the
/// forward answers and for stats that do not depend on the thread count.
fn check_fixture(name: &str, edges: &[Edge], sources: &[NodeId], min_host_rows: usize) {
    let mut graph = AdjacencyGraph::new();
    graph.extend(edges.iter().copied());
    let config = MoctopusConfig::small_test();
    let (assignments, host_rows) = assignments(edges);
    assert!(host_rows >= min_host_rows, "{name}: {host_rows} rows on the host lane");

    let parse = |text: &str| rpq::parser::parse(text).expect("query set parses");
    // The oracle runs once per engine and query; every thread count must hit it.
    let wants: Vec<Vec<(Vec<Vec<NodeId>>, QueryStats)>> = assignments
        .iter()
        .map(|assignment| {
            let run = |(text, _)| {
                oracle(&graph, assignment, &config, &Nfa::from_expr(&parse(text)), sources)
            };
            QUERIES.into_iter().map(run).collect()
        })
        .collect();

    let mut planned_at_one: Vec<Vec<u64>> = Vec::new();
    for threads in THREAD_COUNTS {
        let mut planned: Vec<Vec<u64>> = Vec::new();
        for (engine, wants) in engines_at(threads, edges).iter_mut().zip(&wants) {
            for ((text, split_at), (want, want_stats)) in QUERIES.into_iter().zip(wants) {
                let who = format!("{name}: {} {text} at {threads} threads", engine.name());
                assert!(want_stats.hops >= 2, "{who}: the fixture must traverse");
                let [plain, tracked, bidi, split] =
                    observe(engine.as_mut(), &parse(text), split_at, sources);
                for (entry, (answers, stats, _)) in [("rpq_batch", &plain), ("tracked", &tracked)] {
                    assert_eq!(answers, want, "{who}: {entry} answers");
                    assert_eq!(words(stats), words(want_stats), "{who}: {entry} stats");
                }
                for (entry, (answers, stats, _)) in [("bidirectional", bidi), ("split", split)] {
                    assert_eq!(&answers, want, "{who}: {entry} answers");
                    planned.push(words(&stats));
                }
            }
        }
        if threads == 1 {
            planned_at_one = planned;
        } else {
            assert_eq!(planned, planned_at_one, "{name}: planned stats moved at {threads} threads");
        }
    }
}

/// A labelled power-law graph: hubs on the host lane under labor division,
/// 520 sources so the first hop already runs on three workers.
#[test]
fn power_law_closures_charge_what_the_naive_formulation_charges() {
    let cfg = graph_gen::powerlaw::PowerLawConfig {
        nodes: 200,
        high_degree_fraction: 0.04,
        ..Default::default()
    };
    let topology = graph_gen::powerlaw::generate(&cfg, 17);
    let model = relabel(&topology, &LabelMixConfig::default(), 17);
    let sources: Vec<NodeId> = (0..520u64).map(|i| NodeId(i % 200)).collect();
    check_fixture("power-law", &labeled_edge_stream(&model), &sources, 4);
}

/// A hub-heavy graph (a sixth of the nodes are hubs most edges point at):
/// the host lane carries most of every hop past the first.
#[test]
fn hub_heavy_closures_charge_what_the_naive_formulation_charges() {
    let cfg = graph_gen::powerlaw::PowerLawConfig {
        nodes: 120,
        high_degree_fraction: 0.16,
        mean_high_degree: 24.0,
        hub_in_bias: 0.6,
        ..Default::default()
    };
    let topology = graph_gen::powerlaw::generate(&cfg, 41);
    let model = relabel(&topology, &LabelMixConfig::default(), 41);
    let sources: Vec<NodeId> = (0..320u64).map(|i| NodeId(i % 120)).collect();
    check_fixture("hub-heavy", &labeled_edge_stream(&model), &sources, 12);
}

// ---------------------------------------------------------------------------
// The memo's lifetime
// ---------------------------------------------------------------------------

/// One step of an engine's update history.
enum Step {
    Insert(Vec<Edge>),
    Delete(Vec<Edge>),
    /// `refine_locality` (PIM-hash has none).
    Refine,
}

impl Step {
    /// Applies the step to both engines; returns the rows a refinement moved.
    fn apply(&self, moctopus: &mut MoctopusSystem, pim_hash: &mut PimHashSystem) -> usize {
        match self {
            Step::Insert(batch) => {
                moctopus.insert_labeled_edges(batch);
                pim_hash.insert_labeled_edges(batch);
            }
            Step::Delete(batch) => {
                moctopus.delete_labeled_edges(batch);
                pim_hash.delete_labeled_edges(batch);
            }
            Step::Refine => return moctopus.refine_locality().0.migrated,
        }
        0
    }
}

/// The expansion memo is valid for one batch call: a *veteran* engine that
/// answers the same batch after every step of an update history — twice in
/// a row to begin with, then after an insert and a delete that touch visited
/// rows, a promotion to the host lane and a locality migration — must
/// report, call for call and bit for bit, what a *fresh* engine reports that
/// received the same history and runs only that one call. A memo entry, a
/// lane tag or a slot that outlived its call would show as a stale charge or
/// a stale successor here.
#[test]
fn a_veteran_engine_answers_like_one_that_only_ran_this_call() {
    let (edges, _) = pinned_fixture();
    // Few sources: the first hops run inline, the floods on several workers,
    // the tails inline again — entries change hands between hops.
    let sources: Vec<NodeId> = (0..40u64).map(|i| NodeId(i * 5)).collect();
    let promoted = NodeId(33);
    let history = [
        Step::Insert(Vec::new()),
        Step::Insert(vec![(NodeId(5), NodeId(150), Label(1)), (NodeId(150), NodeId(5), Label(8))]),
        Step::Delete(vec![(NodeId(7), NodeId(8), Label(1)), (NodeId(0), NodeId(1), Label(1))]),
        Step::Insert((0..20u64).map(|i| (promoted, NodeId(40 + i * 3), Label(1))).collect()),
        Step::Refine,
    ];
    let queries = ["1+", "(1|8)+", "1/(2|3)*/4"].map(|text| (text, 2usize));

    for threads in [1, 3] {
        let ask = |engine: &mut dyn GraphEngine| {
            queries.map(|(text, split_at)| {
                let expr = rpq::parser::parse(text).expect("query set parses");
                observe(engine, &expr, split_at, &sources)
                    .map(|(answers, stats, deps)| (answers, words(&stats), deps))
            })
        };
        let (mut veteran, mut veteran_hash) = systems_at(threads, &edges);
        for done in 0..=history.len() {
            if let Some(step) = history[..done].last() {
                step.apply(&mut veteran, &mut veteran_hash);
            }
            let (mut fresh, mut fresh_hash) = systems_at(threads, &edges);
            let migrated: usize =
                history[..done].iter().map(|step| step.apply(&mut fresh, &mut fresh_hash)).sum();
            let who = format!("after {done} steps at {threads} threads");
            assert_eq!(ask(&mut veteran), ask(&mut fresh), "Moctopus {who}");
            assert_eq!(ask(&mut veteran_hash), ask(&mut fresh_hash), "PIM-hash {who}");
            if done == history.len() {
                assert!(migrated > 0, "the history must end in a migration");
                assert_eq!(fresh.partition_of(promoted), Some(PartitionId::Host));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned constants
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words: order-sensitive, so a reordered charge shows.
struct Fold(u64);

impl Fold {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// splitmix64: the pinned fixture must not depend on any crate's generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// 200 nodes, three random edges each with labels skewed toward 1, a
/// label-1 ring (closures sweep the whole graph), and ten hubs of 30
/// out-edges that most hops route through.
fn pinned_fixture() -> (Vec<Edge>, Vec<NodeId>) {
    const NODES: u64 = 200;
    let mut rng = Rng(24);
    let mut edges: Vec<Edge> = Vec::new();
    for i in 0..NODES {
        edges.push((NodeId(i), NodeId((i + 1) % NODES), Label(1)));
        for _ in 0..3 {
            let label = [1, 1, 1, 2, 2, 3, 4, 8][rng.below(8) as usize];
            let dst = if rng.below(4) == 0 { rng.below(10) * 20 } else { rng.below(NODES) };
            edges.push((NodeId(i), NodeId(dst), Label(label)));
        }
    }
    for hub in (0..10).map(|h| h * 20) {
        for _ in 0..30 {
            let label = [1, 1, 2, 3, 4, 8][rng.below(6) as usize];
            edges.push((NodeId(hub), NodeId(rng.below(NODES)), Label(label)));
        }
    }
    let sources = (0..300u64).map(|i| NodeId(i * 7 % NODES)).collect();
    (edges, sources)
}

/// One checksum per engine and entry point over all of [`QUERIES`]: answers,
/// the complete stats, and the tracked call's dependency footprint.
fn pinned_checksums(threads: usize) -> Vec<[u64; 4]> {
    let (edges, sources) = pinned_fixture();
    let mut sums = Vec::new();
    for engine in &mut engines_at(threads, &edges) {
        let mut folds = [0xcbf2_9ce4_8422_2325u64; 4].map(Fold);
        for (text, split_at) in QUERIES {
            let expr = rpq::parser::parse(text).expect("query set parses");
            let observed = observe(engine.as_mut(), &expr, split_at, &sources);
            for (fold, (answers, stats, deps)) in folds.iter_mut().zip(observed) {
                for answer in &answers {
                    fold.word(answer.len() as u64);
                    answer.iter().for_each(|n| fold.word(n.0));
                }
                words(&stats).into_iter().for_each(|w| fold.word(w));
                format!("{deps:?}").bytes().for_each(|b| fold.word(u64::from(b)));
            }
        }
        sums.push(folds.map(|f| f.0));
    }
    sums
}

/// `[rpq_batch, rpq_batch_tracked, bidirectional, rare-label split]` for
/// Moctopus, then for PIM-hash — as the parent commit computed them.
const PINNED: [[u64; 4]; 2] = [
    [0x3261_dfab_0737_17d2, 0xb579_1859_40b9_e242, 0xdbd9_b56f_0538_c598, 0x7452_1955_9f8e_efc9],
    [0x525d_f455_78c8_cf64, 0x1def_5cf4_fa17_a029, 0xe4b4_f02c_da38_f847, 0x5a48_50d2_e183_17da],
];

#[test]
fn a_seeded_fixture_keeps_the_stats_the_parent_commit_computed() {
    for threads in THREAD_COUNTS {
        let got = pinned_checksums(threads);
        if std::env::var_os("NFA_COST_ORACLE_PRINT").is_some() {
            eprintln!("threads {threads}: {got:#x?}");
            continue;
        }
        assert_eq!(got, PINNED, "at {threads} threads");
    }
}
