//! Shard-count equivalence: serving any interleaving of queries and labelled
//! updates through a [`ShardedEngine`] must be **observably identical** to the
//! single-shard sequential replay — bit-identical responses, `ServeTotals`,
//! and `CacheStats` — across shards {1, 2, 4} × threads {1, 4} × both
//! cache consistency modes, with racing client sessions thrown in.
//!
//! This is the executable form of SERVING.md §7 (why sharding is invisible):
//! every batch is canonically decomposed into per-placement-group sub-batches
//! at *every* shard count (including one), and per-group outcomes are merged
//! in ascending group order, so results, stats, and dependency footprints are
//! pure functions of the frozen [`ShardPlan`] — never of how many shards the
//! groups happen to land on. If scatter dropped or duplicated a position, or
//! the merge order ever depended on shard boundaries, some interleaving here
//! would diverge from the one-shard replay and fail the comparison.

use graph_store::{Label, NodeId};
use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem};
use moctopus_server::{
    CacheConfig, CacheStats, ConcurrentServer, ConsistencyMode, QueryServer, Request, RequestKind,
    Response, ServeTotals, ServerConfig, Session, ShardPlan, ShardedEngine,
};
use proptest::prelude::*;

/// The acceptance matrix's shard counts.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// The acceptance matrix's thread counts.
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Both cache consistency modes (plus `None` = cache disabled, covered
/// separately in [`assert_shard_equivalence`]).
const MODES: [ConsistencyMode; 2] = [ConsistencyMode::CostExact, ConsistencyMode::RowExact];

/// Query pool: label chain, closure + alternation, k-hop, transitive closure,
/// and a nullable pattern so the epsilon path crosses the scatter/merge seam.
const QUERIES: [&str; 5] = ["1/2/3", "1/(2|3)*/4", ".{2}", "2?/1", "1+"];

/// One deterministic request log of interleaved queries and labelled updates
/// (same shape as the cache-equivalence suite: every 4th request mutates).
fn request_log(model: &graph_store::AdjacencyGraph, seed: u64, len: usize) -> Vec<Request> {
    let inserts = graph_gen::stream::sample_new_edges(model, len * 2, seed ^ 0xaaaa);
    let mut deletes = graph_gen::labels::labeled_edge_stream(model);
    deletes.truncate(len * 2);
    let sources: Vec<NodeId> = graph_gen::stream::sample_start_nodes(model, 24, seed ^ 0xbbbb);

    (0..len)
        .map(|i| {
            let at = (i + 1) as u64;
            let kind = match i % 8 {
                3 => RequestKind::Insert {
                    edges: inserts
                        .iter()
                        .skip(i)
                        .take(3)
                        .enumerate()
                        .map(|(j, &(s, d))| (s, d, Label((j % 4) as u16 + 1)))
                        .collect(),
                },
                7 => RequestKind::Delete {
                    edges: deletes.iter().skip(i / 2).take(3).copied().collect(),
                },
                q => RequestKind::Query {
                    expr: rpq::parser::parse(QUERIES[(q + i / 8) % QUERIES.len()])
                        .expect("query pool parses"),
                    sources: sources.iter().skip(i % 8).take(8).copied().collect(),
                },
            };
            Request { at, kind }
        })
        .collect()
}

/// A sharded execution plane: `shards` identical Moctopus replicas (each
/// refined once, as the experiment harness does) behind one frozen hashed
/// [`ShardPlan`]. The plan is a pure function of the node id, so every shard
/// count sees the same placement groups.
fn sharded_engine(
    shards: usize,
    threads: usize,
    edges: &[(NodeId, NodeId, Label)],
) -> (Box<dyn GraphEngine + Send>, MoctopusConfig) {
    let cfg = MoctopusConfig::small_test().with_threads(threads);
    let replicas: Vec<Box<dyn GraphEngine + Send>> = (0..shards)
        .map(|_| {
            let mut replica = MoctopusSystem::new(cfg);
            replica.insert_labeled_edges(edges);
            replica.refine_locality();
            Box::new(replica) as Box<dyn GraphEngine + Send>
        })
        .collect();
    let plan = ShardPlan::hashed(ShardPlan::DEFAULT_GROUPS);
    (Box::new(ShardedEngine::new(replicas, plan, threads)), cfg)
}

/// Replays `log` sequentially and returns everything observable: responses,
/// totals, and the final cache statistics.
fn replay(
    engine: Box<dyn GraphEngine + Send>,
    pricing: MoctopusConfig,
    cache: Option<CacheConfig>,
    log: &[Request],
) -> (Vec<Response>, ServeTotals, Option<CacheStats>) {
    let mut server =
        QueryServer::new(engine, ServerConfig { cache, pricing, ..ServerConfig::default() });
    let responses = log.iter().map(|request| server.execute_next(request.clone())).collect();
    let stats = server.cache_stats();
    (responses, server.totals(), stats)
}

/// The tentpole assertion: for every (shards, threads, mode) cell, concurrent
/// sharded serving over racing sessions is bit-identical to the
/// single-shard/single-thread sequential replay.
fn assert_shard_equivalence(
    edges: &[(NodeId, NodeId, Label)],
    log: &[Request],
) -> Result<(), TestCaseError> {
    // Cache disabled, both modes, and a two-entry cache that evicts on
    // nearly every miss; the reference cell is always shards = 1,
    // threads = 1, replayed sequentially.
    let tiny = CacheConfig { mode: ConsistencyMode::CostExact, capacity: 2 };
    let configs: Vec<Option<CacheConfig>> = std::iter::once(None)
        .chain(MODES.iter().map(|&mode| Some(CacheConfig { mode, capacity: 64 })))
        .chain([Some(tiny)])
        .collect();
    for cache in &configs {
        let (engine, cfg) = sharded_engine(1, 1, edges);
        let (want_responses, want_totals, want_cache) = replay(engine, cfg, *cache, log);
        if *cache == Some(tiny) {
            let evictions = want_cache.map_or(0, |s| s.evictions);
            prop_assert!(evictions > 0, "the two-entry cache never evicted");
        }

        for &shards in &SHARD_COUNTS {
            for &threads in &THREAD_COUNTS {
                let (engine, cfg) = sharded_engine(shards, threads, edges);
                let server = ConcurrentServer::new(QueryServer::new(
                    engine,
                    ServerConfig { cache: *cache, pricing: cfg, ..ServerConfig::default() },
                ));
                let mut sessions: Vec<Session> = (0..3).map(|_| server.session()).collect();
                std::thread::scope(|scope| {
                    for (c, session) in sessions.drain(..).enumerate() {
                        let schedule: Vec<Request> =
                            log.iter().skip(c).step_by(3).cloned().collect();
                        scope.spawn(move || {
                            let mut session = session;
                            for request in schedule {
                                session
                                    .submit(request.at, request.kind)
                                    .expect("monotonic per client");
                            }
                            session.finish();
                        });
                    }
                    server.run();
                });
                let mut merged: Vec<Response> =
                    server.take_responses().into_iter().flatten().collect();
                merged.sort_by_key(|r| r.at);
                let totals = server.with_core(|core| core.totals());
                let cache_stats = server.with_core(|core| core.cache_stats());

                prop_assert_eq!(merged.len(), want_responses.len());
                for (got, want) in merged.iter().zip(&want_responses) {
                    prop_assert_eq!(got.at, want.at);
                    prop_assert_eq!(
                        &got.body,
                        &want.body,
                        "{:?} diverged from the 1-shard replay at t={} \
                         ({} shards, {} threads)",
                        cache.map(|c| c.mode),
                        got.at,
                        shards,
                        threads
                    );
                }
                prop_assert_eq!(
                    totals,
                    want_totals,
                    "totals diverged ({:?}, {} shards, {} threads)",
                    cache.map(|c| c.mode),
                    shards,
                    threads
                );
                prop_assert_eq!(
                    cache_stats,
                    want_cache,
                    "cache stats diverged ({:?}, {} shards, {} threads)",
                    cache.map(|c| c.mode),
                    shards,
                    threads
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Uniform labelled graphs: the full shards × threads × mode matrix is
    /// bit-identical to the single-shard sequential replay.
    #[test]
    fn shard_matrix_is_equivalent_on_uniform_graphs(
        seed in 0u64..100,
        nodes in 60usize..140,
    ) {
        let topology = graph_gen::uniform::generate(nodes, 3.5, seed);
        let model = graph_gen::labels::relabel(
            &topology,
            &graph_gen::labels::LabelMixConfig::default(),
            seed,
        );
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        let log = request_log(&model, seed, 32);
        assert_shard_equivalence(&edges, &log)?;
    }

    /// Power-law labelled graphs: hub nodes concentrate whole placement
    /// groups, so the scatter produces skewed sub-batches — the merge must
    /// still be shard-count invariant.
    #[test]
    fn shard_matrix_is_equivalent_on_power_law_graphs(
        seed in 0u64..100,
        nodes in 120usize..240,
    ) {
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes,
            high_degree_fraction: 0.05,
            ..Default::default()
        };
        let topology = graph_gen::powerlaw::generate(&cfg, seed);
        let model = graph_gen::labels::relabel(
            &topology,
            &graph_gen::labels::LabelMixConfig::default(),
            seed,
        );
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        let log = request_log(&model, seed, 32);
        assert_shard_equivalence(&edges, &log)?;
    }

    /// The plan-aware placement path: a [`ShardPlan`] derived from the
    /// engine's own partition assignment serves the same answers as the raw
    /// unsharded engine (results only — stats decompose differently when the
    /// decomposition follows real placements, and that is fine: only the
    /// hashed canonical plan promises bit-identical stats).
    #[test]
    fn assignment_derived_plans_preserve_answers(seed in 0u64..50) {
        let topology = graph_gen::uniform::generate(90, 3.5, seed);
        let model = graph_gen::labels::relabel(
            &topology,
            &graph_gen::labels::LabelMixConfig::default(),
            seed,
        );
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        let cfg = MoctopusConfig::small_test();

        let mut single = MoctopusSystem::new(cfg);
        single.insert_labeled_edges(&edges);
        single.refine_locality();
        let mut assignment =
            graph_partition::PartitionAssignment::new(cfg.pim.num_modules);
        for id in 0..model.node_count() as u64 {
            if let Some(partition) = single.partition_of(NodeId(id)) {
                assignment.assign(NodeId(id), partition);
            }
        }
        let plan = ShardPlan::from_assignment(&assignment, ShardPlan::DEFAULT_GROUPS);

        let replicas: Vec<Box<dyn GraphEngine + Send>> = (0..3)
            .map(|_| {
                let mut replica = MoctopusSystem::new(cfg);
                replica.insert_labeled_edges(&edges);
                replica.refine_locality();
                Box::new(replica) as Box<dyn GraphEngine + Send>
            })
            .collect();
        let mut plane = ShardedEngine::new(replicas, plan, 2);

        let sources: Vec<NodeId> =
            graph_gen::stream::sample_start_nodes(&model, 16, seed ^ 0xcccc);
        for text in QUERIES {
            let expr = rpq::parser::parse(text).expect("query pool parses");
            let (want, _) = single.rpq_batch(&expr, &sources);
            let (got, _) = plane.rpq_batch(&expr, &sources);
            prop_assert_eq!(&got, &want, "placement-derived plan changed answers on {:?}", text);
        }
    }
}
