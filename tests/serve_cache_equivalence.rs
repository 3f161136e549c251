//! Cache-consistency equivalence: serving any interleaving of queries and
//! labelled updates with the result cache enabled must be **observably
//! identical** to serving it with the cache disabled — bit-identical query
//! results in both consistency modes, bit-identical `QueryStats` under
//! cost-exact consistency — across engines and thread counts.
//!
//! This is the executable form of SERVING.md §3 (what invalidates what, and
//! why stale reads are impossible): if the dependency tracking in
//! `moctopus::deps` under-approximated anything — a visited node outside the
//! recorded buckets, a placement change outside the structural tier, a
//! host-store byte moving without the flag — some interleaving here would
//! serve a stale answer or stale stats and fail the comparison.

use graph_store::{Label, NodeId};
use moctopus::{GraphEngine, HostBaseline, MoctopusConfig, MoctopusSystem, PimHashSystem};
use moctopus_server::{
    CacheConfig, CacheOutcome, CacheStats, ConcurrentServer, ConsistencyMode, QueryServer, Request,
    RequestKind, Response, ResponseBody, ServerConfig, Session,
};
use proptest::prelude::*;

/// Thread counts the serving sweep runs at (the acceptance criterion's 1/4).
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Query pool: every execution strategy (label chain, closure+alternation,
/// k-hop fast path, transitive closure) plus a label-narrow probe that keeps
/// row-exact (label-precise) invalidation interesting.
const QUERIES: [&str; 5] = ["1/2/3", "1/(2|3)*/4", ".{2}", "1+", "2/2"];

/// One deterministic request log: interleaved queries (drawn from the pool
/// over rotating source batches) and labelled insert/delete batches.
fn request_log(model: &graph_store::AdjacencyGraph, seed: u64, len: usize) -> Vec<Request> {
    let inserts = graph_gen::stream::sample_new_edges(model, len * 2, seed ^ 0xaaaa);
    let mut deletes = graph_gen::labels::labeled_edge_stream(model);
    deletes.truncate(len * 2);
    let sources: Vec<NodeId> = graph_gen::stream::sample_start_nodes(model, 24, seed ^ 0xbbbb);

    (0..len)
        .map(|i| {
            let at = (i + 1) as u64;
            // A fixed-but-varied schedule: every 4th request updates.
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

/// One fresh engine (0 = Moctopus, refined once as in the experiment
/// harness; 1 = PIM-hash; 2 = host baseline), loaded with the labelled
/// stream at a thread count.
fn engine_at(
    engine_idx: usize,
    threads: usize,
    edges: &[(NodeId, NodeId, Label)],
) -> (Box<dyn GraphEngine + Send>, MoctopusConfig) {
    let cfg = MoctopusConfig::small_test().with_threads(threads);
    let engine: Box<dyn GraphEngine + Send> = match engine_idx {
        0 => {
            let mut moctopus = MoctopusSystem::new(cfg);
            moctopus.insert_labeled_edges(edges);
            moctopus.refine_locality();
            Box::new(moctopus)
        }
        1 => {
            let mut pim_hash = PimHashSystem::new(cfg);
            pim_hash.insert_labeled_edges(edges);
            Box::new(pim_hash)
        }
        _ => {
            let mut baseline = HostBaseline::new(cfg);
            baseline.insert_labeled_edges(edges);
            Box::new(baseline)
        }
    };
    (engine, cfg)
}

/// All three engines (see [`engine_at`] for the index mapping).
fn engines_at(
    threads: usize,
    edges: &[(NodeId, NodeId, Label)],
) -> Vec<(Box<dyn GraphEngine + Send>, MoctopusConfig)> {
    (0..3).map(|idx| engine_at(idx, threads, edges)).collect()
}

/// Replays `log` through a fresh server and returns the responses.
fn replay(
    engine: Box<dyn GraphEngine + Send>,
    pricing: MoctopusConfig,
    cache: Option<CacheConfig>,
    optimize: bool,
    log: &[Request],
) -> (Vec<Response>, moctopus_server::ServeTotals, Option<CacheStats>) {
    let mut server =
        QueryServer::new(engine, ServerConfig { cache, pricing, optimize, plan_override: None });
    let responses = log.iter().map(|request| server.execute_next(request.clone())).collect();
    (responses, server.totals(), server.cache_stats())
}

/// The core assertion: cached serving equals uncached re-execution.
fn assert_cache_equivalence(
    edges: &[(NodeId, NodeId, Label)],
    log: &[Request],
    threads: usize,
) -> Result<(), TestCaseError> {
    for engine_idx in 0..3usize {
        let build = || engine_at(engine_idx, threads, edges);
        let (engine, cfg) = build();
        let name = engine.name();
        let (bypass, _, _) = replay(engine, cfg, None, false, log);
        // Both consistency modes, each with the plan optimizer off and on:
        // plan choice must be invisible in every served byte (the
        // plan-invariance contract), so all runs must equal the
        // optimizer-less uncached reference. The two-entry cache evicts on
        // nearly every miss.
        for (mode, optimize, capacity) in [
            (ConsistencyMode::CostExact, false, 64),
            (ConsistencyMode::RowExact, false, 64),
            (ConsistencyMode::CostExact, true, 64),
            (ConsistencyMode::RowExact, true, 64),
            (ConsistencyMode::CostExact, false, 2),
        ] {
            let (engine, cfg) = build();
            let (cached, totals, stats) =
                replay(engine, cfg, Some(CacheConfig { mode, capacity }), optimize, log);
            if capacity == 2 {
                let evictions = stats.map_or(0, |s| s.evictions);
                prop_assert!(evictions > 0, "{name}: the two-entry cache never evicted");
            }
            prop_assert_eq!(cached.len(), bypass.len());
            let mut hits = 0u64;
            for (got, want) in cached.iter().zip(&bypass) {
                match (&got.body, &want.body) {
                    (
                        ResponseBody::Query { results: a, stats: sa, cache },
                        ResponseBody::Query { results: b, stats: sb, .. },
                    ) => {
                        prop_assert_eq!(
                            a,
                            b,
                            "{} {:?}: stale answer served at {} ({} threads)",
                            name,
                            mode,
                            got.id,
                            threads
                        );
                        if *cache == CacheOutcome::Hit {
                            hits += 1;
                        }
                        if mode == ConsistencyMode::CostExact {
                            prop_assert_eq!(
                                sa,
                                sb,
                                "{} {:?}: stale stats served at {} ({} threads)",
                                name,
                                mode,
                                got.id,
                                threads
                            );
                        }
                    }
                    (
                        ResponseBody::Update { stats: sa, .. },
                        ResponseBody::Update { stats: sb, .. },
                    ) => {
                        prop_assert_eq!(sa, sb, "{} {:?}: update stats drifted", name, mode);
                    }
                    _ => prop_assert!(false, "response kinds diverged at {}", got.id),
                }
            }
            // The accounting identity: avoided time only accrues from hits
            // (the log never repeats a timestamp, so nothing collapses). A
            // row-exact batch whose rows partly hit is a `Miss` response,
            // so the cache's own lookup counter is the one to read.
            let lookups_hit = stats.map_or(0, |s| s.hits);
            prop_assert!(mode == ConsistencyMode::RowExact || lookups_hit == hits);
            if lookups_hit == 0 {
                prop_assert_eq!(totals.avoided_time, pim_sim::SimTime::ZERO);
            }
            // Planning accounting: the optimizer plans every execution (and
            // nothing else), and never scores its choice above forward.
            if optimize {
                prop_assert!(totals.planned > 0, "{name}: no executions planned");
                prop_assert!(
                    totals.plan_chosen_cost <= totals.plan_forward_cost,
                    "{}: chosen plan cost {} exceeds forward {}",
                    name,
                    totals.plan_chosen_cost,
                    totals.plan_forward_cost
                );
            } else {
                prop_assert_eq!(totals.planned, 0);
                prop_assert_eq!(totals.plan_nonforward, 0);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Uniform labelled graphs: cache on == cache off at both thread counts.
    #[test]
    fn cached_serving_is_equivalent_on_uniform_graphs(
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
        let log = request_log(&model, seed, 40);
        for &threads in &THREAD_COUNTS {
            assert_cache_equivalence(&edges, &log, threads)?;
        }
    }

    /// Power-law labelled graphs: hub promotion makes the host lane and the
    /// host-store invalidation flag load-bearing.
    #[test]
    fn cached_serving_is_equivalent_on_power_law_graphs(
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
        let log = request_log(&model, seed, 40);
        for &threads in &THREAD_COUNTS {
            assert_cache_equivalence(&edges, &log, threads)?;
        }
    }

    /// The dependency footprints themselves are thread-count invariant (the
    /// cache consumes them, so this is a precondition of byte-identical
    /// serving at every `--threads` value).
    #[test]
    fn tracked_deps_are_thread_count_invariant(seed in 0u64..100) {
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes: 150,
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
        let sources: Vec<NodeId> = (0..12u64).map(NodeId).collect();
        let mut at_one = engines_at(1, &edges);
        let mut at_four = engines_at(4, &edges);
        for ((a, _), (b, _)) in at_one.iter_mut().zip(at_four.iter_mut()) {
            for text in QUERIES {
                let expr = rpq::parser::parse(text).expect("query pool parses");
                let (ra, sa, da) = a.rpq_batch_tracked(&expr, &sources);
                let (rb, sb, db) = b.rpq_batch_tracked(&expr, &sources);
                prop_assert_eq!(&ra, &rb, "{} results differ on {:?}", a.name(), text);
                prop_assert_eq!(sa, sb);
                prop_assert_eq!(da, db, "{} deps differ across threads on {:?}", a.name(), text);
            }
            let ins: Vec<(NodeId, NodeId, Label)> =
                graph_gen::stream::sample_new_edges(&model, 12, seed)
                    .into_iter()
                    .map(|(s, d)| (s, d, Label(2)))
                    .collect();
            let (ua, fa) = a.insert_labeled_edges_tracked(&ins);
            let (ub, fb) = b.insert_labeled_edges_tracked(&ins);
            prop_assert_eq!(ua, ub);
            prop_assert_eq!(fa, fb, "{} update footprints differ across threads", a.name());
        }
    }
}

/// The concurrent session layer must serve exactly what a sequential replay
/// of the same total order serves — racing client threads included.
#[test]
fn concurrent_sessions_match_sequential_replay() {
    let topology = graph_gen::uniform::generate(120, 3.0, 11);
    let model =
        graph_gen::labels::relabel(&topology, &graph_gen::labels::LabelMixConfig::default(), 11);
    let edges = graph_gen::labels::labeled_edge_stream(&model);
    let log = request_log(&model, 11, 48);

    // Sequential ground truth (the log is already in `at` order). The plan
    // optimizer is on in both runs: its counters are part of the totals
    // compared below, so planning must be deterministic under concurrency.
    let (engine, cfg) = engine_at(0, 1, &edges);
    let (sequential, seq_totals, _) = replay(engine, cfg, Some(CacheConfig::default()), true, &log);

    // Concurrent run: the same log split round-robin over 3 racing sessions.
    let (engine, cfg) = engine_at(0, 1, &edges);
    let server = ConcurrentServer::new(QueryServer::new(
        engine,
        ServerConfig {
            cache: Some(CacheConfig::default()),
            pricing: cfg,
            optimize: true,
            plan_override: None,
        },
    ));
    let mut sessions: Vec<Session> = (0..3).map(|_| server.session()).collect();
    std::thread::scope(|scope| {
        for (c, session) in sessions.drain(..).enumerate() {
            let schedule: Vec<Request> = log.iter().skip(c).step_by(3).cloned().collect();
            scope.spawn(move || {
                let mut session = session;
                for request in schedule {
                    session.submit(request.at, request.kind).expect("monotonic per client");
                }
                session.finish();
            });
        }
        server.run();
    });
    let mut merged: Vec<Response> = server.take_responses().into_iter().flatten().collect();
    merged.sort_by_key(|r| r.at);
    let concurrent_totals = server.with_core(|core| core.totals());

    assert_eq!(merged.len(), sequential.len());
    for (got, want) in merged.iter().zip(&sequential) {
        assert_eq!(got.at, want.at);
        assert_eq!(got.body, want.body, "concurrent serving diverged at t={}", got.at);
    }
    assert_eq!(concurrent_totals, seq_totals, "simulated cost totals diverged");
}

/// A query and its plan-rewritten respellings occupy **one** cache row: the
/// factorings a plan strategy stands for — `ε/e` for the reversed sweep,
/// `(prefix)/(suffix)` for a split — collapse to the same cache key, and the
/// rewritten forms hit the row the original filled.
#[test]
fn query_and_plan_rewritten_form_share_one_cache_row() {
    let topology = graph_gen::uniform::generate(100, 3.5, 7);
    let model =
        graph_gen::labels::relabel(&topology, &graph_gen::labels::LabelMixConfig::default(), 7);
    let edges = graph_gen::labels::labeled_edge_stream(&model);
    let (engine, cfg) = engine_at(0, 1, &edges);
    let mut server = QueryServer::new(
        engine,
        ServerConfig {
            cache: Some(CacheConfig::default()),
            pricing: cfg,
            optimize: true,
            plan_override: None,
        },
    );

    let sources: Vec<NodeId> = (0..8u64).map(NodeId).collect();
    let plain = rpq::parser::parse("1/2/8").expect("query parses");
    let normalized = plain.normalize();
    let rpq::RpqExpr::Concat(parts) = &normalized else { panic!("1/2/8 is a concatenation") };
    let respellings = [
        rpq::RpqExpr::Concat(vec![rpq::RpqExpr::epsilon(), normalized.clone()]),
        rpq::RpqExpr::Concat(vec![
            rpq::RpqExpr::Concat(parts[..2].to_vec()),
            rpq::RpqExpr::Concat(parts[2..].to_vec()),
        ]),
    ];
    // The respellings are genuinely different trees…
    for r in &respellings {
        assert_ne!(*r, normalized, "respelling must differ as a tree");
    }

    let miss = server.execute_next(Request {
        at: 1,
        kind: RequestKind::Query { expr: plain, sources: sources.clone() },
    });
    assert_eq!(miss.cache_outcome(), Some(CacheOutcome::Miss));
    assert_eq!(server.cache_len(), Some(1));

    // …yet every one of them hits the row the plain spelling filled.
    for (i, respelt) in respellings.into_iter().enumerate() {
        let hit = server.execute_next(Request {
            at: 2 + i as u64,
            kind: RequestKind::Query { expr: respelt, sources: sources.clone() },
        });
        assert_eq!(hit.cache_outcome(), Some(CacheOutcome::Hit), "respelling {i} missed");
        assert_eq!(hit.results(), miss.results(), "respelling {i} served different bytes");
    }
    assert_eq!(server.cache_len(), Some(1), "respellings must not add cache rows");
}
