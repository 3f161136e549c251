//! Plan invariance, property-tested: for *random* expressions served over
//! *random* labelled graphs with interleaved labelled updates, the cost-based
//! optimizer must be observably absent — responses, `ServeTotals` (minus the
//! planning counters themselves), and `CacheStats` are bit-identical between
//! a forced-forward server and an optimizer-enabled one, in every cache
//! consistency mode. On top of that, two one-sided guarantees hold on every
//! sampled query:
//!
//! * the chosen plan's simulated cost never exceeds the forward plan's
//!   (left-to-right execution is always a candidate and wins ties), and
//! * every strategy's rewritten spelling normalizes back to the exact tree it
//!   was derived from, so a plan rewrite can never split a cache row.

use graph_partition::StreamingPartitioner;
use graph_store::{Label, NodeId};
use moctopus::distributed::DistributedPimEngine;
use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem, PimHashSystem};
use moctopus_server::{
    CacheConfig, ConsistencyMode, QueryServer, Request, RequestKind, Response, ServeTotals,
    ServerConfig, ShardPlan, ShardedEngine,
};
use proptest::prelude::*;
use rpq::{choose_plan, LabelSpec, PlanStrategy, RpqExpr};

/// Random RPQ expressions over the generator's label alphabet (1..=8), with
/// the occasional any-label atom. Depth and width are kept small — plan
/// divergence comes from label skew, not from expression size.
struct ArbExpr;

impl Strategy for ArbExpr {
    type Value = RpqExpr;

    fn sample(&self, rng: &mut TestRng) -> RpqExpr {
        sample_expr(rng, 3)
    }
}

fn sample_expr(rng: &mut TestRng, depth: u32) -> RpqExpr {
    if depth == 0 || rng.below(3) == 0 {
        return if rng.below(7) == 0 {
            RpqExpr::Atom(LabelSpec::Any)
        } else {
            RpqExpr::Atom(LabelSpec::Exact(Label(1 + rng.below(8) as u16)))
        };
    }
    match rng.below(6) {
        0 => RpqExpr::Concat((0..2 + rng.below(2)).map(|_| sample_expr(rng, depth - 1)).collect()),
        1 => RpqExpr::Alt((0..2 + rng.below(2)).map(|_| sample_expr(rng, depth - 1)).collect()),
        2 => RpqExpr::Star(Box::new(sample_expr(rng, depth - 1))),
        3 => RpqExpr::Plus(Box::new(sample_expr(rng, depth - 1))),
        4 => RpqExpr::Optional(Box::new(sample_expr(rng, depth - 1))),
        _ => {
            let min = rng.below(3) as usize;
            let max = min + rng.below(3) as usize;
            RpqExpr::Repeat { expr: Box::new(sample_expr(rng, depth - 1)), min, max }
        }
    }
}

/// A labelled uniform graph under the default Zipf mix.
fn model(nodes: usize, seed: u64) -> graph_store::AdjacencyGraph {
    let topology = graph_gen::uniform::generate(nodes, 3.5, seed);
    graph_gen::labels::relabel(&topology, &graph_gen::labels::LabelMixConfig::default(), seed)
}

/// A request log interleaving queries from the sampled expression pool with
/// labelled inserts and deletes (every 4th request mutates), so plans are
/// chosen against statistics that drift mid-replay.
fn request_log(
    model: &graph_store::AdjacencyGraph,
    pool: &[RpqExpr],
    seed: u64,
    len: usize,
) -> Vec<Request> {
    let inserts = graph_gen::stream::sample_new_edges(model, len * 2, seed ^ 0x5151);
    let mut deletes = graph_gen::labels::labeled_edge_stream(model);
    deletes.truncate(len * 2);
    let sources: Vec<NodeId> = graph_gen::stream::sample_start_nodes(model, 16, seed ^ 0x9292);

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
                        .map(|(j, &(s, d))| (s, d, Label((j % 8) as u16 + 1)))
                        .collect(),
                },
                7 => RequestKind::Delete {
                    edges: deletes.iter().skip(i / 2).take(3).copied().collect(),
                },
                q => RequestKind::Query {
                    expr: pool[(q + i / 8) % pool.len()].clone(),
                    sources: sources.iter().skip(i % 6).take(8).copied().collect(),
                },
            };
            Request { at, kind }
        })
        .collect()
}

/// Replays `log` on a fresh engine; when `optimize` is set, additionally
/// checks the one-sided cost bound after every executed query.
fn replay(
    edges: &[(NodeId, NodeId, Label)],
    cache: Option<CacheConfig>,
    optimize: bool,
    log: &[Request],
) -> Result<(Vec<Response>, ServeTotals, Option<moctopus_server::CacheStats>), TestCaseError> {
    let cfg = MoctopusConfig::small_test();
    let mut engine = MoctopusSystem::new(cfg);
    engine.insert_labeled_edges(edges);
    engine.refine_locality();
    let mut server = QueryServer::new(
        Box::new(engine),
        ServerConfig { cache, pricing: cfg, optimize, plan_override: None },
    );
    let mut responses = Vec::with_capacity(log.len());
    for request in log {
        let is_query = matches!(request.kind, RequestKind::Query { .. });
        responses.push(server.execute_next(request.clone()));
        if optimize && is_query {
            if let Some(plan) = server.last_plan() {
                prop_assert!(
                    plan.chosen_cost <= plan.forward_cost,
                    "chosen plan {:?} scored {} above forward {}",
                    plan.strategy,
                    plan.chosen_cost,
                    plan.forward_cost
                );
            }
        }
    }
    let stats = server.cache_stats();
    Ok((responses, server.totals(), stats))
}

/// Strips the planning and shadow-execution counters (the only observables
/// the optimizer may own; the shadow runs' mismatch counter is asserted to
/// be zero separately before masking).
fn mask_plan_counters(mut totals: ServeTotals) -> ServeTotals {
    totals.planned = 0;
    totals.plan_nonforward = 0;
    totals.plan_forward_cost = 0;
    totals.plan_chosen_cost = 0;
    totals.shadow_runs = 0;
    totals.shadow_mismatches = 0;
    totals.shadow_forward_time = pim_sim::SimTime::ZERO;
    totals.shadow_chosen_time = pim_sim::SimTime::ZERO;
    totals
}

/// Replays `log` through a sharded serving plane with a forced shadow
/// strategy ([`ServerConfig::plan_override`]) at a (threads, shards) cell.
fn forced_replay(
    edges: &[(NodeId, NodeId, Label)],
    log: &[Request],
    threads: usize,
    shards: usize,
    plan_override: Option<PlanStrategy>,
) -> (Vec<Response>, ServeTotals) {
    let cfg = MoctopusConfig::small_test().with_threads(threads);
    let replicas: Vec<Box<dyn GraphEngine + Send>> = (0..shards)
        .map(|_| {
            let mut e = MoctopusSystem::new(cfg);
            e.insert_labeled_edges(edges);
            e.refine_locality();
            Box::new(e) as Box<dyn GraphEngine + Send>
        })
        .collect();
    let engine =
        ShardedEngine::new(replicas, ShardPlan::hashed(ShardPlan::DEFAULT_GROUPS), threads);
    let mut server = QueryServer::new(
        Box::new(engine),
        ServerConfig {
            cache: Some(CacheConfig::default()),
            pricing: cfg,
            optimize: false,
            plan_override,
        },
    );
    let responses = log.iter().map(|request| server.execute_next(request.clone())).collect();
    (responses, server.totals())
}

/// The **executed**-plan leg: a forced-forward, a forced-bidirectional, and a
/// forced-rare-split replay of one request log — the non-forward strategies
/// really executing over the reverse adjacency indexes as shadow runs — are
/// bit-identical in every served byte at threads {1, 4} × shards {1, 2}, and
/// no shadow execution ever disagreed with the canonical forward answers.
#[test]
fn forced_plan_execution_is_byte_invariant_across_threads_and_shards() {
    let model = model(90, 42);
    let edges = graph_gen::labels::labeled_edge_stream(&model);
    // A fixed pool biased toward the shapes the strategies were built for:
    // closures over the rare tail labels (bidirectional's home turf) and
    // concatenations with an exact pivot (rare-split's), plus generic forms.
    let pool: Vec<RpqExpr> = ["(1)+/8", "(1)*/8", "1/8/4", "(1|2)*", "1/(2|3)*/1", "2/8"]
        .iter()
        .map(|text| rpq::parser::parse(text).expect("pool patterns parse"))
        .collect();
    let log = request_log(&model, &pool, 42, 40);

    let strategies = [
        Some(PlanStrategy::Forward),
        Some(PlanStrategy::Bidirectional),
        Some(PlanStrategy::RareLabelSplit { split_at: 1 }),
    ];
    let (want, _) = forced_replay(&edges, &log, 1, 1, strategies[0]);
    for threads in [1usize, 4] {
        for shards in [1usize, 2] {
            for strategy in strategies {
                let (got, totals) = forced_replay(&edges, &log, threads, shards, strategy);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(
                        g.body, w.body,
                        "forced {strategy:?} visible in served bytes at t={} \
                         (threads {threads}, shards {shards})",
                        w.at
                    );
                }
                assert_eq!(
                    totals.shadow_mismatches, 0,
                    "forced {strategy:?} shadow disagreed with forward answers \
                     (threads {threads}, shards {shards})"
                );
                if strategy == Some(PlanStrategy::Forward) {
                    assert_eq!(totals.shadow_runs, 0, "a forward override must not shadow");
                } else {
                    assert!(totals.shadow_runs > 0, "forced {strategy:?} never executed");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Forced-forward vs optimizer-chosen replays of the same log are
    /// bit-identical in every served byte, every non-plan counter, and the
    /// full cache statistics (hits, misses, invalidations, dependency-footprint
    /// driven eviction behaviour) — in both consistency modes and with
    /// the cache disabled.
    #[test]
    fn optimizer_is_invisible_and_never_regresses(
        seed in 0u64..200,
        nodes in 50usize..120,
        pool in prop::collection::vec(ArbExpr, 3..6),
    ) {
        let model = model(nodes, seed);
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        let log = request_log(&model, &pool, seed, 32);
        let configs: Vec<Option<CacheConfig>> = std::iter::once(None)
            .chain(
                [ConsistencyMode::CostExact, ConsistencyMode::RowExact]
                    .into_iter()
                    .map(|mode| Some(CacheConfig { mode, capacity: 32 })),
            )
            .collect();
        for cache in configs {
            let (want, want_totals, want_cache) = replay(&edges, cache, false, &log)?;
            let (got, got_totals, got_cache) = replay(&edges, cache, true, &log)?;
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(
                    &g.body,
                    &w.body,
                    "optimizer visible in served bytes at t={} ({:?})",
                    w.at,
                    cache.map(|c| c.mode)
                );
            }
            prop_assert!(got_totals.planned > 0, "optimizer-enabled replay never planned");
            prop_assert_eq!(want_totals.planned, 0, "forced-forward replay must not plan");
            prop_assert_eq!(
                got_totals.shadow_mismatches, 0,
                "a shadow execution disagreed with the canonical forward answers"
            );
            prop_assert_eq!(
                mask_plan_counters(got_totals),
                mask_plan_counters(want_totals),
                "non-plan totals diverged ({:?})",
                cache.map(|c| c.mode)
            );
            prop_assert_eq!(got_cache, want_cache, "cache stats diverged ({:?})", cache.map(|c| c.mode));
        }
    }

    /// Every strategy's raw-constructor respelling of a random normalized
    /// expression collapses back to that exact tree, and plan choice is a
    /// deterministic pure function of (expression, statistics, batch size)
    /// that never scores its pick above the forward plan.
    #[test]
    fn rewrites_collapse_and_plans_never_regress(
        seed in 0u64..200,
        batch in 1usize..64,
        expr in ArbExpr,
    ) {
        let model = model(80, seed);
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        let cfg = MoctopusConfig::small_test();
        let mut engine = MoctopusSystem::new(cfg);
        engine.insert_labeled_edges(&edges);
        let stats = engine.label_stats();

        let normalized = expr.normalize();
        let choice = choose_plan(&normalized, &stats, batch);
        prop_assert!(choice.chosen_cost <= choice.forward_cost);
        prop_assert_eq!(choose_plan(&normalized, &stats, batch), choice, "plan choice not deterministic");

        // The spelling each strategy stands for: `ε/e` for the reversed
        // sweep, `(prefix)/(suffix)` for a split at every position.
        let mut respellings =
            vec![(PlanStrategy::Bidirectional, RpqExpr::Concat(vec![RpqExpr::epsilon(), normalized.clone()]))];
        if let RpqExpr::Concat(parts) = &normalized {
            respellings.extend((1..parts.len()).map(|split_at| {
                let halves = [&parts[..split_at], &parts[split_at..]];
                (
                    PlanStrategy::RareLabelSplit { split_at },
                    RpqExpr::Concat(halves.map(|half| RpqExpr::Concat(half.to_vec())).to_vec()),
                )
            }));
        }
        for (strategy, respelled) in respellings {
            prop_assert_eq!(
                respelled.normalize(),
                normalized.clone(),
                "strategy {:?} changed the normal form",
                strategy
            );
        }
    }
}

/// The byte-identity half of the planner contract: every strategy —
/// forward, bidirectional over the reverse rows, rare-label split — must
/// serve the exact same answers as the canonical forward path, on both
/// placement policies, including on an engine restored from a durable
/// image (whose reverse rows were rebuilt, not copied).
#[test]
fn planned_execution_matches_forward_answers() {
    fn check<P: StreamingPartitioner + Sync + 'static>(
        fresh: fn() -> DistributedPimEngine<P>,
        refine: fn(&mut DistributedPimEngine<P>),
        edges: &[(NodeId, NodeId, Label)],
    ) {
        let sources: Vec<NodeId> = (0..40u64).map(NodeId).collect();
        let queries = ["1/2", "1+", "1/(2|3)*/1", "(1|2)*", "1*/8/2*", "3?/8"];
        let strategies = [
            PlanStrategy::Forward,
            PlanStrategy::Bidirectional,
            PlanStrategy::RareLabelSplit { split_at: 1 },
        ];

        let mut e = fresh();
        e.insert_labeled_edges(edges);
        refine(&mut e);

        let mut twin = fresh();
        assert!(twin.restore_snapshot(&e.export_snapshot().expect("PIM engines export images")));

        for q in queries {
            let expr = rpq::parser::parse(q).expect("query parses");
            let (want, _) = e.rpq_batch(&expr, &sources);
            for strategy in strategies {
                let (got, _) = e.rpq_batch_planned(&expr, &sources, strategy);
                assert_eq!(got, want, "{q} under {} drifted", strategy.describe());
                let (restored, _) = twin.rpq_batch_planned(&expr, &sources, strategy);
                assert_eq!(
                    restored,
                    want,
                    "{q} under {} drifted on the restored twin",
                    strategy.describe()
                );
            }
        }
    }

    let graph = graph_gen::uniform::generate(300, 4.0, 13);
    let mut edges: Vec<(NodeId, NodeId, Label)> =
        graph.edges().map(|(s, d, _)| (s, d, Label((d.0 % 3) as u16 + 1))).collect();
    // Sprinkle a rare label 8 so the split pivot has real sources.
    for i in 0..12u64 {
        edges.push((NodeId(i * 17 % 300), NodeId((i * 23 + 5) % 300), Label(8)));
    }
    let moctopus = || MoctopusSystem::new(MoctopusConfig::small_test());
    let refine = |e: &mut MoctopusSystem| {
        e.refine_locality();
    };
    check(moctopus, refine, &edges);
    check(|| PimHashSystem::new(MoctopusConfig::small_test()), |_| {}, &edges);
}

/// The cost half: a closure that must end in a rare label lets the
/// bidirectional executor's backward useful-set pass prune the forward
/// frontier down to the small pocket that can actually reach the rare
/// edge, while the forward plan floods the whole common-label component.
#[test]
fn bidirectional_execution_prunes_rare_closures() {
    let mut edges: Vec<(NodeId, NodeId, Label)> = Vec::new();
    // A 300-node label-1 component with chords — none of it reaches label 9.
    for i in 0..300u64 {
        edges.push((NodeId(i), NodeId((i + 1) % 300), Label(1)));
        edges.push((NodeId(i), NodeId((i * 7 + 3) % 300), Label(1)));
    }
    // A small disjoint pocket whose chain ends in the rare label.
    for i in 1000..1008u64 {
        edges.push((NodeId(i), NodeId(i + 1), Label(1)));
    }
    edges.push((NodeId(1008), NodeId(2000), Label(9)));

    let mut sources: Vec<NodeId> = (0..32u64).map(NodeId).collect();
    sources.extend((1000..1004u64).map(NodeId));

    let expr = rpq::parser::parse("1*/9").expect("query parses");
    let mut fwd = MoctopusSystem::new(MoctopusConfig::small_test());
    fwd.insert_labeled_edges(&edges);
    let mut bidi = fwd.clone();

    let (want, fwd_stats) = fwd.rpq_batch_planned(&expr, &sources, PlanStrategy::Forward);
    let (got, bidi_stats) = bidi.rpq_batch_planned(&expr, &sources, PlanStrategy::Bidirectional);
    assert_eq!(got, want, "pruning must never change answers");
    assert!(want.iter().any(|r| !r.is_empty()), "the pocket sources must match");

    assert!(
        bidi_stats.expansions * 4 < fwd_stats.expansions,
        "bidirectional expansions {} should be well below forward's {}",
        bidi_stats.expansions,
        fwd_stats.expansions
    );
    assert!(
        bidi_stats.latency() < fwd_stats.latency(),
        "bidirectional simulated latency {:?} should beat forward's {:?}",
        bidi_stats.latency(),
        fwd_stats.latency()
    );
}
