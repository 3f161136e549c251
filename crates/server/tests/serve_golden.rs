//! Pins what the serving loop reports, bit for bit, in every cache mode.
//!
//! One fixed request log — queries over overlapping, rotated and
//! duplicate-bearing source batches, same-timestamp duplicates, labelled
//! inserts and deletes — replays through four servers: no cache,
//! `CostExact`, `RowExact`, and `RowExact` with a two-entry cache that
//! evicts on nearly every miss. Each server's responses (results, every
//! `QueryStats`/`UpdateStats` bit, cache outcomes, invalidation counts) fold
//! into one FNV-1a checksum; every `ServeTotals` field and every
//! `CacheStats` counter is pinned on its own. The equivalence suites compare
//! a cached run against an uncached one; this file compares each run
//! against itself at an earlier commit, so hit, avoided and collapsed
//! accounting cannot drift unnoticed.
//!
//! The constants were printed before the three query paths of
//! `QueryServer` were folded into one loop; the simulated-time bits were
//! re-printed once, when `SimTime` became whole picoseconds. Print fresh ones with
//! `SERVE_GOLDEN_PRINT=1 cargo test -p moctopus-server --test serve_golden
//! -- --nocapture`, and only for a stated change to the serving semantics.

use graph_store::{Label, NodeId};
use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem, Phase, QueryStats, Timeline};
use moctopus_server::{
    CacheConfig, CacheOutcome, ConsistencyMode, QueryServer, Request, RequestKind, ResponseBody,
    ServeTotals, ServerConfig,
};

/// Query pool: label chain, closure + alternation, k-hop fast path,
/// transitive closure, a label-narrow probe and a nullable pattern.
const QUERIES: [&str; 6] = ["1/2/3", "1/(2|3)*/4", ".{2}", "1+", "2/2", "2?/1"];

/// FNV-1a over 64-bit words: order-sensitive, so a reordered charge shows.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn timeline(&mut self, t: &Timeline) {
        for phase in Phase::ALL {
            self.word(t.time(phase).as_nanos().to_bits());
        }
        let x = &t.transfers;
        for w in [
            x.cpu_to_pim_bytes,
            x.pim_to_cpu_bytes,
            x.inter_pim_bytes,
            x.cpu_to_pim_messages,
            x.pim_to_cpu_messages,
            x.inter_pim_messages,
        ] {
            self.word(w);
        }
    }

    fn query_stats(&mut self, s: &QueryStats) {
        self.timeline(&s.timeline);
        for w in [s.batch_size, s.hops, s.matched_pairs, s.expansions] {
            self.word(w as u64);
        }
    }
}

/// One server's pinned observables.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// FNV-1a over every response, in log order.
    responses: u64,
    /// Every [`ServeTotals`] field, times as `f64` bits, in declaration order.
    totals: [u64; 15],
    /// `hits, misses, insertions, invalidated, evictions` (`None` = no cache).
    cache: Option<[u64; 5]>,
}

fn totals_words(t: &ServeTotals) -> [u64; 15] {
    let bits = |time: pim_sim::SimTime| time.as_nanos().to_bits();
    [
        t.queries,
        t.updates,
        bits(t.engine_time),
        bits(t.hit_time),
        bits(t.avoided_time),
        t.matched_pairs,
        t.collapsed,
        t.planned,
        t.plan_nonforward,
        t.plan_forward_cost,
        t.plan_chosen_cost,
        t.shadow_runs,
        t.shadow_mismatches,
        bits(t.shadow_forward_time),
        bits(t.shadow_chosen_time),
    ]
}

/// A seeded power-law graph with the default label mix, as a labelled
/// edge stream.
fn labelled_graph() -> (graph_store::AdjacencyGraph, Vec<(NodeId, NodeId, Label)>) {
    let cfg = graph_gen::powerlaw::PowerLawConfig {
        nodes: 160,
        high_degree_fraction: 0.05,
        ..Default::default()
    };
    let topology = graph_gen::powerlaw::generate(&cfg, 31);
    let model =
        graph_gen::labels::relabel(&topology, &graph_gen::labels::LabelMixConfig::default(), 31);
    let edges = graph_gen::labels::labeled_edge_stream(&model);
    (model, edges)
}

/// The fixed request log. Every 6th request updates (inserts and deletes
/// alternate); every 5th request, if a query, repeats at the same logical
/// timestamp (a collapse). Queries cycle through four (expression, batch)
/// pairs, whose batches are overlapping windows over one source list, and
/// the expressions shift every 24 requests; every 7th batch is rotated,
/// every 5th carries a duplicate source, and one batch is empty.
fn request_log(model: &graph_store::AdjacencyGraph) -> Vec<Request> {
    let inserts = graph_gen::stream::sample_new_edges(model, 64, 0x5e7e);
    let mut deletes = graph_gen::labels::labeled_edge_stream(model);
    deletes.truncate(64);
    let pool: Vec<NodeId> = graph_gen::stream::sample_start_nodes(model, 20, 0x5eed);

    let mut log: Vec<Request> = Vec::new();
    for i in 0..72usize {
        let at = i as u64 + 1;
        let kind = match i % 12 {
            5 => RequestKind::Insert {
                edges: inserts
                    .iter()
                    .skip(i / 2)
                    .take(3)
                    .enumerate()
                    .map(|(j, &(s, d))| (s, d, Label((j % 4) as u16 + 1)))
                    .collect(),
            },
            11 => RequestKind::Delete { edges: deletes.iter().skip(i).take(3).copied().collect() },
            _ if i == 40 => RequestKind::Query {
                expr: rpq::parser::parse("1/2").expect("query parses"),
                sources: Vec::new(),
            },
            _ => {
                let pair = i % 4;
                let mut sources: Vec<NodeId> =
                    pool.iter().skip(3 * pair).take(6).copied().collect();
                if i % 7 == 0 {
                    sources.rotate_left(2);
                }
                if i % 5 == 2 {
                    sources.push(sources[1]);
                }
                RequestKind::Query {
                    expr: rpq::parser::parse(QUERIES[(pair + i / 24) % QUERIES.len()])
                        .expect("query pool parses"),
                    sources,
                }
            }
        };
        log.push(Request { at, kind });
        if i % 5 == 4 {
            if let Some(previous) = log.last().cloned() {
                if matches!(previous.kind, RequestKind::Query { .. }) {
                    log.push(previous);
                }
            }
        }
    }
    log
}

fn replay(cache: Option<CacheConfig>) -> Golden {
    let (model, edges) = labelled_graph();
    let config = MoctopusConfig::small_test().with_threads(1);
    let mut engine = MoctopusSystem::new(config);
    engine.insert_labeled_edges(&edges);
    engine.refine_locality();
    let mut server = QueryServer::new(
        Box::new(engine),
        ServerConfig {
            cache,
            pricing: config,
            optimize: true,
            plan_override: Some(rpq::PlanStrategy::Bidirectional),
        },
    );
    let mut fold = Fold::new();
    for request in request_log(&model) {
        let response = server.execute_next(request);
        fold.word(u64::from(response.id.client.0));
        fold.word(response.id.seq);
        fold.word(response.at);
        match &response.body {
            ResponseBody::Query { results, stats, cache } => {
                fold.word(match cache {
                    CacheOutcome::Hit => 1,
                    CacheOutcome::Miss => 2,
                    CacheOutcome::Bypass => 3,
                    CacheOutcome::Collapsed => 4,
                });
                fold.word(results.len() as u64);
                for row in results {
                    fold.word(row.len() as u64);
                    for node in row {
                        fold.word(node.0);
                    }
                }
                fold.query_stats(stats);
            }
            ResponseBody::Update { stats, invalidated } => {
                fold.word(5);
                fold.timeline(&stats.timeline);
                fold.word(stats.requested as u64);
                fold.word(stats.applied as u64);
                fold.word(*invalidated as u64);
            }
        }
    }
    Golden {
        responses: fold.0,
        totals: totals_words(&server.totals()),
        cache: server
            .cache_stats()
            .map(|c| [c.hits, c.misses, c.insertions, c.invalidated, c.evictions]),
    }
}

/// The four servers, in the order the constants below are listed.
fn servers() -> [(&'static str, Option<CacheConfig>); 4] {
    let with = |mode, capacity| Some(CacheConfig { mode, capacity });
    [
        ("no-cache", None),
        ("cost-exact", with(ConsistencyMode::CostExact, CacheConfig::default().capacity)),
        ("row-exact", with(ConsistencyMode::RowExact, CacheConfig::default().capacity)),
        ("row-exact, capacity 2", with(ConsistencyMode::RowExact, 2)),
    ]
}

#[test]
fn every_cache_mode_serves_the_pinned_bits() {
    let got: Vec<Golden> = servers().into_iter().map(|(_, cache)| replay(cache)).collect();
    if std::env::var_os("SERVE_GOLDEN_PRINT").is_some() {
        println!("{got:#x?}");
    }
    let want = pinned();
    for (((name, _), got), want) in servers().iter().zip(&got).zip(&want) {
        assert_eq!(got, want, "{name}: served bits moved");
    }
}

#[test]
fn the_log_exercises_every_outcome() {
    // Guards the log itself: the pinned constants only mean something if
    // the replay hits, misses, collapses, invalidates and evicts.
    let [_, cost, row, tiny] = pinned();
    let (no_cache, cost_cache) = (pinned()[0].totals, cost.cache.expect("cost-exact caches"));
    assert!(no_cache[6] > 0, "no same-timestamp collapse");
    assert!(no_cache[11] > 0, "no shadow run");
    assert!(cost_cache[0] > 0 && cost_cache[3] > 0, "cost-exact never hit or invalidated");
    assert!(row.cache.expect("row-exact caches")[0] > cost_cache[0], "rows shared nothing");
    assert!(tiny.cache.expect("row-exact caches")[4] > 0, "the two-entry cache never evicted");
}

fn pinned() -> [Golden; 4] {
    [
        Golden {
            responses: 0x8d11_f53b_60db_cf43,
            totals: [
                0x48,
                0xc,
                0x4153_1452_cde3_53f8,
                0x40ac_91b6_c8b4_3958,
                0x4135_0e50_00c4_9ba6,
                0x5354,
                0xc,
                0x3c,
                0x0,
                0x81c9,
                0x81c9,
                0x3c,
                0x0,
                0x4152_d79d_b624_dd2f,
                0x415d_57fb_8df3_b646,
            ],
            cache: None,
        },
        Golden {
            responses: 0x7f24_34e8_c000_c183,
            totals: [
                0x48,
                0xc,
                0x4152_574b_f645_a1cb,
                0x40b3_2124_9ba5_e354,
                0x4138_026b_5f3b_645a,
                0x5354,
                0xa,
                0x38,
                0x0,
                0x7ba4,
                0x7ba4,
                0x38,
                0x0,
                0x4152_1a96_de87_2b02,
                0x415c_5cb5_9883_126f,
            ],
            cache: Some([0x6, 0x38, 0x38, 0x32, 0x0]),
        },
        Golden {
            responses: 0x1759_23bc_2e90_8331,
            totals: [
                0x48,
                0xc,
                0x415b_842f_f22d_0e56,
                0x40da_63a3_4395_8106,
                0x4156_2643_fa5e_353f,
                0x5354,
                0x8,
                0x29,
                0x0,
                0x68f1,
                0x68f1,
                0xad,
                0x0,
                0x415b_477a_da6e_978d,
                0x4171_b2ac_604d_d2f2,
            ],
            cache: Some([0xd9, 0xad, 0xad, 0x8b, 0x0]),
        },
        Golden {
            responses: 0x1adb_c946_6614_0f76,
            totals: [
                0x48,
                0xc,
                0x4163_b964_0b5c_28f6,
                0x40ac_91b6_c8b4_3958,
                0x4144_6f28_80e5_6042,
                0x5354,
                0xc,
                0x3b,
                0x0,
                0x81c0,
                0x81c0,
                0x16e,
                0x0,
                0x4163_9b09_7f7c_ed91,
                0x417d_eee5_965e_353f,
            ],
            cache: Some([0x0, 0x16e, 0x16e, 0x10, 0x15c]),
        },
    ]
}
