//! The sequential serving core: one engine, one cache, one totally ordered
//! request log.
//!
//! [`QueryServer::execute`] is the entire serving semantics; everything the
//! concurrent session layer (`crate::session`) adds is *delivering* requests
//! to this function in a deterministic order. Keeping the semantics
//! single-threaded is what makes the serving layer testable: the
//! cache-consistency property tests replay a request log through two
//! `QueryServer`s (cache on / cache off) and compare responses bit for bit.

use crate::cache::{CacheConfig, CacheKey, CacheStats, ConsistencyMode, ResultCache};
use crate::request::{CacheOutcome, Request, RequestId, RequestKind, Response, ResponseBody};
use graph_store::NodeId;
use moctopus::{GraphEngine, MoctopusConfig, QueryStats};
use pim_sim::{PimSystem, SimTime};
use std::borrow::Cow;
use std::collections::HashMap;

/// Host instructions charged per cache probe (hash the key, compare the
/// expression tree and source batch on a hit). Part of the serving cost
/// model documented in SERVING.md §4.
const CACHE_PROBE_INSTRUCTIONS: u64 = 400;

/// Bytes per result entry streamed out of the cache on a hit (one node id),
/// matching the engines' reduction-phase accounting.
const RESULT_ENTRY_BYTES: u64 = 8;

/// Serving-layer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Result-cache configuration; `None` disables caching entirely (every
    /// query executes on the engine).
    pub cache: Option<CacheConfig>,
    /// The cost model used to price cache probes and hit streaming (host-side
    /// parameters only). Use the same config the engine was built with so
    /// hit overhead and engine time share one clock.
    pub pricing: MoctopusConfig,
    /// Run the cost-based RPQ plan optimizer (`rpq::optimizer`) on every
    /// query execution. Plan choice is observable **only** in the
    /// [`ServeTotals`] planning counters and [`QueryServer::last_plan`]:
    /// served results, stats, dependency footprints, and cache behaviour are
    /// bit-identical with the optimizer on or off (the plan-invariance
    /// contract; enforced by `tests/plan_invariance.rs`). Default `false`.
    pub optimize: bool,
    /// Force every executing query's shadow run to use this strategy instead
    /// of whatever the optimizer chose (a `Forward` override disables shadow
    /// runs entirely). A differential-testing knob: the executed-plan legs of
    /// `tests/plan_invariance.rs` replay one request log under forced
    /// forward / bidirectional / split strategies and require bit-identical
    /// responses. Independent of [`ServerConfig::optimize`]. Default `None`.
    pub plan_override: Option<rpq::PlanStrategy>,
}

impl Default for ServerConfig {
    /// Caching on (default [`CacheConfig`]), paper-default pricing, no
    /// optimizer, no plan override.
    fn default() -> Self {
        ServerConfig {
            cache: Some(CacheConfig::default()),
            pricing: MoctopusConfig::default(),
            optimize: false,
            plan_override: None,
        }
    }
}

/// Aggregate simulated-time accounting of one server's lifetime.
///
/// All fields accumulate in execution order, so — like the engines' stats —
/// they are byte-identical for identical request logs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeTotals {
    /// Query requests served.
    pub queries: u64,
    /// Update requests served.
    pub updates: u64,
    /// Simulated time spent executing on the engine (query misses/bypasses
    /// plus all updates).
    pub engine_time: SimTime,
    /// Simulated overhead of serving cache hits (probe + result streaming).
    pub hit_time: SimTime,
    /// Simulated engine time the cache hits avoided (the cached executions'
    /// latencies).
    pub avoided_time: SimTime,
    /// Total matched (query, destination) pairs across all query responses.
    pub matched_pairs: u64,
    /// Query requests served from the miss-collapse window (identical query
    /// already executed at the same logical timestamp; SERVING.md §6).
    pub collapsed: u64,
    /// Query executions the plan optimizer ran for (0 unless
    /// [`ServerConfig::optimize`] is set; hits and collapses are not
    /// planned — there is nothing to execute).
    pub planned: u64,
    /// Of [`ServeTotals::planned`], how many chose a non-forward strategy.
    pub plan_nonforward: u64,
    /// Summed simulated cost of the baseline forward plans across all
    /// planned executions (edge-traversal units; see `rpq::optimizer`).
    pub plan_forward_cost: u64,
    /// Summed simulated cost of the chosen plans; `<= plan_forward_cost`
    /// always, because forward is always a candidate and wins ties.
    pub plan_chosen_cost: u64,
    /// Non-forward plans that actually *executed* as instrumented shadow
    /// runs alongside the canonical forward execution (the served bytes are
    /// always the forward answer; the shadow exists to measure the chosen
    /// plan's real simulated cost and to differentially check its answers).
    pub shadow_runs: u64,
    /// Shadow runs whose answers differed from the canonical forward
    /// answers. The planned-execution contract says this stays 0 forever;
    /// it is counted rather than asserted so a violation in production
    /// serving degrades to a visible diagnostic, not a crash.
    pub shadow_mismatches: u64,
    /// Summed simulated latency of the canonical forward executions that
    /// had a shadow run — the measured baseline of the executed comparison.
    pub shadow_forward_time: SimTime,
    /// Summed simulated latency of the shadow (chosen-plan) executions.
    pub shadow_chosen_time: SimTime,
}

impl ServeTotals {
    /// End-to-end simulated serving time: engine work plus hit overhead.
    pub fn served_time(&self) -> SimTime {
        self.engine_time + self.hit_time
    }

    /// Net simulated time the cache saved: avoided engine time minus the
    /// overhead of serving the hits (nanoseconds; negative if overhead won).
    pub fn saved_nanos(&self) -> f64 {
        self.avoided_time.as_nanos() - self.hit_time.as_nanos()
    }
}

/// A serving core: an engine behind a request log, with an optional
/// update-consistent result cache.
///
/// # Examples
///
/// ```
/// use graph_store::NodeId;
/// use moctopus::{MoctopusConfig, MoctopusSystem};
/// use moctopus_server::{QueryServer, Request, RequestKind, ServerConfig};
///
/// let mut engine = MoctopusSystem::new(MoctopusConfig::small_test());
/// let config = ServerConfig { pricing: *engine.config(), ..ServerConfig::default() };
/// let mut server = QueryServer::new(Box::new(engine), config);
///
/// let insert = RequestKind::Insert {
///     edges: (0..8u64).map(|i| (NodeId(i), NodeId(i + 1), graph_store::Label(1))).collect(),
/// };
/// server.execute_next(Request { at: 1, kind: insert });
/// let query = RequestKind::Query {
///     expr: rpq::parser::parse("1/1").unwrap(),
///     sources: vec![NodeId(0)],
/// };
/// let miss = server.execute_next(Request { at: 2, kind: query.clone() });
/// let hit = server.execute_next(Request { at: 3, kind: query });
/// assert_eq!(miss.results(), hit.results());
/// assert_eq!(hit.cache_outcome(), Some(moctopus_server::CacheOutcome::Hit));
/// ```
pub struct QueryServer {
    engine: Box<dyn GraphEngine + Send>,
    cache: Option<ResultCache>,
    /// Cost model for the serving layer's own work (cache probes, hit
    /// streaming); host-side parameters only, never mutated.
    pricer: PimSystem,
    totals: ServeTotals,
    /// The miss-collapse window: answers produced by engine executions at one
    /// logical timestamp, so identical queries arriving at the same `at`
    /// execute once (SERVING.md §6). Cleared by *any* update and by the first
    /// request at a different timestamp — which is what makes serving a
    /// collapsed answer provably fresh: the graph cannot have changed since
    /// the execution it reuses. Works with or without the result cache.
    window: Option<CollapseWindow>,
    /// Sequence counter for [`QueryServer::execute_next`]'s synthetic ids.
    next_seq: u64,
    /// Whether query executions run the cost-based plan optimizer
    /// ([`ServerConfig::optimize`]).
    optimize: bool,
    /// Forced shadow strategy ([`ServerConfig::plan_override`]).
    plan_override: Option<rpq::PlanStrategy>,
    /// The optimizer's choice for the most recent planned execution.
    last_plan: Option<rpq::PlanChoice>,
}

/// See the `window` field of `QueryServer`.
struct CollapseWindow {
    at: u64,
    answers: HashMap<CacheKey, (Vec<Vec<NodeId>>, QueryStats)>,
}

impl std::fmt::Debug for QueryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryServer")
            .field("engine", &self.engine.name())
            .field("cache", &self.cache)
            .field("totals", &self.totals)
            .finish_non_exhaustive()
    }
}

impl QueryServer {
    /// Creates a server over an engine.
    pub fn new(engine: Box<dyn GraphEngine + Send>, config: ServerConfig) -> Self {
        QueryServer {
            engine,
            cache: config.cache.map(ResultCache::new),
            pricer: PimSystem::new(config.pricing.pim),
            totals: ServeTotals::default(),
            window: None,
            next_seq: 0,
            optimize: config.optimize,
            plan_override: config.plan_override,
            last_plan: None,
        }
    }

    /// Executes one request under a caller-chosen id (the session layer uses
    /// real client ids; tests and single-caller uses can synthesize them).
    ///
    /// This function is the serving semantics: requests must arrive in the
    /// intended total order — the concurrent session layer guarantees
    /// `(at, client, seq)` order via `moctopus_runtime::SequencedQueue`.
    pub fn execute(&mut self, id: RequestId, request: Request) -> Response {
        let at = request.at;
        let body = match request.kind {
            RequestKind::Query { expr, sources } => self.serve_query(at, expr, sources),
            RequestKind::Insert { edges } => self.serve_update(&edges, true),
            RequestKind::Delete { edges } => self.serve_update(&edges, false),
        };
        Response { id, at, body }
    }

    /// [`QueryServer::execute`] with a synthesized id (client 0, running
    /// sequence) — the single-caller convenience used by examples and tests.
    pub fn execute_next(&mut self, request: Request) -> Response {
        let id = RequestId { client: crate::request::ClientId(0), seq: self.next_seq };
        self.next_seq += 1;
        self.execute(id, request)
    }

    fn serve_query(&mut self, at: u64, expr: rpq::RpqExpr, sources: Vec<NodeId>) -> ResponseBody {
        self.totals.queries += 1;
        // Normalization is part of the query pipeline (with or without a
        // cache), so spelling variants of one query share a cache key *and*
        // an execution shape.
        let expr = expr.normalize();

        // One key construction per request: probed by reference (collapse
        // window, then cache), and finally moved into the collapse window.
        let key = CacheKey::new(expr, sources);

        // Miss collapsing: an identical query already executed at this exact
        // logical timestamp with no update in between — reuse its answer.
        // Freshness is structural: the window only ever holds answers from
        // the current `at` and is cleared by every update, so the graph is
        // provably unchanged since the execution being reused.
        match &mut self.window {
            Some(window) if window.at == at => {
                if let Some((results, stats)) = window.answers.get(&key) {
                    let (results, stats) = (results.clone(), *stats);
                    let hit_cost = self.hit_cost(&stats);
                    self.totals.hit_time += hit_cost;
                    self.totals.avoided_time += stats.latency();
                    self.totals.matched_pairs += stats.matched_pairs as u64;
                    self.totals.collapsed += 1;
                    return ResponseBody::Query { results, stats, cache: CacheOutcome::Collapsed };
                }
            }
            _ => self.window = Some(CollapseWindow { at, answers: HashMap::new() }),
        }

        // The batch's cache keys. Under `RowExact` every source is its own
        // *(expression, source)* key, so overlapping-but-unequal batches
        // share rows and a duplicate source later in the batch hits the row
        // its first occurrence just filled; otherwise the whole batch is one
        // key (with no cache, one key executed untracked and never probed).
        let per_row =
            self.cache.as_ref().is_some_and(|c| c.config().mode == ConsistencyMode::RowExact);
        let parts = if per_row { key.sources().len() } else { 1 };
        let mut results = Vec::with_capacity(if per_row { parts } else { 0 });
        let mut stats = QueryStats::default();
        let mut executed = false;
        for i in 0..parts {
            let part = if per_row {
                Cow::Owned(CacheKey::new(key.expr().clone(), vec![key.sources()[i]]))
            } else {
                Cow::Borrowed(&key)
            };
            let hit = self.cache.as_mut().and_then(|c| c.lookup(&part));
            let (part_results, part_stats) = match hit {
                Some((part_results, part_stats)) => {
                    let hit_cost = self.hit_cost(&part_stats);
                    self.totals.hit_time += hit_cost;
                    self.totals.avoided_time += part_stats.latency();
                    (part_results, part_stats)
                }
                None => {
                    if !executed {
                        // Plan once per executing query, against the full
                        // batch, whatever its keys.
                        self.plan_query(&key);
                        executed = true;
                    }
                    let (part_results, part_stats, deps) = if self.cache.is_some() {
                        let (r, s, deps) =
                            self.engine.rpq_batch_tracked(part.expr(), part.sources());
                        (r, s, Some(deps))
                    } else {
                        let (r, s) = self.engine.rpq_batch(part.expr(), part.sources());
                        (r, s, None)
                    };
                    self.run_shadow(&part, &part_results, &part_stats);
                    self.totals.engine_time += part_stats.latency();
                    if let (Some(cache), Some(deps)) = (self.cache.as_mut(), deps) {
                        let alphabet = part.expr().label_alphabet();
                        let entry = part_results.clone();
                        cache.insert(part.into_owned(), entry, part_stats, deps, alphabet);
                    }
                    (part_results, part_stats)
                }
            };
            self.totals.matched_pairs += part_stats.matched_pairs as u64;
            if per_row {
                // A response's stats are the batch-order fold of its rows'.
                results.extend(part_results);
                stats.merge(&part_stats);
            } else {
                // Returned as is: folding into the default would turn a
                // `-0.0` time into `+0.0`.
                (results, stats) = (part_results, part_stats);
            }
        }
        let outcome = match (&self.cache, executed) {
            (None, _) => CacheOutcome::Bypass,
            (Some(_), true) => CacheOutcome::Miss,
            (Some(_), false) => CacheOutcome::Hit,
        };
        // Only executions enter the collapse window (opened for this `at` by
        // the collapse check above): a hit's duplicates hit the cache too.
        if executed {
            let window =
                self.window.get_or_insert_with(|| CollapseWindow { at, answers: HashMap::new() });
            window.answers.insert(key, (results.clone(), stats));
        }
        ResponseBody::Query { results, stats, cache: outcome }
    }

    /// Runs the cost-based plan optimizer for a query about to execute, when
    /// [`ServerConfig::optimize`] is set.
    ///
    /// The choice feeds the [`ServeTotals`] planning counters and
    /// [`QueryServer::last_plan`] only — execution below stays the canonical
    /// forward NFA product, so everything the client can observe in a
    /// response is bit-identical with the optimizer on or off. The statistics
    /// come from [`GraphEngine::label_stats`], maintained incrementally by
    /// the engine's stores on every labelled update.
    fn plan_query(&mut self, key: &CacheKey) {
        if !self.optimize {
            return;
        }
        let stats = self.engine.label_stats();
        let choice = rpq::optimizer::choose_plan(key.expr(), &stats, key.sources().len());
        self.totals.planned += 1;
        self.totals.plan_forward_cost =
            self.totals.plan_forward_cost.saturating_add(choice.forward_cost);
        self.totals.plan_chosen_cost =
            self.totals.plan_chosen_cost.saturating_add(choice.chosen_cost);
        if choice.strategy != rpq::PlanStrategy::Forward {
            self.totals.plan_nonforward += 1;
        }
        self.last_plan = Some(choice);
    }

    /// The strategy the current execution's shadow run should use, if any:
    /// the test override when set, otherwise this query's optimizer choice
    /// (`Forward` either way means no shadow — there is nothing to compare).
    fn shadow_strategy(&self) -> Option<rpq::PlanStrategy> {
        let strategy = match self.plan_override {
            Some(s) => s,
            None if self.optimize => self.last_plan?.strategy,
            None => return None,
        };
        (strategy != rpq::PlanStrategy::Forward).then_some(strategy)
    }

    /// Executes the chosen non-forward plan as an instrumented shadow of a
    /// canonical forward execution that just produced `forward_results`.
    ///
    /// The shadow's answers are byte-compared against the forward answers
    /// (drift increments [`ServeTotals::shadow_mismatches`], which must stay
    /// 0); its simulated latency lands in the [`ServeTotals`] shadow
    /// counters, which is how a *priced* optimizer win becomes a *measured*
    /// execution win in the serving telemetry. Nothing the client observes —
    /// results, stats, cache behaviour, dependency footprints — comes from
    /// the shadow; the engine's `rpq_batch_planned` contract additionally
    /// guarantees the shadow cannot perturb any later canonical charge.
    fn run_shadow(
        &mut self,
        key: &CacheKey,
        forward_results: &[Vec<NodeId>],
        forward_stats: &QueryStats,
    ) {
        let Some(strategy) = self.shadow_strategy() else { return };
        let (results, stats) = self.engine.rpq_batch_planned(key.expr(), key.sources(), strategy);
        self.totals.shadow_runs += 1;
        if results != forward_results {
            self.totals.shadow_mismatches += 1;
        }
        self.totals.shadow_forward_time += forward_stats.latency();
        self.totals.shadow_chosen_time += stats.latency();
    }

    fn serve_update(
        &mut self,
        edges: &[(graph_store::NodeId, graph_store::NodeId, graph_store::Label)],
        insert: bool,
    ) -> ResponseBody {
        self.totals.updates += 1;
        // Any update ends the collapse window, even mid-timestamp: a later
        // identical query must re-execute against the changed graph.
        self.window = None;
        // Always tracked (tracking moves no charge); the footprint only has a
        // consumer when a cache exists.
        let (stats, footprint) = if insert {
            self.engine.insert_labeled_edges_tracked(edges)
        } else {
            self.engine.delete_labeled_edges_tracked(edges)
        };
        let invalidated = self.cache.as_mut().map_or(0, |cache| cache.invalidate(&footprint));
        self.totals.engine_time += stats.latency();
        ResponseBody::Update { stats, invalidated }
    }

    /// The simulated cost of serving one cache hit: a host-side probe plus
    /// streaming the cached result entries, priced by the same host
    /// parameters the engines use (SERVING.md §4).
    fn hit_cost(&self, stats: &moctopus::QueryStats) -> SimTime {
        self.pricer.host_instructions_cost(CACHE_PROBE_INSTRUCTIONS)
            + self.pricer.host_sequential_read_cost(stats.matched_pairs as u64 * RESULT_ENTRY_BYTES)
    }

    /// The engine's display name.
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// Aggregate simulated-time accounting so far.
    pub fn totals(&self) -> ServeTotals {
        self.totals
    }

    /// The optimizer's [`rpq::PlanChoice`] for the most recent planned query
    /// execution (`None` before any execution or when
    /// [`ServerConfig::optimize`] is off). Diagnostic only — never part of a
    /// response.
    pub fn last_plan(&self) -> Option<rpq::PlanChoice> {
        self.last_plan
    }

    /// Cache counters, if caching is enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(ResultCache::stats)
    }

    /// Resident cache entries, if caching is enabled.
    pub fn cache_len(&self) -> Option<usize> {
        self.cache.as_ref().map(ResultCache::len)
    }

    /// Shared access to the engine, for read-only observables
    /// (`edge_count`, `threads`, …).
    pub fn engine_ref(&self) -> &(dyn GraphEngine + Send) {
        &*self.engine
    }

    /// Mutable access to the engine (tests/benches; not part of the serving
    /// path — mutating the graph around the cache invalidates nothing, so
    /// use requests for updates).
    pub fn engine_mut(&mut self) -> &mut (dyn GraphEngine + Send) {
        &mut *self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{CacheOutcome, RequestKind};
    use graph_store::{Label, NodeId};
    use moctopus::{MoctopusConfig, MoctopusSystem};

    fn ring_insert(n: u64) -> RequestKind {
        RequestKind::Insert {
            edges: (0..n).map(|i| (NodeId(i), NodeId((i + 1) % n), Label(1))).collect(),
        }
    }

    fn query(text: &str, sources: &[u64]) -> RequestKind {
        RequestKind::Query {
            expr: rpq::parser::parse(text).expect("test query parses"),
            sources: sources.iter().copied().map(NodeId).collect(),
        }
    }

    fn server(cache: Option<CacheConfig>) -> QueryServer {
        let cfg = MoctopusConfig::small_test();
        QueryServer::new(
            Box::new(MoctopusSystem::new(cfg)),
            ServerConfig { cache, pricing: cfg, ..ServerConfig::default() },
        )
    }

    #[test]
    fn hits_serve_identical_results_and_stats() {
        let mut s = server(Some(CacheConfig::default()));
        s.execute_next(Request { at: 1, kind: ring_insert(16) });
        let miss = s.execute_next(Request { at: 2, kind: query("1/1", &[0, 5]) });
        let hit = s.execute_next(Request { at: 3, kind: query("1/1", &[0, 5]) });
        assert_eq!(miss.cache_outcome(), Some(CacheOutcome::Miss));
        assert_eq!(hit.cache_outcome(), Some(CacheOutcome::Hit));
        match (&miss.body, &hit.body) {
            (
                ResponseBody::Query { results: a, stats: sa, .. },
                ResponseBody::Query { results: b, stats: sb, .. },
            ) => {
                assert_eq!(a, b);
                assert_eq!(sa, sb);
                assert_eq!(a[0], vec![NodeId(2)]);
            }
            _ => panic!("expected query responses"),
        }
        let totals = s.totals();
        assert_eq!(totals.queries, 2);
        assert!(totals.hit_time > SimTime::ZERO);
        assert!(totals.saved_nanos() > 0.0, "a hit must cost less than re-execution");
        assert_eq!(s.cache_stats().unwrap().hits, 1);
    }

    #[test]
    fn spelling_variants_share_one_cache_entry() {
        let mut s = server(Some(CacheConfig::default()));
        s.execute_next(Request { at: 1, kind: ring_insert(16) });
        let a = s.execute_next(Request { at: 2, kind: query(".{2}", &[3]) });
        let b = s.execute_next(Request { at: 3, kind: query("./.{0}/.", &[3]) });
        assert_eq!(a.cache_outcome(), Some(CacheOutcome::Miss));
        assert_eq!(b.cache_outcome(), Some(CacheOutcome::Hit), "normalized keys must collide");
        assert_eq!(a.results(), b.results());
    }

    #[test]
    fn relevant_updates_invalidate_and_refill() {
        let mut s = server(Some(CacheConfig::default()));
        s.execute_next(Request { at: 1, kind: ring_insert(8) });
        s.execute_next(Request { at: 2, kind: query("1/1", &[0]) });
        // Deleting an edge on the query's path must invalidate the entry and
        // the next lookup must re-execute against the new graph.
        let del = s.execute_next(Request {
            at: 3,
            kind: RequestKind::Delete { edges: vec![(NodeId(1), NodeId(2), Label(1))] },
        });
        match del.body {
            ResponseBody::Update { invalidated, .. } => assert_eq!(invalidated, 1),
            _ => panic!("expected update response"),
        }
        let requery = s.execute_next(Request { at: 4, kind: query("1/1", &[0]) });
        assert_eq!(requery.cache_outcome(), Some(CacheOutcome::Miss));
        assert!(requery.results().unwrap()[0].is_empty(), "the 2-hop path is gone");
    }

    #[test]
    fn disabled_cache_bypasses_everything() {
        let mut s = server(None);
        s.execute_next(Request { at: 1, kind: ring_insert(8) });
        let a = s.execute_next(Request { at: 2, kind: query("1/1", &[0]) });
        let b = s.execute_next(Request { at: 3, kind: query("1/1", &[0]) });
        assert_eq!(a.cache_outcome(), Some(CacheOutcome::Bypass));
        assert_eq!(b.cache_outcome(), Some(CacheOutcome::Bypass));
        assert_eq!(s.cache_stats(), None);
        assert_eq!(s.totals().hit_time, SimTime::ZERO);
    }

    #[test]
    fn same_timestamp_duplicates_collapse_onto_one_execution() {
        // Even with no cache, identical queries at one logical timestamp
        // execute once; the duplicates reuse the first execution bit for bit.
        let mut s = server(None);
        s.execute_next(Request { at: 1, kind: ring_insert(16) });
        let first = s.execute_next(Request { at: 2, kind: query("1/1", &[0, 5]) });
        let second = s.execute_next(Request { at: 2, kind: query("1/1", &[0, 5]) });
        assert_eq!(first.cache_outcome(), Some(CacheOutcome::Bypass));
        assert_eq!(second.cache_outcome(), Some(CacheOutcome::Collapsed));
        match (&first.body, &second.body) {
            (
                ResponseBody::Query { results: a, stats: sa, .. },
                ResponseBody::Query { results: b, stats: sb, .. },
            ) => {
                assert_eq!(a, b);
                assert_eq!(sa, sb);
            }
            _ => panic!("expected query responses"),
        }
        assert_eq!(s.totals().collapsed, 1);
        // A later timestamp re-executes: the window does not outlive its `at`.
        let later = s.execute_next(Request { at: 3, kind: query("1/1", &[0, 5]) });
        assert_eq!(later.cache_outcome(), Some(CacheOutcome::Bypass));
    }

    #[test]
    fn updates_end_the_collapse_window_even_mid_timestamp() {
        let mut s = server(None);
        s.execute_next(Request { at: 1, kind: ring_insert(8) });
        let before = s.execute_next(Request { at: 2, kind: query("1/1", &[0]) });
        // Same `at`, but an update lands between the duplicates: the second
        // copy must re-execute against the changed graph.
        s.execute_next(Request {
            at: 2,
            kind: RequestKind::Delete { edges: vec![(NodeId(1), NodeId(2), Label(1))] },
        });
        let after = s.execute_next(Request { at: 2, kind: query("1/1", &[0]) });
        assert_eq!(after.cache_outcome(), Some(CacheOutcome::Bypass), "no stale collapse");
        assert_ne!(before.results(), after.results(), "the 2-hop path is gone");
        assert_eq!(s.totals().collapsed, 0);
    }

    #[test]
    fn row_mode_shares_rows_between_overlapping_batches() {
        let row_cache =
            Some(CacheConfig { capacity: 4096, mode: crate::cache::ConsistencyMode::RowExact });
        let mut s = server(row_cache);
        s.execute_next(Request { at: 1, kind: ring_insert(16) });
        let miss = s.execute_next(Request { at: 2, kind: query("1/1", &[0, 5, 9]) });
        assert_eq!(miss.cache_outcome(), Some(CacheOutcome::Miss));
        assert_eq!(s.cache_len(), Some(3), "one row per distinct source");

        // A *different* batch overlapping two of the three sources: both
        // overlapped rows hit, only the new source executes.
        let partial = s.execute_next(Request { at: 3, kind: query("1/1", &[5, 2, 0]) });
        assert_eq!(partial.cache_outcome(), Some(CacheOutcome::Miss), "one row still executed");
        assert_eq!(s.cache_stats().unwrap().hits, 2);
        assert_eq!(s.cache_len(), Some(4));

        // Full overlap in yet another order: a pure hit, assembled from rows.
        let hit = s.execute_next(Request { at: 4, kind: query("1/1", &[9, 0, 5]) });
        assert_eq!(hit.cache_outcome(), Some(CacheOutcome::Hit));
        let want: Vec<Vec<NodeId>> = vec![
            miss.results().unwrap()[2].clone(),
            miss.results().unwrap()[0].clone(),
            miss.results().unwrap()[1].clone(),
        ];
        assert_eq!(hit.results().unwrap(), want, "rows permute with the batch");
    }

    #[test]
    fn row_mode_answers_match_whole_batch_execution() {
        let row_cache =
            Some(CacheConfig { capacity: 4096, mode: crate::cache::ConsistencyMode::RowExact });
        let mut rows = server(row_cache);
        let mut plain = server(None);
        for s in [&mut rows, &mut plain] {
            s.execute_next(Request { at: 1, kind: ring_insert(24) });
        }
        for (at, sources) in [(2u64, vec![0u64, 3, 7]), (3, vec![7, 7, 1]), (4, vec![3, 0])] {
            let q = |srcs: &[u64]| query("1/(1|2)", srcs);
            let a = rows.execute_next(Request { at, kind: q(&sources) });
            let b = plain.execute_next(Request { at, kind: q(&sources) });
            assert_eq!(a.results(), b.results(), "row assembly must be invisible in answers");
        }
        // Duplicate source inside one batch: the second occurrence hits the
        // row the first occurrence filled (2 distinct rows + 1 hit at `at` 3,
        // then both rows of `at` 4 already resident).
        assert!(rows.cache_stats().unwrap().hits >= 3);
    }

    #[test]
    fn row_mode_invalidates_per_row() {
        let row_cache =
            Some(CacheConfig { capacity: 4096, mode: crate::cache::ConsistencyMode::RowExact });
        let mut s = server(row_cache);
        s.execute_next(Request { at: 1, kind: ring_insert(8) });
        s.execute_next(Request { at: 2, kind: query("1/1", &[0, 4]) });
        assert_eq!(s.cache_len(), Some(2));
        // Deleting the edge 1→2 can only change answers that reach node 1 or
        // 2 — the row for source 4 (answer {6}) must survive.
        let del = s.execute_next(Request {
            at: 3,
            kind: RequestKind::Delete { edges: vec![(NodeId(1), NodeId(2), Label(1))] },
        });
        match del.body {
            ResponseBody::Update { invalidated, .. } => assert_eq!(invalidated, 1),
            _ => panic!("expected update response"),
        }
        let requery = s.execute_next(Request { at: 4, kind: query("1/1", &[0, 4]) });
        assert_eq!(requery.cache_outcome(), Some(CacheOutcome::Miss), "source 0's row refills");
        assert_eq!(s.cache_stats().unwrap().hits, 1, "source 4's row survived and hit");
        assert!(requery.results().unwrap()[0].is_empty());
        assert_eq!(requery.results().unwrap()[1], vec![NodeId(6)]);
    }
}
