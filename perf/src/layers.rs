//! The one adapter between the benchmark and the measured workspace.
//!
//! Every call the benchmark makes into a library crate is in this file: input
//! generation, building and driving each workload's stack, answer checking,
//! and the replay legs that time one layer's public functions on the
//! workload's own inputs. The rest of the harness sees plain numbers and the
//! two id types re-exported here, so a change to the engines' entry points
//! needs a companion change in this file only.
//!
//! [`TracedEngine`] is the only `GraphEngine` the harness implements. It
//! forwards every method and records a span per call; wrapping an engine in
//! it at each boundary (`QueryServer -> [T] -> DurableEngine -> [T] ->
//! MoctopusSystem`) is how layers are measured from outside.

pub use graph_store::{Label, NodeId};

use crate::stats::median;
use crate::trace::{spanned, Counts, SharedTracer};
use crate::workloads::{Op, Workload};
use graph_partition::{GreedyAdaptivePartitioner, PartitionMetrics, StreamingPartitioner};
use graph_store::{
    AdjacencyGraph, HeterogeneousStorage, LabelStatsSnapshot, LocalGraphStorage, SnapshotState,
    WalOp, WalRecord, WalWriter,
};
use moctopus::{
    GraphEngine, HostBaseline, MoctopusConfig, MoctopusSystem, PimHashSystem, QueryDeps,
    QueryStats, UpdateFootprint, UpdateStats,
};
use moctopus_bench::{HarnessOptions, RpqWorkload, TraceWorkload};
use moctopus_runtime::{SequencedQueue, WorkerPool};
use moctopus_server::{
    CacheConfig, CacheKey, ClientId, ConcurrentServer, ConsistencyMode, DurabilityOptions,
    DurableEngine, QueryServer, Request, RequestId, RequestKind, ResponseBody, ResultCache,
    ServerConfig, ShardPlan, ShardedEngine,
};
use pim_sim::Phase;
use rpq::{PlanStrategy, ReferenceEvaluator, RpqExpr};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A labelled edge.
pub type Edge = (NodeId, NodeId, Label);

/// `serve_write`'s flush policy, fixed and stated: fsync every 8 WAL records,
/// snapshot-rotate every 256.
pub const DURABILITY: DurabilityOptions = DurabilityOptions { sync_every: 8, rotate_every: 256 };

/// `serve_write`'s cache: per-row entries, fewer than the pool's 1024 rows.
const WRITE_CACHE: CacheConfig = CacheConfig { capacity: 512, mode: ConsistencyMode::RowExact };

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// A workload's generated input: everything derived from the seed that is not
/// an op.
pub struct Input {
    /// Engine configuration, worker threads pinned per workload.
    pub config: MoctopusConfig,
    /// The ingestion stream (`khop` carries `Label::ANY`).
    pub edges: Vec<Edge>,
    /// The harness's own copy of the graph; every update the harness issues
    /// is applied here too, and answers are checked against it.
    pub mirror: AdjacencyGraph,
    /// The node universe, ascending.
    pub nodes: Vec<NodeId>,
    /// Sources worth pinning into query pools (rare-closure chain heads).
    pub pinned: Vec<NodeId>,
}

/// Seed of every generated graph. The graphs are the benchmark's fixed data
/// sets, as the paper's traces are; a run's `--seed` draws the ops over them.
/// (Graphs drawn per seed differ enough in cache behaviour to move host time
/// by 5 % between seeds, which would hide a regression of that size.)
const DATASET_SEED: u64 = 42;

/// Generates a workload's input with the repository's own generators.
pub fn generate_input(workload: Workload, smoke: bool) -> Input {
    let sizes = workload.sizes(smoke);
    let options = HarnessOptions {
        scale: sizes.scale,
        seed: DATASET_SEED,
        batch: 64,
        threads: workload.threads(),
        ..HarnessOptions::default()
    };
    let (mirror, edges) = match workload {
        Workload::KHop => {
            let trace = TraceWorkload::generate(12, &options);
            let edges = trace.edges.iter().map(|&(s, d)| (s, d, Label::ANY)).collect();
            (trace.graph, edges)
        }
        Workload::Closure | Workload::ServeWrite => {
            let w = RpqWorkload::power_law(&options);
            (w.graph, w.edges)
        }
        Workload::ServeRead => {
            let w = RpqWorkload::rare_closure(&options);
            (w.graph, w.edges)
        }
    };
    let mut nodes: Vec<NodeId> = mirror.nodes().collect();
    nodes.sort_unstable();
    let pinned = if workload == Workload::ServeRead { chain_heads(&mirror) } else { Vec::new() };
    Input { config: options.system_config(), edges, mirror, nodes, pinned }
}

/// Heads of the label-1 chains that end in a label-8 edge: the sources whose
/// rare-tail closures (`1+/8`) have an answer.
fn chain_heads(graph: &AdjacencyGraph) -> Vec<NodeId> {
    let mut heads: Vec<NodeId> = graph
        .edges()
        .filter(|&(_, _, l)| l == Label(8))
        .map(|(tail, _, _)| {
            let mut at = tail;
            // Chains are short and acyclic; the bound only guards a generator change.
            for _ in 0..64 {
                match graph.in_neighbors(at).iter().find(|&&(_, l)| l == Label(1)) {
                    Some(&(prev, _)) => at = prev,
                    None => break,
                }
            }
            at
        })
        .collect();
    heads.sort_unstable();
    heads.dedup();
    heads
}

// ---------------------------------------------------------------------------
// TracedEngine
// ---------------------------------------------------------------------------

/// Layer name of spans recorded around the base engine.
pub const CORE: &str = "core";
/// Layer name of spans recorded around `DurableEngine`.
pub const DURABLE: &str = "durable";
/// Layer name of spans recorded around `QueryServer::execute`.
pub const SERVER: &str = "server";
/// Layer name of spans recorded around the expression front end.
pub const RPQ: &str = "rpq";

fn timeline_counts(timeline: &pim_sim::Timeline) -> Counts {
    let mut counts = Counts::default();
    for (slot, phase) in Phase::ALL.into_iter().enumerate() {
        counts.sim_ns[slot] = timeline.time(phase).as_nanos();
    }
    counts.ipc_bytes = timeline.transfers.inter_pim_bytes;
    counts.cpc_bytes = timeline.transfers.cpc_bytes();
    counts.ipc_messages = timeline.transfers.inter_pim_messages;
    counts
}

fn query_counts(stats: &QueryStats) -> Counts {
    Counts {
        expansions: stats.expansions as u64,
        matched_pairs: stats.matched_pairs as u64,
        ..timeline_counts(&stats.timeline)
    }
}

fn update_counts(stats: &UpdateStats) -> Counts {
    Counts { edges_applied: stats.applied as u64, ..timeline_counts(&stats.timeline) }
}

/// A `GraphEngine` that forwards every call to the engine it wraps and
/// records a span around it. Only the wrapper directly around the base
/// engine (layer [`CORE`]) copies the reported statistics into the span, so
/// simulated quantities are counted once however many wrappers a call
/// crosses.
pub struct TracedEngine {
    inner: Box<dyn GraphEngine + Send>,
    layer: &'static str,
    tracer: SharedTracer,
}

impl TracedEngine {
    /// Wraps `inner`; spans are recorded under `layer`.
    pub fn new(
        inner: Box<dyn GraphEngine + Send>,
        layer: &'static str,
        tracer: SharedTracer,
    ) -> Self {
        TracedEngine { inner, layer, tracer }
    }

    fn call<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut (dyn GraphEngine + Send)) -> T,
        counts: impl FnOnce(&T) -> Counts,
    ) -> T {
        let id = self.tracer.lock().expect("tracer poisoned").enter(self.layer, name);
        let out = f(&mut *self.inner);
        let counts = if self.layer == CORE { counts(&out) } else { Counts::default() };
        self.tracer.lock().expect("tracer poisoned").exit(id, counts);
        out
    }

    fn observe<T>(&self, name: &'static str, f: impl FnOnce(&(dyn GraphEngine + Send)) -> T) -> T {
        let id = self.tracer.lock().expect("tracer poisoned").enter(self.layer, name);
        let out = f(&*self.inner);
        self.tracer.lock().expect("tracer poisoned").exit(id, Counts::default());
        out
    }
}

impl GraphEngine for TracedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> UpdateStats {
        self.call("insert_edges", |e| e.insert_edges(edges), update_counts)
    }

    fn delete_edges(&mut self, edges: &[(NodeId, NodeId)]) -> UpdateStats {
        self.call("delete_edges", |e| e.delete_edges(edges), update_counts)
    }

    fn insert_labeled_edges(&mut self, edges: &[Edge]) -> UpdateStats {
        self.call("insert_labeled_edges", |e| e.insert_labeled_edges(edges), update_counts)
    }

    fn delete_labeled_edges(&mut self, edges: &[Edge]) -> UpdateStats {
        self.call("delete_labeled_edges", |e| e.delete_labeled_edges(edges), update_counts)
    }

    fn k_hop_batch(&mut self, sources: &[NodeId], k: usize) -> (Vec<Vec<NodeId>>, QueryStats) {
        self.call("k_hop_batch", |e| e.k_hop_batch(sources, k), |out| query_counts(&out.1))
    }

    fn rpq_batch(&mut self, expr: &RpqExpr, sources: &[NodeId]) -> (Vec<Vec<NodeId>>, QueryStats) {
        self.call("rpq_batch", |e| e.rpq_batch(expr, sources), |out| query_counts(&out.1))
    }

    fn rpq_batch_planned(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
        strategy: PlanStrategy,
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        // The serving tier only ever asks for a non-forward plan as a shadow
        // of the forward run it serves, so the two get different span names.
        let name = if strategy == PlanStrategy::Forward {
            "rpq_batch_planned"
        } else {
            PLANNED_NONFORWARD
        };
        self.call(
            name,
            |e| e.rpq_batch_planned(expr, sources, strategy),
            |out| query_counts(&out.1),
        )
    }

    fn rpq_batch_tracked(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
    ) -> (Vec<Vec<NodeId>>, QueryStats, QueryDeps) {
        self.call(
            "rpq_batch_tracked",
            |e| e.rpq_batch_tracked(expr, sources),
            |out| query_counts(&out.1),
        )
    }

    fn insert_labeled_edges_tracked(&mut self, edges: &[Edge]) -> (UpdateStats, UpdateFootprint) {
        self.call(
            "insert_labeled_edges_tracked",
            |e| e.insert_labeled_edges_tracked(edges),
            |out| update_counts(&out.0),
        )
    }

    fn delete_labeled_edges_tracked(&mut self, edges: &[Edge]) -> (UpdateStats, UpdateFootprint) {
        self.call(
            "delete_labeled_edges_tracked",
            |e| e.delete_labeled_edges_tracked(edges),
            |out| update_counts(&out.0),
        )
    }

    fn edge_count(&self) -> usize {
        self.inner.edge_count()
    }

    fn set_threads(&mut self, threads: usize) {
        self.inner.set_threads(threads);
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn export_snapshot(&self) -> Option<SnapshotState> {
        self.observe("export_snapshot", |e| e.export_snapshot())
    }

    fn restore_snapshot(&mut self, snapshot: &SnapshotState) -> bool {
        self.call("restore_snapshot", |e| e.restore_snapshot(snapshot), |_| Counts::default())
    }

    fn label_stats(&self) -> LabelStatsSnapshot {
        self.observe("label_stats", |e| e.label_stats())
    }

    fn export_rev_rows(&self) -> Vec<(NodeId, Vec<(NodeId, Label)>)> {
        self.inner.export_rev_rows()
    }
}

/// Span name of a planned execution under a non-forward strategy.
pub const PLANNED_NONFORWARD: &str = "rpq_batch_planned.nonforward";

/// Whether a [`CORE`] span is a served query execution (not a shadow run).
pub fn is_served_query(name: &str) -> bool {
    matches!(name, "k_hop_batch" | "rpq_batch" | "rpq_batch_tracked" | "rpq_batch_planned")
}

/// Whether a [`CORE`] span is an update.
pub fn is_update(name: &str) -> bool {
    name.starts_with("insert_") || name.starts_with("delete_")
}

// ---------------------------------------------------------------------------
// The system under test
// ---------------------------------------------------------------------------

/// Host seconds of the parts of one set-up that are layers of their own.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    /// Streaming the edges into a fresh engine.
    pub ingest_s: f64,
    /// `refine_locality`.
    pub refine_s: f64,
    /// Rows the refinement pass migrated.
    pub migrated: usize,
}

/// A fresh `MoctopusSystem` holding the input graph, refined once: the steady
/// state a long-running deployment converges to.
pub fn base_engine(input: &Input) -> (MoctopusSystem, BuildTimes) {
    let mut engine = MoctopusSystem::new(input.config);
    let t = Instant::now();
    engine.insert_labeled_edges(&input.edges);
    let ingest_s = secs(t);
    let t = Instant::now();
    let (report, _) = engine.refine_locality();
    (engine, BuildTimes { ingest_s, refine_s: secs(t), migrated: report.migrated })
}

enum Stack {
    Engine(Box<dyn GraphEngine + Send>),
    Server(Box<QueryServer>),
}

/// What one op returned, in plain numbers and ids.
pub struct Outcome {
    /// One answer per query of the op, in [`Op::queries`] order.
    pub answers: Vec<Vec<Vec<NodeId>>>,
    /// Simulated nanoseconds the op was served in.
    pub sim_ns: f64,
    /// Edges an update changed.
    pub applied: Option<usize>,
    /// The serving tier saw a shadow run disagree with the forward answer.
    pub failed: bool,
}

/// Counters of the serving tier, read at a point of the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Cache lookups answered from the cache.
    pub hits: u64,
    /// Cache lookups that executed.
    pub misses: u64,
    /// Entries removed by update footprints.
    pub invalidated: u64,
    /// Entries removed by the LRU bound.
    pub evictions: u64,
    /// Resident entries.
    pub entries: u64,
    /// Update requests served.
    pub updates: u64,
    /// Executions the optimizer planned.
    pub planned: u64,
    /// Of those, plans that left the forward strategy.
    pub nonforward: u64,
    /// Shadow executions of a chosen plan.
    pub shadow_runs: u64,
}

/// One workload's stack, built and ready for its first op.
pub struct Sut {
    workload: Workload,
    stack: Stack,
    tracer: Option<SharedTracer>,
    durable_dir: Option<PathBuf>,
    at: u64,
    planned: u64,
    nonforward: u64,
}

impl Sut {
    /// Builds the workload's stack over `input`. With a tracer, every layer
    /// boundary gets a [`TracedEngine`]. `scratch` is a directory the caller
    /// owns; `serve_write` keeps its WAL and snapshots there.
    pub fn build(
        workload: Workload,
        input: &Input,
        tracer: Option<SharedTracer>,
        scratch: &Path,
    ) -> Result<Sut, String> {
        // With a tracer, an engine is handed on inside a `TracedEngine`.
        let at_boundary = |engine: Box<dyn GraphEngine + Send>, layer| match &tracer {
            Some(t) => Box::new(TracedEngine::new(engine, layer, t.clone())),
            None => engine,
        };
        let engine = at_boundary(Box::new(base_engine(input).0), CORE);
        let mut durable_dir = None;
        let stack = match workload {
            Workload::KHop | Workload::Closure => Stack::Engine(engine),
            Workload::ServeRead => {
                let config = ServerConfig {
                    cache: Some(CacheConfig::default()),
                    pricing: input.config,
                    optimize: true,
                    plan_override: None,
                };
                Stack::Server(Box::new(QueryServer::new(engine, config)))
            }
            Workload::ServeWrite => {
                let dir = scratch.join("durable");
                let _ = std::fs::remove_dir_all(&dir);
                let durable = DurableEngine::open(engine, &dir, DURABILITY)
                    .map_err(|e| format!("opening the durable store: {e}"))?;
                let engine = at_boundary(Box::new(durable), DURABLE);
                durable_dir = Some(dir);
                let config = ServerConfig {
                    cache: Some(WRITE_CACHE),
                    pricing: input.config,
                    optimize: false,
                    plan_override: None,
                };
                Stack::Server(Box::new(QueryServer::new(engine, config)))
            }
        };
        Ok(Sut { workload, stack, tracer, durable_dir, at: 0, planned: 0, nonforward: 0 })
    }

    /// Executes one op and returns when its reply is complete.
    pub fn run(&mut self, op: &Op) -> Outcome {
        let tracer = self.tracer.as_ref();
        let mut out = Outcome { answers: Vec::new(), sim_ns: 0.0, applied: None, failed: false };
        match (&mut self.stack, op) {
            (Stack::Engine(engine), Op::KHopSweep { sources }) => {
                for k in 1..=3 {
                    let (answer, stats) = engine.k_hop_batch(sources, k);
                    out.sim_ns += stats.latency().as_nanos();
                    out.answers.push(answer);
                }
            }
            (Stack::Engine(engine), Op::RpqSweep { .. }) => {
                for (text, sources) in op.queries() {
                    let expr = spanned(tracer, RPQ, "parse", || rpq::parser::parse(text))
                        .expect("the closure set parses");
                    let expr = spanned(tracer, RPQ, "normalize", || expr.normalize());
                    let label_stats = engine.label_stats();
                    let choice = spanned(tracer, RPQ, "choose_plan", || {
                        rpq::choose_plan(&expr, &label_stats, sources.len())
                    });
                    self.planned += 1;
                    self.nonforward += u64::from(choice.strategy != PlanStrategy::Forward);
                    let (answer, stats) = engine.rpq_batch_planned(&expr, sources, choice.strategy);
                    out.sim_ns += stats.latency().as_nanos();
                    out.answers.push(answer);
                }
            }
            (Stack::Server(server), Op::Query { .. } | Op::Insert { .. } | Op::Delete { .. }) => {
                let kind = match op {
                    Op::Query { text, sources } => {
                        let expr = spanned(tracer, RPQ, "parse", || rpq::parser::parse(text))
                            .expect("the query pools parse");
                        RequestKind::Query { expr, sources: sources.clone() }
                    }
                    Op::Insert { edges } => RequestKind::Insert { edges: edges.clone() },
                    Op::Delete { edges } => RequestKind::Delete { edges: edges.clone() },
                    _ => unreachable!("matched above"),
                };
                // Closed loop, one client: op i+1 is issued when op i returned.
                self.at += 1;
                let id = RequestId { client: ClientId(0), seq: self.at };
                let before = server.totals();
                let span =
                    tracer.map(|t| t.lock().expect("tracer poisoned").enter(SERVER, "execute"));
                let response = server.execute(id, Request { at: self.at, kind });
                let after = server.totals();
                if let (Some(t), Some(span)) = (tracer, span) {
                    // What the tier itself charged: probing and streaming hits.
                    let mut counts = Counts::default();
                    counts.sim_ns[0] = after.hit_time.as_nanos() - before.hit_time.as_nanos();
                    t.lock().expect("tracer poisoned").exit(span, counts);
                }
                out.sim_ns = after.served_time().as_nanos() - before.served_time().as_nanos();
                out.failed = after.shadow_mismatches != before.shadow_mismatches;
                match response.body {
                    ResponseBody::Query { results, .. } => out.answers.push(results),
                    ResponseBody::Update { stats, .. } => out.applied = Some(stats.applied),
                }
            }
            _ => panic!("{} cannot run {op:?}", self.workload.name()),
        }
        out
    }

    /// The serving tier's counters (all zero but the plan counts on the
    /// workloads that drive the engine directly).
    pub fn counters(&self) -> ServeCounters {
        match &self.stack {
            Stack::Engine(_) => ServeCounters {
                planned: self.planned,
                nonforward: self.nonforward,
                ..ServeCounters::default()
            },
            Stack::Server(server) => {
                let totals = server.totals();
                let cache = server.cache_stats().unwrap_or_default();
                ServeCounters {
                    hits: cache.hits,
                    misses: cache.misses,
                    invalidated: cache.invalidated,
                    evictions: cache.evictions,
                    entries: server.cache_len().unwrap_or(0) as u64,
                    updates: totals.updates,
                    planned: totals.planned,
                    nonforward: totals.plan_nonforward,
                    shadow_runs: totals.shadow_runs,
                }
            }
        }
    }

    /// Snapshot generations the durable store has rotated through.
    pub fn rotations(&self) -> u64 {
        self.durable_dir
            .as_deref()
            .and_then(|dir| graph_store::current_generation(dir).ok().flatten())
            .unwrap_or(0)
    }

    /// Ends `serve_write` the hard way: tears the WAL's tail as a crash
    /// would, recovers into a fresh base engine, and requires the recovered
    /// storage plane to equal the live one. `Ok(None)` on the other workloads.
    pub fn crash_and_recover(self, input: &Input) -> Result<Option<Recovery>, String> {
        let (Stack::Server(mut server), Some(dir)) = (self.stack, self.durable_dir) else {
            return Ok(None);
        };
        // A logged batch of no edges: the record the crash will tear. It
        // changes nothing, so the live state is the state to recover.
        let wal = loop {
            server.engine_mut().delete_labeled_edges(&[]);
            let generation = graph_store::current_generation(&dir)
                .map_err(|e| e.to_string())?
                .ok_or("the durable store has no generation")?;
            let wal = graph_store::generation_wal_path(&dir, generation);
            let decoded = graph_store::wal::read_wal_file(&wal).map_err(|e| e.to_string())?;
            // The append may have filled the log and rotated it away.
            if !decoded.records.is_empty() {
                break wal;
            }
        };
        let live = server.engine_ref().export_snapshot();
        let live_edges = server.engine_ref().edge_count();
        drop(server);
        tear_tail(&wal)?;

        let (base, _) = base_engine(input);
        let recovered = DurableEngine::open(Box::new(base), &dir, DURABILITY)
            .map_err(|e| format!("recovery: {e}"))?;
        Ok(Some(Recovery {
            torn_tail: recovered.report().torn_tail,
            identical: live.is_some()
                && recovered.export_snapshot() == live
                && recovered.edge_count() == live_edges,
        }))
    }
}

/// Cuts a WAL file short in the middle of its last record, as a crash during
/// the append would.
fn tear_tail(wal: &Path) -> Result<(), String> {
    std::fs::OpenOptions::new()
        .write(true)
        .open(wal)
        .and_then(|file| file.set_len(file.metadata()?.len() - 5))
        .map_err(|e| format!("tearing the tail of {}: {e}", wal.display()))
}

/// What [`Sut::crash_and_recover`] found.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    /// The torn tail was seen and truncated.
    pub torn_tail: bool,
    /// Recovered storage plane and edge count equal the live engine's.
    pub identical: bool,
}

// ---------------------------------------------------------------------------
// Answer checking
// ---------------------------------------------------------------------------

/// Sources per query that a check evaluates with the reference evaluator
/// (a prefix of the batch; the evaluator is as slow as the engines).
const CHECKED_SOURCES: usize = 8;

/// Applies an update op to the mirror; returns how many edges it changed.
pub fn apply_to_mirror(mirror: &mut AdjacencyGraph, op: &Op) -> Option<usize> {
    match op {
        Op::Insert { edges } => {
            Some(edges.iter().filter(|&&(s, d, l)| mirror.insert_edge(s, d, l)).count())
        }
        Op::Delete { edges } => {
            Some(edges.iter().filter(|&&(s, d, l)| mirror.remove_edge(s, d, l)).count())
        }
        _ => None,
    }
}

/// Checks an op's answers against `rpq::ReferenceEvaluator` on the mirror.
pub fn answers_match(mirror: &AdjacencyGraph, op: &Op, outcome: &Outcome) -> bool {
    let reference = ReferenceEvaluator::new(mirror);
    let queries = op.queries();
    if queries.len() != outcome.answers.len() {
        return false;
    }
    queries.iter().zip(&outcome.answers).enumerate().all(|(i, (&(text, sources), got))| {
        if got.len() != sources.len() {
            return false;
        }
        let prefix = &sources[..sources.len().min(CHECKED_SOURCES)];
        let want = match op {
            Op::KHopSweep { .. } => reference.k_hop(prefix, i + 1),
            _ => reference.evaluate(&rpq::parser::parse(text).expect("pools parse"), prefix),
        };
        want.iter().zip(got).all(|(w, g)| w.iter().eq(g.iter()))
    })
}

// ---------------------------------------------------------------------------
// Replay legs
// ---------------------------------------------------------------------------

/// What the legs replay: the workload's own inputs, recorded by the run.
pub struct LegMaterial<'a> {
    /// The workload.
    pub workload: Workload,
    /// Its generated input.
    pub input: &'a Input,
    /// Queries of every eighth op of the window, `(text, sources)`.
    pub queries: Vec<(&'static str, Vec<NodeId>)>,
    /// The first update batches the run issued, `(is_insert, edges)`; warm-up
    /// included, so replaying them in order from the base graph is valid.
    pub updates: Vec<(bool, Vec<Edge>)>,
    /// Edges per padded update batch.
    pub update_edges: usize,
    /// A directory the caller owns.
    pub scratch: &'a Path,
}

/// Least update batches a leg replays; workloads that issue fewer are padded
/// by deleting and re-inserting chunks of their own ingest stream.
const LEG_UPDATE_BATCHES: usize = 32;
/// Sampled queries a contrast leg runs, and sources it keeps of each.
const LEG_QUERIES: usize = 12;
const LEG_SOURCES: usize = 64;

fn micros(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

/// Host microseconds per call of `f`: each sample times `iters` calls back to
/// back (so a call of tens of nanoseconds is not lost in the clock's own cost
/// and resolution), and the median over `batches` samples is reported.
fn per_call_us<T>(batches: usize, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            micros(t) / iters as f64
        })
        .collect();
    median(&samples)
}

fn apply_update(engine: &mut dyn GraphEngine, insert: bool, edges: &[Edge]) -> UpdateStats {
    if insert {
        engine.insert_labeled_edges(edges)
    } else {
        engine.delete_labeled_edges(edges)
    }
}

/// Runs every leg and returns the per-layer values they measure, or what
/// went wrong with a check a leg makes along the way.
pub fn run_legs(material: LegMaterial) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let input = material.input;
    let threads = material.workload.threads();
    std::fs::create_dir_all(material.scratch).map_err(|e| e.to_string())?;

    let mut updates = material.updates;
    for chunk in input.edges.chunks(material.update_edges.max(1)) {
        if updates.len() >= LEG_UPDATE_BATCHES {
            break;
        }
        updates.push((false, chunk.to_vec()));
        updates.push((true, chunk.to_vec()));
    }
    let update_edge_total: usize = updates.iter().map(|(_, e)| e.len()).sum();

    let parsed: Vec<(RpqExpr, &[NodeId])> = material
        .queries
        .iter()
        .map(|(text, sources)| {
            (rpq::parser::parse(text).expect("pools parse").normalize(), &sources[..])
        })
        .collect();
    let sampled: Vec<(&RpqExpr, &[NodeId])> =
        parsed.iter().take(LEG_QUERIES).map(|(e, s)| (e, &s[..s.len().min(LEG_SOURCES)])).collect();
    if sampled.is_empty() {
        return Err("the window sampled no query".into());
    }

    // core: build (ingest, refine) -------------------------------------------------
    let (mut engine, build) = base_engine(input);
    out.push(("core.ingest.ns_per_edge", build.ingest_s * 1e9 / input.edges.len() as f64));
    out.push(("core.refine.ms", build.refine_s * 1e3));
    out.push(("graph_partition.migrated", build.migrated as f64));
    let metrics: PartitionMetrics = engine.partition_metrics();
    out.push(("graph_partition.locality", metrics.locality));
    out.push(("graph_partition.load_imbalance", metrics.load_balance_factor));
    out.push(("graph_partition.host_rows", engine.host_row_count() as f64));
    let label_stats = engine.label_stats();
    out.push(("core.label_stats.us", per_call_us(20, 50, || engine.label_stats())));

    // rpq: the expression front end ------------------------------------------------
    let mut texts: Vec<(&str, usize)> =
        material.queries.iter().map(|(t, s)| (*t, s.len())).collect();
    texts.sort_unstable();
    texts.dedup();
    let (mut parse, mut normalize, mut nfa, mut plan) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &(text, batch) in &texts {
        let normal = rpq::parser::parse(text).expect("pools parse").normalize();
        parse.push(per_call_us(8, 64, || rpq::parser::parse(black_box(text))));
        normalize.push(per_call_us(8, 64, || black_box(&normal).normalize()));
        nfa.push(per_call_us(8, 64, || rpq::Nfa::from_expr(black_box(&normal))));
        plan.push(per_call_us(8, 64, || rpq::choose_plan(black_box(&normal), &label_stats, batch)));
    }
    out.push(("rpq.parse.us", median(&parse)));
    out.push(("rpq.normalize.us", median(&normalize)));
    out.push(("rpq.nfa_build.us", median(&nfa)));
    out.push(("rpq.plan.us", median(&plan)));

    // rpq: estimator error on the sampled plans that leave the forward strategy.
    let mut q_error: f64 = 0.0;
    let replanned = parsed.iter().filter_map(|(expr, sources)| {
        let choice = rpq::choose_plan(expr, &label_stats, sources.len());
        (choice.strategy != PlanStrategy::Forward).then_some((expr, sources, choice))
    });
    for (expr, sources, choice) in replanned.take(4) {
        let (forward_answer, forward) =
            engine.rpq_batch_planned(expr, sources, PlanStrategy::Forward);
        let (chosen_answer, chosen) = engine.rpq_batch_planned(expr, sources, choice.strategy);
        if forward_answer != chosen_answer {
            return Err(format!("plan {} changed the answer", choice.strategy.describe()));
        }
        let priced = choice.forward_cost as f64 / choice.chosen_cost.max(1) as f64;
        let executed = forward.latency().as_nanos() / chosen.latency().as_nanos();
        let r = priced / executed;
        q_error = q_error.max(r.max(1.0 / r));
    }
    out.push(("rpq.plan.q_error_max", q_error));

    // core: dependency tracking, contrast engines, thread scaling ------------------
    let (mut plain_ns, mut tracked_ns) = (0u128, 0u128);
    for &(expr, sources) in &sampled {
        let t = Instant::now();
        black_box(engine.rpq_batch(expr, sources));
        plain_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        black_box(engine.rpq_batch_tracked(expr, sources));
        tracked_ns += t.elapsed().as_nanos();
    }
    out.push(("core.deps.overhead_share", tracked_ns as f64 / plain_ns as f64 - 1.0));

    let sweep = |engine: &mut dyn GraphEngine| -> (f64, f64) {
        let (mut wall, mut sim) = (0.0, 0.0);
        for &(expr, sources) in &sampled {
            let t = Instant::now();
            let (_, stats) = black_box(engine.rpq_batch(expr, sources));
            wall += t.elapsed().as_nanos() as f64;
            sim += stats.latency().as_nanos();
        }
        (wall, sim)
    };
    let (moctopus_wall, moctopus_sim) = sweep(&mut engine);
    {
        let mut host = HostBaseline::new(input.config);
        host.insert_labeled_edges(&input.edges);
        let (host_wall, host_sim) = sweep(&mut host);
        out.push(("core.sim_speedup_vs_host", host_sim / moctopus_sim));
        out.push(("core.host_wall_ratio", moctopus_wall / host_wall));
        let mut hash = PimHashSystem::new(input.config);
        hash.insert_labeled_edges(&input.edges);
        let (_, hash_sim) = sweep(&mut hash);
        out.push(("core.sim_speedup_vs_hash", hash_sim / moctopus_sim));
    }
    engine.set_threads(1);
    let (one_thread_wall, _) = sweep(&mut engine);
    engine.set_threads(2);
    let (two_thread_wall, _) = sweep(&mut engine);
    engine.set_threads(threads);
    out.push(("core.scaling_2t", one_thread_wall / two_thread_wall));

    // server: a 2-replica sharded plane against the unsharded engine ---------------
    {
        let replicas: Vec<Box<dyn GraphEngine + Send>> =
            vec![Box::new(engine.clone()), Box::new(engine.clone())];
        let plan =
            ShardPlan::from_assignment(engine.engine().assignment(), ShardPlan::DEFAULT_GROUPS);
        let mut sharded = ShardedEngine::new(replicas, plan, threads);
        let (sharded_wall, sharded_sim) = sweep(&mut sharded);
        let (unsharded_wall, unsharded_sim) = sweep(&mut engine);
        out.push(("server.shard.wall_ratio", sharded_wall / unsharded_wall));
        out.push(("server.shard.sim_ratio", sharded_sim / unsharded_sim));
    }

    // server: two sessions against one sequential caller ---------------------------
    {
        let serve_config = ServerConfig {
            cache: None,
            pricing: input.config,
            optimize: false,
            plan_override: None,
        };
        let requests: Vec<RequestKind> = sampled
            .iter()
            .map(|&(expr, sources)| RequestKind::Query {
                expr: expr.clone(),
                sources: sources.to_vec(),
            })
            .collect();
        let mut sequential = QueryServer::new(Box::new(engine.clone()), serve_config);
        let t = Instant::now();
        for (i, kind) in requests.iter().enumerate() {
            black_box(sequential.execute_next(Request { at: i as u64 + 1, kind: kind.clone() }));
        }
        let sequential_ns = t.elapsed().as_nanos() as f64;
        let concurrent = ConcurrentServer::bounded(
            QueryServer::new(Box::new(engine.clone()), serve_config),
            requests.len().max(1),
        );
        let sessions = [concurrent.session(), concurrent.session()];
        let t = Instant::now();
        std::thread::scope(|scope| {
            for (lane, mut session) in sessions.into_iter().enumerate() {
                let requests = &requests;
                scope.spawn(move || {
                    for (i, kind) in requests.iter().enumerate().filter(|(i, _)| i % 2 == lane) {
                        session.submit(i as u64 + 1, kind.clone()).expect("timestamps increase");
                    }
                    session.finish();
                });
            }
        });
        concurrent.run();
        let served: usize = concurrent.take_responses().iter().map(Vec::len).sum();
        let concurrent_ns = t.elapsed().as_nanos() as f64;
        let shed = concurrent.shed_total();
        if served + shed as usize != requests.len() {
            return Err(format!("sessions lost requests: {served} served of {}", requests.len()));
        }
        out.push(("server.session.overhead_share", concurrent_ns / sequential_ns - 1.0));
        out.push(("server.session.shed", shed as f64));
    }

    // core: snapshot export / restore ---------------------------------------------
    let snapshot = engine.export_snapshot().ok_or("the engine exports no snapshot")?;
    out.push(("core.snapshot.export_ms", per_call_us(3, 1, || engine.export_snapshot()) / 1e3));
    {
        let mut target = engine.clone();
        out.push((
            "core.snapshot.restore_ms",
            per_call_us(3, 1, || target.restore_snapshot(&snapshot)) / 1e3,
        ));
    }

    // graph_store: snapshot file, WAL ----------------------------------------------
    {
        let path = material.scratch.join("leg.snapshot");
        let mut failed = None;
        let write_us =
            per_call_us(3, 1, || failed = snapshot.write_file(&path).err().or(failed.take()));
        if let Some(e) = failed {
            return Err(format!("snapshot write: {e}"));
        }
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        let read_us =
            per_call_us(3, 1, || SnapshotState::read_file(&path).map(|s| s.last_seq).ok());
        if SnapshotState::read_file(&path).map_err(|e| e.to_string())? != snapshot {
            return Err("the snapshot file does not read back equal".into());
        }
        out.push(("graph_store.snapshot.write_ms", write_us / 1e3));
        out.push(("graph_store.snapshot.read_ms", read_us / 1e3));
        out.push((
            "graph_store.snapshot.bytes_per_edge",
            bytes as f64 / engine.edge_count().max(1) as f64,
        ));
    }
    {
        // Appends are timed without their fsync; every eighth record's fsync
        // (the stated flush policy) is timed on its own.
        let path = material.scratch.join("leg.wal");
        let mut wal = WalWriter::create(&path, usize::MAX).map_err(|e| e.to_string())?;
        let header = wal.len_bytes();
        let (mut appends, mut syncs) = (Vec::new(), Vec::new());
        for (seq, (insert, edges)) in updates.iter().enumerate() {
            let op = if *insert { WalOp::Insert } else { WalOp::Delete };
            let record = WalRecord { seq: seq as u64 + 1, op, edges: edges.clone() };
            let t = Instant::now();
            wal.append(&record).map_err(|e| e.to_string())?;
            appends.push(micros(t));
            if (seq + 1) % DURABILITY.sync_every == 0 {
                let t = Instant::now();
                wal.sync().map_err(|e| e.to_string())?;
                syncs.push(micros(t));
            }
        }
        out.push(("graph_store.wal.append_us", median(&appends)));
        out.push(("graph_store.wal.sync_us", median(&syncs)));
        out.push(("graph_store.wal.fsyncs", syncs.len() as f64));
        out.push((
            "graph_store.wal.bytes_per_edge",
            (wal.len_bytes() - header) as f64 / update_edge_total.max(1) as f64,
        ));
    }

    // server: the cache, replayed on a harness-owned instance ----------------------
    {
        let config = if material.workload == Workload::ServeWrite {
            WRITE_CACHE
        } else {
            CacheConfig::default()
        };
        // Entries: every sampled query with its answer, then filler up to
        // 1024 resident: the same expressions, statistics and dependencies
        // under other source batches, with empty answers (a scan reads an
        // entry's dependencies, never its answer).
        let mut entries = Vec::new();
        for (expr, sources) in &parsed {
            let sources = &sources[..sources.len().min(LEG_SOURCES)];
            let (results, stats, deps) = engine.rpq_batch_tracked(expr, sources);
            entries.push((expr.clone(), sources.to_vec(), results, stats, deps));
        }
        let distinct = entries.len();
        for i in distinct..config.capacity.min(1024) {
            let (expr, sources, _, stats, deps) = &entries[i % distinct];
            let mut other = sources.clone();
            other.push(NodeId(i as u64));
            entries.push((expr.clone(), other, Vec::new(), *stats, *deps));
        }
        let mut footprints = Vec::new();
        {
            let mut scratch_engine = engine.clone();
            for (insert, edges) in updates.iter().take(8) {
                let (_, footprint) = if *insert {
                    scratch_engine.insert_labeled_edges_tracked(edges)
                } else {
                    scratch_engine.delete_labeled_edges_tracked(edges)
                };
                footprints.push(footprint);
            }
        }
        let (mut inserts, mut lookups, mut invalidates) = (Vec::new(), Vec::new(), Vec::new());
        let mut invalidated = 0usize;
        for footprint in &footprints {
            // One fill, one pass of hits over the sampled entries, one scan.
            let mut cache = ResultCache::new(config);
            let prepared: Vec<_> = entries
                .iter()
                .map(|(expr, sources, results, stats, deps)| {
                    let key = CacheKey::new(expr.clone(), sources.clone());
                    (key, results.clone(), *stats, *deps, expr.label_alphabet())
                })
                .collect();
            let t = Instant::now();
            for (key, results, stats, deps, alphabet) in prepared {
                cache.insert(key, results, stats, deps, alphabet);
            }
            inserts.push(micros(t) / entries.len() as f64);
            let keys: Vec<CacheKey> = entries
                .iter()
                .take(distinct)
                .map(|(expr, sources, ..)| CacheKey::new(expr.clone(), sources.clone()))
                .collect();
            let t = Instant::now();
            let hits = keys.iter().filter(|key| black_box(cache.lookup(key)).is_some()).count();
            lookups.push(micros(t) / keys.len() as f64);
            if hits != keys.len() {
                return Err("a resident cache entry missed".into());
            }
            let t = Instant::now();
            invalidated += cache.invalidate(footprint);
            invalidates.push(micros(t));
        }
        black_box(invalidated);
        out.push(("server.cache.insert_us", median(&inserts)));
        out.push(("server.cache.lookup_us", median(&lookups)));
        out.push(("server.cache.invalidate_us", median(&invalidates)));
    }

    // server: DurableEngine's own time per update, and recovery --------------------
    {
        let dir = material.scratch.join("leg-durable");
        let _ = std::fs::remove_dir_all(&dir);
        let options = DurabilityOptions { sync_every: DURABILITY.sync_every, rotate_every: 16 };
        let tracer = crate::trace::Tracer::shared();
        let inner = TracedEngine::new(Box::new(engine.clone()), CORE, tracer.clone());
        let mut durable =
            DurableEngine::open(Box::new(inner), &dir, options).map_err(|e| e.to_string())?;
        let mut self_us = Vec::new();
        for (insert, edges) in &updates {
            let before = tracer.lock().expect("tracer poisoned").spans().len();
            let t = Instant::now();
            apply_update(&mut durable, *insert, edges);
            let whole = t.elapsed().as_nanos() as f64;
            let inner: f64 = tracer.lock().expect("tracer poisoned").spans()[before..]
                .iter()
                .map(|s| s.dur_ns() as f64)
                .sum();
            self_us.push((whole - inner) / 1e3);
        }
        out.push(("server.durable.self_us", median(&self_us)));
        // Crash: a logged empty batch, torn in half.
        let wal = loop {
            durable.delete_labeled_edges(&[]);
            let wal = graph_store::generation_wal_path(&dir, durable.generation());
            if durable.wal_records() > 0 {
                break wal;
            }
        };
        let live = durable.export_snapshot();
        drop(durable);
        tear_tail(&wal)?;
        let t = Instant::now();
        let recovered = DurableEngine::open(Box::new(engine.clone()), &dir, options)
            .map_err(|e| format!("recovery: {e}"))?;
        out.push(("server.durable.recover_ms", micros(t) / 1e3));
        out.push(("server.durable.replayed_records", recovered.report().replayed_records as f64));
        if !recovered.report().torn_tail || recovered.export_snapshot() != live {
            return Err("the replay store did not recover to the live state".into());
        }
    }

    // core: the update path on the harness-owned engine (last: it changes the graph).
    {
        let t = Instant::now();
        for (insert, edges) in &updates {
            black_box(apply_update(&mut engine, *insert, edges));
        }
        out.push((
            "core.update.ns_per_edge",
            t.elapsed().as_nanos() as f64 / update_edge_total.max(1) as f64,
        ));
    }
    drop(engine);

    // graph_store: the stores, driven edge by edge ---------------------------------
    {
        let edges = &input.edges[..input.edges.len().min(200_000)];
        let per_edge = |t: Instant| t.elapsed().as_nanos() as f64 / edges.len() as f64;
        let mut local = LocalGraphStorage::new();
        let t = Instant::now();
        for &(s, d, l) in edges {
            let _ = black_box(local.insert_edge(s, d, l));
        }
        out.push(("graph_store.local.insert_ns", per_edge(t)));
        let t = Instant::now();
        for &(s, d, l) in edges {
            let _ = black_box(local.insert_rev_edge(d, s, l));
        }
        out.push(("graph_store.local.rev_insert_ns", per_edge(t)));
        let t = Instant::now();
        let (mut scanned, mut acc) = (0usize, 0u64);
        for &(s, _, _) in edges {
            if let Some(row) = local.row(s) {
                scanned += row.len();
                for &(d, l) in row {
                    acc = acc.wrapping_add(d.0 ^ u64::from(l.0));
                }
            }
        }
        black_box(acc);
        out.push((
            "graph_store.local.scan_ns_per_entry",
            t.elapsed().as_nanos() as f64 / scanned.max(1) as f64,
        ));
        out.push((
            "graph_store.labelstats.snapshot_us",
            per_call_us(20, 200, || local.label_stats().snapshot()),
        ));
        let t = Instant::now();
        for &(s, d, l) in edges {
            let _ = black_box(local.remove_edge(s, d, l));
        }
        out.push(("graph_store.local.remove_ns", per_edge(t)));
        let mut hetero = HeterogeneousStorage::new();
        let t = Instant::now();
        for &(s, d, l) in edges {
            black_box(hetero.insert_edge(s, d, l));
        }
        out.push(("graph_store.hetero.insert_ns", per_edge(t)));
    }

    // graph_partition: the ingest stream through the partitioner -------------------
    {
        let mut partitioner =
            GreedyAdaptivePartitioner::with_config(input.config.partitioner_config());
        let t = Instant::now();
        for &(s, d, _) in &input.edges {
            partitioner.on_edge(s, d);
        }
        out.push((
            "graph_partition.on_edge_ns",
            t.elapsed().as_nanos() as f64 / input.edges.len() as f64,
        ));
        let mut graph = AdjacencyGraph::new();
        for &(s, d, l) in &input.edges {
            graph.insert_edge(s, d, l);
        }
        let t = Instant::now();
        black_box(partitioner.refine(&graph));
        out.push(("graph_partition.refine_ms", micros(t) / 1e3));
    }

    // runtime -----------------------------------------------------------------------
    {
        let pool = WorkerPool::new(threads);
        out.push((
            "runtime.pool.dispatch_us",
            per_call_us(20, 100, || pool.run(threads, |worker| worker)),
        ));
        out.push(("runtime.threads", threads as f64));
        let queue: SequencedQueue<u64> = SequencedQueue::new();
        let producer = queue.register();
        let items = 20_000u64;
        let t = Instant::now();
        for at in 1..=items {
            queue.submit(producer, at, at).expect("timestamps increase");
            black_box(queue.try_pop());
        }
        out.push(("runtime.sequencer.ns_per_item", t.elapsed().as_nanos() as f64 / items as f64));
    }

    // sparse: the visited-set scratch and the contrast engine's product ------------
    {
        let bound = input.nodes.last().map_or(1, |n| n.0 as usize + 1);
        let keys: Vec<usize> = input.edges.iter().take(200_000).map(|e| e.1 .0 as usize).collect();
        let mut marks = sparse::scratch::EpochMarks::with_capacity(bound);
        let t = Instant::now();
        let mut fresh = 0usize;
        for _ in 0..4 {
            marks.next_epoch();
            for &key in &keys {
                fresh += usize::from(marks.mark(key));
            }
        }
        black_box(fresh);
        out.push((
            "sparse.marks.ns_per_mark",
            t.elapsed().as_nanos() as f64 / (4 * keys.len()) as f64,
        ));

        let triplets: Vec<(usize, usize)> =
            input.edges.iter().map(|e| (e.0 .0 as usize, e.1 .0 as usize)).collect();
        let adjacency = sparse::SparseBoolMatrix::from_triplets(bound, bound, &triplets);
        let sources = sampled[0].1;
        let seeds: Vec<(usize, usize)> =
            sources.iter().enumerate().map(|(row, n)| (row, n.0 as usize)).collect();
        let mut frontier = sparse::SparseBoolMatrix::from_triplets(sources.len(), bound, &seeds);
        let (mut scanned, mut spent) = (0usize, 0u128);
        for _ in 0..2 {
            scanned += frontier.iter().map(|(_, c)| adjacency.row_nnz(c)).sum::<usize>();
            let t = Instant::now();
            frontier = sparse::ops::mxm(&frontier, &adjacency);
            spent += t.elapsed().as_nanos();
        }
        out.push(("sparse.mxm.ns_per_nnz", spent as f64 / scanned.max(1) as f64));
    }

    Ok(out)
}
