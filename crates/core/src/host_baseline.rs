//! The RedisGraph-like host baseline.
//!
//! RedisGraph evaluates graph queries by compiling them into GraphBLAS sparse
//! matrix algebra and executing the plan on one dedicated CPU core: a batch
//! RPQ becomes `ans = Q × Adj × … × Adj`, one `smxm` per hop and then an
//! `mwait` that gathers the result. The baseline here runs the same row-wise
//! products — Gustavson's algorithm, one adjacency-row fetch per frontier
//! entry — over the graph's own rows, and keeps no matrix: a row of a label's
//! adjacency matrix (or of its transpose) is the graph's sorted out-row
//! ([`AdjacencyGraph::neighbors`]) or in-row ([`AdjacencyGraph::in_neighbors`])
//! filtered by the label. An update therefore needs nothing rebuilt before
//! the next query.
//!
//! The executor counts what it touched in a `HostExecutionStats`, and
//! `HostBaseline::finish` charges those counts to the same host-side cost
//! model the PIM engines use for their host portions:
//!
//! * each `smxm` operator pays one random DRAM access per adjacency-row fetch
//!   (pointer chasing through a matrix far larger than the last-level cache —
//!   the "memory wall" the paper opens with) plus the streaming cost of the
//!   row data it touches;
//! * graph updates pay a per-edge random access and bookkeeping cost plus the
//!   amortised cost of merging the delta into the CSR structure.

use crate::config::MoctopusConfig;
use crate::deps::UpdateFootprint;
use crate::distributed::EdgeOp;
use crate::engine::GraphEngine;
use crate::stats::{QueryStats, UpdateStats};
use graph_store::{AdjacencyGraph, Label, NodeId, SnapshotState};
use moctopus_runtime::{chunk_ranges, WorkerPool};
use pim_sim::{Phase, PimSystem, Timeline};
use rpq::{optimizer, LabelSpec, Nfa, PlanStrategy, RpqExpr};
use std::collections::HashSet;

/// Instructions charged per inserted edge for sparse-matrix bookkeeping
/// (duplicate check, delta-matrix maintenance, property bookkeeping). The
/// paper's measurements imply roughly 1–8 µs of baseline work per updated
/// edge; 4500 simple instructions (~1 µs on the modeled core) sits at the
/// conservative end of that range.
const UPDATE_INSTRUCTIONS_PER_EDGE: u64 = 4500;

/// Additional instructions charged per *deleted* edge: deletion must locate
/// the entry inside the compressed row before compacting it, which RedisGraph
/// measures as noticeably more expensive than insertion (the paper's delete
/// speedups are ~1.75x its insert speedups).
const DELETE_EXTRA_INSTRUCTIONS_PER_EDGE: u64 = 3500;

/// The RedisGraph-like single-core sparse-matrix baseline.
///
/// # Examples
///
/// ```
/// use moctopus::{GraphEngine, HostBaseline, MoctopusConfig, NodeId};
/// let mut engine = HostBaseline::new(MoctopusConfig::small_test());
/// engine.insert_edges(&[(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
/// let (results, stats) = engine.k_hop_batch(&[NodeId(0)], 2);
/// assert_eq!(results[0], vec![NodeId(2)]);
/// assert!(stats.latency().as_nanos() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct HostBaseline {
    /// Cost model (only the host-side helpers are used).
    pim: PimSystem,
    /// Logical graph contents: the rows every query plan reads.
    graph: AdjacencyGraph,
    /// Execution runtime: query batches are chunked over these workers, each
    /// running the whole per-label matrix chain (or automaton sweep) for its
    /// chunk of sources. The *simulated* engine stays a single dedicated
    /// core — chunk statistics merge exactly, so charges do not move.
    pool: WorkerPool,
}

impl HostBaseline {
    /// Creates an empty baseline engine.
    pub fn new(config: MoctopusConfig) -> Self {
        HostBaseline {
            pim: PimSystem::new(config.pim),
            graph: AdjacencyGraph::new(),
            pool: WorkerPool::new(config.threads),
        }
    }

    /// Builds a baseline directly from an edge list.
    pub fn from_edge_stream(config: MoctopusConfig, edges: &[(NodeId, NodeId)]) -> Self {
        let mut engine = Self::new(config);
        engine.insert_edges(edges);
        engine
    }

    /// Bytes of the adjacency structure resident in DRAM, used to decide how
    /// much of the pointer chasing misses the last-level cache.
    fn resident_bytes(&self) -> u64 {
        self.graph.approx_bytes()
    }

    /// The one update loop; the unlabelled entry points stream
    /// [`Label::ANY`] in without materialising a labelled copy of the batch.
    fn apply(
        &mut self,
        op: EdgeOp,
        edges: impl Iterator<Item = (NodeId, NodeId, Label)>,
        batch_len: usize,
    ) -> UpdateStats {
        let mut applied = 0usize;
        let resident = self.resident_bytes().max(1);
        let mut row_bytes_touched = 0u64;
        for (s, d, l) in edges {
            let degree = self.graph.out_degree(s) as u64;
            // An insert rewrites the row with its new entry; a delete
            // compacts the row it searched (at least one entry's worth).
            let (row_entries, changed) = match op {
                EdgeOp::Insert => (degree + 1, self.graph.insert_edge(s, d, l)),
                EdgeOp::Delete => (degree.max(1), self.graph.remove_edge(s, d, l)),
            };
            row_bytes_touched += row_entries * 8;
            applied += usize::from(changed);
        }

        let per_edge = match op {
            EdgeOp::Insert => UPDATE_INSTRUCTIONS_PER_EDGE,
            EdgeOp::Delete => UPDATE_INSTRUCTIONS_PER_EDGE + DELETE_EXTRA_INSTRUCTIONS_PER_EDGE,
        };
        let mut timeline = Timeline::new();
        // One random access into the matrix per edge, the row rewrite, and the
        // per-edge bookkeeping of the delta-matrix machinery.
        timeline.charge(
            Phase::HostCompute,
            self.pim.host_random_access_cost(batch_len as u64, resident)
                + self.pim.host_sequential_read_cost(row_bytes_touched)
                + self.pim.host_instructions_cost(batch_len as u64 * per_edge),
        );
        // Amortised delta merge: the whole matrix is eventually rewritten once
        // per update batch when the pending delta is flushed.
        timeline.charge(Phase::HostCompute, self.pim.host_sequential_read_cost(2 * resident));
        UpdateStats { timeline, requested: batch_len, applied }
    }

    /// Charges one executed plan's statistics to the host cost model and
    /// builds its [`QueryStats`] — the one builder of every query path, so
    /// all execution strategies (matrix chain, automaton sweep, planned
    /// sweeps) are priced identically per row fetch and per byte. `results`
    /// holds one row per source; the hop count is the plan's frontier levels.
    fn finish(
        &self,
        (results, exec): (Vec<Vec<NodeId>>, HostExecutionStats),
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        let resident = self.resident_bytes().max(1);
        let mut timeline = Timeline::new();
        // Each fetched adjacency row also pays the GraphBLAS kernel overhead
        // (index arithmetic, scatter/gather into the accumulator) measured at
        // roughly 150 simple instructions per row in SuiteSparse-style
        // boolean mxm kernels.
        timeline.charge(
            Phase::HostCompute,
            self.pim.host_random_access_cost(exec.row_fetches, resident)
                + self.pim.host_sequential_read_cost(exec.bytes_read)
                + self.pim.host_instructions_cost(exec.row_fetches * 150)
                + self.pim.host_instructions_cost(exec.bytes_written / 2),
        );
        timeline.charge(
            Phase::Reduce,
            self.pim.host_sequential_read_cost(exec.result_entries as u64 * 8)
                + self.pim.host_instructions_cost(exec.result_entries as u64 * 8),
        );
        let stats = QueryStats {
            timeline,
            batch_size: results.len(),
            hops: exec.frontier_levels,
            matched_pairs: results.iter().map(Vec::len).sum(),
            expansions: exec.row_fetches as usize,
        };
        (results, stats)
    }

    /// Builds the tracked-update footprint: empty when nothing was applied
    /// (the graph did not change), otherwise the batch's per-label base with
    /// `cost_global` set (every query cost on this engine reads the whole
    /// graph's resident bytes).
    fn baseline_footprint(edges: &[(NodeId, NodeId, Label)], applied: usize) -> UpdateFootprint {
        if applied == 0 {
            UpdateFootprint::empty()
        } else {
            UpdateFootprint { cost_global: true, ..UpdateFootprint::from_edges(edges) }
        }
    }

    /// Runs one source-batch evaluation (`run_chunk`) chunked across the
    /// worker pool: each worker executes the full per-label matrix chain (or
    /// automaton sweep) for a contiguous slice of the sources, and the
    /// outputs merge in chunk order — results by concatenation,
    /// [`HostExecutionStats`] with its exact integer merge — so the reported
    /// numbers are identical to the single-chunk run at any thread count.
    fn run_chunked<F>(
        &self,
        sources: &[NodeId],
        run_chunk: F,
    ) -> (Vec<Vec<NodeId>>, HostExecutionStats)
    where
        F: Fn(&[NodeId]) -> (Vec<Vec<NodeId>>, HostExecutionStats) + Sync,
    {
        let workers = self.pool.workers_for(sources.len());
        if workers == 1 {
            return run_chunk(sources);
        }
        let ranges = chunk_ranges(sources.len(), workers);
        let chunk_outputs = self.pool.run(workers, |w| run_chunk(&sources[ranges[w].clone()]));
        let mut results = Vec::with_capacity(sources.len());
        let mut exec = HostExecutionStats::default();
        for (chunk_results, chunk_exec) in chunk_outputs {
            results.extend(chunk_results);
            exec.merge(&chunk_exec);
        }
        (results, exec)
    }
}

impl GraphEngine for HostBaseline {
    fn name(&self) -> &'static str {
        "RedisGraph-like"
    }

    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> UpdateStats {
        self.apply(EdgeOp::Insert, edges.iter().map(|&(s, d)| (s, d, Label::ANY)), edges.len())
    }

    fn delete_edges(&mut self, edges: &[(NodeId, NodeId)]) -> UpdateStats {
        self.apply(EdgeOp::Delete, edges.iter().map(|&(s, d)| (s, d, Label::ANY)), edges.len())
    }

    fn insert_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
        self.apply(EdgeOp::Insert, edges.iter().copied(), edges.len())
    }

    fn delete_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
        self.apply(EdgeOp::Delete, edges.iter().copied(), edges.len())
    }

    fn rpq_batch(&mut self, expr: &RpqExpr, sources: &[NodeId]) -> (Vec<Vec<NodeId>>, QueryStats) {
        // Fixed-length expressions stay matrix chains (`Q × A_l1 × … × A_lk`;
        // a plain k-hop is the chain `[Any; k]`); everything else
        // sweeps the automaton over the per-label rows.
        let out = match label_chain(expr) {
            Some(chain) => self.run_chunked(sources, |chunk| run_chain(&self.graph, &chain, chunk)),
            None => {
                let nfa = Nfa::from_expr(expr);
                self.run_chunked(sources, |chunk| run_nfa(&self.graph, &nfa, chunk))
            }
        };
        self.finish(out)
    }

    /// Planned execution: bidirectional runs the backward useful-set sweep
    /// over the graph's in-rows, the rare-label split seeds the suffix
    /// automaton at the pivot label's source rows (the graph's out-rows
    /// holding the label, the same list the backward sweep seeds from).
    /// Answers are byte-identical to [`GraphEngine::rpq_batch`] under every
    /// strategy; only the executed row-fetch/byte profile differs.
    ///
    /// Unlike the forward path this is **not** chunked over the worker
    /// pool: the shared backward pass (and the split's suffix leg) would be
    /// re-run — and re-charged — once per chunk, so a single sequential
    /// sweep is what keeps the reported charges thread-invariant.
    fn rpq_batch_planned(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
        strategy: PlanStrategy,
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        if expr.as_k_hop().is_some() {
            return self.rpq_batch(expr, sources);
        }
        let out = match strategy {
            PlanStrategy::Forward => return self.rpq_batch(expr, sources),
            PlanStrategy::Bidirectional => {
                run_nfa_bidirectional(&self.graph, &Nfa::from_expr(expr), sources)
            }
            PlanStrategy::RareLabelSplit { split_at } => {
                let Some((prefix, suffix, pivot)) = optimizer::split_for(expr, split_at) else {
                    return self.rpq_batch(expr, sources);
                };
                let (prefix, suffix) = (Nfa::from_expr(&prefix), Nfa::from_expr(&suffix));
                run_nfa_split(&self.graph, &prefix, &suffix, pivot, sources)
            }
        };
        self.finish(out)
    }

    /// The baseline's update footprint: per-label result dependencies come
    /// from the batch, but the *cost* of every query on this engine reads the
    /// whole graph's resident byte count (the cache-residency interpolation
    /// in `host_random_access_cost`), so any batch that changed the graph
    /// sets [`UpdateFootprint::cost_global`]. A batch that applied nothing
    /// left the graph — and therefore every cached answer and cost —
    /// untouched.
    ///
    /// Queries keep the default [`GraphEngine::rpq_batch_tracked`]
    /// ("touched everything"), consistent with that global cost coupling.
    fn insert_labeled_edges_tracked(
        &mut self,
        edges: &[(NodeId, NodeId, Label)],
    ) -> (UpdateStats, UpdateFootprint) {
        let stats = self.insert_labeled_edges(edges);
        (stats, Self::baseline_footprint(edges, stats.applied))
    }

    /// See [`HostBaseline::insert_labeled_edges_tracked`] (same footprint
    /// rule).
    fn delete_labeled_edges_tracked(
        &mut self,
        edges: &[(NodeId, NodeId, Label)],
    ) -> (UpdateStats, UpdateFootprint) {
        let stats = self.delete_labeled_edges(edges);
        (stats, Self::baseline_footprint(edges, stats.applied))
    }

    fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    fn set_threads(&mut self, threads: usize) {
        self.pool = WorkerPool::new(threads);
    }

    fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The baseline's storage plane is its adjacency graph, exported as
    /// canonical sorted rows; the plan executor keeps nothing else.
    fn export_snapshot(&self) -> Option<SnapshotState> {
        Some(SnapshotState {
            edge_count: self.graph.edge_count() as u64,
            adjacency_rows: self.graph.export_rows(),
            adjacency_id_bound: self.graph.id_bound(),
            ..SnapshotState::default()
        })
    }

    /// Restoring rebuilds the graph from its rows; the next query reads them
    /// as a live engine would, so live and restored engines stay
    /// output-identical. An image with any PIM section was written by a PIM
    /// engine, whose edges live in sections this engine does not read: it is
    /// rejected rather than restored as an empty graph.
    fn restore_snapshot(&mut self, snapshot: &SnapshotState) -> bool {
        if !snapshot.local_modules.is_empty()
            || !snapshot.host_rows.is_empty()
            || !snapshot.assignment_slots.is_empty()
            || !snapshot.degrees.is_empty()
            || !snapshot.promotions.is_empty()
        {
            return false;
        }
        self.graph =
            AdjacencyGraph::from_rows(snapshot.adjacency_rows.clone(), snapshot.adjacency_id_bound);
        true
    }

    fn label_stats(&self) -> graph_store::LabelStatsSnapshot {
        self.graph.label_stats().snapshot()
    }

    fn export_rev_rows(&self) -> Vec<(NodeId, Vec<(NodeId, graph_store::Label)>)> {
        self.graph.export_rev_rows()
    }
}

/// The label of each hop of a fixed-length expression — the `smxm` chain
/// `Q × A_l1 × … × A_lk` — or `None` when the expression has no pure matrix
/// chain.
///
/// Only concatenations of atoms and bounded repeats with `min == max` are
/// fixed-length; anything containing `*`, `+`, `?`, alternation or ranged
/// repetition is evaluated with the automaton sweep instead.
fn label_chain(expr: &RpqExpr) -> Option<Vec<LabelSpec>> {
    fn collect(expr: &RpqExpr, out: &mut Vec<LabelSpec>) -> Option<()> {
        match expr {
            RpqExpr::Atom(spec) => out.push(*spec),
            RpqExpr::Concat(parts) => {
                for p in parts {
                    collect(p, out)?;
                }
            }
            RpqExpr::Repeat { expr, min, max } if min == max => {
                for _ in 0..*min {
                    collect(expr, out)?;
                }
            }
            _ => return None,
        }
        Some(())
    }
    let mut chain = Vec::new();
    collect(expr, &mut chain)?;
    Some(chain)
}

/// What one executor run touched, counted per source row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct HostExecutionStats {
    /// Bytes of matrix data read across all operators (8 bytes per entry;
    /// only the adjacency rows actually touched by Gustavson's algorithm).
    bytes_read: u64,
    /// Bytes of result data produced (8 bytes per entry).
    bytes_written: u64,
    /// Number of adjacency-row fetches performed (each one is a random access
    /// into the CSR structure on a real machine).
    row_fetches: u64,
    /// Total result entries after the final reduction.
    result_entries: usize,
    /// Frontier levels executed: the hop count of a matrix chain, the
    /// deepest BFS level of an automaton sweep.
    frontier_levels: usize,
}

impl HostExecutionStats {
    /// Accumulates the statistics of running the *same* chain (or automaton)
    /// over another disjoint chunk of the source batch.
    ///
    /// Every run accounts work per source row, so executing a batch as
    /// disjoint chunks and merging in chunk order reproduces the whole-batch
    /// statistics exactly: byte, fetch and entry counters add, while
    /// `frontier_levels` (a per-source maximum) combines with `max`. All
    /// fields are integers, so the merge is exact however the batch was
    /// chunked.
    fn merge(&mut self, other: &HostExecutionStats) {
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.row_fetches += other.row_fetches;
        self.result_entries += other.result_entries;
        self.frontier_levels = self.frontier_levels.max(other.frontier_levels);
    }
}

/// Runs a matrix chain for a batch of source nodes.
///
/// Returns the matched destinations per source (sorted) and the statistics
/// `finish` prices. Each source is one row of the frontier matrix `Q`, so the
/// product runs source by source: per `smxm`, one row fetch per frontier
/// entry, 8 bytes read per frontier entry and per distinct matching
/// neighbour fetched, 8 bytes written per entry of the next frontier; the
/// closing `mwait` reads 8 bytes per surviving entry and reports each as a
/// result entry. A source at or past the graph's id bound has no entry in
/// `Q` — except under a zero-hop chain (`.{0}` and every other epsilon
/// expression), whose empty path matches every source.
fn run_chain(
    graph: &AdjacencyGraph,
    chain: &[LabelSpec],
    sources: &[NodeId],
) -> (Vec<Vec<NodeId>>, HostExecutionStats) {
    let mut stats = HostExecutionStats { frontier_levels: chain.len(), ..Default::default() };
    let (mut frontier, mut next, mut row) = (Vec::new(), Vec::new(), Vec::new());
    let mut results = Vec::with_capacity(sources.len());
    for &src in sources {
        frontier.clear();
        if chain.is_empty() || src.0 < graph.id_bound() {
            frontier.push(src.index());
        }
        for &spec in chain {
            stats.bytes_read += frontier.len() as u64 * 8;
            next.clear();
            for &node in &frontier {
                fetch(graph.neighbors(NodeId(node as u64)), spec, &mut row, &mut stats);
                next.extend_from_slice(&row);
            }
            next.sort_unstable();
            next.dedup();
            stats.bytes_written += next.len() as u64 * 8;
            std::mem::swap(&mut frontier, &mut next);
        }
        stats.bytes_read += frontier.len() as u64 * 8;
        stats.result_entries += frontier.len();
        results.push(frontier.iter().map(|&n| NodeId(n as u64)).collect());
    }
    (results, stats)
}

/// What a non-forward strategy adds to [`sweep`] (the host-side counterpart
/// of the PIM engine's pruning record).
#[derive(Default)]
struct Pruning<'a> {
    /// Only these product pairs are expanded (`None` = every pair).
    useful: Option<&'a HashSet<(usize, usize)>>,
    /// Acceptance is restricted to these nodes, ascending (the split plan's
    /// prefix leg).
    accept_nodes: Option<&'a [NodeId]>,
}

/// Evaluates a general RPQ automaton with a per-label frontier sweep: the
/// fallback for expressions that have no fixed-length matrix chain (`*`,
/// `+`, `?`, alternation, ranged repetition).
///
/// For every source, the product of the graph and the automaton is traversed
/// level by level; each `(frontier node, transition)` pair fetches one row of
/// the transition label's adjacency matrix — exactly the per-label
/// sub-matrix accesses a GraphBLAS engine would issue — and the statistics
/// account each fetch like an `smxm` row fetch, so the cost model treats both
/// execution strategies uniformly. Results match
/// [`rpq::ReferenceEvaluator::evaluate`].
fn run_nfa(
    graph: &AdjacencyGraph,
    nfa: &Nfa,
    sources: &[NodeId],
) -> (Vec<Vec<NodeId>>, HostExecutionStats) {
    let mut stats = HostExecutionStats::default();
    let results = sweep(graph, nfa, sources, Pruning::default(), &mut stats, |out, _| out);
    (results, stats)
}

/// The one level-by-level product sweep behind every automaton strategy.
///
/// Per source, in this order: the empty path, then per level one row fetch
/// (plus the row's bytes) per `(frontier pair, transition)` and 8 bytes
/// written per newly visited pair; the source's accepted nodes, sorted and
/// deduplicated, then pass through `answer` (the split plan's join; the
/// identity otherwise) before `result_entries` and `frontier_levels` are
/// updated.
///
/// With [`Pruning::useful`] only useful pairs enter a frontier (a start pair
/// outside the set cannot produce results beyond the empty path, so its row
/// fetches are skipped); every discovered pair is still visited and, if
/// accepting, reported. With [`Pruning::accept_nodes`] a pair is reported
/// only when its node is in the set.
fn sweep(
    graph: &AdjacencyGraph,
    nfa: &Nfa,
    sources: &[NodeId],
    pruning: Pruning,
    stats: &mut HostExecutionStats,
    mut answer: impl FnMut(Vec<NodeId>, &mut HostExecutionStats) -> Vec<NodeId>,
) -> Vec<Vec<NodeId>> {
    let accepts =
        |node: NodeId| pruning.accept_nodes.is_none_or(|set| set.binary_search(&node).is_ok());
    let expands = |pair: (usize, usize)| pruning.useful.is_none_or(|set| set.contains(&pair));
    let mut results = Vec::with_capacity(sources.len());
    let mut frontier: Vec<(usize, usize)> = Vec::new();
    let mut next: Vec<(usize, usize)> = Vec::new();
    let mut row: Vec<usize> = Vec::new();
    for &src in sources {
        let mut visited: HashSet<(usize, usize)> = HashSet::new();
        let mut out: Vec<NodeId> = Vec::new();
        frontier.clear();
        if nfa.accepts_empty() && accepts(src) {
            out.push(src);
        }
        if src.0 < graph.id_bound() {
            visited.insert((src.index(), nfa.start()));
            if expands((src.index(), nfa.start())) {
                frontier.push((src.index(), nfa.start()));
            }
        }
        let mut levels = 0usize;
        while !frontier.is_empty() {
            levels += 1;
            next.clear();
            for &(node, state) in frontier.iter() {
                for &(spec, next_state) in nfa.transitions_from(state) {
                    fetch(graph.neighbors(NodeId(node as u64)), spec, &mut row, stats);
                    for &dst in &row {
                        if visited.insert((dst, next_state)) {
                            stats.bytes_written += 8;
                            if nfa.is_accepting(next_state) && accepts(NodeId(dst as u64)) {
                                out.push(NodeId(dst as u64));
                            }
                            if expands((dst, next_state)) {
                                next.push((dst, next_state));
                            }
                        }
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        out.sort_unstable();
        out.dedup();
        let out = answer(out, stats);
        stats.result_entries += out.len();
        stats.frontier_levels = stats.frontier_levels.max(levels);
        results.push(out);
    }
    results
}

/// Nodes with at least one out-edge matching `spec`, ascending, read off the
/// graph's rows: the backward seeds and the split plan's pivots.
fn spec_sources(graph: &AdjacencyGraph, spec: LabelSpec) -> Vec<NodeId> {
    let label = match spec {
        LabelSpec::Any => None,
        LabelSpec::Exact(l) => Some(l),
    };
    let mut nodes: Vec<NodeId> = graph.rows_holding(label).collect();
    nodes.sort_unstable();
    nodes
}

/// Backward useful-set sweep over the graph's in-rows.
///
/// Returns the set of product pairs `(node, state)` from which an accepting
/// pair is reachable in **one or more** transitions. With `accept_nodes` set
/// (ascending), acceptance is restricted to landing on one of those nodes
/// (the split executor's pivots); without it, any node reached in an
/// accepting state counts, and the seeds are [`spec_sources`], charged as one
/// row-pointer scan.
///
/// Work is accounted like the forward sweep: one row fetch plus the row's
/// bytes per `(frontier pair, reversed transition)` (see [`fetch`]), 8 bytes
/// written per newly useful pair.
fn useful_pairs(
    graph: &AdjacencyGraph,
    nfa: &Nfa,
    accept_nodes: Option<&[NodeId]>,
    stats: &mut HostExecutionStats,
) -> HashSet<(usize, usize)> {
    let rev_trans = nfa.reversed_transitions();
    let mut useful: HashSet<(usize, usize)> = HashSet::new();
    let mut frontier: Vec<(usize, usize)> = Vec::new();
    let mut row: Vec<usize> = Vec::new();
    let push = |pair: (usize, usize),
                useful: &mut HashSet<(usize, usize)>,
                frontier: &mut Vec<(usize, usize)>,
                stats: &mut HostExecutionStats| {
        if useful.insert(pair) {
            stats.bytes_written += 8;
            frontier.push(pair);
        }
    };
    // Base seeds: pairs that can take one transition straight into an
    // accepting state.
    for q in 0..nfa.state_count() {
        for &(spec, q_acc) in nfa.transitions_from(q) {
            if !nfa.is_accepting(q_acc) {
                continue;
            }
            match accept_nodes {
                None => {
                    stats.bytes_read += graph.id_bound() * 8;
                    for n in spec_sources(graph, spec) {
                        push((n.index(), q), &mut useful, &mut frontier, stats);
                    }
                }
                Some(targets) => {
                    for m in targets {
                        fetch(graph.in_neighbors(*m), spec, &mut row, stats);
                        for &n in &row {
                            push((n, q), &mut useful, &mut frontier, stats);
                        }
                    }
                }
            }
        }
    }
    // Backward closure: a pair is useful if an edge leads from it to a
    // useful pair under some transition.
    while let Some((m, q2)) = frontier.pop() {
        for &(spec, q) in &rev_trans[q2] {
            fetch(graph.in_neighbors(NodeId(m as u64)), spec, &mut row, stats);
            for &n in &row {
                push((n, q), &mut useful, &mut frontier, stats);
            }
        }
    }
    useful
}

/// Evaluates an RPQ automaton with the **bidirectional** strategy: a backward
/// useful-set sweep over the graph's in-rows first, then the forward product
/// pruned to pairs that can still reach an accepting state. Results are
/// identical to [`run_nfa`] — every prefix of an accepting path is useful, so
/// no accepting pair is ever pruned — while the work accounted can be far
/// smaller when acceptance hinges on a rare label.
fn run_nfa_bidirectional(
    graph: &AdjacencyGraph,
    nfa: &Nfa,
    sources: &[NodeId],
) -> (Vec<Vec<NodeId>>, HostExecutionStats) {
    let mut stats = HostExecutionStats::default();
    let useful = useful_pairs(graph, nfa, None, &mut stats);
    let pruning = Pruning { useful: Some(&useful), accept_nodes: None };
    let results = sweep(graph, nfa, sources, pruning, &mut stats, |out, _| out);
    (results, stats)
}

/// Evaluates a concatenation split at a rare exact-label pivot: the suffix
/// automaton runs forward from the pivot's source set `M` (uncharged), the
/// prefix automaton runs forward from the real sources pruned by a backward
/// sweep over the graph's in-rows whose acceptance is restricted to `M`, and
/// the per-mid answers join. Results are identical to running the full
/// automaton forward.
fn run_nfa_split(
    graph: &AdjacencyGraph,
    prefix: &Nfa,
    suffix: &Nfa,
    pivot: Label,
    sources: &[NodeId],
) -> (Vec<Vec<NodeId>>, HostExecutionStats) {
    let pivots = spec_sources(graph, LabelSpec::Exact(pivot));
    // Suffix leg: full forward sweep from every possible mid.
    let (suffix_results, mut stats) = run_nfa(graph, suffix, &pivots);
    // Prefix leg: forward product pruned by usefulness towards M, each
    // source's answer the union of the suffix answers of every mid it reaches
    // through the prefix (`pivots` is ascending, and `suffix_results` is in
    // its order).
    let useful = useful_pairs(graph, prefix, Some(&pivots), &mut stats);
    let pruning = Pruning { useful: Some(&useful), accept_nodes: Some(&pivots) };
    let results = sweep(graph, prefix, sources, pruning, &mut stats, |mids_hit, stats| {
        let mut out: Vec<NodeId> = Vec::new();
        for m in mids_hit {
            if let Ok(i) = pivots.binary_search(&m) {
                stats.bytes_read += suffix_results[i].len() as u64 * 8;
                out.extend_from_slice(&suffix_results[i]);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    });
    (results, stats)
}

/// One adjacency-row fetch into `row`: the distinct neighbours in `entries`
/// (one of the graph's sorted out-rows or in-rows) joined by a `spec`-matching
/// edge, ascending — what a row of the label's adjacency matrix, or of its
/// transpose, holds — charged as one row fetch plus 8 bytes per neighbour
/// kept.
fn fetch(
    entries: &[(NodeId, Label)],
    spec: LabelSpec,
    row: &mut Vec<usize>,
    stats: &mut HostExecutionStats,
) {
    row.clear();
    for &(n, label) in entries {
        if spec.matches(label) && row.last() != Some(&n.index()) {
            row.push(n.index());
        }
    }
    stats.row_fetches += 1;
    stats.bytes_read += row.len() as u64 * 8;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MoctopusSystem;
    use rpq::ReferenceEvaluator;

    #[test]
    fn matches_reference_evaluator() {
        let graph = graph_gen::uniform::generate(300, 4.0, 13);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let mut baseline = HostBaseline::from_edge_stream(MoctopusConfig::small_test(), &edges);
        let reference = rpq::ReferenceEvaluator::new(&graph);
        let sources: Vec<NodeId> = (0..16u64).map(NodeId).collect();
        for k in 1..=3usize {
            let (got, _) = baseline.k_hop_batch(&sources, k);
            let want = reference.k_hop(&sources, k);
            for (g, w) in got.iter().zip(want.iter()) {
                let w: Vec<NodeId> = w.iter().copied().collect();
                assert_eq!(g, &w, "mismatch at k = {k}");
            }
        }
    }

    #[test]
    fn matches_moctopus_results() {
        let graph = graph_gen::road::generate(300, 0.1, 2);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let mut baseline = HostBaseline::from_edge_stream(MoctopusConfig::small_test(), &edges);
        let mut moc = MoctopusSystem::from_edge_stream(MoctopusConfig::small_test(), &edges);
        let sources: Vec<NodeId> = (0..32u64).map(NodeId).collect();
        let (a, _) = baseline.k_hop_batch(&sources, 3);
        let (b, _) = moc.k_hop_batch(&sources, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn updates_change_results_and_cost_time() {
        let mut baseline = HostBaseline::new(MoctopusConfig::small_test());
        let ins = baseline.insert_edges(&[(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
        assert_eq!(ins.applied, 2);
        assert!(ins.latency().as_nanos() > 0.0);
        assert_eq!(baseline.edge_count(), 2);

        let (before, _) = baseline.k_hop_batch(&[NodeId(0)], 2);
        assert_eq!(before[0], vec![NodeId(2)]);

        let del = baseline.delete_edges(&[(NodeId(1), NodeId(2))]);
        assert_eq!(del.applied, 1);
        let (after, _) = baseline.k_hop_batch(&[NodeId(0)], 2);
        assert!(after[0].is_empty());
    }

    #[test]
    fn duplicate_updates_are_not_applied() {
        let mut baseline = HostBaseline::new(MoctopusConfig::small_test());
        baseline.insert_edges(&[(NodeId(0), NodeId(1))]);
        let again = baseline.insert_edges(&[(NodeId(0), NodeId(1))]);
        assert_eq!(again.applied, 0);
        let missing = baseline.delete_edges(&[(NodeId(5), NodeId(6))]);
        assert_eq!(missing.applied, 0);
    }

    #[test]
    fn planned_execution_matches_forward_answers() {
        let graph = graph_gen::uniform::generate(250, 4.0, 19);
        let mut edges: Vec<(NodeId, NodeId, Label)> =
            graph.edges().map(|(s, d, _)| (s, d, Label((d.0 % 3) as u16 + 1))).collect();
        for i in 0..10u64 {
            edges.push((NodeId(i * 13 % 250), NodeId((i * 29 + 7) % 250), Label(8)));
        }
        let mut baseline = HostBaseline::new(MoctopusConfig::small_test());
        baseline.insert_labeled_edges(&edges);
        let sources: Vec<NodeId> = (0..32u64).map(NodeId).collect();
        for q in ["1/2", "1+", "1*/8/2*", "(1|2)*"] {
            let expr = rpq::parser::parse(q).expect("query parses");
            let (want, _) = baseline.rpq_batch(&expr, &sources);
            for strategy in [
                PlanStrategy::Forward,
                PlanStrategy::Bidirectional,
                PlanStrategy::RareLabelSplit { split_at: 1 },
            ] {
                let (got, _) = baseline.rpq_batch_planned(&expr, &sources, strategy);
                assert_eq!(got, want, "{q} under {} drifted", strategy.describe());
            }
        }
    }

    #[test]
    fn query_cost_grows_with_hops() {
        let graph = graph_gen::uniform::generate(2000, 5.0, 21);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let mut baseline = HostBaseline::from_edge_stream(MoctopusConfig::small_test(), &edges);
        let sources: Vec<NodeId> = (0..64u64).map(NodeId).collect();
        let (_, one) = baseline.k_hop_batch(&sources, 1);
        let (_, three) = baseline.k_hop_batch(&sources, 3);
        assert!(three.latency() > one.latency());
        assert!(three.expansions > one.expansions);
    }

    fn chain_graph() -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new();
        for i in 0..6u64 {
            g.insert_edge(NodeId(i), NodeId(i + 1), Label(0));
        }
        g.insert_edge(NodeId(0), NodeId(3), Label(1));
        g
    }

    #[test]
    fn label_chain_accepts_k_hop() {
        assert_eq!(label_chain(&RpqExpr::k_hop(4)), Some(vec![LabelSpec::Any; 4]));
        assert_eq!(label_chain(&RpqExpr::k_hop(0)), Some(vec![]));
    }

    #[test]
    fn label_chain_accepts_labelled_chains_and_exact_repeats() {
        let labelled = RpqExpr::concat(vec![RpqExpr::label(1), RpqExpr::any()]);
        assert_eq!(label_chain(&labelled), Some(vec![LabelSpec::Exact(Label(1)), LabelSpec::Any]));
        let exact = RpqExpr::Repeat { expr: Box::new(labelled), min: 2, max: 2 };
        let spec = |l| LabelSpec::Exact(Label(l));
        assert_eq!(
            label_chain(&exact),
            Some(vec![spec(1), LabelSpec::Any, spec(1), LabelSpec::Any])
        );
    }

    #[test]
    fn label_chain_rejects_unbounded_shapes() {
        assert!(label_chain(&RpqExpr::Star(Box::new(RpqExpr::any()))).is_none());
        assert!(label_chain(&RpqExpr::alt(vec![RpqExpr::label(1), RpqExpr::label(2)])).is_none());
        let ranged = RpqExpr::Repeat { expr: Box::new(RpqExpr::any()), min: 1, max: 2 };
        assert!(label_chain(&ranged).is_none());
    }

    #[test]
    fn host_engine_matches_reference_two_hop() {
        let g = chain_graph();
        let (result, stats) = run_chain(&g, &[LabelSpec::Any; 2], &[NodeId(0), NodeId(4)]);
        assert_eq!(result[0], vec![NodeId(2), NodeId(4)]); // 0->1->2 and 0->3->4
        assert_eq!(result[1], vec![NodeId(6)]);
        assert_eq!(stats.frontier_levels, 2);
        assert_eq!(stats.result_entries, 3);
        assert!(stats.bytes_read > 0);
    }

    #[test]
    fn label_restricted_plan_uses_label_matrix() {
        let g = chain_graph();
        let expr = RpqExpr::concat(vec![RpqExpr::label(1), RpqExpr::label(0)]);
        let (result, _) = run_chain(&g, &label_chain(&expr).unwrap(), &[NodeId(0)]);
        // 0 -(label1)-> 3 -(label0)-> 4.
        assert_eq!(result[0], vec![NodeId(4)]);
        // Missing label yields an empty matrix and therefore no results.
        let missing = label_chain(&RpqExpr::label(9)).unwrap();
        let (empty, _) = run_chain(&g, &missing, &[NodeId(0)]);
        assert!(empty[0].is_empty());
    }

    #[test]
    fn sources_outside_the_matrix_yield_empty_rows() {
        let g = chain_graph();
        let (result, _) = run_chain(&g, &[LabelSpec::Any], &[NodeId(1000)]);
        assert!(result[0].is_empty());
    }

    #[test]
    fn zero_hop_plans_match_every_source_to_itself() {
        // Regression test: the zero-hop plan used to answer from the Q-matrix
        // rows, which are empty for sources beyond the matrix bound — the
        // empty path matches *every* source, in or out of the matrix — and
        // `result_entries` undercounted accordingly.
        let g = chain_graph();
        let chain = label_chain(&RpqExpr::k_hop(0)).unwrap();
        assert!(chain.is_empty());
        let sources = [NodeId(0), NodeId(1000), NodeId(3)];
        let (results, stats) = run_chain(&g, &chain, &sources);
        assert_eq!(results, vec![vec![NodeId(0)], vec![NodeId(1000)], vec![NodeId(3)]]);
        assert_eq!(stats.result_entries, 3);
        assert_eq!(stats.frontier_levels, 0);
        // Chunked execution merges back to the whole-batch statistics.
        let (_, first) = run_chain(&g, &chain, &sources[..1]);
        let (_, rest) = run_chain(&g, &chain, &sources[1..]);
        let mut merged = first;
        merged.merge(&rest);
        assert_eq!(merged, stats);
    }

    #[test]
    fn run_nfa_matches_reference_on_unbounded_queries() {
        let mut g = AdjacencyGraph::new();
        // 0 -1-> 1 -2-> 2 -2-> 3 -3-> 4, with a label-2 cycle 2 -> 1.
        g.insert_edge(NodeId(0), NodeId(1), Label(1));
        g.insert_edge(NodeId(1), NodeId(2), Label(2));
        g.insert_edge(NodeId(2), NodeId(3), Label(2));
        g.insert_edge(NodeId(2), NodeId(1), Label(2));
        g.insert_edge(NodeId(3), NodeId(4), Label(3));
        let reference = ReferenceEvaluator::new(&g);
        let sources: Vec<NodeId> = (0..5u64).map(NodeId).collect();
        for expr in [
            RpqExpr::concat(vec![
                RpqExpr::label(1),
                RpqExpr::Star(Box::new(RpqExpr::label(2))),
                RpqExpr::label(3),
            ]),
            RpqExpr::Plus(Box::new(RpqExpr::label(2))),
            RpqExpr::Star(Box::new(RpqExpr::any())),
        ] {
            let nfa = Nfa::from_expr(&expr);
            let (got, stats) = run_nfa(&g, &nfa, &sources);
            let want = reference.evaluate(&expr, &sources);
            for (g, w) in got.iter().zip(want.iter()) {
                let w: Vec<NodeId> = w.iter().copied().collect();
                assert_eq!(g, &w, "run_nfa disagrees with the reference for {expr}");
            }
            assert!(stats.row_fetches > 0);
            assert!(stats.frontier_levels > 0);
        }
    }

    fn rare_label_graph() -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new();
        // A dense any-label mesh with one rare label-9 edge hanging off it.
        for i in 0..8u64 {
            for j in 0..8u64 {
                if i != j && (i + j) % 3 != 0 {
                    g.insert_edge(NodeId(i), NodeId(j), Label(1));
                }
            }
        }
        g.insert_edge(NodeId(3), NodeId(20), Label(9));
        g.insert_edge(NodeId(20), NodeId(21), Label(1));
        g
    }

    #[test]
    fn bidirectional_matches_forward_run_nfa() {
        let g = rare_label_graph();
        let sources: Vec<NodeId> = (0..22u64).map(NodeId).collect();
        for expr in [
            RpqExpr::concat(vec![RpqExpr::Star(Box::new(RpqExpr::any())), RpqExpr::label(9)]),
            RpqExpr::concat(vec![
                RpqExpr::Plus(Box::new(RpqExpr::label(1))),
                RpqExpr::label(9),
                RpqExpr::label(1),
            ]),
            RpqExpr::Star(Box::new(RpqExpr::label(2))),
            RpqExpr::Optional(Box::new(RpqExpr::label(9))),
        ] {
            let nfa = Nfa::from_expr(&expr);
            let (forward, fwd_stats) = run_nfa(&g, &nfa, &sources);
            let (bidi, _) = run_nfa_bidirectional(&g, &nfa, &sources);
            assert_eq!(forward, bidi, "bidirectional diverged for {expr}");
            assert!(fwd_stats.result_entries == bidi.iter().map(Vec::len).sum::<usize>());
        }
    }

    #[test]
    fn bidirectional_prunes_rare_label_closures() {
        let g = rare_label_graph();
        let sources: Vec<NodeId> = (0..22u64).map(NodeId).collect();
        let expr = RpqExpr::concat(vec![
            RpqExpr::Star(Box::new(RpqExpr::any())),
            RpqExpr::label(9),
            RpqExpr::label(1),
        ]);
        let nfa = Nfa::from_expr(&expr);
        let (_, fwd) = run_nfa(&g, &nfa, &sources);
        let (_, bidi) = run_nfa_bidirectional(&g, &nfa, &sources);
        assert!(
            bidi.row_fetches < fwd.row_fetches,
            "pruned sweep must fetch fewer rows: {} vs {}",
            bidi.row_fetches,
            fwd.row_fetches
        );
    }

    #[test]
    fn split_matches_forward_run_nfa() {
        let g = rare_label_graph();
        let sources: Vec<NodeId> = (0..22u64).map(NodeId).collect();
        let prefix_expr = RpqExpr::Star(Box::new(RpqExpr::label(1)));
        let suffix_expr = RpqExpr::concat(vec![RpqExpr::label(9), RpqExpr::label(1)]);
        let whole = RpqExpr::concat(vec![prefix_expr.clone(), suffix_expr.clone()]);
        let (forward, _) = run_nfa(&g, &Nfa::from_expr(&whole), &sources);
        let (split, _) = run_nfa_split(
            &g,
            &Nfa::from_expr(&prefix_expr),
            &Nfa::from_expr(&suffix_expr),
            Label(9),
            &sources,
        );
        assert_eq!(forward, split);
    }

    /// A 96-node labelled graph from a fixed multiplicative recurrence:
    /// labels 1–3 common, label 9 on every 23rd edge.
    fn generated_graph() -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new();
        let mut x = 0x9e37_79b9u64;
        for i in 0..400u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let (src, dst) = ((x >> 33) % 96, (x >> 17) % 96);
            let label = if i % 23 == 0 { 9 } else { 1 + (x >> 50) % 3 };
            g.insert_edge(NodeId(src), NodeId(dst), Label(label as u16));
        }
        g
    }

    /// Every [`HostExecutionStats`] counter of the forward, bidirectional and
    /// split runs of `1*/9/1`, as `[row_fetches, bytes_read, bytes_written,
    /// frontier_levels, result_entries]`, against constants taken
    /// at the commit before the three sweeps were folded into one
    /// (`rpq --taxonomy` pins them only rounded into simulated milliseconds).
    #[test]
    fn host_sweep_statistics_are_pinned() {
        let counters = |(_, s): (Vec<Vec<NodeId>>, HostExecutionStats)| {
            let [levels, entries] = [s.frontier_levels, s.result_entries].map(|c| c as u64);
            [s.row_fetches, s.bytes_read, s.bytes_written, levels, entries]
        };
        let prefix = RpqExpr::Star(Box::new(RpqExpr::label(1)));
        let suffix = RpqExpr::concat(vec![RpqExpr::label(9), RpqExpr::label(1)]);
        let whole = Nfa::from_expr(&RpqExpr::concat(vec![prefix.clone(), suffix.clone()]));
        let (prefix, suffix) = (Nfa::from_expr(&prefix), Nfa::from_expr(&suffix));
        let golden = [
            (
                rare_label_graph(),
                22,
                [[182, 2880, 648, 5, 8], [203, 3984, 912, 4, 8], [101, 3848, 720, 3, 9]],
            ),
            (
                generated_graph(),
                96,
                [
                    [5779, 38752, 29632, 20, 670],
                    [4290, 38312, 30528, 19, 670],
                    [1839, 34072, 20912, 18, 698],
                ],
            ),
        ];
        for (g, source_count, want) in golden {
            let sources: Vec<NodeId> = (0..source_count).map(NodeId).collect();
            let got = [
                counters(run_nfa(&g, &whole, &sources)),
                counters(run_nfa_bidirectional(&g, &whole, &sources)),
                counters(run_nfa_split(&g, &prefix, &suffix, Label(9), &sources)),
            ];
            assert_eq!(got, want, "host sweep counters moved on the {source_count}-source graph");
        }
    }

    /// Every [`HostExecutionStats`] counter of [`run_chain`], as
    /// `[row_fetches, bytes_read, bytes_written, frontier_levels,
    /// result_entries]`, against constants taken while the executor still
    /// multiplied CSR matrices: unlabelled chains, labelled chains, the zero
    /// hop, a label no edge carries, a source past the id bound, and one
    /// node pair joined under two labels (the any-label row counts it once).
    #[test]
    fn host_chain_statistics_are_pinned() {
        let mut sources: Vec<NodeId> = (0..96).map(NodeId).collect();
        sources.push(NodeId(500));
        let generated = generated_graph();
        let mut twin = AdjacencyGraph::new();
        for (s, d, l) in [(0, 1, 1), (0, 1, 2), (0, 2, 1), (1, 2, 2), (2, 0, 3)] {
            twin.insert_edge(NodeId(s), NodeId(d), Label(l));
        }
        let cases: [(&AdjacencyGraph, &str, &[NodeId], [u64; 5]); 9] = [
            (&generated, ".{1}", &sources, [96, 7072, 3152, 1, 394]),
            (&generated, ".{2}", &sources, [490, 32472, 15304, 2, 1519]),
            (&generated, ".{3}", &sources, [2009, 119272, 51008, 3, 4463]),
            (&generated, "1/2", &sources, [227, 5640, 2424, 2, 172]),
            (&generated, ".{0}", &sources, [0, 776, 0, 0, 97]),
            (&generated, "7/1", &sources, [96, 768, 0, 2, 0]),
            (&generated, "2", &[NodeId(500), NodeId(3)], [1, 56, 24, 1, 3]),
            (&twin, ".", &[NodeId(0), NodeId(1), NodeId(2), NodeId(9)], [3, 88, 32, 1, 4]),
            (&twin, ".{2}", &[NodeId(0), NodeId(1), NodeId(2)], [7, 168, 72, 2, 5]),
        ];
        for (g, text, sources, want) in cases {
            let chain = label_chain(&rpq::parser::parse(text).unwrap()).unwrap();
            let (_, s) = run_chain(g, &chain, sources);
            let [levels, entries] = [s.frontier_levels, s.result_entries].map(|c| c as u64);
            let got = [s.row_fetches, s.bytes_read, s.bytes_written, levels, entries];
            assert_eq!(got, want, "host chain counters moved for {text}");
        }
    }

    #[test]
    fn reverse_rows_mirror_every_forward_matrix() {
        let mut graph = rare_label_graph();
        graph.insert_edge(NodeId(30), NodeId(31), Label(4));
        graph.insert_edge(NodeId(31), NodeId(3), Label(1));
        graph.insert_edge(NodeId(31), NodeId(3), Label(4));
        graph.remove_edge(NodeId(3), NodeId(20), Label(9));
        let bound = graph.id_bound();
        let mut stats = HostExecutionStats::default();
        let (mut rev, mut fwd, mut entries) = (Vec::new(), Vec::new(), 0);
        for node in 0..bound {
            for spec in [LabelSpec::Any, LabelSpec::Exact(Label(1)), LabelSpec::Exact(Label(9))] {
                // The fetched in-row is the transposed matrix row: distinct
                // sources, ascending, exactly the forward entries.
                fetch(graph.in_neighbors(NodeId(node)), spec, &mut rev, &mut stats);
                let want: Vec<usize> = (0..bound)
                    .filter(|&src| {
                        let mut unused = HostExecutionStats::default();
                        fetch(graph.neighbors(NodeId(src)), spec, &mut fwd, &mut unused);
                        fwd.contains(&(node as usize))
                    })
                    .map(|src| src as usize)
                    .collect();
                assert_eq!(rev, want, "reverse row of {node} under {spec:?}");
                entries += want.len() as u64;
            }
        }
        // One fetch per row, charged by the filtered row's length.
        assert_eq!(stats.row_fetches, bound * 3);
        assert_eq!(stats.bytes_read, entries * 8);
    }
}
