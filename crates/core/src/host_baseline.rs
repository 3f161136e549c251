//! The RedisGraph-like host baseline.
//!
//! RedisGraph evaluates graph queries by compiling them into GraphBLAS sparse
//! matrix algebra and executing the plan on one dedicated CPU core. The
//! baseline here runs the same row-wise plans through
//! [`rpq::plan::HostMatrixEngine`], which reads each adjacency-matrix row off
//! the graph's sorted rows, and charges the work to the same host-side cost
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
use rpq::plan::{HostExecutionStats, HostMatrixEngine};
use rpq::{optimizer, ExecutionPlan, Nfa, PlanStrategy, RpqExpr};

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

    /// The plan executor over the current graph.
    fn engine(&self) -> HostMatrixEngine<'_> {
        HostMatrixEngine::new(&self.graph)
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

    fn k_hop_batch(&mut self, sources: &[NodeId], k: usize) -> (Vec<Vec<NodeId>>, QueryStats) {
        let plan = ExecutionPlan::k_hop(k);
        self.finish(self.run_chunked(sources, |chunk| self.engine().run(&plan, chunk)))
    }

    fn rpq_batch(&mut self, expr: &RpqExpr, sources: &[NodeId]) -> (Vec<Vec<NodeId>>, QueryStats) {
        // Plain k-hop shapes take the exact same path (and charges) as
        // `k_hop_batch`.
        if let Some(k) = expr.as_k_hop() {
            return self.k_hop_batch(sources, k);
        }
        // Fixed-length expressions stay matrix chains (`Q × A_l1 × … × A_lk`);
        // everything else sweeps the automaton over the per-label rows.
        let out = match ExecutionPlan::from_expr(expr) {
            Some(plan) => self.run_chunked(sources, |chunk| self.engine().run(&plan, chunk)),
            None => {
                let nfa = Nfa::from_expr(expr);
                self.run_chunked(sources, |chunk| self.engine().run_nfa(&nfa, chunk))
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
                self.engine().run_nfa_bidirectional(&Nfa::from_expr(expr), sources)
            }
            PlanStrategy::RareLabelSplit { split_at } => {
                let Some((prefix, suffix, pivot)) = optimizer::split_for(expr, split_at) else {
                    return self.rpq_batch(expr, sources);
                };
                let (prefix, suffix) = (Nfa::from_expr(&prefix), Nfa::from_expr(&suffix));
                self.engine().run_nfa_split(&prefix, &suffix, pivot, sources)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MoctopusSystem;

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
}
