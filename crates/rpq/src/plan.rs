//! Matrix-based execution plans (the paper's `smxm` / `mwait` operators) and
//! a host-side executor that runs them over the graph's own rows.
//!
//! The Query Processor translates a batch RPQ into a plan
//! `ans = Q × Adj × … × Adj`: one [`PlanOp::Smxm`] per hop followed by an
//! [`PlanOp::MWait`] that reduces/gathers the result. Graph updates (the
//! paper's `add` / `sub` over a delta matrix) never go through a plan: the
//! host baseline applies them to its [`AdjacencyGraph`], and the next query
//! reads the updated rows. The [`HostMatrixEngine`] in this module executes
//! query plans on the host the way the RedisGraph baseline's GraphBLAS
//! kernels do — Gustavson's row-wise product, one adjacency-row fetch per
//! frontier entry — and reports how much matrix data each operator touched
//! so the simulator can charge memory-system costs. It keeps no matrix: a
//! row of a label's adjacency matrix (or of its transpose) is the graph's
//! sorted out-row ([`AdjacencyGraph::neighbors`]) or in-row
//! ([`AdjacencyGraph::in_neighbors`]) filtered by the label.

use crate::ast::{LabelSpec, RpqExpr};
use crate::nfa::Nfa;
use graph_store::{AdjacencyGraph, Label, NodeId};
use std::collections::HashSet;

/// One operator of a matrix-based execution plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOp {
    /// Sparse matrix × matrix multiplication against the adjacency matrix of
    /// the given label (one hop of path matching).
    Smxm(LabelSpec),
    /// Wait for all partial products and reduce them into the result matrix.
    MWait,
}

/// A sequence of matrix operators produced by the query planner.
///
/// # Examples
///
/// ```
/// use rpq::{ExecutionPlan, RpqExpr, PlanOp};
/// let plan = ExecutionPlan::from_expr(&RpqExpr::k_hop(3)).expect("k-hop plans are supported");
/// assert_eq!(plan.hop_count(), 3);
/// assert_eq!(plan.ops().last(), Some(&PlanOp::MWait));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionPlan {
    ops: Vec<PlanOp>,
}

impl ExecutionPlan {
    /// The plan for a k-hop path query over any label.
    pub fn k_hop(k: usize) -> Self {
        let mut ops = vec![PlanOp::Smxm(LabelSpec::Any); k];
        ops.push(PlanOp::MWait);
        ExecutionPlan { ops }
    }

    /// Compiles an RPQ expression into a chain of `smxm` operators.
    ///
    /// Only *fixed-length* expressions — concatenations of atoms and bounded
    /// repeats with `min == max` — have a pure matrix-chain plan; anything
    /// containing `*`, `+`, `?`, alternation, or ranged repetition returns
    /// `None` and must be evaluated with the automaton-based engine instead.
    pub fn from_expr(expr: &RpqExpr) -> Option<Self> {
        let mut specs = Vec::new();
        collect_chain(expr, &mut specs)?;
        let mut ops: Vec<PlanOp> = specs.into_iter().map(PlanOp::Smxm).collect();
        ops.push(PlanOp::MWait);
        Some(ExecutionPlan { ops })
    }

    /// The operators in execution order.
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// Number of `smxm` (hop) operators in the plan.
    pub fn hop_count(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, PlanOp::Smxm(_))).count()
    }
}

/// Flattens a fixed-length expression into the label of each hop.
fn collect_chain(expr: &RpqExpr, out: &mut Vec<LabelSpec>) -> Option<()> {
    match expr {
        RpqExpr::Atom(spec) => {
            out.push(*spec);
            Some(())
        }
        RpqExpr::Concat(parts) => {
            for p in parts {
                collect_chain(p, out)?;
            }
            Some(())
        }
        RpqExpr::Repeat { expr, min, max } if min == max => {
            for _ in 0..*min {
                collect_chain(expr, out)?;
            }
            Some(())
        }
        _ => None,
    }
}

/// Execution statistics of one plan run on the host engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostExecutionStats {
    /// Bytes of matrix data read across all operators (8 bytes per entry;
    /// only the adjacency rows actually touched by Gustavson's algorithm).
    pub bytes_read: u64,
    /// Bytes of result data produced (8 bytes per entry).
    pub bytes_written: u64,
    /// Number of adjacency-row fetches performed (each one is a random access
    /// into the CSR structure on a real machine).
    pub row_fetches: u64,
    /// Number of `smxm` operators executed.
    pub smxm_ops: usize,
    /// Total result entries after the final reduction.
    pub result_entries: usize,
    /// Frontier levels executed: equals `smxm_ops` for matrix-chain plans,
    /// and the deepest BFS level for automaton sweeps
    /// ([`HostMatrixEngine::run_nfa`]).
    pub frontier_levels: usize,
}

impl HostExecutionStats {
    /// Accumulates the statistics of running the *same* plan (or automaton)
    /// over another disjoint chunk of the source batch.
    ///
    /// Both [`HostMatrixEngine::run`] and [`HostMatrixEngine::run_nfa`]
    /// account work per source row, so executing a batch as disjoint chunks
    /// and merging in chunk order reproduces the whole-batch statistics
    /// exactly: byte and fetch counters add, while `smxm_ops` (identical in
    /// every chunk of a chain; zero for sweeps) and `frontier_levels` (a
    /// per-source maximum) combine with `max`. All fields are integers, so
    /// the merge is exact regardless of how the batch was chunked.
    pub fn merge(&mut self, other: &HostExecutionStats) {
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.row_fetches += other.row_fetches;
        self.smxm_ops = self.smxm_ops.max(other.smxm_ops);
        self.result_entries += other.result_entries;
        self.frontier_levels = self.frontier_levels.max(other.frontier_levels);
    }
}

/// What a non-forward strategy adds to [`HostMatrixEngine::sweep`] (the
/// host-side counterpart of the PIM engine's pruning record).
#[derive(Default)]
struct Pruning<'a> {
    /// Only these product pairs are expanded (`None` = every pair).
    useful: Option<&'a HashSet<(usize, usize)>>,
    /// Acceptance is restricted to these nodes, ascending (the split plan's
    /// prefix leg).
    accept_nodes: Option<&'a [NodeId]>,
}

/// Host-side (RedisGraph-like) matrix engine: a plan executor over a borrowed
/// graph, whose sorted rows stand in for the rows of every per-label
/// adjacency matrix and of its transpose.
///
/// # Examples
///
/// ```
/// use graph_store::{AdjacencyGraph, Label, NodeId};
/// use rpq::plan::HostMatrixEngine;
/// use rpq::ExecutionPlan;
///
/// let mut g = AdjacencyGraph::new();
/// g.insert_edge(NodeId(0), NodeId(1), Label(0));
/// g.insert_edge(NodeId(1), NodeId(2), Label(0));
/// let engine = HostMatrixEngine::new(&g);
/// let (result, stats) = engine.run(&ExecutionPlan::k_hop(2), &[NodeId(0)]);
/// assert_eq!(result[0], vec![NodeId(2)]);
/// assert!(stats.bytes_read > 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HostMatrixEngine<'g> {
    graph: &'g AdjacencyGraph,
}

impl<'g> HostMatrixEngine<'g> {
    /// An executor over `graph`'s rows as they are: an update to the graph
    /// needs nothing rebuilt before the next query.
    pub fn new(graph: &'g AdjacencyGraph) -> Self {
        HostMatrixEngine { graph }
    }

    /// The adjacency matrices' dimension: one past the largest node id.
    fn node_bound(&self) -> usize {
        self.graph.id_bound() as usize
    }

    /// Executes a query plan for a batch of source nodes.
    ///
    /// Returns the matched destinations per source (sorted) and the execution
    /// statistics used for cost modelling. Each source is one row of the
    /// frontier matrix `Q`, so the product runs source by source: per `smxm`,
    /// one row fetch per frontier entry, 8 bytes read per frontier entry and
    /// per distinct matching neighbour fetched, 8 bytes written per entry of
    /// the next frontier; the `mwait` reads 8 bytes per result entry. A
    /// source at or past the bound has no entry in `Q` — except under a
    /// zero-hop plan (`.{0}` and every other epsilon expression), whose empty
    /// path matches every source.
    pub fn run(
        &self,
        plan: &ExecutionPlan,
        sources: &[NodeId],
    ) -> (Vec<Vec<NodeId>>, HostExecutionStats) {
        let hops = plan.hop_count();
        let mut stats =
            HostExecutionStats { smxm_ops: hops, frontier_levels: hops, ..Default::default() };
        let (mut frontier, mut next, mut row) = (Vec::new(), Vec::new(), Vec::new());
        let mut results = Vec::with_capacity(sources.len());
        for &src in sources {
            frontier.clear();
            if hops == 0 || src.index() < self.node_bound() {
                frontier.push(src.index());
            }
            for op in plan.ops() {
                stats.bytes_read += frontier.len() as u64 * 8;
                let PlanOp::Smxm(spec) = *op else {
                    stats.result_entries += frontier.len();
                    continue;
                };
                next.clear();
                for &node in &frontier {
                    fetch(self.graph.neighbors(NodeId(node as u64)), spec, &mut row, &mut stats);
                    next.extend_from_slice(&row);
                }
                next.sort_unstable();
                next.dedup();
                stats.bytes_written += next.len() as u64 * 8;
                std::mem::swap(&mut frontier, &mut next);
            }
            results.push(frontier.iter().map(|&n| NodeId(n as u64)).collect());
        }
        (results, stats)
    }

    /// Evaluates a general RPQ automaton with a per-label frontier sweep: the
    /// host-side fallback for expressions that have no fixed-length matrix
    /// chain (`*`, `+`, `?`, alternation, ranged repetition).
    ///
    /// For every source, the product of the graph and the automaton is
    /// traversed level by level; each `(frontier node, transition)` pair
    /// fetches one row of the transition label's adjacency matrix — exactly
    /// the per-label sub-matrix accesses a GraphBLAS engine would issue — and
    /// the statistics account each fetch like an `smxm` row fetch so the cost
    /// model treats both execution strategies uniformly.
    ///
    /// Results match [`crate::ReferenceEvaluator::evaluate`].
    pub fn run_nfa(&self, nfa: &Nfa, sources: &[NodeId]) -> (Vec<Vec<NodeId>>, HostExecutionStats) {
        let mut stats = HostExecutionStats::default();
        let results = self.sweep(nfa, sources, Pruning::default(), &mut stats, |out, _| out);
        (results, stats)
    }

    /// The one level-by-level product sweep behind every automaton strategy.
    ///
    /// Per source, in this order: the empty path, then per level one row
    /// fetch (plus the row's bytes) per `(frontier pair, transition)` and 8
    /// bytes written per newly visited pair; the source's accepted nodes,
    /// sorted and deduplicated, then pass through `answer` (the split plan's
    /// join; the identity otherwise) before `result_entries` and
    /// `frontier_levels` are updated.
    ///
    /// With [`Pruning::useful`] only useful pairs enter a frontier (a start
    /// pair outside the set cannot produce results beyond the empty path, so
    /// its row fetches are skipped); every discovered pair is still visited
    /// and, if accepting, reported. With [`Pruning::accept_nodes`] a pair is
    /// reported only when its node is in the set.
    fn sweep(
        &self,
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
            if src.index() < self.node_bound() {
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
                        fetch(self.graph.neighbors(NodeId(node as u64)), spec, &mut row, stats);
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

    /// Nodes with at least one out-edge matching `spec`, ascending, read off
    /// the graph's rows: the backward seeds and the split plan's pivots.
    fn spec_sources(&self, spec: LabelSpec) -> Vec<NodeId> {
        let label = match spec {
            LabelSpec::Any => None,
            LabelSpec::Exact(l) => Some(l),
        };
        let mut nodes: Vec<NodeId> = self.graph.rows_holding(label).collect();
        nodes.sort_unstable();
        nodes
    }

    /// Backward useful-set sweep over the graph's in-rows.
    ///
    /// Returns the set of product pairs `(node, state)` from which an
    /// accepting pair is reachable in **one or more** transitions. With
    /// `accept_nodes` set (ascending), acceptance is restricted to landing on
    /// one of those nodes (the split executor's pivots); without it, any node
    /// reached in an accepting state counts, and the seeds are
    /// [`HostMatrixEngine::spec_sources`], charged as one row-pointer scan.
    ///
    /// Work is accounted like the forward sweep: one row fetch plus the
    /// row's bytes per `(frontier pair, reversed transition)` (see
    /// [`fetch`]), 8 bytes written per newly useful pair.
    fn useful_pairs(
        &self,
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
                        stats.bytes_read += self.node_bound() as u64 * 8;
                        for n in self.spec_sources(spec) {
                            push((n.index(), q), &mut useful, &mut frontier, stats);
                        }
                    }
                    Some(targets) => {
                        for m in targets {
                            fetch(self.graph.in_neighbors(*m), spec, &mut row, stats);
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
                fetch(self.graph.in_neighbors(NodeId(m as u64)), spec, &mut row, stats);
                for &n in &row {
                    push((n, q), &mut useful, &mut frontier, stats);
                }
            }
        }
        useful
    }

    /// Evaluates an RPQ automaton with the **bidirectional** strategy: a
    /// backward useful-set sweep over the graph's in-rows first, then the
    /// forward product pruned to pairs that can still reach an accepting
    /// state. Results are identical to [`HostMatrixEngine::run_nfa`] — every
    /// prefix of an accepting path is useful, so no accepting pair is ever
    /// pruned — while the work accounted can be far smaller when acceptance
    /// hinges on a rare label.
    pub fn run_nfa_bidirectional(
        &self,
        nfa: &Nfa,
        sources: &[NodeId],
    ) -> (Vec<Vec<NodeId>>, HostExecutionStats) {
        let mut stats = HostExecutionStats::default();
        let useful = self.useful_pairs(nfa, None, &mut stats);
        let pruning = Pruning { useful: Some(&useful), accept_nodes: None };
        let results = self.sweep(nfa, sources, pruning, &mut stats, |out, _| out);
        (results, stats)
    }

    /// Evaluates a concatenation split at a rare exact-label pivot: the
    /// suffix automaton runs forward from the pivot's source set `M`
    /// (uncharged), the prefix automaton runs forward from the real sources
    /// pruned by a backward sweep over the graph's in-rows whose acceptance is
    /// restricted to `M`, and the per-mid answers join. Results are identical
    /// to running the full automaton forward.
    pub fn run_nfa_split(
        &self,
        prefix: &Nfa,
        suffix: &Nfa,
        pivot: Label,
        sources: &[NodeId],
    ) -> (Vec<Vec<NodeId>>, HostExecutionStats) {
        let pivots = self.spec_sources(LabelSpec::Exact(pivot));
        // Suffix leg: full forward sweep from every possible mid.
        let (suffix_results, mut stats) = self.run_nfa(suffix, &pivots);
        // Prefix leg: forward product pruned by usefulness towards M, each
        // source's answer the union of the suffix answers of every mid it
        // reaches through the prefix (`pivots` is ascending, and
        // `suffix_results` is in its order).
        let useful = self.useful_pairs(prefix, Some(&pivots), &mut stats);
        let pruning = Pruning { useful: Some(&useful), accept_nodes: Some(&pivots) };
        let results = self.sweep(prefix, sources, pruning, &mut stats, |mids_hit, stats| {
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

    fn chain_graph() -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new();
        for i in 0..6u64 {
            g.insert_edge(NodeId(i), NodeId(i + 1), Label(0));
        }
        g.insert_edge(NodeId(0), NodeId(3), Label(1));
        g
    }

    #[test]
    fn k_hop_plan_shape() {
        let plan = ExecutionPlan::k_hop(4);
        assert_eq!(plan.hop_count(), 4);
        assert_eq!(plan.ops().len(), 5);
        assert_eq!(plan.ops()[4], PlanOp::MWait);
    }

    #[test]
    fn from_expr_accepts_fixed_length_shapes() {
        assert_eq!(ExecutionPlan::from_expr(&RpqExpr::k_hop(2)).unwrap().hop_count(), 2);
        let labelled = RpqExpr::concat(vec![RpqExpr::label(1), RpqExpr::any()]);
        let plan = ExecutionPlan::from_expr(&labelled).unwrap();
        assert_eq!(plan.ops()[0], PlanOp::Smxm(LabelSpec::Exact(Label(1))));
        assert_eq!(plan.ops()[1], PlanOp::Smxm(LabelSpec::Any));
    }

    #[test]
    fn from_expr_rejects_unbounded_shapes() {
        assert!(ExecutionPlan::from_expr(&RpqExpr::Star(Box::new(RpqExpr::any()))).is_none());
        assert!(ExecutionPlan::from_expr(&RpqExpr::alt(vec![
            RpqExpr::label(1),
            RpqExpr::label(2)
        ]))
        .is_none());
        let ranged = RpqExpr::Repeat { expr: Box::new(RpqExpr::any()), min: 1, max: 2 };
        assert!(ExecutionPlan::from_expr(&ranged).is_none());
    }

    #[test]
    fn host_engine_matches_reference_two_hop() {
        let g = chain_graph();
        let engine = HostMatrixEngine::new(&g);
        let (result, stats) = engine.run(&ExecutionPlan::k_hop(2), &[NodeId(0), NodeId(4)]);
        assert_eq!(result[0], vec![NodeId(2), NodeId(4)]); // 0->1->2 and 0->3->4
        assert_eq!(result[1], vec![NodeId(6)]);
        assert_eq!(stats.smxm_ops, 2);
        assert_eq!(stats.result_entries, 3);
        assert!(stats.bytes_read > 0);
    }

    #[test]
    fn label_restricted_plan_uses_label_matrix() {
        let g = chain_graph();
        let engine = HostMatrixEngine::new(&g);
        let expr = RpqExpr::concat(vec![RpqExpr::label(1), RpqExpr::label(0)]);
        let plan = ExecutionPlan::from_expr(&expr).unwrap();
        let (result, _) = engine.run(&plan, &[NodeId(0)]);
        // 0 -(label1)-> 3 -(label0)-> 4.
        assert_eq!(result[0], vec![NodeId(4)]);
        // Missing label yields an empty matrix and therefore no results.
        let missing = ExecutionPlan::from_expr(&RpqExpr::label(9)).unwrap();
        let (empty, _) = engine.run(&missing, &[NodeId(0)]);
        assert!(empty[0].is_empty());
    }

    #[test]
    fn sources_outside_the_matrix_yield_empty_rows() {
        let g = chain_graph();
        let engine = HostMatrixEngine::new(&g);
        let (result, _) = engine.run(&ExecutionPlan::k_hop(1), &[NodeId(1000)]);
        assert!(result[0].is_empty());
    }

    #[test]
    fn zero_hop_plans_match_every_source_to_itself() {
        // Regression test: the zero-hop plan used to answer from the Q-matrix
        // rows, which are empty for sources beyond the matrix bound — the
        // empty path matches *every* source, in or out of the matrix — and
        // `result_entries` undercounted accordingly.
        let g = chain_graph();
        let engine = HostMatrixEngine::new(&g);
        let plan = ExecutionPlan::from_expr(&RpqExpr::k_hop(0)).unwrap();
        assert_eq!(plan.hop_count(), 0);
        let sources = [NodeId(0), NodeId(1000), NodeId(3)];
        let (results, stats) = engine.run(&plan, &sources);
        assert_eq!(results, vec![vec![NodeId(0)], vec![NodeId(1000)], vec![NodeId(3)]]);
        assert_eq!(stats.result_entries, 3);
        assert_eq!(stats.smxm_ops, 0);
        assert_eq!(stats.frontier_levels, 0);
        // Chunked execution merges back to the whole-batch statistics.
        let (_, first) = engine.run(&plan, &sources[..1]);
        let (_, rest) = engine.run(&plan, &sources[1..]);
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
        let engine = HostMatrixEngine::new(&g);
        let reference = crate::ReferenceEvaluator::new(&g);
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
            let (got, stats) = engine.run_nfa(&nfa, &sources);
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
        let engine = HostMatrixEngine::new(&g);
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
            let (forward, fwd_stats) = engine.run_nfa(&nfa, &sources);
            let (bidi, _) = engine.run_nfa_bidirectional(&nfa, &sources);
            assert_eq!(forward, bidi, "bidirectional diverged for {expr}");
            assert!(fwd_stats.result_entries == bidi.iter().map(Vec::len).sum::<usize>());
        }
    }

    #[test]
    fn bidirectional_prunes_rare_label_closures() {
        let g = rare_label_graph();
        let engine = HostMatrixEngine::new(&g);
        let sources: Vec<NodeId> = (0..22u64).map(NodeId).collect();
        let expr = RpqExpr::concat(vec![
            RpqExpr::Star(Box::new(RpqExpr::any())),
            RpqExpr::label(9),
            RpqExpr::label(1),
        ]);
        let nfa = Nfa::from_expr(&expr);
        let (_, fwd) = engine.run_nfa(&nfa, &sources);
        let (_, bidi) = engine.run_nfa_bidirectional(&nfa, &sources);
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
        let engine = HostMatrixEngine::new(&g);
        let sources: Vec<NodeId> = (0..22u64).map(NodeId).collect();
        let prefix_expr = RpqExpr::Star(Box::new(RpqExpr::label(1)));
        let suffix_expr = RpqExpr::concat(vec![RpqExpr::label(9), RpqExpr::label(1)]);
        let whole = RpqExpr::concat(vec![prefix_expr.clone(), suffix_expr.clone()]);
        let (forward, _) = engine.run_nfa(&Nfa::from_expr(&whole), &sources);
        let (split, _) = engine.run_nfa_split(
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
    /// smxm_ops, frontier_levels, result_entries]`, against constants taken
    /// at the commit before the three sweeps were folded into one
    /// (`rpq --taxonomy` pins them only rounded into simulated milliseconds).
    #[test]
    fn host_sweep_statistics_are_pinned() {
        let counters = |(_, s): (Vec<Vec<NodeId>>, HostExecutionStats)| {
            let [ops, levels, entries] =
                [s.smxm_ops, s.frontier_levels, s.result_entries].map(|c| c as u64);
            [s.row_fetches, s.bytes_read, s.bytes_written, ops, levels, entries]
        };
        let prefix = RpqExpr::Star(Box::new(RpqExpr::label(1)));
        let suffix = RpqExpr::concat(vec![RpqExpr::label(9), RpqExpr::label(1)]);
        let whole = Nfa::from_expr(&RpqExpr::concat(vec![prefix.clone(), suffix.clone()]));
        let (prefix, suffix) = (Nfa::from_expr(&prefix), Nfa::from_expr(&suffix));
        let golden = [
            (
                rare_label_graph(),
                22,
                [[182, 2880, 648, 0, 5, 8], [203, 3984, 912, 0, 4, 8], [101, 3848, 720, 0, 3, 9]],
            ),
            (
                generated_graph(),
                96,
                [
                    [5779, 38752, 29632, 0, 20, 670],
                    [4290, 38312, 30528, 0, 19, 670],
                    [1839, 34072, 20912, 0, 18, 698],
                ],
            ),
        ];
        for (g, source_count, want) in golden {
            let engine = HostMatrixEngine::new(&g);
            let sources: Vec<NodeId> = (0..source_count).map(NodeId).collect();
            let got = [
                counters(engine.run_nfa(&whole, &sources)),
                counters(engine.run_nfa_bidirectional(&whole, &sources)),
                counters(engine.run_nfa_split(&prefix, &suffix, Label(9), &sources)),
            ];
            assert_eq!(got, want, "host sweep counters moved on the {source_count}-source graph");
        }
    }

    /// Every [`HostExecutionStats`] counter of [`HostMatrixEngine::run`], as
    /// `[row_fetches, bytes_read, bytes_written, smxm_ops, frontier_levels,
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
        let cases: [(&AdjacencyGraph, &str, &[NodeId], [u64; 6]); 9] = [
            (&generated, ".{1}", &sources, [96, 7072, 3152, 1, 1, 394]),
            (&generated, ".{2}", &sources, [490, 32472, 15304, 2, 2, 1519]),
            (&generated, ".{3}", &sources, [2009, 119272, 51008, 3, 3, 4463]),
            (&generated, "1/2", &sources, [227, 5640, 2424, 2, 2, 172]),
            (&generated, ".{0}", &sources, [0, 776, 0, 0, 0, 97]),
            (&generated, "7/1", &sources, [96, 768, 0, 2, 2, 0]),
            (&generated, "2", &[NodeId(500), NodeId(3)], [1, 56, 24, 1, 1, 3]),
            (&twin, ".", &[NodeId(0), NodeId(1), NodeId(2), NodeId(9)], [3, 88, 32, 1, 1, 4]),
            (&twin, ".{2}", &[NodeId(0), NodeId(1), NodeId(2)], [7, 168, 72, 2, 2, 5]),
        ];
        for (g, text, sources, want) in cases {
            let engine = HostMatrixEngine::new(g);
            let plan = ExecutionPlan::from_expr(&crate::parser::parse(text).unwrap()).unwrap();
            let (_, s) = engine.run(&plan, sources);
            let [ops, levels, entries] =
                [s.smxm_ops, s.frontier_levels, s.result_entries].map(|c| c as u64);
            let got = [s.row_fetches, s.bytes_read, s.bytes_written, ops, levels, entries];
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
