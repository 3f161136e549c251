//! The shared distributed PIM execution engine.
//!
//! Moctopus and the PIM-hash contrast system differ only in *where rows are
//! placed* (greedy-adaptive partitioning with labor division versus plain
//! hashing); the operator processors, the communication accounting, and the
//! update machinery are identical. [`DistributedPimEngine`] implements that
//! shared machinery once, generic over its [`StreamingPartitioner`], and
//! implements [`GraphEngine`] once; [`MoctopusSystem`](crate::MoctopusSystem)
//! and [`PimHashSystem`](crate::PimHashSystem) are its two instantiations:
//!
//! * every PIM module owns a [`LocalGraphStorage`] hash-map segment of the
//!   adjacency matrix;
//! * the host owns a [`HeterogeneousStorage`] for high-degree rows (empty when
//!   labor division is off, as in PIM-hash);
//! * batch k-hop queries are executed hop by hop: each frontier entry is
//!   expanded by the computing node that owns its row, produced next-hops that
//!   leave the module are charged as inter-PIM communication (forwarded by the
//!   CPU), and each hop's PIM latency is the *slowest* module (stragglers from
//!   load imbalance are therefore visible in the result, exactly as on the
//!   real platform);
//! * general regular path queries run the same hop loop over the *product* of
//!   the graph and the query automaton: frontier entries become
//!   `(node, nfa_state)` pairs and rows are filtered by edge label
//!   ([`GraphEngine::rpq_batch`]); plain `.{k}` shapes take the k-hop fast
//!   path unchanged;
//! * batch updates are routed to the owning computing node and charged to the
//!   narrow CPU↔PIM bus plus the owner's compute budget; edge labels ride
//!   along, with the default label elided on the wire.
//!
//! The code is split by concern: `update` (the update funnel), `khop` and
//! `nfa` (the two hop loops), `planned` (the non-forward plan executors) and
//! `placement` (refinement, partition metrics, the restored image's reverse
//! rows). This file holds the engine, what the two loops share, and the one
//! [`GraphEngine`] impl.
//!
//! # Parallel execution
//!
//! The per-hop work of both query loops runs on a
//! [`moctopus_runtime::WorkerPool`]: every hop is split into a *plan* stage
//! (dispatch accounting, worker count and module split), an embarrassingly
//! parallel *execute* stage (each worker owns a disjoint slice of PIM modules
//! — worker 0 also owns the host lane — and expands only the frontier entries
//! its computing nodes own, accumulating into a private [`StatsDelta`] and
//! private frontier scratch), and a deterministic *merge* stage (worker
//! deltas reduce in ascending worker-id order on the calling thread; each
//! query's candidates are sorted and deduplicated on the workers, a chunk of
//! queries each). Disjoint ownership, the id-ordered reduction and set-valued
//! frontiers keep every simulated number — including the order
//! floating-point charges accumulate in — byte-identical at any thread
//! count; CONCURRENCY.md walks the full argument.

use crate::config::MoctopusConfig;
use crate::deps::{QueryDeps, UpdateFootprint};
use crate::engine::GraphEngine;
use crate::stats::{QueryStats, StatsDelta, UpdateStats};
use graph_partition::{PartitionAssignment, StreamingPartitioner};
use graph_store::{
    HeterogeneousStorage, HostRowSnapshot, Label, LabelStatsSnapshot, LocalGraphStorage,
    LocalModuleSnapshot, NodeId, PartitionId, SnapshotState,
};
use khop::{FrontierScratch, HopCtx};
use moctopus_runtime::{chunk_ranges, WorkerPool};
use nfa::NfaHopCtx;
use pim_sim::{Phase, PimSystem, Timeline};
use planned::Pruning;
use rpq::{optimizer, Nfa, PlanStrategy, RpqExpr};
use sparse::OrderedBitmap;
use std::ops::Range;
use update::unlabelled;
pub(crate) use update::EdgeOp;

mod khop;
mod nfa;
mod placement;
mod planned;
#[cfg(test)]
mod tests;
mod update;

/// Bytes of one routed frontier entry: the destination node id. Query
/// membership is implicit in the per-query transfer buffers, so only the node
/// id crosses the bus (as in the paper's column-index result matrices).
const ENTRY_BYTES: u64 = 8;
/// Bytes of one routed edge: (source id, destination id). Labelled edges
/// additionally carry [`LABEL_BYTES`]; the default [`Label::ANY`] is elided
/// on the wire (the untyped relationship is the protocol default).
const EDGE_BYTES: u64 = 16;
/// Bytes of one node id.
const ID_BYTES: u64 = 8;
/// Bytes of one edge label (`u16`), charged explicitly whenever a non-default
/// label crosses a bus or is scanned by a label-constrained traversal.
const LABEL_BYTES: u64 = 2;
/// Bytes of one NFA state id attached to a routed product-frontier entry
/// during general RPQ evaluation (`u16` state index).
const STATE_BYTES: u64 = 2;

/// Wire bytes of one edge label: the default label is elided, every other
/// label costs [`LABEL_BYTES`].
fn label_wire_bytes(label: Label) -> u64 {
    if label == Label::ANY {
        0
    } else {
        LABEL_BYTES
    }
}

/// Wire bytes of the label array of a whole migrated row (default labels
/// elided, as on the per-edge paths).
fn row_label_wire_bytes(row: &[(NodeId, Label)]) -> u64 {
    row.iter().map(|&(_, l)| label_wire_bytes(l)).sum()
}

/// How one forward row's entries split by where their next rows live: on
/// any PIM module, and on the row's own module (never, for a host row). The
/// k-hop loop charges an expansion's transfers from these counts instead of
/// every entry's owner; the engine keeps them exact where a row or an owner
/// changes (ARCHITECTURE.md §1).
#[derive(Debug, Clone, Copy, Default)]
struct RowTally {
    on_pim: u32,
    on_own: u32,
}

impl RowTally {
    /// Counts into (`insert`) or out of the tally one entry of a row on
    /// `row` whose next row lives on `dst`.
    fn count(&mut self, row: Option<PartitionId>, dst: Option<PartitionId>, insert: bool) {
        if matches!(dst, Some(PartitionId::Pim(_))) {
            let step = |n: u32, by: u32| if insert { n + by } else { n - by };
            self.on_pim = step(self.on_pim, 1);
            self.on_own = step(self.on_own, u32::from(row == dst));
        }
    }
}

/// `node`'s tally in a table indexed by node id, which grows to cover it.
fn tally_slot(tallies: &mut Vec<RowTally>, node: NodeId) -> &mut RowTally {
    if node.index() >= tallies.len() {
        tallies.resize(node.index() + 1, RowTally::default());
    }
    &mut tallies[node.index()]
}

/// Frontier entries each *additional* worker of a hop must bring.
///
/// Re-derived by the sweep of CONCURRENCY.md §4.1 (`closure`, two workers)
/// once a hand-off was a message to a polling crew and no longer a thread
/// wake-up: `ops_per_s` is flat from 16 to 512 (53.8 / 55.3 / 53.8 / 55.5 at
/// 16 / 64 / 128 / 256; 52.8 / 52.6 at 256 / 512), lower at the old 1024
/// (49.6 against 53.9 at 128, 6 of 6; 51.5 against 52.8 at 256, 5 of 5) and
/// 15 % lower at 8192. 256 sits on the plateau short of its edge: the fewest
/// hand-offs (two regions per hop) that still give every hop worth splitting
/// a second worker, with margin for the hop that finds its worker asleep.
const ENTRIES_PER_EXTRA_WORKER: usize = 256;

/// Worker count actually used for one hop: the batch-level layout width
/// clamped by the hop's *work*, one worker plus one more per
/// [`ENTRIES_PER_EXTRA_WORKER`] frontier entries. Long-tail closure hops and
/// small batches therefore run inline on the calling thread. The determinism
/// contract makes any clamp value produce identical output (CONCURRENCY.md
/// §4: no step of the argument uses which worker owns a module), so this is
/// purely a wall-clock decision.
fn active_workers(layout_width: usize, frontier_entries: usize) -> usize {
    (1 + frontier_entries / ENTRIES_PER_EXTRA_WORKER).min(layout_width).max(1)
}

/// Splits `weights.len()` consecutive items into `parts` contiguous ranges
/// of near-equal total weight, with `head` weight already on part 0.
///
/// The k-hop execute stage splits the PIM modules by what the previous hop
/// scanned on each (`HopCtx::scanned`), `head` being the host lane: one
/// indivisible item that rides with worker 0, which then takes fewer modules
/// (none, when the hubs alone are a fair share). Both merge stages split the
/// queries by candidate count (`head` 0). A part takes items while it has
/// nothing yet or more than half of the next one fits its fair share of
/// what is left (re-computed per part, so one heavy item does not starve
/// the parts behind it); the last part takes the rest.
///
/// The ranges are contiguous, cover `0..weights.len()` and depend only on
/// `(head, weights, parts)` — deterministic tallies, never timing; with no
/// weight at all (a first hop) they are the even [`chunk_ranges`]. Any such
/// split yields the same output (CONCURRENCY.md §4): this one only decides
/// how long the hop's slowest worker runs.
fn balanced_ranges(head: u64, weights: &[u64], parts: usize) -> Vec<Range<usize>> {
    let mut left = head + weights.iter().sum::<u64>();
    if left == 0 {
        return chunk_ranges(weights.len(), parts);
    }
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for part in 0..parts {
        let parts_left = (parts - part) as u64;
        let share = left.div_ceil(parts_left);
        let mut taken = if part == 0 { head } else { 0 };
        let mut end = start;
        while end < weights.len()
            && (parts_left == 1 || taken == 0 || 2 * taken + weights[end] <= 2 * share)
        {
            taken += weights[end];
            end += 1;
        }
        ranges.push(start..end);
        left -= taken;
        start = end;
    }
    ranges
}

/// The per-query half of a merge stage, on the workers: runs
/// `merge(bitmap, q, &mut per_query[q])` for every query `q`, one contiguous
/// chunk of queries per worker ([`balanced_ranges`] over `candidates(q)`,
/// the candidates `q` received this hop), one bitmap per worker. A query's
/// next frontier is a function of its own candidate lists (and, for the NFA
/// product, its own visited set) alone, so which worker merges it — like
/// which worker produced a candidate — cannot show in the output.
fn merge_per_query<S: Send>(
    pool: &WorkerPool,
    bitmaps: &mut [OrderedBitmap],
    per_query: &mut [S],
    candidates: impl Fn(usize) -> u64,
    merge: impl Fn(&mut OrderedBitmap, usize, &mut S) + Sync,
) {
    let weights: Vec<u64> = (0..per_query.len()).map(candidates).collect();
    let chunks = balanced_ranges(0, &weights, bitmaps.len());
    let mut rest = per_query;
    let mut parts: Vec<(&mut OrderedBitmap, &mut [S])> = Vec::with_capacity(chunks.len());
    for (bitmap, chunk) in bitmaps.iter_mut().zip(&chunks) {
        let (mine, tail) = std::mem::take(&mut rest).split_at_mut(chunk.len());
        rest = tail;
        parts.push((bitmap, mine));
    }
    pool.run_with(&mut parts, |worker, (bitmap, mine)| {
        for (q, state) in chunks[worker].clone().zip(mine.iter_mut()) {
            merge(bitmap, q, state);
        }
    });
}

/// Takes a per-worker scratch vector out of the engine, grown to at least
/// `workers` entries, so marks, buffers and bitmaps keep their capacity
/// across hops, queries and batches; the caller puts it back when done.
fn take_scratch<T: Default>(store: &mut Vec<T>, workers: usize) -> Vec<T> {
    store.resize_with(workers.max(store.len()), T::default);
    std::mem::take(store)
}

/// The hop loops' working memory: wall-clock only, rebuilt by whichever call
/// needs it next. Grouped so that cloning an engine does not copy megabytes
/// of marks, buffers, bitmaps and memo tables that the clone's first call
/// would overwrite anyway: a clone starts with empty scratch.
#[derive(Debug, Default)]
struct HopScratch {
    /// The k-hop loop's calling-thread buffer pool.
    frontier: FrontierScratch,
    /// One private [`HopCtx`] per worker, persisted across batches so
    /// hot-loop buffers and marks are never re-allocated per query.
    hop_ctxs: Vec<HopCtx>,
    /// One private [`NfaHopCtx`] per worker, persisted across `rpq_batch`
    /// calls for the same reason.
    nfa_ctxs: Vec<NfaHopCtx>,
    /// The merge stages' bitmaps (all-zero between hops), one per worker,
    /// shared by both loops, each sized once to the largest key it was handed.
    merge_bitmaps: Vec<OrderedBitmap>,
    /// The most workers any hop has run on: how the wide unit fixture knows
    /// it left the inline path.
    widest_hop: usize,
}

impl Clone for HopScratch {
    fn clone(&self) -> Self {
        HopScratch::default()
    }
}

/// Distributed graph engine over a simulated PIM platform, placing rows with
/// the partitioner `P`.
///
/// [`MoctopusSystem`](crate::MoctopusSystem) and
/// [`PimHashSystem`](crate::PimHashSystem) are its two instantiations; they
/// differ in their constructors, in `name()` and in Moctopus' refinement
/// pass. The partitioner must be `Sync` because the hop loops' workers read
/// the owner directory through a shared borrow of the engine.
#[derive(Debug, Clone)]
pub struct DistributedPimEngine<P: ?Sized> {
    name: &'static str,
    config: MoctopusConfig,
    pim: PimSystem,
    local_stores: Vec<LocalGraphStorage>,
    host_store: HeterogeneousStorage,
    edge_count: usize,
    /// One [`RowTally`] per node id, dense like the owner directory and
    /// grown with it; not part of a snapshot (a restore recounts).
    tallies: Vec<RowTally>,
    pool: WorkerPool,
    scratch: HopScratch,
    /// Last, so that an engine coerces to [`ErasedEngine`].
    partitioner: P,
}

/// The engine with its partitioner behind a trait object. The update
/// funnel, both hop loops, the planned executors and the placement helpers
/// are written against it, not against `DistributedPimEngine<P>`: generic
/// code is compiled by whichever crate names `P`, while these are compiled
/// once, here, with the loops and their helpers side by side. A build of
/// the loops in a downstream crate measured slower than this crate's own
/// (EXPERIMENTS.md has the runs). The price is a call through the
/// partitioner's vtable per owner lookup, which the per-entry loops avoid
/// by taking the owner directory once per call.
type ErasedEngine = DistributedPimEngine<dyn StreamingPartitioner + Sync>;

impl<P: StreamingPartitioner + Sync + 'static> DistributedPimEngine<P> {
    /// Creates an empty engine that reports itself as `name` and places rows
    /// with `partitioner`. The execution runtime uses `config.threads` host
    /// worker threads (`0` = available parallelism).
    pub(crate) fn with_partitioner(
        name: &'static str,
        config: MoctopusConfig,
        partitioner: P,
    ) -> Self {
        let pim = PimSystem::new(config.pim);
        let local_stores = (0..config.pim.num_modules).map(|_| LocalGraphStorage::new()).collect();
        DistributedPimEngine {
            name,
            pool: WorkerPool::new(config.threads),
            config,
            pim,
            local_stores,
            host_store: HeterogeneousStorage::new(),
            edge_count: 0,
            tallies: Vec::new(),
            scratch: HopScratch::default(),
            partitioner,
        }
    }

    /// The engine itself. It exists for one caller: the `perf` harness,
    /// whose sources stay fixed so that its runs compare like with like,
    /// reaches the owner directory as `system.engine().assignment()`. New
    /// code calls [`DistributedPimEngine::assignment`].
    pub fn engine(&self) -> &Self {
        self
    }

    /// The system configuration.
    pub fn config(&self) -> &MoctopusConfig {
        &self.config
    }

    /// The simulated PIM platform (busy times, load imbalance).
    pub fn pim(&self) -> &PimSystem {
        &self.pim
    }

    /// The current node-to-partition assignment.
    pub fn assignment(&self) -> &PartitionAssignment {
        self.partitioner.assignment()
    }

    /// Where a node's row currently lives.
    pub fn partition_of(&self, node: NodeId) -> Option<PartitionId> {
        self.partitioner.partition_of(node)
    }

    /// Number of rows resident on the host (high-degree nodes).
    pub fn host_row_count(&self) -> usize {
        self.host_store.row_count()
    }

    /// Load-imbalance factor observed so far (max module busy time / mean).
    pub fn load_imbalance(&self) -> f64 {
        self.pim.load_imbalance()
    }

    /// This engine as the [`ErasedEngine`] its loops are written against.
    fn erased(&self) -> &ErasedEngine {
        self
    }

    /// [`DistributedPimEngine::erased`], mutably.
    fn erased_mut(&mut self) -> &mut ErasedEngine {
        self
    }
}

impl ErasedEngine {
    /// The PIM module that stores the host-side supplementary maps for `row`
    /// (the `elem_position_map` / `free_list_map` shards).
    fn aux_module(&self, row: NodeId) -> usize {
        (row.0.wrapping_mul(0xff51_afd7_ed55_8ccd) % self.config.pim.num_modules as u64) as usize
    }

    /// Size of the dense owner directory: every node a row can name — as a
    /// source or as a destination — has an id below it, because both
    /// partitioners place both endpoints of an edge on arrival. It bounds the
    /// key space of the hop loops' dense sets; ids at or past it (query
    /// sources the graph has never seen) are handled without indexing.
    fn directory_bound(&self) -> u64 {
        self.partitioner.assignment().id_bound()
    }

    /// Where the row of `node` currently lives: a call through the
    /// partitioner's vtable and one load from its dense owner directory,
    /// `None` for a node no edge has named (such a node has no row anywhere).
    fn owner(&self, node: NodeId) -> Option<PartitionId> {
        self.partitioner.partition_of(node)
    }

    /// [`ErasedEngine::owner`] for a loop: one vtable call here, one
    /// dense-directory load per call of the returned lookup.
    fn owner_lookup(&self) -> impl Fn(NodeId) -> Option<PartitionId> + '_ {
        let owners = self.partitioner.assignment();
        move |node| owners.partition_of(node)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Dispatch charge of both hop loops: every source that lives on a PIM
    /// module is shipped to it (the Q matrix rows of the execution plan),
    /// `entry_bytes` each.
    fn charge_dispatch(&self, sources: &[NodeId], entry_bytes: u64, timeline: &mut Timeline) {
        let dispatch_bytes: u64 =
            sources.iter().filter(|&&s| matches!(self.owner(s), Some(PartitionId::Pim(_)))).count()
                as u64
                * entry_bytes;
        timeline.charge(Phase::Cpc, self.pim.cpc_transfer_cost(dispatch_bytes));
        timeline.transfers.record_cpu_to_pim(dispatch_bytes, 1);
    }

    /// One hop's barrier in both hop loops: reduces the workers' deltas in
    /// ascending worker-id order, charges the merged delta to `timeline` and
    /// returns it.
    fn charge_hop(&mut self, deltas: &[StatsDelta], timeline: &mut Timeline) -> StatsDelta {
        let mut delta = StatsDelta::new(self.config.pim.num_modules);
        for worker_delta in deltas {
            delta.merge(worker_delta);
        }
        let pim_time = self.pim.parallel_step(&delta.per_module);
        timeline.charge(Phase::PimCompute, pim_time);
        timeline.charge(Phase::HostCompute, delta.host_time);
        timeline.charge(Phase::Cpc, self.pim.cpc_transfer_cost(delta.cpc_bytes));
        // Inter-PIM forwarding has no hardware path on UPMEM: besides the
        // double bus crossing, the host CPU inspects and re-routes every
        // forwarded entry in software (~25 instructions each).
        timeline.charge(
            Phase::Ipc,
            self.pim.ipc_transfer_cost(delta.ipc_bytes)
                + self.pim.host_instructions_cost(delta.ipc_messages * 25),
        );
        timeline.transfers.record_pim_to_cpu(delta.cpc_bytes, 1);
        timeline.transfers.record_inter_pim(delta.ipc_bytes, delta.ipc_messages);
        delta
    }

    /// Reduction (`mwait`) of both hop loops: gathers every query's matched
    /// destinations to the host and merges the per-module partial results.
    fn charge_gather(&self, matched_pairs: usize, timeline: &mut Timeline) {
        let gather_bytes = matched_pairs as u64 * ENTRY_BYTES;
        timeline.charge(Phase::Cpc, self.pim.cpc_transfer_cost(gather_bytes));
        timeline.transfers.record_pim_to_cpu(gather_bytes, 1);
        timeline.charge(
            Phase::Reduce,
            self.pim.host_sequential_read_cost(gather_bytes)
                + self.pim.host_instructions_cost(matched_pairs as u64 * 8),
        );
    }
}

impl<P: StreamingPartitioner + Sync + 'static> GraphEngine for DistributedPimEngine<P> {
    fn name(&self) -> &'static str {
        self.name
    }

    /// Inserts a batch of unlabelled edges (they receive [`Label::ANY`]),
    /// routing each one to the computing node that owns the source row and
    /// charging the work to the cost model.
    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> UpdateStats {
        self.erased_mut().apply(EdgeOp::Insert, &mut edges.iter().map(unlabelled), None)
    }

    /// Deletes a batch of unlabelled ([`Label::ANY`]) edges.
    fn delete_edges(&mut self, edges: &[(NodeId, NodeId)]) -> UpdateStats {
        self.erased_mut().apply(EdgeOp::Delete, &mut edges.iter().map(unlabelled), None)
    }

    /// Inserts a batch of labelled edges. The default label travels for free
    /// (it is elided on the wire); every other label is charged
    /// `LABEL_BYTES` on the CPU→PIM bus and in the MRAM write.
    fn insert_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
        self.erased_mut().apply(EdgeOp::Insert, &mut edges.iter().copied(), None)
    }

    /// Deletes a batch of labelled edges (label-byte accounting as on the
    /// insert path).
    fn delete_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
        self.erased_mut().apply(EdgeOp::Delete, &mut edges.iter().copied(), None)
    }

    /// Answers a batch k-hop path query with full cost accounting.
    ///
    /// The hop loop is a batch-frontier engine: one dense-directory load per
    /// frontier entry, transfers charged per row from its `RowTally`,
    /// next-hops deduplicated with epoch-stamped markers as they are pushed
    /// (the raw expansion is never materialised), frontier buffers recycled
    /// across hops and queries. Each hop runs as plan → execute → merge: the
    /// execute stage fans the frontier out over the worker pool (disjoint
    /// module ownership, private scratch), and the merge stage reduces the
    /// per-worker [`StatsDelta`]s in worker-id order and sorts the merged
    /// candidate frontiers. Every simulated charge — cpc/ipc/mram byte and
    /// instruction — is identical to the naive sequential formulation at any
    /// thread count, including the order float charges accumulate in, so
    /// same-seed experiment outputs do not move.
    fn k_hop_batch(&mut self, sources: &[NodeId], k: usize) -> (Vec<Vec<NodeId>>, QueryStats) {
        self.erased_mut().k_hop_batch_impl(sources, k, None)
    }

    /// Plain k-hop expressions (`.{k}` and concatenations of `.`) take the
    /// k-hop fast path, whose cost model is untouched — same-seed experiment
    /// outputs do not move. Everything else is evaluated as an NFA product
    /// (`nfa_product_batch_impl`).
    fn rpq_batch(&mut self, expr: &RpqExpr, sources: &[NodeId]) -> (Vec<Vec<NodeId>>, QueryStats) {
        if let Some(k) = expr.as_k_hop() {
            return self.k_hop_batch(sources, k);
        }
        let nfa = Nfa::from_expr(expr);
        self.erased_mut().nfa_product_batch_impl(&nfa, sources, None, None)
    }

    /// [`PlanStrategy::Forward`] *is* the canonical path — same code, same
    /// charges — and k-hop shapes always take it (plan choice is about label
    /// asymmetry, which `.{k}` does not have). The non-forward strategies run
    /// the same product loop — worker pool included — pruned with what a
    /// sweep over the reverse adjacency index found:
    ///
    /// * [`PlanStrategy::Bidirectional`] first sweeps the reversed automaton
    ///   backward over the in-adjacency rows to compute the *useful* product
    ///   pairs — those from which an accepting pair is still reachable — then
    ///   runs the forward product with its frontier restricted to useful
    ///   pairs. Every proper prefix pair of an accepting path is useful, so
    ///   pruning never drops an answer.
    /// * [`PlanStrategy::RareLabelSplit`] seeds the suffix automaton at the
    ///   pivot label's exact source set (from the reverse-maintained label
    ///   statistics), runs the prefix automaton pruned toward those pivots,
    ///   and joins the two halves on the host.
    ///
    /// A strategy that does not fit the expression (a split position with no
    /// mandatory exact pivot) falls back to the forward path. Answers are
    /// byte-identical under every strategy (`tests/plan_invariance.rs` and
    /// `tests/rpq_taxonomy.rs` prove it).
    fn rpq_batch_planned(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
        strategy: PlanStrategy,
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        match strategy {
            PlanStrategy::Forward => self.rpq_batch(expr, sources),
            _ if expr.as_k_hop().is_some() => self.rpq_batch(expr, sources),
            PlanStrategy::Bidirectional => {
                let nfa = Nfa::from_expr(expr);
                let mut preamble = StatsDelta::new(self.config.pim.num_modules);
                let useful = self.erased().useful_pairs(&nfa, None, &mut preamble);
                let pruning = Pruning { useful: Some(&useful), accept_nodes: None, preamble };
                self.erased_mut().nfa_product_batch_impl(&nfa, sources, Some(pruning), None)
            }
            PlanStrategy::RareLabelSplit { split_at } => {
                let Some((prefix, suffix, pivot)) = optimizer::split_for(expr, split_at) else {
                    return self.rpq_batch(expr, sources);
                };
                self.erased_mut().split_product(&prefix, &suffix, pivot, sources)
            }
        }
    }

    /// The bucket of every visited node (sources and every hop's merged
    /// frontier) and whether the host lane expanded a row. Tracking reads
    /// only merged, thread-count-invariant state, so the deps — like the
    /// stats — are byte-identical at every thread count, and no simulated
    /// charge moves. K-hop shapes take the tracked fast path, everything else
    /// the tracked NFA product.
    fn rpq_batch_tracked(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
    ) -> (Vec<Vec<NodeId>>, QueryStats, QueryDeps) {
        let mut deps = QueryDeps::default();
        if let Some(k) = expr.as_k_hop() {
            let (results, stats) = self.erased_mut().k_hop_batch_impl(sources, k, Some(&mut deps));
            return (results, stats, deps);
        }
        let nfa = Nfa::from_expr(expr);
        let (results, stats) =
            self.erased_mut().nfa_product_batch_impl(&nfa, sources, None, Some(&mut deps));
        (results, stats, deps)
    }

    /// The footprint is the batch-derived base
    /// ([`UpdateFootprint::from_edges`]: per-label source buckets, structural
    /// source+destination buckets) with `host_store` set by the loop itself
    /// whenever a host-resident row was written or a promotion installed one
    /// (only the engine can observe those).
    fn insert_labeled_edges_tracked(
        &mut self,
        edges: &[(NodeId, NodeId, Label)],
    ) -> (UpdateStats, UpdateFootprint) {
        let mut footprint = UpdateFootprint::from_edges(edges);
        (
            self.erased_mut().apply(
                EdgeOp::Insert,
                &mut edges.iter().copied(),
                Some(&mut footprint),
            ),
            footprint,
        )
    }

    /// The footprint as on the insert path.
    fn delete_labeled_edges_tracked(
        &mut self,
        edges: &[(NodeId, NodeId, Label)],
    ) -> (UpdateStats, UpdateFootprint) {
        let mut footprint = UpdateFootprint::from_edges(edges);
        (
            self.erased_mut().apply(
                EdgeOp::Delete,
                &mut edges.iter().copied(),
                Some(&mut footprint),
            ),
            footprint,
        )
    }

    fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// This only changes how much wall-clock parallelism the *simulator*
    /// uses; simulated results, `SimTime`, and transfer tallies are
    /// byte-identical at every thread count. The engine's
    /// [`config`](DistributedPimEngine::config) follows, so sibling engines
    /// built from a clone of it inherit the new thread count.
    fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads;
        self.pool = WorkerPool::new(threads);
    }

    fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The image captures everything that drives future behaviour: each
    /// module's local rows, the host heterogeneous rows with their exact
    /// slot layout and free-list pop order (slot reuse and row-scan costs
    /// depend on both), and the partitioner's parts — the raw
    /// assignment vector and, for the greedy-adaptive partitioner, the
    /// degree table and promotion log. Accumulated simulator busy time is
    /// deliberately *not* part of the image: it only feeds the cosmetic
    /// [`DistributedPimEngine::load_imbalance`] metric, never a future result
    /// or charge.
    fn export_snapshot(&self) -> Option<SnapshotState> {
        let local_modules = self
            .local_stores
            .iter()
            .map(|s| LocalModuleSnapshot { rows: s.export_rows() })
            .collect();
        let host_rows = self
            .host_store
            .export_rows()
            .into_iter()
            .map(|(node, slots, free)| HostRowSnapshot { node, slots, free })
            .collect();
        let mut image = SnapshotState {
            edge_count: self.edge_count as u64,
            local_modules,
            host_rows,
            ..SnapshotState::default()
        };
        self.partitioner.export_snapshot_parts(&mut image);
        Some(image)
    }

    /// Returns `false` — leaving the engine untouched — for an image this
    /// engine did not write: one with a per-module section for another PIM
    /// module count, one holding host-baseline adjacency rows, or one whose
    /// placement parts this engine's partitioner cannot own (a PIM-hash image
    /// under Moctopus, or the reverse). The partitioner *kind* is the live
    /// engine's; only its state is replaced.
    fn restore_snapshot(&mut self, snapshot: &SnapshotState) -> bool {
        if snapshot.local_modules.len() != self.config.pim.num_modules
            || !snapshot.adjacency_rows.is_empty()
            || snapshot.adjacency_id_bound != 0
            || !self.partitioner.restore_snapshot_parts(snapshot)
        {
            return false;
        }
        self.local_stores = snapshot
            .local_modules
            .iter()
            .map(|m| LocalGraphStorage::from_sorted_rows(m.rows.clone()))
            .collect();
        self.host_store = HeterogeneousStorage::from_rows(
            snapshot.host_rows.iter().map(|r| (r.node, r.slots.clone(), r.free.clone())).collect(),
        );
        self.edge_count = snapshot.edge_count as usize;
        self.erased_mut().rebuild_rev_rows();
        self.erased_mut().rebuild_tallies();
        true
    }

    /// Merged per-label statistics across the whole storage plane: every
    /// PIM module's local store (in module-id order) plus the host store.
    ///
    /// Each store's row tables count their statistics inside every write
    /// (row promotion and migration included), so this is a pure merge —
    /// no row is rescanned. The merge order is fixed, and
    /// [`LabelStatsSnapshot::merge`] is commutative summation, so the result
    /// is deterministic regardless of thread count.
    fn label_stats(&self) -> LabelStatsSnapshot {
        let mut merged = LabelStatsSnapshot::default();
        for store in &self.local_stores {
            merged.merge(&store.label_stats().snapshot());
        }
        merged.merge(&self.host_store.label_stats().snapshot());
        merged
    }

    /// Every node's reverse row lives in exactly one store (it is colocated
    /// with the node's forward row), so concatenation plus a sort by node id
    /// is a faithful global view.
    fn export_rev_rows(&self) -> Vec<(NodeId, Vec<(NodeId, Label)>)> {
        let mut rows: Vec<(NodeId, Vec<(NodeId, Label)>)> = Vec::new();
        for store in &self.local_stores {
            rows.extend(store.export_rev_rows());
        }
        rows.extend(self.host_store.export_rev_rows());
        rows.sort_by_key(|&(n, _)| n);
        rows
    }
}
