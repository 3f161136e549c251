//! The shared distributed PIM execution engine.
//!
//! Moctopus and the PIM-hash contrast system differ only in *where rows are
//! placed* (greedy-adaptive partitioning with labor division versus plain
//! hashing); the operator processors, the communication accounting, and the
//! update machinery are identical. [`DistributedPimEngine`] implements that
//! shared machinery once:
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
//!   ([`DistributedPimEngine::rpq_batch`]); plain `.{k}` shapes take the
//!   k-hop fast path unchanged;
//! * batch updates are routed to the owning computing node and charged to the
//!   narrow CPU↔PIM bus plus the owner's compute budget; edge labels ride
//!   along, with the default label elided on the wire.
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
use crate::stats::{QueryStats, StatsDelta, UpdateStats};
use graph_partition::{
    GreedyAdaptivePartitioner, HashPartitioner, MigrationReport, PartitionAssignment,
    PartitionMetrics, StreamingPartitioner,
};
use graph_store::{
    HeterogeneousStorage, HostRowSnapshot, Label, LabelStatsSnapshot, LocalGraphStorage,
    LocalModuleSnapshot, NodeId, PartitionId, SnapshotState,
};
use moctopus_runtime::{chunk_ranges, WorkerPool};
use pim_sim::{Phase, PimSystem, SimTime, Timeline};
use rpq::{optimizer, LabelSpec, Nfa, PlanStrategy, RpqExpr};
use sparse::{EpochMarks, OrderedBitmap, ProductSet};
use std::ops::Range;

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

/// The placement policy driving a [`DistributedPimEngine`].
#[derive(Debug, Clone)]
pub enum PlacementPolicy {
    /// The paper's greedy-adaptive partitioner with labor division.
    GreedyAdaptive(GreedyAdaptivePartitioner),
    /// Consistent hashing over PIM modules (the PIM-hash contrast system).
    Hash(HashPartitioner),
}

impl PlacementPolicy {
    fn on_edge(&mut self, src: NodeId, dst: NodeId) {
        match self {
            PlacementPolicy::GreedyAdaptive(p) => p.on_edge(src, dst),
            PlacementPolicy::Hash(p) => p.on_edge(src, dst),
        }
    }

    fn on_edge_delete(&mut self, src: NodeId, dst: NodeId) {
        if let PlacementPolicy::GreedyAdaptive(p) = self {
            p.on_edge_delete(src, dst);
        }
    }

    fn partition_of(&self, node: NodeId) -> Option<PartitionId> {
        match self {
            PlacementPolicy::GreedyAdaptive(p) => p.partition_of(node),
            PlacementPolicy::Hash(p) => p.partition_of(node),
        }
    }

    fn assignment(&self) -> &PartitionAssignment {
        match self {
            PlacementPolicy::GreedyAdaptive(p) => p.assignment(),
            PlacementPolicy::Hash(p) => p.assignment(),
        }
    }
}

/// Reusable scratch state of the batch-frontier hop loop.
///
/// `k_hop_batch` is the innermost loop of every experiment binary, so its
/// working memory survives across hops, queries, and whole batches instead of
/// being allocated per hop:
///
/// * `marks` — one [`EpochMarks`] generation per `(query, hop)` deduplicates
///   produced next-hops in O(1) per entry, replacing the `sort` + `dedup`
///   over the duplicate-laden raw expansion;
/// * `pool` — recycled frontier buffers; each hop's spent frontiers are
///   returned to the pool and handed back out (capacity intact) as the next
///   hop's output buffers.
///
/// The scratch only changes *how* frontiers are materialised, never what the
/// cost model charges.
#[derive(Debug, Default)]
struct FrontierScratch {
    marks: EpochMarks,
    pool: Vec<Vec<NodeId>>,
}

impl FrontierScratch {
    /// Hands out an empty buffer, recycling capacity when the pool has one.
    fn take_buffer(&mut self) -> Vec<NodeId> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a spent buffer to the pool.
    fn recycle(&mut self, buf: Vec<NodeId>) {
        self.pool.push(buf);
    }
}

/// Per-worker context of one k-hop execute stage: the worker's private
/// dedup marks and buffer pool, plus its per-query candidate frontiers.
///
/// Everything in here is owned exclusively by one worker while the execute
/// stage runs (determinism rule 2: private scratch); the merge stage drains
/// `nexts` on the calling thread and the scratch survives inside the engine
/// across hops, queries, and batches.
#[derive(Debug, Default)]
struct HopCtx {
    scratch: FrontierScratch,
    nexts: Vec<Vec<NodeId>>,
    /// Row entries this worker scanned this hop (row length plus one per
    /// expanded entry), per PIM module, the host lane's last: what the next
    /// hop's module split is balanced on ([`balanced_ranges`]). Integers
    /// beside the [`StatsDelta`], never in it: they count what the
    /// simulator's threads did, not what the platform is charged, and no
    /// output reads them. A worker fills only the slots it owns, so the sum
    /// over a hop's workers is the same at every worker count.
    scanned: Vec<u64>,
}

impl HopCtx {
    /// Readies a hop: one candidate buffer per query, a zeroed scan tally.
    fn prepare(&mut self, queries: usize, module_count: usize) {
        debug_assert!(self.nexts.is_empty(), "previous hop must have drained the candidates");
        for _ in 0..queries {
            let buf = self.scratch.take_buffer();
            self.nexts.push(buf);
        }
        self.scanned.clear();
        self.scanned.resize(module_count + 1, 0);
    }
}

/// Per-worker context of one NFA-product execute stage: epoch marks over
/// product keys (one generation per `(query, hop)`), per-query candidate
/// lists — keys, like the frontiers — and the call's [`ExpansionMemo`].
///
/// Unlike the k-hop loop the product traversal's cross-hop dedup lives in the
/// per-query *global* visited sets; the marks only bound what one worker
/// emits within one `(query, hop)` so candidate lists stay duplicate-free
/// before the merge.
#[derive(Debug, Default)]
struct NfaHopCtx {
    marks: EpochMarks,
    nexts: Vec<Vec<usize>>,
    memo: ExpansionMemo,
}

/// What expanding one product pair charges and produces.
///
/// For the duration of one `nfa_product_visit` the engine is borrowed
/// mutably, so no store, owner, `live_bytes` or automaton can change: all of
/// this is a pure function of the pair, computed once per call and worker
/// (`build_expansion`) and replayed for every query and hop that reaches the
/// pair.
#[derive(Debug, Clone, Copy)]
struct Expansion {
    /// The one `SimTime` the expansion adds to its lane's accumulator — the
    /// value the accumulator receives, never a partial sum.
    cost: SimTime,
    /// The accumulator: a `per_module` index, the module count for the host.
    lane: usize,
    /// Matched transitions into another PIM module.
    ipc_messages: u64,
    /// Matched transitions that cross the CPU↔PIM bus.
    cpc_entries: u64,
    /// Where this pair's run of [`ExpansionMemo::successors`] ends (it starts
    /// where the previous entry's ends).
    successors_end: usize,
}

/// Slot values from here up tag a pair this worker does not expand with its
/// lane; smaller non-zero values are an entry index plus one.
const FOREIGN: u32 = 1 << 31;

/// One slot of an [`ExpansionMemo`], decoded.
enum Slot {
    /// Not seen in this call.
    Empty,
    /// Expanded on the given lane, which was another worker's when seen.
    Foreign(usize),
    /// Built: an index into the entries.
    Entry(usize),
}

/// One worker's expansion memo: scratch like the marks, valid for one batch
/// call on one engine (CONCURRENCY.md §6 rule 8).
///
/// A `u32` slot per product key leads to the pair's [`Expansion`], or says
/// which lane expands it (a pair on another worker's module costs its slot
/// and its place in `touched`, nothing more). A call starts by zeroing the
/// slots the previous one touched — never the key space — so a small query
/// pays for what it expanded, and nothing outlives the call logically.
#[derive(Debug, Default)]
struct ExpansionMemo {
    slots: Vec<u32>,
    /// Every key whose slot is not zero.
    touched: Vec<usize>,
    entries: Vec<Expansion>,
    /// Label-matched successor keys of every entry, back to back.
    successors: Vec<usize>,
}

impl ExpansionMemo {
    /// Empties the memo and sizes it for keys below `bound`.
    fn reset(&mut self, bound: usize) {
        for key in self.touched.drain(..) {
            self.slots[key] = 0;
        }
        self.entries.clear();
        self.successors.clear();
        if self.slots.len() < bound {
            // Every slot is zero here: a fresh zeroed table is the old one
            // grown, and its untouched pages cost nothing.
            self.slots = vec![0; bound];
        }
    }

    #[inline]
    fn slot(&self, key: usize) -> Slot {
        match self.slots[key] {
            0 => Slot::Empty,
            tag if tag >= FOREIGN => Slot::Foreign((tag - FOREIGN) as usize),
            index => Slot::Entry(index as usize - 1),
        }
    }

    /// Writes `value` into the slot of `key`; `None` (a lane or an index the
    /// slot cannot hold) leaves the pair to be derived again next time.
    fn set_slot(&mut self, key: usize, value: Option<u32>) {
        let Some(value) = value else { return };
        if std::mem::replace(&mut self.slots[key], value) == 0 {
            self.touched.push(key);
        }
    }

    /// Remembers that `key` is expanded on `lane`, by another worker.
    fn tag_foreign(&mut self, key: usize, lane: usize) {
        self.set_slot(key, u32::try_from(lane).ok().and_then(|lane| lane.checked_add(FOREIGN)));
    }

    /// Files the expansion of `key`, whose successors the caller has pushed,
    /// and returns its index.
    fn push_entry(&mut self, key: usize, expansion: Expansion) -> usize {
        let index = self.entries.len();
        self.entries.push(expansion);
        self.set_slot(key, u32::try_from(index + 1).ok().filter(|&slot| slot < FOREIGN));
        index
    }

    /// The successor keys of entry `index`.
    #[inline]
    fn successors_of(&self, index: usize) -> &[usize] {
        let start = index.checked_sub(1).map_or(0, |prev| self.entries[prev].successors_end);
        &self.successors[start..self.entries[index].successors_end]
    }
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

/// An unlabelled edge as the default-labelled edge it is.
fn unlabelled(&(src, dst): &(NodeId, NodeId)) -> (NodeId, NodeId, Label) {
    (src, dst, Label::ANY)
}

/// The two edge writes of the update funnel ([`DistributedPimEngine::apply`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeOp {
    Insert,
    Delete,
}

/// What an executed non-forward plan adds to the canonical NFA-product loop
/// ([`DistributedPimEngine::nfa_product_batch_impl`]).
struct Pruning<'a> {
    /// Only these pairs are expanded (`None` = every pair, the split plan's
    /// suffix leg).
    useful: Option<&'a ProductSet>,
    /// Acceptance is restricted to these nodes (the split plan's prefix leg;
    /// a one-state [`ProductSet`]).
    accept_nodes: Option<&'a ProductSet>,
    /// Charges made before the loop — the backward useful-set sweep plus
    /// seed gathering — billed up front as one aggregate bulk phase.
    preamble: StatsDelta,
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

/// Distributed graph engine over a simulated PIM platform.
#[derive(Debug, Clone)]
pub struct DistributedPimEngine {
    config: MoctopusConfig,
    pim: PimSystem,
    policy: PlacementPolicy,
    local_stores: Vec<LocalGraphStorage>,
    host_store: HeterogeneousStorage,
    edge_count: usize,
    pool: WorkerPool,
    scratch: HopScratch,
}

impl DistributedPimEngine {
    /// Creates an engine with the given placement policy.
    ///
    /// The execution runtime uses `config.threads` host worker threads
    /// (`0` = available parallelism); see [`DistributedPimEngine::set_threads`].
    pub fn new(config: MoctopusConfig, policy: PlacementPolicy) -> Self {
        let pim = PimSystem::new(config.pim);
        let local_stores = (0..config.pim.num_modules).map(|_| LocalGraphStorage::new()).collect();
        DistributedPimEngine {
            pool: WorkerPool::new(config.threads),
            config,
            pim,
            policy,
            local_stores,
            host_store: HeterogeneousStorage::new(),
            edge_count: 0,
            scratch: HopScratch::default(),
        }
    }

    /// Reconfigures the execution runtime to `threads` host worker threads
    /// (`0` = available parallelism).
    ///
    /// This only changes how much wall-clock parallelism the *simulator*
    /// uses; simulated results, `SimTime`, and transfer tallies are
    /// byte-identical at every thread count. The engine's
    /// [`config`](DistributedPimEngine::config) follows, so sibling engines
    /// built from a clone of it inherit the new thread count.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads;
        self.pool = WorkerPool::new(threads);
    }

    /// Host worker threads the execution runtime is configured for.
    pub fn threads(&self) -> usize {
        self.pool.threads()
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
        self.policy.assignment()
    }

    /// Number of directed edges stored across all computing nodes.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of rows resident on the host (high-degree nodes).
    pub fn host_row_count(&self) -> usize {
        self.host_store.row_count()
    }

    /// Load-imbalance factor observed so far (max module busy time / mean).
    pub fn load_imbalance(&self) -> f64 {
        self.pim.load_imbalance()
    }

    /// Merged per-label statistics across the whole storage plane: every
    /// PIM module's local store (in module-id order) plus the host store.
    ///
    /// Each store's row tables count their statistics inside every write
    /// (row promotion and migration included), so this is a pure merge —
    /// no row is rescanned. The merge order is fixed, and
    /// [`LabelStatsSnapshot::merge`] is commutative summation, so the result
    /// is deterministic regardless of thread count.
    pub fn label_stats(&self) -> LabelStatsSnapshot {
        let mut merged = LabelStatsSnapshot::default();
        for store in &self.local_stores {
            merged.merge(&store.label_stats().snapshot());
        }
        merged.merge(&self.host_store.label_stats().snapshot());
        merged
    }

    /// The in-adjacency secondary index flattened to canonical reverse rows
    /// (nodes ascending, entries sorted), merged across every store.
    ///
    /// Every node's reverse row lives in exactly one store (it is colocated
    /// with the node's forward row), so concatenation plus a sort by node id
    /// is a faithful global view. Diagnostic surface: the differential tests
    /// use it to prove incremental maintenance, migration, and post-restore
    /// reconstruction all land on the same bits.
    pub fn export_rev_rows(&self) -> Vec<(NodeId, Vec<(NodeId, Label)>)> {
        let mut rows: Vec<(NodeId, Vec<(NodeId, Label)>)> = Vec::new();
        for store in &self.local_stores {
            rows.extend(store.export_rev_rows());
        }
        rows.extend(self.host_store.export_rev_rows());
        rows.sort_by_key(|&(n, _)| n);
        rows
    }

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
        self.policy.assignment().id_bound()
    }

    /// Where the row of `node` currently lives. Falls back to a hash placement
    /// for nodes the partitioner has not seen (defensive; should not happen).
    fn owner(&self, node: NodeId) -> Option<PartitionId> {
        self.policy.partition_of(node)
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Inserts a batch of unlabelled edges (they receive [`Label::ANY`]),
    /// routing each one to the computing node that owns the source row and
    /// charging the work to the cost model.
    pub fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> UpdateStats {
        self.apply(EdgeOp::Insert, edges.iter().map(unlabelled), None)
    }

    /// Inserts a batch of labelled edges. The default label travels for free
    /// (it is elided on the wire); every other label is charged
    /// `LABEL_BYTES` on the CPU→PIM bus and in the MRAM write.
    pub fn insert_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
        self.apply(EdgeOp::Insert, edges.iter().copied(), None)
    }

    /// [`DistributedPimEngine::insert_labeled_edges`] plus the batch's
    /// dependency footprint — the cache hook of the insert path.
    ///
    /// The footprint is the batch-derived base
    /// ([`UpdateFootprint::from_edges`]: per-label source buckets, structural
    /// source+destination buckets) with `host_store` set by the loop itself
    /// whenever a host-resident row was written or a promotion installed one
    /// (only the engine can observe those).
    pub fn insert_labeled_edges_tracked(
        &mut self,
        edges: &[(NodeId, NodeId, Label)],
    ) -> (UpdateStats, UpdateFootprint) {
        let mut footprint = UpdateFootprint::from_edges(edges);
        (self.apply(EdgeOp::Insert, edges.iter().copied(), Some(&mut footprint)), footprint)
    }

    /// Deletes a batch of unlabelled ([`Label::ANY`]) edges.
    pub fn delete_edges(&mut self, edges: &[(NodeId, NodeId)]) -> UpdateStats {
        self.apply(EdgeOp::Delete, edges.iter().map(unlabelled), None)
    }

    /// Deletes a batch of labelled edges (label-byte accounting as on the
    /// insert path).
    pub fn delete_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
        self.apply(EdgeOp::Delete, edges.iter().copied(), None)
    }

    /// [`DistributedPimEngine::delete_labeled_edges`] plus the batch's
    /// dependency footprint; see
    /// [`DistributedPimEngine::insert_labeled_edges_tracked`].
    pub fn delete_labeled_edges_tracked(
        &mut self,
        edges: &[(NodeId, NodeId, Label)],
    ) -> (UpdateStats, UpdateFootprint) {
        let mut footprint = UpdateFootprint::from_edges(edges);
        (self.apply(EdgeOp::Delete, edges.iter().copied(), Some(&mut footprint)), footprint)
    }

    /// The update funnel: every entry point above runs this one loop (the
    /// unlabelled ones stream `Label::ANY` in without materialising a
    /// labelled copy; the tracked ones pass a footprint for the host-store
    /// flag). Batches mutate the stores and the partitioner, so the loop is
    /// sequential.
    ///
    /// Per edge, in this order — `per_module[m]` and `host_time` are float
    /// accumulators, so the order is what keeps every [`UpdateStats`]
    /// bit-identical (`tests/update_cost_golden.rs`):
    ///
    /// 1. the partitioner sees the edge; an insert that pushes the source
    ///    across the degree threshold migrates its rows to the host first;
    /// 2. the forward write at the source's owner and its charge — one probe
    ///    of the row, whose length *before* the write prices the access;
    /// 3. if that changed the store, the mirrored write into the reverse row
    ///    at the destination's owner (reverse rows colocate with the node's
    ///    forward placement, so backward sweeps read them without extra
    ///    routing) and its charge: a PIM-resident reverse row pays the
    ///    CPU→PIM routing of the edge plus one MRAM entry write, a
    ///    host-resident one the host-side write (the host coordinator
    ///    already holds the edge). The mirror cannot fail on its own: the
    ///    forward store just deduplicated the edge, and reverse rows have no
    ///    capacity gate (STORAGE.md).
    fn apply(
        &mut self,
        op: EdgeOp,
        edges: impl ExactSizeIterator<Item = (NodeId, NodeId, Label)>,
        mut footprint: Option<&mut UpdateFootprint>,
    ) -> UpdateStats {
        let batch_len = edges.len();
        let mut delta = StatsDelta::new(self.config.pim.num_modules);
        let insert = op == EdgeOp::Insert;

        for (src, dst, label) in edges {
            let owner = if insert {
                // Partitioning decision happens on edge arrival (radical greedy).
                let before = self.owner(src);
                self.policy.on_edge(src, dst);
                // moctopus-lint: allow(panic-in-lib, reason = "on_edge unconditionally assigns src an owner on the line above")
                let after = self.owner(src).expect("source was just assigned");
                // Labor division: the node may have just crossed the threshold.
                if let (Some(PartitionId::Pim(old)), PartitionId::Host) = (before, after) {
                    self.promote_to_host(src, old as usize, &mut delta);
                }
                after
            } else {
                self.policy.on_edge_delete(src, dst);
                let Some(owner) = self.owner(src) else { continue };
                owner
            };
            // Host-store bytes move when a touched row is (or becomes)
            // host-resident — a promotion installs the row there.
            let mut host_store = owner == PartitionId::Host;
            let label_bytes = label_wire_bytes(label);

            let applied = match owner {
                PartitionId::Host => {
                    // Heterogeneous storage: the PIM side checks existence
                    // and manages the slot, the host writes one position.
                    let outcome = if insert {
                        self.host_store.insert_edge(src, dst, label)
                    } else {
                        self.host_store.delete_edge(src, dst, label)
                    };
                    let aux = self.aux_module(src);
                    delta.per_module[aux] += self.pim.pim_hash_lookup_cost(ID_BYTES)
                        * outcome.cost.pim_lookups as f64
                        + self.pim.pim_instructions_cost(60 * outcome.cost.pim_mutations);
                    delta.host_time +=
                        self.pim.host_sequential_read_cost(outcome.cost.host_bytes_written)
                            + self.pim.host_instructions_cost(40);
                    // The host exchanges a small request/response with the PIM
                    // side to learn the slot position.
                    delta.cpu_to_pim_bytes += EDGE_BYTES + label_bytes;
                    delta.pim_to_cpu_bytes += ID_BYTES;
                    outcome.changed
                }
                PartitionId::Pim(m) => {
                    let store = &mut self.local_stores[m as usize];
                    let written = if insert {
                        store.insert_edge(src, dst, label)
                    } else {
                        store.remove_edge(src, dst, label)
                    };
                    let (row_len, applied) = match written {
                        Ok(prior_len) => (prior_len, true),
                        // A write that changed nothing left the row as it was.
                        Err(_) => (store.row(src).map_or(0, <[_]>::len), false),
                    };
                    delta.cpu_to_pim_bytes += EDGE_BYTES + label_bytes;
                    delta.per_module[m as usize] +=
                        self.pim.pim_hash_lookup_cost(row_len as u64 * ID_BYTES)
                            + self.pim.mram_write_cost(ID_BYTES + label_bytes);
                    applied
                }
            };

            // Both partitioners assign the destination an owner on edge
            // arrival, so the lookup only misses for nodes outside the
            // stream (defensive).
            let rev_owner = if applied { self.owner(dst) } else { None };
            delta.applied += usize::from(applied);
            match rev_owner {
                Some(PartitionId::Host) => {
                    host_store = true;
                    let _ = if insert {
                        self.host_store.insert_rev_edge(dst, src, label)
                    } else {
                        self.host_store.remove_rev_edge(dst, src, label)
                    };
                    delta.host_time += self.pim.host_sequential_read_cost(ID_BYTES + label_bytes);
                }
                Some(PartitionId::Pim(m)) => {
                    let store = &mut self.local_stores[m as usize];
                    let _ = if insert {
                        store.insert_rev_edge(dst, src, label)
                    } else {
                        store.remove_rev_edge(dst, src, label)
                    };
                    delta.cpu_to_pim_bytes += EDGE_BYTES + label_bytes;
                    delta.per_module[m as usize] +=
                        self.pim.mram_write_cost(ID_BYTES + label_bytes);
                }
                None => {}
            }
            if let Some(fp) = footprint.as_deref_mut() {
                fp.host_store |= host_store;
            }
        }

        if insert {
            self.edge_count += delta.applied;
        } else {
            self.edge_count -= delta.applied;
        }
        // The batch's barrier: the accumulated delta becomes its timeline.
        let mut timeline = Timeline::new();
        let pim_time = self.pim.parallel_step(&delta.per_module);
        timeline.charge(Phase::PimCompute, pim_time);
        timeline.charge(Phase::HostCompute, delta.host_time);
        timeline.charge(
            Phase::Cpc,
            self.pim.cpc_transfer_cost(delta.cpu_to_pim_bytes)
                + self.pim.cpc_transfer_cost(delta.pim_to_cpu_bytes),
        );
        timeline.transfers.record_cpu_to_pim(delta.cpu_to_pim_bytes, batch_len as u64);
        timeline.transfers.record_pim_to_cpu(delta.pim_to_cpu_bytes, 1);
        UpdateStats { timeline, requested: batch_len, applied: delta.applied }
    }

    /// Moves a newly promoted high-degree row from its PIM module to the host
    /// (the Node Migrator of Figure 1), charging into the batch's delta.
    fn promote_to_host(&mut self, node: NodeId, old_module: usize, delta: &mut StatsDelta) {
        if let Some(row) = self.local_stores[old_module].take_row(node) {
            let bytes = row.len() as u64 * ID_BYTES + row_label_wire_bytes(&row);
            delta.per_module[old_module] += self.pim.mram_read_cost(bytes);
            delta.pim_to_cpu_bytes += bytes;
            let cost = self.host_store.install_row(node, row);
            delta.host_time += self.pim.host_sequential_read_cost(cost.host_bytes_written);
        }
        // The reverse row rides along: in-adjacency colocates with the node's
        // forward placement, so it is read from the old module and written
        // into the host-side secondary index.
        if let Some(rev) = self.local_stores[old_module].take_rev_row(node) {
            let bytes = rev.len() as u64 * ID_BYTES + row_label_wire_bytes(&rev);
            delta.per_module[old_module] += self.pim.mram_read_cost(bytes);
            delta.pim_to_cpu_bytes += bytes;
            delta.host_time += self.pim.host_sequential_read_cost(bytes);
            self.host_store.install_rev_row(node, rev);
        }
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

    /// Answers a batch k-hop path query with full cost accounting.
    ///
    /// The hop loop is a batch-frontier engine: owner lookups are single
    /// dense-directory loads, produced next-hops are deduplicated with
    /// epoch-stamped markers as they are pushed (the raw expansion is never
    /// materialised), and frontier buffers are recycled across hops and
    /// queries. Each hop runs as plan → execute → merge: the execute stage
    /// fans the frontier out over the worker pool (disjoint module ownership,
    /// private scratch), and the merge stage reduces the per-worker
    /// [`StatsDelta`]s in worker-id order and sorts the merged candidate
    /// frontiers. Every simulated charge — cpc/ipc/mram byte and
    /// instruction — is identical to the naive sequential formulation at any
    /// thread count, including the order float charges accumulate in, so
    /// same-seed experiment outputs do not move.
    pub fn k_hop_batch(&mut self, sources: &[NodeId], k: usize) -> (Vec<Vec<NodeId>>, QueryStats) {
        self.k_hop_batch_impl(sources, k, None)
    }

    /// The shared k-hop loop; the tracked entry point passes a deps
    /// accumulator, the plain one passes `None` (zero work added).
    fn k_hop_batch_impl(
        &mut self,
        sources: &[NodeId],
        k: usize,
        mut track: Option<&mut QueryDeps>,
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        let module_count = self.config.pim.num_modules;
        // Maintained incrementally by the heterogeneous storage.
        let host_resident_bytes: u64 = self.host_store.live_bytes();
        let mut timeline = Timeline::new();
        let mut expansions = 0usize;

        // ---- plan: dispatch accounting and worker layout. At most one worker
        // per module: extra threads idle rather than split a module's
        // (order-sensitive) float accumulator.
        self.charge_dispatch(sources, ENTRY_BYTES, &mut timeline);
        let layout_width = self.pool.workers_for(module_count);
        let mut ctxs = take_scratch(&mut self.scratch.hop_ctxs, layout_width);
        let mut bitmaps = take_scratch(&mut self.scratch.merge_bitmaps, layout_width);
        let id_bound = self.directory_bound();
        // What the previous hop scanned: per module, then the host lane.
        let mut scanned = vec![0u64; module_count + 1];

        if let Some(deps) = track.as_deref_mut() {
            for &s in sources {
                deps.nodes.insert(s);
            }
        }
        let mut scratch = std::mem::take(&mut self.scratch.frontier);
        let mut frontiers: Vec<Vec<NodeId>> = sources
            .iter()
            .map(|&s| {
                let mut f = scratch.take_buffer();
                f.push(s);
                f
            })
            .collect();
        // The second half of the double buffer; swapped with `frontiers`
        // every hop, its spent buffers recycled into the pool.
        let mut next_frontiers: Vec<Vec<NodeId>> = Vec::with_capacity(frontiers.len());

        for _hop in 0..k {
            // Every frontier entry counts as one expansion, whoever owns it.
            let frontier_entries = frontiers.iter().map(Vec::len).sum::<usize>();
            expansions += frontier_entries;

            // ---- execute: embarrassingly parallel over module slices. The
            // worker count is clamped by the hop's work — a hop too small to
            // repay a hand-off runs inline — and the modules are dealt to
            // the workers by what the previous hop scanned on each (output
            // is invariant under both, so re-splitting per hop is free).
            let active = active_workers(layout_width, frontier_entries);
            let hop_ranges =
                balanced_ranges(scanned[module_count], &scanned[..module_count], active);
            for ctx in &mut ctxs[..active] {
                ctx.prepare(frontiers.len(), module_count);
            }
            let this: &DistributedPimEngine = self;
            let deltas = this.pool.run_with(&mut ctxs[..active], |worker, ctx| {
                this.khop_hop_worker(
                    &hop_ranges[worker],
                    worker == 0,
                    &frontiers,
                    host_resident_bytes,
                    ctx,
                )
            });
            for (m, slot) in scanned.iter_mut().enumerate() {
                *slot = ctxs[..active].iter().map(|ctx| ctx.scanned[m]).sum();
            }
            self.scratch.widest_hop = self.scratch.widest_hop.max(active);

            // ---- merge: id-ordered delta reduction on this thread, then
            // the per-query frontier union on the workers ------------------
            let delta = self.charge_hop(&deltas, &mut timeline);

            next_frontiers.clear();
            for _ in 0..frontiers.len() {
                let buf = scratch.take_buffer();
                next_frontiers.push(buf);
            }
            // Worker-local marks make each candidate list duplicate-free, so
            // the union only has to order a query's entries and drop what
            // distinct workers found independently: `sort_dedup`, by bit sets
            // and a word scan over the dense ids or by comparison sort — the
            // same vector either way. One worker's lists are swapped in, not
            // copied; several workers' are merged on those workers.
            let order = |bitmap: &mut OrderedBitmap, next: &mut Vec<NodeId>| {
                bitmap.sort_dedup(
                    next,
                    |n: NodeId| (n.0 < id_bound).then(|| n.index()),
                    |key| NodeId(key as u64),
                );
            };
            if let [only] = &mut ctxs[..active] {
                for (next, candidates) in next_frontiers.iter_mut().zip(&mut only.nexts) {
                    std::mem::swap(next, candidates);
                    order(&mut bitmaps[0], next);
                }
            } else {
                let lists = &ctxs[..active];
                merge_per_query(
                    &self.pool,
                    &mut bitmaps[..active],
                    &mut next_frontiers,
                    |q| lists.iter().map(|ctx| ctx.nexts[q].len() as u64).sum(),
                    |bitmap, q, next| {
                        for ctx in lists {
                            next.extend_from_slice(&ctx.nexts[q]);
                        }
                        order(bitmap, next);
                    },
                );
            }
            // Every worker's spent candidate buffers go back to its own pool.
            for ctx in &mut ctxs[..active] {
                for mut buf in ctx.nexts.drain(..) {
                    buf.clear();
                    ctx.scratch.recycle(buf);
                }
            }
            std::mem::swap(&mut frontiers, &mut next_frontiers);
            for spent in next_frontiers.drain(..) {
                scratch.recycle(spent);
            }
            if let Some(deps) = track.as_deref_mut() {
                // Merged state only: the hop's frontier union and the merged
                // delta are thread-count invariant, so the deps are too.
                deps.host_lane |= !delta.host_time.is_zero();
                for frontier in &frontiers {
                    for &v in frontier {
                        deps.nodes.insert(v);
                    }
                }
            }
        }
        self.scratch.merge_bitmaps = bitmaps;
        self.scratch.frontier = scratch;
        self.scratch.hop_ctxs = ctxs;

        let matched_pairs: usize = frontiers.iter().map(Vec::len).sum();
        self.charge_gather(matched_pairs, &mut timeline);

        let stats =
            QueryStats { timeline, batch_size: sources.len(), hops: k, matched_pairs, expansions };
        (frontiers, stats)
    }

    /// One worker's share of a k-hop execute stage.
    ///
    /// The worker walks **every** query's frontier in global order but
    /// expands only the entries whose row lives on one of its modules (or on
    /// the host, for the host-lane worker), so each `per_module` slot — and
    /// `host_time` — receives its floating-point charges in exactly the
    /// sequential order. Produced next-hops are deduplicated per
    /// `(query, hop)` with the worker's private epoch marks; transfer bytes
    /// are still charged per produced entry, exactly as in the sequential
    /// loop.
    fn khop_hop_worker(
        &self,
        my_modules: &Range<usize>,
        host_lane: bool,
        frontiers: &[Vec<NodeId>],
        host_resident_bytes: u64,
        ctx: &mut HopCtx,
    ) -> StatsDelta {
        let module_count = self.config.pim.num_modules;
        let mut delta = StatsDelta::new(module_count);
        for (q, frontier) in frontiers.iter().enumerate() {
            let next = &mut ctx.nexts[q];
            // One marker generation per (query, hop): a produced entry is
            // pushed only on first sight, so the candidate list is
            // duplicate-free (within this worker) by construction.
            ctx.scratch.marks.next_epoch();
            for &v in frontier {
                match self.owner(v) {
                    Some(PartitionId::Host) if host_lane => {
                        let row_bytes = self.host_store.row_bytes(v);
                        ctx.scanned[module_count] += 1 + row_bytes / ID_BYTES;
                        delta.host_time += self.pim.host_random_access_cost(1, host_resident_bytes)
                            + self.pim.host_sequential_read_cost(row_bytes);
                        for (u, _) in self.host_store.neighbors_iter(v) {
                            // The host forwards the produced entry to the
                            // module owning it (or keeps it if the next
                            // row is also host-resident).
                            if matches!(self.owner(u), Some(PartitionId::Pim(_))) {
                                delta.cpc_bytes += ENTRY_BYTES;
                            }
                            if ctx.scratch.marks.mark(u.index()) {
                                next.push(u);
                            }
                        }
                    }
                    Some(PartitionId::Pim(m)) if my_modules.contains(&(m as usize)) => {
                        let m = m as usize;
                        let row = self.local_stores[m].row(v).unwrap_or(&[]);
                        let row_bytes = row.len() as u64 * ID_BYTES;
                        ctx.scanned[m] += 1 + row.len() as u64;
                        delta.per_module[m] += self.pim.pim_hash_lookup_cost(row_bytes);
                        for &(u, _) in row {
                            match self.owner(u) {
                                Some(PartitionId::Pim(m2)) if m2 as usize == m => {}
                                Some(PartitionId::Pim(_)) => {
                                    delta.ipc_bytes += ENTRY_BYTES;
                                    delta.ipc_messages += 1;
                                }
                                _ => {
                                    // Destination row lives on the host (or
                                    // is unknown): the entry is gathered
                                    // over the CPC link.
                                    delta.cpc_bytes += ENTRY_BYTES;
                                }
                            }
                            if ctx.scratch.marks.mark(u.index()) {
                                next.push(u);
                            }
                        }
                    }
                    _ => {
                        // Another worker's module, or a node that has never
                        // appeared in the edge stream (no outgoing edges).
                    }
                }
            }
        }
        delta
    }

    /// Answers a batch of general regular path queries with full cost
    /// accounting.
    ///
    /// Plain k-hop expressions (`.{k}` and concatenations of `.`) take the
    /// [`DistributedPimEngine::k_hop_batch`] fast path, whose cost model is
    /// untouched — same-seed experiment outputs do not move. Everything else
    /// is evaluated as an NFA product (`nfa_product_batch_impl`).
    pub fn rpq_batch(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        if let Some(k) = expr.as_k_hop() {
            return self.k_hop_batch(sources, k);
        }
        let nfa = Nfa::from_expr(expr);
        self.nfa_product_batch_impl(&nfa, sources, None, None)
    }

    /// [`DistributedPimEngine::rpq_batch`] plus the execution's dependency
    /// footprint: the bucket of every visited node (sources and every hop's
    /// merged frontier) and whether the host lane expanded a row. Tracking
    /// reads only merged, thread-count-invariant state, so the deps — like
    /// the stats — are byte-identical at every thread count, and no simulated
    /// charge moves. K-hop shapes take the tracked fast path, everything else
    /// the tracked NFA product.
    pub fn rpq_batch_tracked(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
    ) -> (Vec<Vec<NodeId>>, QueryStats, QueryDeps) {
        let mut deps = QueryDeps::default();
        if let Some(k) = expr.as_k_hop() {
            let (results, stats) = self.k_hop_batch_impl(sources, k, Some(&mut deps));
            return (results, stats, deps);
        }
        let nfa = Nfa::from_expr(expr);
        let (results, stats) = self.nfa_product_batch_impl(&nfa, sources, None, Some(&mut deps));
        (results, stats, deps)
    }

    /// Answers a batch RPQ by **executing** the given plan strategy — the
    /// execution half of the `rpq::optimizer` contract.
    ///
    /// Served answers are byte-identical to
    /// [`DistributedPimEngine::rpq_batch`] under every strategy
    /// (`tests/plan_invariance.rs` and `tests/rpq_taxonomy.rs` prove it);
    /// only the simulated cost and workload counters differ.
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
    /// mandatory exact pivot) falls back to the forward path.
    pub fn rpq_batch_planned(
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
                let useful = self.useful_pairs(&nfa, None, &mut preamble);
                let pruning = Pruning { useful: Some(&useful), accept_nodes: None, preamble };
                self.nfa_product_batch_impl(&nfa, sources, Some(pruning), None)
            }
            PlanStrategy::RareLabelSplit { split_at } => {
                let Some((prefix, suffix, pivot)) = optimizer::split_for(expr, split_at) else {
                    return self.rpq_batch(expr, sources);
                };
                self.split_product(&prefix, &suffix, pivot, sources)
            }
        }
    }

    /// All nodes with at least one `spec`-matching outgoing edge, ascending:
    /// every store's rows holding the label (stores that lack it are
    /// skipped, host rows answer from their label counts), then a sort.
    /// Charged as one host-side pass over the gathered id list.
    fn spec_sources(&self, spec: LabelSpec, delta: &mut StatsDelta) -> Vec<NodeId> {
        let label = match spec {
            LabelSpec::Exact(l) => Some(l),
            LabelSpec::Any => None,
        };
        let local = self.local_stores.iter().flat_map(|s| s.rows_holding(label));
        let mut ids: Vec<NodeId> = local.chain(self.host_store.rows_holding(label)).collect();
        ids.sort_unstable();
        ids.dedup();
        delta.host_time += self.pim.host_sequential_read_cost(ids.len() as u64 * ID_BYTES);
        ids
    }

    /// The in-adjacency row of `node`, read from wherever the node's forward
    /// row lives (the colocation invariant).
    fn rev_row_of(&self, node: NodeId) -> &[(NodeId, Label)] {
        match self.owner(node) {
            Some(PartitionId::Host) => self.host_store.rev_row(node).unwrap_or(&[]),
            Some(PartitionId::Pim(m)) => self.local_stores[m as usize].rev_row(node).unwrap_or(&[]),
            None => &[],
        }
    }

    /// Charges one backward scan of `node`'s reverse row into `delta`
    /// (id + label arrays, like the forward label-constrained scans).
    fn charge_rev_scan(&self, node: NodeId, delta: &mut StatsDelta) {
        let bytes = self.rev_row_of(node).len() as u64 * (ID_BYTES + LABEL_BYTES);
        match self.owner(node) {
            Some(PartitionId::Host) => {
                let resident = self.host_store.live_bytes() + self.host_store.rev_bytes();
                delta.host_time += self.pim.host_random_access_cost(1, resident)
                    + self.pim.host_sequential_read_cost(bytes);
            }
            Some(PartitionId::Pim(m)) => {
                delta.per_module[m as usize] += self.pim.pim_hash_lookup_cost(bytes);
            }
            None => {}
        }
    }

    /// The bidirectional plan's *useful set*: every product pair
    /// `(node, state)` from which at least one more transition can reach an
    /// accepting pair, computed by sweeping the reversed automaton backward
    /// over the in-adjacency index. With `accept_nodes` given (the split
    /// plan's prefix leg), acceptance is additionally restricted to those
    /// nodes, so the base seeds come from their reverse rows.
    ///
    /// Soundness of the downstream pruning: on any accepting product path,
    /// every pair except the final accepting one has a transition into the
    /// rest of the path, so it is in the useful set — restricting forward
    /// frontiers to useful pairs drops no answer. The computation is
    /// sequential and touches only sorted rows and sorted seed lists, so the
    /// charges it accumulates are deterministic; the set itself is a fixpoint
    /// (discovery order is irrelevant to membership).
    fn useful_pairs(
        &self,
        nfa: &Nfa,
        accept_nodes: Option<&[NodeId]>,
        delta: &mut StatsDelta,
    ) -> ProductSet {
        let rev = nfa.reversed_transitions();
        let mut useful = self.product_set(nfa);
        let mut work: Vec<(NodeId, u32)> = Vec::new();

        // Base: pairs one matching transition away from an accepting pair.
        for (q_acc, rev_row) in rev.iter().enumerate() {
            if !nfa.is_accepting(q_acc) {
                continue;
            }
            for &(spec, from) in rev_row {
                match accept_nodes {
                    None => {
                        for n in self.spec_sources(spec, delta) {
                            if useful.insert(n.0, from as u32) {
                                work.push((n, from as u32));
                                delta.cpc_bytes += ENTRY_BYTES + STATE_BYTES;
                            }
                        }
                    }
                    Some(ms) => {
                        for &m in ms {
                            self.charge_rev_scan(m, delta);
                            for &(n, label) in self.rev_row_of(m) {
                                if spec.matches(label) && useful.insert(n.0, from as u32) {
                                    work.push((n, from as u32));
                                    delta.cpc_bytes += ENTRY_BYTES + STATE_BYTES;
                                }
                            }
                        }
                    }
                }
            }
        }

        // Closure: walk product transitions backward over reverse rows.
        while let Some((n, q)) = work.pop() {
            for &(spec, p) in &rev[q as usize] {
                self.charge_rev_scan(n, delta);
                for &(m, label) in self.rev_row_of(n) {
                    if spec.matches(label) && useful.insert(m.0, p as u32) {
                        work.push((m, p as u32));
                        delta.cpc_bytes += ENTRY_BYTES + STATE_BYTES;
                    }
                }
            }
        }
        useful
    }

    /// Executes the rare-label-split plan: the suffix automaton runs forward
    /// (unpruned) from the pivot label's exact source set, the prefix
    /// automaton runs pruned from the query sources with acceptance
    /// restricted to those pivot sources, and the per-source answers are
    /// joined on the host (charged as one reduce pass over the rows read out
    /// of the suffix answer table).
    fn split_product(
        &mut self,
        prefix: &RpqExpr,
        suffix: &RpqExpr,
        pivot: Label,
        sources: &[NodeId],
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        let module_count = self.config.pim.num_modules;
        let mut seed_delta = StatsDelta::new(module_count);
        let pivots = self.spec_sources(LabelSpec::Exact(pivot), &mut seed_delta);
        let suffix_nfa = Nfa::from_expr(suffix);
        let prefix_nfa = Nfa::from_expr(prefix);

        // Suffix leg: full forward product from the pivot sources (every
        // pivot row feeds the join, so there is nothing to prune).
        let seeded = Pruning { useful: None, accept_nodes: None, preamble: seed_delta };
        let (suffix_results, suffix_stats) =
            self.nfa_product_batch_impl(&suffix_nfa, &pivots, Some(seeded), None);

        // Prefix leg: pruned toward the pivots — only pairs that can still
        // reach an accepting pair *at a pivot node* stay in the frontier.
        let mut backward = StatsDelta::new(module_count);
        let prefix_useful = self.useful_pairs(&prefix_nfa, Some(&pivots), &mut backward);
        let mut accept_set = ProductSet::new(self.directory_bound(), 1);
        for &m in &pivots {
            accept_set.insert(m.0, 0);
        }
        let toward_pivots = Pruning {
            useful: Some(&prefix_useful),
            accept_nodes: Some(&accept_set),
            preamble: backward,
        };
        let (mid_results, prefix_stats) =
            self.nfa_product_batch_impl(&prefix_nfa, sources, Some(toward_pivots), None);

        // Join on the host: each source's answer is the union of the suffix
        // answers of the pivots its prefix reached (`pivots` is ascending,
        // and `suffix_results` is in its order).
        let mut join_bytes = 0u64;
        let mut results: Vec<Vec<NodeId>> = Vec::with_capacity(sources.len());
        for mids in &mid_results {
            let mut ans: Vec<NodeId> = Vec::new();
            for m in mids {
                if let Ok(i) = pivots.binary_search(m) {
                    ans.extend_from_slice(&suffix_results[i]);
                    join_bytes += suffix_results[i].len() as u64 * ID_BYTES;
                }
            }
            ans.sort_unstable();
            ans.dedup();
            results.push(ans);
        }

        let matched_pairs: usize = results.iter().map(Vec::len).sum();
        let mut timeline = suffix_stats.timeline;
        timeline += prefix_stats.timeline;
        timeline.charge(
            Phase::Reduce,
            self.pim.host_sequential_read_cost(join_bytes)
                + self.pim.host_instructions_cost(matched_pairs as u64 * 8),
        );
        let stats = QueryStats {
            timeline,
            batch_size: sources.len(),
            hops: suffix_stats.hops.max(prefix_stats.hops),
            matched_pairs,
            expansions: suffix_stats.expansions + prefix_stats.expansions,
        };
        (results, stats)
    }

    /// An empty product-pair set over this engine's key space for `nfa`:
    /// `directory bound × automaton states` node-major keys.
    fn product_set(&self, nfa: &Nfa) -> ProductSet {
        let states = u32::try_from(nfa.state_count()).unwrap_or(u32::MAX);
        ProductSet::new(self.directory_bound(), states)
    }

    /// Batch NFA-product evaluation: the generalisation of the k-hop loop to
    /// arbitrary label automata.
    ///
    /// Frontier entries become `(node, nfa_state)` pairs — the product of the
    /// data graph and the query automaton — deduplicated per query with a
    /// *global* visited set over `state × node` (required for termination on
    /// cyclic graphs under `*`/`+`). The per-hop structure is identical to
    /// [`DistributedPimEngine::k_hop_batch`]: each entry is expanded by the
    /// computing node owning its row, every produced entry that leaves the
    /// module is charged to the inter-PIM or CPC bus (`ENTRY_BYTES` plus
    /// `STATE_BYTES` for the automaton state riding along), each hop's PIM
    /// latency is the slowest module, and the final result is gathered and
    /// reduced on the host. Label-constrained row scans read both the id
    /// array and the label array, so they cost
    /// `row_len × (ID_BYTES + LABEL_BYTES)` instead of the k-hop loop's
    /// id-array-only `row_len × ID_BYTES`.
    ///
    /// A node is reported for a query as soon as *some* visited product state
    /// is accepting; if the automaton accepts the empty path the source
    /// itself is part of the answer, as in [`rpq::ReferenceEvaluator`].
    ///
    /// This is the shared entry point: it charges a non-forward plan's
    /// preamble, runs the hop loop, and reads answers (and, for the tracked
    /// entry point, dependencies) off the per-query visited sets.
    ///
    /// The visited sets contain every reached product pair — sources included
    /// — in `(node, state)` order, so an ordered scan yields each query's
    /// accepted nodes already ascending (a node reached in several accepting
    /// states is adjacent to itself) and exactly its node-dependency set.
    fn nfa_product_batch_impl(
        &mut self,
        nfa: &Nfa,
        sources: &[NodeId],
        pruning: Option<Pruning>,
        mut track: Option<&mut QueryDeps>,
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        let mut timeline = Timeline::new();
        let (useful, accept_nodes) = match pruning {
            Some(Pruning { useful, accept_nodes, preamble }) => {
                // Its discovered pairs were gathered to the coordinating
                // host over the CPC link.
                let pre_pim = self.pim.parallel_step(&preamble.per_module);
                timeline.charge(Phase::PimCompute, pre_pim);
                timeline.charge(Phase::HostCompute, preamble.host_time);
                timeline.charge(Phase::Cpc, self.pim.cpc_transfer_cost(preamble.cpc_bytes));
                timeline.transfers.record_pim_to_cpu(preamble.cpc_bytes, 1);
                (useful, accept_nodes)
            }
            None => (None, None),
        };

        let (visited, hops, expansions) =
            self.nfa_product_visit(nfa, sources, useful, &mut timeline, track.as_deref_mut());

        let mut results: Vec<Vec<NodeId>> = Vec::with_capacity(visited.len());
        for seen in &visited {
            let mut nodes: Vec<NodeId> = Vec::new();
            for (node, state) in seen.iter() {
                if let Some(deps) = track.as_deref_mut() {
                    deps.nodes.insert(NodeId(node));
                }
                if nfa.is_accepting(state as usize)
                    && accept_nodes.is_none_or(|set| set.contains(node, 0))
                {
                    nodes.push(NodeId(node));
                }
            }
            nodes.dedup();
            results.push(nodes);
        }

        let matched_pairs: usize = results.iter().map(Vec::len).sum();
        self.charge_gather(matched_pairs, &mut timeline);

        let stats =
            QueryStats { timeline, batch_size: sources.len(), hops, matched_pairs, expansions };
        (results, stats)
    }

    /// The NFA-product hop loop: dispatch, then plan → execute → merge per
    /// hop until every frontier is empty. Returns the per-query visited sets
    /// with the hop and expansion counts; every charge lands in `timeline`.
    ///
    /// Frontiers, candidate lists and memoised successors are node-major
    /// product **keys** (`ProductSet::key`), not `(node, state)` pairs: a
    /// pair is divided back out of its key only where its row is looked up
    /// (once per call and worker, `build_expansion`) and in the answer scan.
    /// A source outside the owner directory has no key, no owner and no row:
    /// it counts as one expansion of the first hop and otherwise lives only
    /// in its visited set.
    ///
    /// With `useful` given, only useful pairs enter a frontier (a start pair
    /// outside the set can only contribute the empty path, which the visited
    /// set already records); every discovered pair still enters the visited
    /// set, so acceptance is read off it either way.
    fn nfa_product_visit(
        &mut self,
        nfa: &Nfa,
        sources: &[NodeId],
        useful: Option<&ProductSet>,
        timeline: &mut Timeline,
        mut track: Option<&mut QueryDeps>,
    ) -> (Vec<ProductSet>, usize, usize) {
        let module_count = self.config.pim.num_modules;
        let host_resident_bytes: u64 = self.host_store.live_bytes();
        let mut expansions = 0usize;

        // The automaton start state rides along with every dispatched source.
        self.charge_dispatch(sources, ENTRY_BYTES + STATE_BYTES, timeline);

        // One visited set per query, persisting across hops. A `ProductSet`
        // is a tree until it holds `bound / 128` pairs and a `bound / 8`-byte
        // bitset from then on, so a set never costs more than ≈ 16 bytes per
        // pair it holds: a 1024-source batch of dead ends stays 1024 small
        // trees however large the owner directory is, and only queries that
        // actually sweep the graph pay for (and profit from) bit tests.
        let start = nfa.start() as u32;
        let shape = self.product_set(nfa);
        let mut unkeyed_sources = 0usize;
        let mut visited: Vec<ProductSet> = Vec::with_capacity(sources.len());
        let mut frontiers: Vec<Vec<usize>> = Vec::with_capacity(sources.len());
        for &s in sources {
            let mut seen = shape.clone();
            seen.insert(s.0, start);
            visited.push(seen);
            let enters = useful.is_none_or(|set| set.contains(s.0, start));
            let key = shape.key(s.0, start).filter(|_| enters);
            unkeyed_sources += usize::from(enters && key.is_none());
            frontiers.push(key.into_iter().collect());
        }
        let mut next_frontiers: Vec<Vec<usize>> = vec![Vec::new(); frontiers.len()];
        let mut hops = 0usize;

        let layout_width = self.pool.workers_for(module_count);
        let mut ctxs = take_scratch(&mut self.scratch.nfa_ctxs, layout_width);
        let mut bitmaps = take_scratch(&mut self.scratch.merge_bitmaps, layout_width);
        for ctx in &mut ctxs[..layout_width] {
            ctx.memo.reset(shape.bound());
        }

        // One query's share of the merge stage: order and deduplicate its
        // candidates, extend its visited set by the survivors, and keep only
        // the useful ones in the frontier.
        let merge_query =
            |bitmap: &mut OrderedBitmap, next: &mut Vec<usize>, seen: &mut ProductSet| {
                bitmap.sort_dedup(next, Some, |key| key);
                for &key in next.iter() {
                    seen.insert_key(key);
                }
                if let Some(useful) = useful {
                    next.retain(|&key| useful.contains_key(key));
                }
            };

        while unkeyed_sources > 0 || frontiers.iter().any(|f| !f.is_empty()) {
            hops += 1;
            let frontier_entries = frontiers.iter().map(Vec::len).sum::<usize>();
            expansions += frontier_entries + std::mem::take(&mut unkeyed_sources);

            // ---- execute: workers expand their modules' product entries,
            // reading the per-query visited sets as an immutable snapshot
            // (they are only extended at the merge barrier below). As in the
            // k-hop loop the worker count is clamped by the hop's work;
            // unlike there the modules are dealt evenly — what a closure hop
            // scanned says little about the next (CONCURRENCY.md §4.1).
            let active = active_workers(layout_width, frontier_entries);
            let hop_ranges = chunk_ranges(module_count, active);
            for ctx in &mut ctxs[..active] {
                ctx.nexts.resize(frontiers.len(), Vec::new());
            }
            let this: &DistributedPimEngine = self;
            let deltas = this.pool.run_with(&mut ctxs[..active], |worker, ctx| {
                this.nfa_hop_worker(
                    &hop_ranges[worker],
                    worker == 0,
                    nfa,
                    &frontiers,
                    &visited,
                    host_resident_bytes,
                    ctx,
                )
            });
            self.scratch.widest_hop = self.scratch.widest_hop.max(active);

            // ---- merge: id-ordered delta reduction on this thread, then the
            // per-query frontier union on the workers. Candidates were
            // filtered against the visited snapshot and deduplicated per
            // worker, so once ordered and deduplicated across workers every
            // survivor enters the visited set: exactly the sequential loop's
            // sorted, duplicate-free next frontier and visited-set growth.
            let delta = self.charge_hop(&deltas, timeline);

            if let [only] = &mut ctxs[..active] {
                let per_query = next_frontiers.iter_mut().zip(&mut only.nexts).zip(&mut visited);
                for ((next, candidates), seen) in per_query {
                    std::mem::swap(next, candidates);
                    merge_query(&mut bitmaps[0], next, seen);
                }
            } else {
                let lists = &ctxs[..active];
                let mut per_query: Vec<_> = next_frontiers.iter_mut().zip(&mut visited).collect();
                merge_per_query(
                    &self.pool,
                    &mut bitmaps[..active],
                    &mut per_query,
                    |q| lists.iter().map(|ctx| ctx.nexts[q].len() as u64).sum(),
                    |bitmap, q, (next, seen)| {
                        next.clear();
                        for ctx in lists {
                            next.extend_from_slice(&ctx.nexts[q]);
                        }
                        merge_query(bitmap, next, seen);
                    },
                );
            }
            if let Some(deps) = track.as_deref_mut() {
                // Merged-delta host time is thread-count invariant.
                deps.host_lane |= !delta.host_time.is_zero();
            }
            std::mem::swap(&mut frontiers, &mut next_frontiers);
        }
        self.scratch.merge_bitmaps = bitmaps;
        self.scratch.nfa_ctxs = ctxs;
        (visited, hops, expansions)
    }

    /// One worker's share of an NFA-product execute stage (the labelled
    /// generalisation of [`DistributedPimEngine::khop_hop_worker`]).
    ///
    /// Same ownership discipline: the worker walks every query's frontier in
    /// global order, expands only product entries whose node row lives on its
    /// modules (or the host for the host-lane worker), and charges into its
    /// private delta. Expanding is **build-then-replay**: the first time a
    /// call reaches a pair, [`DistributedPimEngine::build_expansion`] files
    /// what the expansion charges and produces in the worker's memo; every
    /// expansion, that first one included, then replays the entry — the same
    /// float into the same accumulator in the same frontier order, the
    /// per-matched-transition byte charges as three integer adds
    /// (unconditional, exactly as in the sequential loop), and each successor
    /// key emitted when it is new to both the worker's marks for this
    /// `(query, hop)` and the query's visited snapshot (immutable during the
    /// hop). Marks first: duplicate productions (the common case under
    /// closures) cost one stamp compare.
    #[allow(clippy::too_many_arguments)]
    fn nfa_hop_worker(
        &self,
        my_modules: &Range<usize>,
        host_lane: bool,
        nfa: &Nfa,
        frontiers: &[Vec<usize>],
        visited: &[ProductSet],
        host_resident_bytes: u64,
        ctx: &mut NfaHopCtx,
    ) -> StatsDelta {
        let module_count = self.config.pim.num_modules;
        let mut delta = StatsDelta::new(module_count);
        let NfaHopCtx { marks, nexts, memo } = ctx;
        let mine = |lane: usize| my_modules.contains(&lane) || (host_lane && lane == module_count);
        for (q, frontier) in frontiers.iter().enumerate() {
            // Last hop's candidates stay readable until the merge stage has
            // copied them out; the list is emptied here, by its owner.
            let next = &mut nexts[q];
            next.clear();
            let snapshot = &visited[q];
            marks.next_epoch();
            for &key in frontier {
                let index = match memo.slot(key) {
                    Slot::Entry(index) => index,
                    Slot::Foreign(lane) if !mine(lane) => continue,
                    // First sight in this call — or tagged under an earlier
                    // hop's module split and this worker's now.
                    _ => {
                        let (node, state) = snapshot.pair(key);
                        let owner = self.owner(NodeId(node));
                        let lane = match owner {
                            Some(PartitionId::Pim(m)) => m as usize,
                            Some(PartitionId::Host) => module_count,
                            // Never in the edge stream: nobody's to expand.
                            None => module_count + 1,
                        };
                        let Some(owner) = owner.filter(|_| mine(lane)) else {
                            memo.tag_foreign(key, lane);
                            continue;
                        };
                        let expansion = self.build_expansion(
                            NodeId(node),
                            owner,
                            lane,
                            nfa.transitions_from(state as usize),
                            snapshot,
                            host_resident_bytes,
                            &mut memo.successors,
                        );
                        memo.push_entry(key, expansion)
                    }
                };
                let expansion = memo.entries[index];
                if !mine(expansion.lane) {
                    continue;
                }
                if expansion.lane == module_count {
                    delta.host_time += expansion.cost;
                } else {
                    delta.per_module[expansion.lane] += expansion.cost;
                }
                delta.ipc_messages += expansion.ipc_messages;
                delta.ipc_bytes += expansion.ipc_messages * (ENTRY_BYTES + STATE_BYTES);
                delta.cpc_bytes += expansion.cpc_entries * (ENTRY_BYTES + STATE_BYTES);
                for &successor in memo.successors_of(index) {
                    if marks.mark(successor) && !snapshot.contains_key(successor) {
                        next.push(successor);
                    }
                }
            }
        }
        delta
    }

    /// The build half of an expansion: scans the row of `node` at its
    /// `owner` (accumulator `lane`), matches it against `transitions`,
    /// appends the successors' keys to `successors` and returns what the scan
    /// charges. `shape` is any set over the call's key space.
    #[allow(clippy::too_many_arguments)]
    fn build_expansion(
        &self,
        node: NodeId,
        owner: PartitionId,
        lane: usize,
        transitions: &[(LabelSpec, usize)],
        shape: &ProductSet,
        host_resident_bytes: u64,
        successors: &mut Vec<usize>,
    ) -> Expansion {
        let (mut ipc_messages, mut cpc_entries) = (0u64, 0u64);
        // A label-constrained scan reads the id array and the label array.
        let scan_bytes = |entries: usize| entries as u64 * (ID_BYTES + LABEL_BYTES);
        let cost = match owner {
            PartitionId::Host => {
                let row = self.host_store.neighbors_iter(node);
                // The host forwards a produced entry to the module owning it
                // (or keeps it if the next row is also host-resident).
                self.match_row(row, transitions, shape, successors, |to| {
                    cpc_entries += u64::from(matches!(to, Some(PartitionId::Pim(_))));
                });
                let slots = self.host_store.slot_count(node);
                self.pim.host_random_access_cost(1, host_resident_bytes)
                    + self.pim.host_sequential_read_cost(scan_bytes(slots))
            }
            PartitionId::Pim(m) => {
                let row = self.local_stores[m as usize].row(node).unwrap_or(&[]);
                let charge = |to: Option<PartitionId>| match to {
                    Some(PartitionId::Pim(m2)) if m2 == m => {}
                    Some(PartitionId::Pim(_)) => ipc_messages += 1,
                    // The destination row lives on the host (or is unknown):
                    // the entry is gathered over the CPC link.
                    _ => cpc_entries += 1,
                };
                self.match_row(row.iter().copied(), transitions, shape, successors, charge);
                self.pim.pim_hash_lookup_cost(scan_bytes(row.len()))
            }
        };
        Expansion { cost, lane, ipc_messages, cpc_entries, successors_end: successors.len() }
    }

    /// Appends to `successors` the key of every label-matched
    /// `(row entry, transition)` pair, in row × transition order, reporting
    /// each successor's owner to `charge`.
    ///
    /// A successor always has a key: a row names only nodes inside the owner
    /// directory ([`DistributedPimEngine::directory_bound`]), and a key space
    /// clamped below the directory has no slot table to get here with.
    fn match_row(
        &self,
        row: impl Iterator<Item = (NodeId, Label)>,
        transitions: &[(LabelSpec, usize)],
        shape: &ProductSet,
        successors: &mut Vec<usize>,
        mut charge: impl FnMut(Option<PartitionId>),
    ) {
        for (u, label) in row {
            for &(spec, next_state) in transitions {
                if spec.matches(label) {
                    charge(self.owner(u));
                    successors.extend(shape.key(u.0, next_state as u32));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Refinement and inspection
    // ------------------------------------------------------------------

    /// Every stored edge, module stores first, then the host store; rows in
    /// arbitrary order (consumers are order-independent or sort).
    fn stored_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Label)> + '_ {
        let local = self.local_stores.iter().flat_map(LocalGraphStorage::iter);
        let local = local.flat_map(|(src, row)| row.iter().map(move |&(dst, l)| (src, dst, l)));
        let host = self.host_store.iter();
        local.chain(host.flat_map(|(src, row)| row.map(move |(dst, l)| (src, dst, l))))
    }

    /// Runs the adaptive refinement: detects incorrectly partitioned nodes,
    /// migrates their rows to the module holding most of their neighbours, and
    /// charges the migration traffic.
    ///
    /// In the real system detection piggybacks on every batch of path-matching
    /// queries, so the placement keeps improving over time; this method models
    /// that steady state by iterating the detect-and-migrate pass until it
    /// converges (at most a handful of rounds), each round reading the
    /// module stores' forward rows in place — no copy of the graph. Returns
    /// the combined migration report and the simulated time of the whole
    /// pass. A no-op under hash placement (the contrast system).
    pub fn refine_locality(&mut self) -> (MigrationReport, Timeline) {
        const MAX_ROUNDS: usize = 4;
        let mut timeline = Timeline::new();
        let mut combined = MigrationReport::default();
        for _ in 0..MAX_ROUNDS {
            let PlacementPolicy::GreedyAdaptive(p) = &mut self.policy else { break };
            // Every PIM-resident node's out-row lives in its owner's store;
            // host rows are never refined.
            let mut rows: Vec<_> =
                self.local_stores.iter().flat_map(LocalGraphStorage::iter).collect();
            rows.sort_unstable_by_key(|&(node, _)| node);
            let report = p.refine_rows(rows);
            let mut ipc_bytes = 0u64;
            for &(node, from, to) in &report.migrations {
                let (PartitionId::Pim(from), PartitionId::Pim(to)) = (from, to) else { continue };
                if let Some(row) = self.local_stores[from as usize].take_row(node) {
                    let bytes = row.len() as u64 * ID_BYTES + row_label_wire_bytes(&row) + ID_BYTES;
                    ipc_bytes += bytes;
                    self.local_stores[to as usize].install_row(node, row);
                }
                // The reverse row migrates with the node (colocation
                // invariant), charged like the forward row.
                if let Some(rev) = self.local_stores[from as usize].take_rev_row(node) {
                    let bytes = rev.len() as u64 * ID_BYTES + row_label_wire_bytes(&rev) + ID_BYTES;
                    ipc_bytes += bytes;
                    self.local_stores[to as usize].install_rev_row(node, rev);
                }
            }
            timeline.charge(Phase::Ipc, self.pim.ipc_transfer_cost(ipc_bytes));
            timeline.transfers.record_inter_pim(ipc_bytes, report.migrated as u64);
            let done = report.migrated == 0;
            combined.examined += report.examined;
            combined.migrated += report.migrated;
            combined.migrations.extend(report.migrations);
            if done {
                break;
            }
        }
        (combined, timeline)
    }

    /// Partition-quality metrics of the current placement.
    pub fn partition_metrics(&self) -> PartitionMetrics {
        PartitionMetrics::compute(self.stored_edges(), self.policy.assignment())
    }

    // ------------------------------------------------------------------
    // Durable snapshots
    // ------------------------------------------------------------------

    /// Exports the engine's complete storage plane as a canonical
    /// [`SnapshotState`].
    ///
    /// The image captures everything that drives future behaviour: each
    /// module's local rows (and capacity limit), the host heterogeneous rows
    /// with their exact slot layout and free-list pop order (slot reuse and
    /// row-scan costs depend on both), the raw partition-assignment vector,
    /// and — under the greedy-adaptive policy — the degree table and
    /// promotion log. Accumulated simulator busy time is deliberately *not*
    /// part of the image: it only feeds the cosmetic
    /// [`DistributedPimEngine::load_imbalance`] metric, never a future result
    /// or charge.
    pub fn export_storage(&self) -> SnapshotState {
        let local_modules = self
            .local_stores
            .iter()
            .map(|s| LocalModuleSnapshot {
                rows: s.export_rows(),
                capacity_bytes: s.capacity_bytes(),
            })
            .collect();
        let host_rows = self
            .host_store
            .export_rows()
            .into_iter()
            .map(|(node, slots, free)| HostRowSnapshot { node, slots, free })
            .collect();
        let (degrees, promotions) = match &self.policy {
            PlacementPolicy::GreedyAdaptive(p) => {
                (p.degrees().export_entries(), p.promotions().to_vec())
            }
            PlacementPolicy::Hash(_) => (Vec::new(), Vec::new()),
        };
        SnapshotState {
            last_seq: 0,
            edge_count: self.edge_count as u64,
            local_modules,
            host_rows,
            assignment_slots: self.policy.assignment().export_slots(),
            degrees,
            promotions,
            adjacency_rows: Vec::new(),
            adjacency_id_bound: 0,
        }
    }

    /// Replaces the engine's storage plane with a previously exported image.
    ///
    /// Returns `false` — leaving the engine untouched — when the snapshot was
    /// written under a different PIM module count (its per-module section
    /// cannot map onto this configuration). The placement policy *kind* is
    /// taken from the live engine; only its state is replaced.
    pub fn restore_storage(&mut self, snapshot: &SnapshotState) -> bool {
        if snapshot.local_modules.len() != self.config.pim.num_modules {
            return false;
        }
        self.local_stores = snapshot
            .local_modules
            .iter()
            .map(|m| LocalGraphStorage::from_sorted_rows(m.rows.clone(), m.capacity_bytes))
            .collect();
        self.host_store = HeterogeneousStorage::from_rows(
            snapshot.host_rows.iter().map(|r| (r.node, r.slots.clone(), r.free.clone())).collect(),
        );
        self.policy = match &self.policy {
            PlacementPolicy::GreedyAdaptive(p) => {
                PlacementPolicy::GreedyAdaptive(GreedyAdaptivePartitioner::from_snapshot_parts(
                    *p.config(),
                    snapshot.assignment_slots.clone(),
                    snapshot.degrees.clone(),
                    snapshot.promotions.clone(),
                ))
            }
            PlacementPolicy::Hash(_) => {
                PlacementPolicy::Hash(HashPartitioner::from_snapshot_parts(
                    self.config.pim.num_modules,
                    snapshot.assignment_slots.clone(),
                ))
            }
        };
        self.edge_count = snapshot.edge_count as usize;
        self.rebuild_rev_rows();
        true
    }

    /// Deterministically reconstructs the in-adjacency secondary index (and
    /// its reverse label statistics) from freshly restored forward rows:
    /// every stored edge's reverse entry is routed to the destination row's
    /// owner under the restored assignment — exactly where incremental
    /// maintenance would have put it. Snapshots never carry reverse rows
    /// (see STORAGE.md): the stores keep them sorted on insert and every
    /// edge lives in exactly one forward store, so the rebuilt index is
    /// independent of the iteration order used here.
    fn rebuild_rev_rows(&mut self) {
        let edges: Vec<(NodeId, NodeId, Label)> = self.stored_edges().collect();
        for (src, dst, label) in edges {
            match self.owner(dst) {
                Some(PartitionId::Host) => {
                    let _ = self.host_store.insert_rev_edge(dst, src, label);
                }
                Some(PartitionId::Pim(m)) => {
                    let _ = self.local_stores[m as usize].insert_rev_edge(dst, src, label);
                }
                None => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_partition::GreedyAdaptivePartitioner;
    use graph_store::AdjacencyGraph;
    use pim_sim::SimTime;

    fn moctopus_engine() -> DistributedPimEngine {
        let cfg = MoctopusConfig::small_test();
        let policy = PlacementPolicy::GreedyAdaptive(GreedyAdaptivePartitioner::with_config(
            cfg.partitioner_config(),
        ));
        DistributedPimEngine::new(cfg, policy)
    }

    fn hash_engine() -> DistributedPimEngine {
        let cfg = MoctopusConfig::small_test();
        let policy = PlacementPolicy::Hash(HashPartitioner::new(cfg.pim.num_modules));
        DistributedPimEngine::new(cfg, policy)
    }

    fn ring_edges(n: u64) -> Vec<(NodeId, NodeId)> {
        (0..n).map(|i| (NodeId(i), NodeId((i + 1) % n))).collect()
    }

    #[test]
    fn insert_and_query_a_ring() {
        let mut e = moctopus_engine();
        let stats = e.insert_edges(&ring_edges(32));
        assert_eq!(stats.applied, 32);
        assert_eq!(e.edge_count(), 32);
        assert!(stats.latency() > SimTime::ZERO);

        let (results, qstats) = e.k_hop_batch(&[NodeId(0), NodeId(30)], 3);
        assert_eq!(results[0], vec![NodeId(3)]);
        assert_eq!(results[1], vec![NodeId(1)]);
        assert_eq!(qstats.batch_size, 2);
        assert_eq!(qstats.hops, 3);
        assert_eq!(qstats.matched_pairs, 2);
        assert!(qstats.latency() > SimTime::ZERO);
    }

    #[test]
    fn duplicate_inserts_are_not_applied_twice() {
        let mut e = moctopus_engine();
        e.insert_edges(&ring_edges(8));
        let stats = e.insert_edges(&ring_edges(8));
        assert_eq!(stats.applied, 0);
        assert_eq!(e.edge_count(), 8);
    }

    #[test]
    fn delete_removes_edges_and_affects_queries() {
        let mut e = moctopus_engine();
        e.insert_edges(&ring_edges(8));
        let del = e.delete_edges(&[(NodeId(0), NodeId(1))]);
        assert_eq!(del.applied, 1);
        assert_eq!(e.edge_count(), 7);
        let (results, _) = e.k_hop_batch(&[NodeId(0)], 1);
        assert!(results[0].is_empty());
        // Deleting a missing edge is a no-op.
        let del2 = e.delete_edges(&[(NodeId(0), NodeId(1))]);
        assert_eq!(del2.applied, 0);
    }

    #[test]
    fn high_degree_nodes_move_to_the_host_store() {
        let mut e = moctopus_engine();
        let hub_edges: Vec<(NodeId, NodeId)> =
            (1..=20u64).map(|i| (NodeId(0), NodeId(i))).collect();
        e.insert_edges(&hub_edges);
        assert_eq!(e.assignment().partition_of(NodeId(0)), Some(PartitionId::Host));
        assert_eq!(e.host_row_count(), 1);
        // The hub's row is complete on the host: a 1-hop query returns all 20.
        let (results, _) = e.k_hop_batch(&[NodeId(0)], 1);
        assert_eq!(results[0].len(), 20);
    }

    /// Merged per-label statistics stay incremental across the engine's
    /// structural paths — hub promotion to the host store, locality-driven
    /// row migration, deletes on both lanes — matching a from-scratch
    /// rebuild (a graph built from the stored edges tallies from zero)
    /// on **every** counter exactly: with reverse rows colocated at the
    /// destination's owner, distinct-target sets live in exactly one store
    /// each and summed counts are exact (they used to be an
    /// over-approximation band).
    #[test]
    fn label_stats_stay_incremental_across_promotion_and_migration() {
        let check = |e: &DistributedPimEngine, phase: &str| {
            let got = e.label_stats();
            assert_eq!(got.total_edges as usize, e.edge_count(), "{phase}: total_edges drifted");
            let mut view = AdjacencyGraph::new();
            view.extend(e.stored_edges());
            let want = view.label_stats().snapshot();
            assert_eq!(got.per_label.len(), want.per_label.len(), "{phase}: label sets differ");
            for (&(l, g), &(lw, w)) in got.per_label.iter().zip(&want.per_label) {
                assert_eq!(l, lw, "{phase}: label order differs");
                assert_eq!(g.edges, w.edges, "{phase}: label {l:?} edge count drifted");
                // Every forward row lives in exactly one store, so summed
                // distinct source counts are exact — and the reverse rows'
                // colocation invariant makes the distinct target counts
                // exact too (each destination's in-degree entry lives only
                // in its owner's table).
                assert_eq!(g.sources, w.sources, "{phase}: label {l:?} source count drifted");
                assert_eq!(g.targets, w.targets, "{phase}: label {l:?} target count drifted");
            }
        };

        let mut edges: Vec<(NodeId, NodeId, Label)> = Vec::new();
        // A 20-out-degree hub (crosses HIGH_DEGREE_THRESHOLD → host
        // promotion under the greedy-adaptive policy) plus labelled churn.
        for i in 1..=20u64 {
            edges.push((NodeId(0), NodeId(i), Label((i % 3 + 1) as u16)));
        }
        for i in 1..40u64 {
            edges.push((NodeId(i), NodeId((i * 7) % 40), Label((i % 5 + 1) as u16)));
        }

        for mut e in [moctopus_engine(), hash_engine()] {
            e.insert_labeled_edges(&edges);
            check(&e, "after inserts");

            e.refine_locality();
            check(&e, "after migration");

            let victims: Vec<(NodeId, NodeId, Label)> = edges.iter().step_by(3).copied().collect();
            e.delete_labeled_edges(&victims);
            check(&e, "after deletes");

            // A twin restored from the durable image rebuilds the exact same
            // merged statistics, bit for bit.
            let mut twin = if matches!(e.policy, PlacementPolicy::Hash(_)) {
                hash_engine()
            } else {
                moctopus_engine()
            };
            assert!(twin.restore_storage(&e.export_storage()));
            assert_eq!(twin.label_stats(), e.label_stats(), "restored stats must be identical");
        }
        // The greedy engine really promoted the hub (the host-lane stats
        // paths were exercised, not just the PIM ones).
        let mut greedy = moctopus_engine();
        greedy.insert_labeled_edges(&edges);
        assert_eq!(greedy.assignment().partition_of(NodeId(0)), Some(PartitionId::Host));
    }

    #[test]
    fn spec_sources_are_the_models_sorted_sources() {
        // Two hubs past HIGH_DEGREE_THRESHOLD holding each of their labels
        // several times (`Label::ANY` among them), plus churn; every fourth
        // edge leaves again, so the hub rows keep free slots.
        let edges: Vec<(NodeId, NodeId, Label)> = (1..=24u64)
            .flat_map(|i| [(0, i, i % 3 + 1), (7, i + 16, i % 2 * 4), (i, i * 7 % 40, i % 5 + 1)])
            .map(|(s, d, l)| (NodeId(s), NodeId(d), Label(l as u16)))
            .collect();
        let victims: Vec<_> = edges.iter().step_by(4).copied().collect();
        let check = |e: &DistributedPimEngine, gone: &[(NodeId, NodeId, Label)], phase: &str| {
            let model: std::collections::BTreeSet<_> =
                edges.iter().filter(|v| !gone.contains(v)).collect();
            let labels = model.iter().map(|v| v.2).chain([Label(99)]);
            for spec in labels.map(LabelSpec::Exact).chain([LabelSpec::Any]) {
                // The model iterates by source: equal sources are adjacent.
                let mut want: Vec<NodeId> =
                    model.iter().filter(|v| spec.matches(v.2)).map(|v| v.0).collect();
                want.dedup();
                let mut delta = StatsDelta::new(e.config.pim.num_modules);
                assert_eq!(e.spec_sources(spec, &mut delta), want, "{phase}: {spec:?}");
            }
        };
        for mut e in [moctopus_engine(), hash_engine()] {
            e.insert_labeled_edges(&edges);
            let hubs = [NodeId(0), NodeId(7)].map(|n| e.assignment().partition_of(n));
            let greedy = !matches!(e.policy, PlacementPolicy::Hash(_));
            assert_eq!(hubs == [Some(PartitionId::Host); 2], greedy, "hubs on the host");
            check(&e, &[], "after promotion");
            e.delete_labeled_edges(&victims);
            check(&e, &victims, "after deletes");
            e.refine_locality();
            check(&e, &victims, "after migration");
        }
    }

    #[test]
    fn hash_engine_keeps_hubs_on_pim_modules() {
        let mut e = hash_engine();
        let hub_edges: Vec<(NodeId, NodeId)> =
            (1..=20u64).map(|i| (NodeId(0), NodeId(i))).collect();
        e.insert_edges(&hub_edges);
        assert!(matches!(e.assignment().partition_of(NodeId(0)), Some(PartitionId::Pim(_))));
        assert_eq!(e.host_row_count(), 0);
        let (results, _) = e.k_hop_batch(&[NodeId(0)], 1);
        assert_eq!(results[0].len(), 20);
    }

    #[test]
    fn moctopus_and_hash_agree_on_query_results() {
        let graph = graph_gen::uniform::generate(300, 4.0, 7);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let mut a = moctopus_engine();
        let mut b = hash_engine();
        a.insert_edges(&edges);
        b.insert_edges(&edges);
        a.refine_locality();
        let sources: Vec<NodeId> = (0..20u64).map(NodeId).collect();
        for k in 1..=3 {
            let (ra, _) = a.k_hop_batch(&sources, k);
            let (rb, _) = b.k_hop_batch(&sources, k);
            assert_eq!(ra, rb, "engines disagree at k = {k}");
        }
    }

    #[test]
    fn locality_aware_placement_reduces_ipc() {
        // Community graph streamed in order: Moctopus should incur much less
        // inter-PIM traffic than hash placement (the Figure 5 effect).
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes: 2000,
            high_degree_fraction: 0.02,
            locality: 0.9,
            community_size: 128,
            ..Default::default()
        };
        let graph = graph_gen::powerlaw::generate(&cfg, 3);
        let mut edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        edges.sort();
        let mut moc = moctopus_engine();
        let mut hash = hash_engine();
        moc.insert_edges(&edges);
        hash.insert_edges(&edges);
        moc.refine_locality();
        let sources: Vec<NodeId> = (0..256u64).map(NodeId).collect();
        let (_, moc_stats) = moc.k_hop_batch(&sources, 3);
        let (_, hash_stats) = hash.k_hop_batch(&sources, 3);
        assert!(
            moc_stats.timeline.transfers.inter_pim_bytes * 2
                < hash_stats.timeline.transfers.inter_pim_bytes,
            "moctopus ipc {} should be well below hash ipc {}",
            moc_stats.timeline.transfers.inter_pim_bytes,
            hash_stats.timeline.transfers.inter_pim_bytes
        );
    }

    #[test]
    fn refine_locality_moves_rows_and_charges_ipc() {
        let mut e = moctopus_engine();
        // Mis-leading stream: cross-cluster edges first.
        let mut edges = Vec::new();
        for i in 0..10u64 {
            edges.push((NodeId(i), NodeId(100 + i)));
        }
        for base in [0u64, 100] {
            for u in base..base + 10 {
                for v in base..base + 10 {
                    if u != v && (u + v) % 2 == 0 {
                        edges.push((NodeId(u), NodeId(v)));
                    }
                }
            }
        }
        e.insert_edges(&edges);
        let before = e.partition_metrics().locality;
        let (report, timeline) = e.refine_locality();
        let after = e.partition_metrics().locality;
        if report.migrated > 0 {
            assert!(timeline.transfers.inter_pim_bytes > 0);
            assert!(after >= before);
        }
        // Query results survive the migration.
        let (results, _) = e.k_hop_batch(&[NodeId(0)], 1);
        assert!(!results[0].is_empty());
    }

    #[test]
    fn query_timeline_charges_every_phase() {
        let graph = graph_gen::uniform::generate(500, 4.0, 11);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let mut e = moctopus_engine();
        e.insert_edges(&edges);
        let sources: Vec<NodeId> = (0..64u64).map(NodeId).collect();
        let (_, stats) = e.k_hop_batch(&sources, 2);
        assert!(stats.timeline.time(Phase::PimCompute) > SimTime::ZERO);
        assert!(stats.timeline.time(Phase::Cpc) > SimTime::ZERO);
        assert!(stats.timeline.time(Phase::Reduce) > SimTime::ZERO);
        assert!(stats.expansions >= 64);
    }

    #[test]
    fn zero_hop_query_returns_sources() {
        let mut e = moctopus_engine();
        e.insert_edges(&ring_edges(8));
        let (results, stats) = e.k_hop_batch(&[NodeId(3)], 0);
        assert_eq!(results[0], vec![NodeId(3)]);
        assert_eq!(stats.matched_pairs, 1);
    }

    #[test]
    fn unknown_sources_yield_empty_results() {
        let mut e = moctopus_engine();
        e.insert_edges(&ring_edges(8));
        let (results, _) = e.k_hop_batch(&[NodeId(999)], 2);
        assert!(results[0].is_empty());
    }

    #[test]
    fn rpq_k_hop_fast_path_charges_exactly_like_k_hop_batch() {
        let graph = graph_gen::uniform::generate(300, 4.0, 7);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let sources: Vec<NodeId> = (0..32u64).map(NodeId).collect();
        let mut a = moctopus_engine();
        let mut b = moctopus_engine();
        a.insert_edges(&edges);
        b.insert_edges(&edges);
        let (ra, sa) = a.rpq_batch(&rpq::RpqExpr::k_hop(3), &sources);
        let (rb, sb) = b.k_hop_batch(&sources, 3);
        assert_eq!(ra, rb);
        assert_eq!(sa, sb, "`.{{3}}` must take the k-hop path, cost model included");
    }

    #[test]
    fn labelled_rpq_follows_label_constraints() {
        let mut e = moctopus_engine();
        // 0 -1-> 1 -2-> 2, plus a decoy 0 -3-> 3 -2-> 4.
        e.insert_labeled_edges(&[
            (NodeId(0), NodeId(1), Label(1)),
            (NodeId(1), NodeId(2), Label(2)),
            (NodeId(0), NodeId(3), Label(3)),
            (NodeId(3), NodeId(4), Label(2)),
        ]);
        let expr = rpq::parser::parse("1/2").unwrap();
        let (results, stats) = e.rpq_batch(&expr, &[NodeId(0)]);
        assert_eq!(results[0], vec![NodeId(2)]);
        assert_eq!(stats.matched_pairs, 1);
        assert!(stats.latency() > SimTime::ZERO);

        // Transitive closure over any label reaches everything.
        let star = rpq::parser::parse(".*").unwrap();
        let (closure, _) = e.rpq_batch(&star, &[NodeId(0)]);
        assert_eq!(closure[0].len(), 5, "star includes the source itself");
    }

    #[test]
    fn labelled_updates_change_rpq_answers() {
        let mut e = moctopus_engine();
        e.insert_labeled_edges(&[(NodeId(0), NodeId(1), Label(1))]);
        let expr = rpq::parser::parse("1+").unwrap();
        let (before, _) = e.rpq_batch(&expr, &[NodeId(0)]);
        assert_eq!(before[0], vec![NodeId(1)]);

        e.insert_labeled_edges(&[(NodeId(1), NodeId(2), Label(1))]);
        let (extended, _) = e.rpq_batch(&expr, &[NodeId(0)]);
        assert_eq!(extended[0], vec![NodeId(1), NodeId(2)]);

        let del = e.delete_labeled_edges(&[(NodeId(1), NodeId(2), Label(1))]);
        assert_eq!(del.applied, 1);
        let (after, _) = e.rpq_batch(&expr, &[NodeId(0)]);
        assert_eq!(after[0], vec![NodeId(1)]);
        // Deleting under the wrong label is a no-op.
        let miss = e.delete_labeled_edges(&[(NodeId(0), NodeId(1), Label(9))]);
        assert_eq!(miss.applied, 0);
    }

    #[test]
    fn rpq_handles_cycles_and_hub_rows() {
        let mut e = moctopus_engine();
        // A hub that gets promoted to the host, with a label-1 cycle.
        let mut edges: Vec<(NodeId, NodeId, Label)> =
            (1..=20u64).map(|i| (NodeId(0), NodeId(i), Label(1))).collect();
        edges.push((NodeId(1), NodeId(0), Label(1)));
        e.insert_labeled_edges(&edges);
        assert_eq!(e.assignment().partition_of(NodeId(0)), Some(PartitionId::Host));
        let expr = rpq::parser::parse("1+").unwrap();
        let (results, stats) = e.rpq_batch(&expr, &[NodeId(1)]);
        // 1 -> 0 -> everything (including 0 and 1 themselves via the cycle).
        assert_eq!(results[0].len(), 21);
        assert!(stats.hops >= 2);
    }

    #[test]
    fn thread_count_never_changes_results_or_charges() {
        // The unit-level determinism check (tests/parallel_equivalence.rs
        // does the full property sweep): a 3-worker engine over 8 modules
        // must report bit-identical stats to the sequential one, on both
        // query loops, including after its scratch has been warmed up.
        let graph = graph_gen::uniform::generate(400, 4.0, 17);
        let edges: Vec<(NodeId, NodeId, Label)> =
            graph.edges().map(|(s, d, _)| (s, d, Label((d.0 % 3) as u16 + 1))).collect();
        // 1100 sources: the first hop already carries more than
        // ENTRIES_PER_EXTRA_WORKER entries and the later ones several times
        // that, so all three workers run.
        let sources: Vec<NodeId> = (0..1100u64).map(|i| NodeId(i % 400)).collect();
        assert!(active_workers(3, sources.len()) > 1);

        // Pin the baseline to one worker explicitly: `small_test()` honours
        // MOCTOPUS_THREADS, and the CI 4-thread leg must still compare the
        // parallel engine against the true sequential path.
        let serial_cfg = MoctopusConfig::small_test().with_threads(1);
        let serial_policy = PlacementPolicy::GreedyAdaptive(
            GreedyAdaptivePartitioner::with_config(serial_cfg.partitioner_config()),
        );
        let mut serial = DistributedPimEngine::new(serial_cfg, serial_policy);
        assert_eq!(serial.threads(), 1);
        let cfg = MoctopusConfig::small_test().with_threads(3);
        let policy = PlacementPolicy::GreedyAdaptive(GreedyAdaptivePartitioner::with_config(
            cfg.partitioner_config(),
        ));
        let mut parallel = DistributedPimEngine::new(cfg, policy);
        assert_eq!(parallel.threads(), 3);

        let serial_ins = serial.insert_labeled_edges(&edges);
        let parallel_ins = parallel.insert_labeled_edges(&edges);
        assert_eq!(serial_ins, parallel_ins);

        for round in 0..2 {
            for k in 1..=3 {
                let (want, want_stats) = serial.k_hop_batch(&sources, k);
                let (got, got_stats) = parallel.k_hop_batch(&sources, k);
                assert_eq!(got, want, "k = {k}, round {round}");
                assert_eq!(got_stats, want_stats, "k = {k}, round {round}");
            }
            // The comparison means something only if the parallel engine left
            // the inline path — in each loop, so the mark is reset in between.
            assert_eq!(std::mem::take(&mut parallel.scratch.widest_hop), 3, "k-hop never ran wide");
            let expr = rpq::parser::parse("1/(2|3)*/1").unwrap();
            let (want, want_stats) = serial.rpq_batch(&expr, &sources);
            let (got, got_stats) = parallel.rpq_batch(&expr, &sources);
            assert_eq!(got, want, "round {round}");
            assert_eq!(got_stats, want_stats, "round {round}");
            assert_eq!(
                std::mem::take(&mut parallel.scratch.widest_hop),
                3,
                "the product never ran wide"
            );
        }
        assert_eq!(serial.scratch.widest_hop, 1, "one thread means one worker, whatever the hop");
    }

    #[test]
    fn a_clone_leaves_the_scratch_behind_and_charges_identically() {
        let mut original = moctopus_engine();
        let edges: Vec<_> = ring_edges(300).into_iter().map(|(s, d)| (s, d, Label(1))).collect();
        original.insert_labeled_edges(&edges);
        let flood = rpq::parser::parse("1+").unwrap();
        let sources: Vec<NodeId> = (0..8u64).map(NodeId).collect();
        let want = original.rpq_batch(&flood, &sources);
        let want_k = original.k_hop_batch(&sources, 3);
        // The warmed engine holds marks, buffers, a bitmap and the last
        // call's memo; its clone holds none of it.
        let warmed = &original.scratch;
        assert!(!warmed.nfa_ctxs[0].memo.entries.is_empty() && !warmed.hop_ctxs.is_empty());
        let mut clone = original.clone();
        let cold = &clone.scratch;
        assert!(cold.nfa_ctxs.is_empty() && cold.hop_ctxs.is_empty());
        assert!(cold.merge_bitmaps.is_empty() && cold.frontier.pool.is_empty());
        assert_eq!(clone.rpq_batch(&flood, &sources), want);
        assert_eq!(clone.k_hop_batch(&sources, 3), want_k);
        assert_eq!(original.rpq_batch(&flood, &sources), want, "the original is unharmed");
    }

    #[test]
    fn balanced_ranges_are_contiguous_cover_everything_and_follow_the_weights() {
        let check = |head: u64, weights: &[u64], parts: usize| {
            let ranges = balanced_ranges(head, weights, parts);
            assert_eq!(ranges.len(), parts);
            let mut next = 0;
            for r in &ranges {
                assert!(r.start == next && r.end >= next, "ranges must be contiguous: {ranges:?}");
                next = r.end;
            }
            assert_eq!(next, weights.len(), "ranges must cover every item: {ranges:?}");
            assert_eq!(ranges, balanced_ranges(head, weights, parts), "a pure function");
            ranges
        };
        for parts in [1usize, 2, 3, 4, 8, 13] {
            // No weight at all (a first hop): the even split.
            assert_eq!(check(0, &[0; 8], parts), chunk_ranges(8, parts));
            assert_eq!(check(0, &[], parts), chunk_ranges(0, parts));
            // Equal weights: as even as `chunk_ranges`, to within one item.
            let sizes: Vec<usize> = check(0, &[5; 64], parts).iter().map(Range::len).collect();
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1, "{sizes:?}");
            check(7, &[3, 0, 0, 9, 1, 1, 40, 2], parts);
        }
        // A host lane as heavy as all the modules: worker 0 takes it alone;
        // a lighter one: worker 0 takes correspondingly fewer modules.
        assert_eq!(check(64, &[8; 8], 2), vec![0..0, 0..8]);
        assert_eq!(check(32, &[8; 8], 2), vec![0..2, 2..8]);
        // One heavy item does not starve the parts behind it, and with fewer
        // items than parts the trailing parts are empty.
        assert_eq!(check(0, &[100, 1, 1, 1, 1], 3), vec![0..1, 1..3, 3..5]);
        assert_eq!(check(0, &[4, 4], 4), vec![0..1, 1..2, 2..2, 2..2]);
    }

    #[test]
    fn worker_count_is_clamped_by_frontier_work() {
        // One worker, plus one per ENTRIES_PER_EXTRA_WORKER (256) frontier
        // entries, never more than the layout is wide. These are the sizes
        // the fixtures in tests/parallel_equivalence.rs are built around.
        let wide = [(0, 1), (255, 1), (256, 2), (767, 3), (768, 4), (1791, 7), (1792, 8)];
        for (entries, workers) in wide {
            assert_eq!(active_workers(8, entries), workers, "{entries} entries");
        }
        assert_eq!(active_workers(8, usize::MAX), 8);
        assert_eq!(active_workers(2, 1792), 2);
        assert_eq!(active_workers(0, 1792), 1, "a degenerate layout still gets a worker");
    }

    #[test]
    fn dead_end_batches_never_promote_a_visited_set() {
        // A 50 001-node owner directory (the edge into node 50 000 sizes it)
        // holding one 3000-node label-1 chain.
        let mut e = hash_engine();
        let mut edges: Vec<(NodeId, NodeId, Label)> =
            (0..2999u64).map(|i| (NodeId(i), NodeId(i + 1), Label(1))).collect();
        edges.push((NodeId(2999), NodeId(50_000), Label(2)));
        e.insert_labeled_edges(&edges);
        assert!(e.directory_bound() > 50_000);

        // 1024 sources that go nowhere: the chain's dead end, ids the
        // directory covers but no edge ever named, and ids far outside it.
        let mut sources: Vec<NodeId> = vec![NodeId(50_000)];
        sources.extend((3000..3511u64).map(NodeId));
        sources.extend((0..512u64).map(|i| NodeId((1 << 40) + i)));
        assert_eq!(sources.len(), 1024);
        // ... and one that sweeps the chain.
        sources.push(NodeId(0));

        let nfa = Nfa::from_expr(&rpq::parser::parse("1+").unwrap());
        let mut timeline = Timeline::new();
        let (visited, hops, _) = e.nfa_product_visit(&nfa, &sources, None, &mut timeline, None);
        assert_eq!(hops, 3000);
        for (seen, source) in visited.iter().zip(&sources).take(1024) {
            assert!(!seen.is_dense(), "dead-end source {source} promoted its visited set");
            assert_eq!(seen.len(), 1);
        }
        // The sweep visited 3000 pairs of a `50 001 × states` key space:
        // past `bound / 128`, so it — and only it — pays for a bitset.
        let sweep = visited.last().unwrap();
        assert_eq!(sweep.len(), 3000);
        assert!(sweep.len() * 128 >= sweep.bound() && sweep.bound() > 100_000);
        assert!(sweep.is_dense(), "a query that visits bound / 128 pairs gets its bitset");
    }

    #[test]
    fn wire_charges_elide_the_default_label() {
        // The same topology inserted unlabelled and with Label::ANY must
        // charge identical transfer bytes; a non-default label pays extra.
        let edges: Vec<(NodeId, NodeId)> = ring_edges(16);
        let any: Vec<(NodeId, NodeId, Label)> =
            edges.iter().map(|&(s, d)| (s, d, Label::ANY)).collect();
        let labelled: Vec<(NodeId, NodeId, Label)> =
            edges.iter().map(|&(s, d)| (s, d, Label(5))).collect();

        let mut a = hash_engine();
        let mut b = hash_engine();
        let mut c = hash_engine();
        let sa = a.insert_edges(&edges);
        let sb = b.insert_labeled_edges(&any);
        let sc = c.insert_labeled_edges(&labelled);
        assert_eq!(
            sa.timeline.transfers, sb.timeline.transfers,
            "ANY-labelled inserts must charge like unlabelled ones"
        );
        assert_eq!(
            sc.timeline.transfers.cpu_to_pim_bytes,
            sb.timeline.transfers.cpu_to_pim_bytes + edges.len() as u64 * 4,
            "each non-default label costs LABEL_BYTES on the CPU->PIM bus, \
             once on the forward route and once on the mirrored reverse write"
        );
    }

    /// Tracking must be an observer: tracked calls return the same results
    /// and stats as untracked ones, and the deps cover every visited node.
    #[test]
    fn tracked_queries_match_untracked_and_cover_visited_nodes() {
        use crate::deps::DepMask;
        let edges = ring_edges(32);
        let mut plain = moctopus_engine();
        let mut tracked = moctopus_engine();
        plain.insert_edges(&edges);
        tracked.insert_edges(&edges);

        let sources = [NodeId(0), NodeId(9)];
        let expr = rpq::RpqExpr::k_hop(3);
        let (want, want_stats) = plain.rpq_batch(&expr, &sources);
        let (got, got_stats, deps) = tracked.rpq_batch_tracked(&expr, &sources);
        assert_eq!(got, want);
        assert_eq!(got_stats, want_stats);
        // Sources, every hop frontier, and the results are visited nodes.
        let mut expected = DepMask::EMPTY;
        for hop in 0..=3u64 {
            expected.insert(NodeId(hop));
            expected.insert(NodeId(9 + hop));
        }
        assert!(!deps.nodes.is_empty());
        assert!(deps.nodes.intersects(expected));
        for hop in 0..=3u64 {
            let mut one = DepMask::EMPTY;
            one.insert(NodeId(hop));
            assert!(deps.nodes.intersects(one), "hop node {hop} must be a dependency");
        }
        assert!(!deps.host_lane, "a low-degree ring never touches the host lane");

        // The NFA-product path tracks too (closure query on a labelled star).
        let mut engine = moctopus_engine();
        engine.insert_labeled_edges(&[
            (NodeId(0), NodeId(1), Label(1)),
            (NodeId(1), NodeId(2), Label(1)),
        ]);
        let star = rpq::parser::parse("1+").expect("query parses");
        let (r, _, deps) = engine.rpq_batch_tracked(&star, &[NodeId(0)]);
        assert_eq!(r[0], vec![NodeId(1), NodeId(2)]);
        for n in 0..=2u64 {
            let mut one = DepMask::EMPTY;
            one.insert(NodeId(n));
            assert!(deps.nodes.intersects(one), "visited node {n} must be a dependency");
        }
    }

    /// Hub promotion must raise the host-lane dependency on queries and the
    /// host-store flag on the updates that created/touched the hub.
    #[test]
    fn tracking_observes_the_host_lane() {
        let mut engine = moctopus_engine();
        let hub: Vec<(NodeId, NodeId, Label)> =
            (1..=20u64).map(|i| (NodeId(0), NodeId(i), Label::ANY)).collect();
        let (stats, fp) = engine.insert_labeled_edges_tracked(&hub);
        assert_eq!(stats.applied, 20);
        assert!(fp.host_store, "the batch promoted node 0 to the host store");
        assert!(!fp.cost_global && !fp.result_global);
        assert_eq!(fp.per_label.len(), 1, "one label in the batch");

        let (results, _, deps) = engine.rpq_batch_tracked(&rpq::RpqExpr::k_hop(1), &[NodeId(0)]);
        assert_eq!(results[0].len(), 20);
        assert!(deps.host_lane, "expanding the promoted hub row is host-lane work");

        // A PIM-only update reports no host-store involvement.
        let (_, fp2) = engine.insert_labeled_edges_tracked(&[(NodeId(5), NodeId(7), Label(2))]);
        assert!(!fp2.host_store);
    }

    /// The byte-identity half of the planner contract: every strategy —
    /// forward, bidirectional over the reverse rows, rare-label split — must
    /// serve the exact same answers as the canonical forward path, on both
    /// placement policies, including on an engine restored from a durable
    /// image (whose reverse rows were rebuilt, not copied).
    #[test]
    fn planned_execution_matches_forward_answers() {
        let graph = graph_gen::uniform::generate(300, 4.0, 13);
        let mut edges: Vec<(NodeId, NodeId, Label)> =
            graph.edges().map(|(s, d, _)| (s, d, Label((d.0 % 3) as u16 + 1))).collect();
        // Sprinkle a rare label 8 so the split pivot has real sources.
        for i in 0..12u64 {
            edges.push((NodeId(i * 17 % 300), NodeId((i * 23 + 5) % 300), Label(8)));
        }
        let sources: Vec<NodeId> = (0..40u64).map(NodeId).collect();
        let queries = ["1/2", "1+", "1/(2|3)*/1", "(1|2)*", "1*/8/2*", "3?/8"];
        let strategies = [
            PlanStrategy::Forward,
            PlanStrategy::Bidirectional,
            PlanStrategy::RareLabelSplit { split_at: 1 },
        ];

        for mut e in [moctopus_engine(), hash_engine()] {
            e.insert_labeled_edges(&edges);
            e.refine_locality();

            let mut twin = if matches!(e.policy, PlacementPolicy::Hash(_)) {
                hash_engine()
            } else {
                moctopus_engine()
            };
            assert!(twin.restore_storage(&e.export_storage()));

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
        let mut fwd = moctopus_engine();
        fwd.insert_labeled_edges(&edges);
        let mut bidi = fwd.clone();

        let (want, fwd_stats) = fwd.rpq_batch_planned(&expr, &sources, PlanStrategy::Forward);
        let (got, bidi_stats) =
            bidi.rpq_batch_planned(&expr, &sources, PlanStrategy::Bidirectional);
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
}
