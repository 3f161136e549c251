//! The NFA-product loop behind `rpq_batch` and the executed non-forward
//! plans: frontiers of node-major product keys, per-query visited sets, and
//! the build-then-replay expansion memo (CONCURRENCY.md §3.1 and §4.1; the
//! memo's contract is §6 rule 8).

use super::planned::Pruning;
use super::{
    active_workers, merge_per_query, take_scratch, ErasedEngine, ENTRY_BYTES, ID_BYTES,
    LABEL_BYTES, STATE_BYTES,
};
use crate::deps::QueryDeps;
use crate::stats::{QueryStats, StatsDelta};
use graph_store::{Label, NodeId, PartitionId};
use moctopus_runtime::chunk_ranges;
use pim_sim::{Phase, SimTime, Timeline};
use rpq::{LabelSpec, Nfa};
use sparse::{EpochMarks, OrderedBitmap, ProductSet};
use std::ops::Range;

/// Per-worker context of one NFA-product execute stage: epoch marks over
/// product keys (one generation per `(query, hop)`), per-query candidate
/// lists — keys, like the frontiers — and the call's [`ExpansionMemo`].
///
/// Unlike the k-hop loop the product traversal's cross-hop dedup lives in the
/// per-query *global* visited sets; the marks only bound what one worker
/// emits within one `(query, hop)` so candidate lists stay duplicate-free
/// before the merge.
#[derive(Debug, Default)]
pub(super) struct NfaHopCtx {
    marks: EpochMarks,
    nexts: Vec<Vec<usize>>,
    pub(super) memo: ExpansionMemo,
}

/// What expanding one product pair charges and produces.
///
/// For the duration of one `nfa_product_visit` the engine is borrowed
/// mutably, so no store, owner, `live_bytes` or automaton can change: all of
/// this is a pure function of the pair, computed once per call and worker
/// (`build_expansion`) and replayed for every query and hop that reaches the
/// pair.
#[derive(Debug, Clone, Copy)]
pub(super) struct Expansion {
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
pub(super) struct ExpansionMemo {
    slots: Vec<u32>,
    /// Every key whose slot is not zero.
    touched: Vec<usize>,
    pub(super) entries: Vec<Expansion>,
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

impl ErasedEngine {
    /// An empty product-pair set over this engine's key space for `nfa`:
    /// `directory bound × automaton states` node-major keys.
    pub(super) fn product_set(&self, nfa: &Nfa) -> ProductSet {
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
    /// the k-hop loop (`k_hop_batch_impl`): each entry is expanded by the
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
    pub(super) fn nfa_product_batch_impl(
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
    pub(super) fn nfa_product_visit(
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
            let this: &Self = self;
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
    /// generalisation of `khop_hop_worker`).
    ///
    /// Same ownership discipline: the worker walks every query's frontier in
    /// global order, expands only product entries whose node row lives on its
    /// modules (or the host for the host-lane worker), and charges into its
    /// private delta. Expanding is **build-then-replay**: the first time a
    /// call reaches a pair, `build_expansion` files what the expansion
    /// charges and produces in the worker's memo; every
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
                let (slots, row) = self.host_store.row_scan(node);
                // The host forwards a produced entry to the module owning it
                // (or keeps it if the next row is also host-resident).
                self.match_row(row, transitions, shape, successors, |to| {
                    cpc_entries += u64::from(matches!(to, Some(PartitionId::Pim(_))));
                });
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
    /// directory (`directory_bound`), and a key space clamped below the
    /// directory has no slot table to get here with.
    fn match_row(
        &self,
        row: impl Iterator<Item = (NodeId, Label)>,
        transitions: &[(LabelSpec, usize)],
        shape: &ProductSet,
        successors: &mut Vec<usize>,
        mut charge: impl FnMut(Option<PartitionId>),
    ) {
        // One call through the partitioner's vtable per row, not per entry.
        let owners = self.partitioner.assignment();
        for (u, label) in row {
            for &(spec, next_state) in transitions {
                if spec.matches(label) {
                    charge(owners.partition_of(u));
                    successors.extend(shape.key(u.0, next_state as u32));
                }
            }
        }
    }
}
