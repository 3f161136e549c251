//! The NFA-product loop behind `rpq_batch` and the executed non-forward
//! plans: product-key frontiers, per-query visited sets, the expansion memo
//! and each hop's key-range split (CONCURRENCY.md §3.1 and §4.1; the memo's
//! contract is §6 rule 8).

use super::planned::Pruning;
use super::{
    active_workers, balanced_ranges, take_scratch, ErasedEngine, ENTRY_BYTES, ID_BYTES,
    LABEL_BYTES, STATE_BYTES,
};
use crate::deps::QueryDeps;
use crate::stats::{QueryStats, StatsDelta};
use graph_store::{Label, NodeId, PartitionId};
use moctopus_runtime::key_ranges;
use pim_sim::{Phase, SimTime, Timeline};
use rpq::{LabelSpec, Nfa};
use sparse::{EpochMarks, OrderedBitmap, ProductSet};
use std::ops::Range;

/// Per-worker context of one NFA-product execute stage: epoch marks over
/// product keys, one generation per `(query, hop)`, per-query candidate
/// lists of keys and the call's [`ExpansionMemo`].
#[derive(Debug, Default)]
pub(super) struct NfaHopCtx {
    marks: EpochMarks,
    nexts: Vec<Vec<usize>>,
    pub(super) memo: ExpansionMemo,
}

/// The [`Expansion::lane`] of `host_time`: past every module.
const HOST_LANE: u32 = u32::MAX;

/// What expanding one product pair charges and produces.
///
/// While `nfa_product_visit` borrows the engine mutably no store, owner,
/// `live_bytes` or automaton can change: this is a pure function of the
/// pair, built once per call and worker and replayed for every reach.
#[derive(Debug, Clone, Copy)]
pub(super) struct Expansion {
    /// Where the expansion's time goes: a `per_module` index, or [`HOST_LANE`].
    lane: u32,
    /// One expansion's time, an addend (zero for a node no edge has named).
    time: SimTime,
    /// Matched transitions into another PIM module.
    ipc_messages: u64,
    /// Matched transitions that cross the CPU↔PIM bus.
    cpc_entries: u64,
    /// Where this pair's run of [`ExpansionMemo::successors`] ends (it starts
    /// where the previous entry's ends).
    successors_end: usize,
}

/// One worker's expansion memo: scratch like the marks, valid for one batch
/// call on one engine (CONCURRENCY.md §6 rule 8).
///
/// A `u32` slot per product key is zero or the index of the pair's
/// [`Expansion`] plus one. A call starts by zeroing the slots the previous
/// one touched — never the key space — so a small query pays for what it
/// expanded, and nothing outlives the call logically.
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

    /// The entry index of `key`, if this call built one.
    #[inline]
    fn slot(&self, key: usize) -> Option<usize> {
        (self.slots[key] as usize).checked_sub(1)
    }

    /// Files the expansion of `key`, whose successors the caller has pushed,
    /// and returns its index. An index the slot cannot hold leaves the pair
    /// to be built again next time.
    fn push_entry(&mut self, key: usize, expansion: Expansion) -> usize {
        let index = self.entries.len();
        self.entries.push(expansion);
        if let Ok(slot) = u32::try_from(index + 1) {
            self.slots[key] = slot;
            self.touched.push(key);
        }
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
    /// *global* visited set (required for termination on cyclic graphs under
    /// `*`/`+`). Charges follow the k-hop loop's model (ARCHITECTURE.md §1),
    /// with `STATE_BYTES` riding along every routed entry and label-constrained
    /// scans reading the label array too: `row_len × (ID_BYTES + LABEL_BYTES)`.
    ///
    /// A node is reported for a query as soon as *some* visited product state
    /// is accepting; if the automaton accepts the empty path the source
    /// itself is part of the answer, as in [`rpq::ReferenceEvaluator`].
    ///
    /// The shared entry point: charges a non-forward plan's preamble, runs
    /// the hop loop, and reads answers (and dependencies) off the visited
    /// sets, which hold every reached pair in `(node, state)` order: an
    /// ordered scan yields each query's accepted nodes already ascending and
    /// exactly its node-dependency set.
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
                if let Some(deps) = track.as_deref_mut().filter(|deps| !deps.nodes.is_full()) {
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
    /// product **keys** (`ProductSet::key`). A source outside the owner
    /// directory has no key, no owner and no row: it counts as one expansion
    /// of the first hop and otherwise lives only in its visited set.
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
        self.prepare_row_view();
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

            // ---- execute: each worker expands one contiguous key range of
            // every query's frontier, whoever owns the rows, reading the
            // per-query visited sets as an immutable snapshot (they are only
            // extended at the merge barrier below). The worker count is
            // clamped by the hop's work; the ranges hold about equally many
            // of this hop's entries (CONCURRENCY.md §4.1).
            let active = active_workers(layout_width, frontier_entries);
            let hop_keys = key_ranges(&frontiers, active);
            for ctx in &mut ctxs[..active] {
                ctx.nexts.resize(frontiers.len(), Vec::new());
            }
            let this: &Self = self;
            let deltas = this.pool.run_with(&mut ctxs[..active], |worker, ctx| {
                this.nfa_hop_worker(
                    &hop_keys[worker],
                    nfa,
                    &frontiers,
                    &visited,
                    host_resident_bytes,
                    ctx,
                )
            });
            self.scratch.widest_hop = self.scratch.widest_hop.max(active);

            // ---- merge: the workers' deltas summed on this thread, then the
            // per-query frontier union on the workers: every candidate that
            // survives ordering and deduplication across workers enters the
            // visited set, exactly as sequentially.
            let delta = self.charge_hop(&deltas, timeline);

            if let [only] = &mut ctxs[..active] {
                let per_query = next_frontiers.iter_mut().zip(&mut only.nexts).zip(&mut visited);
                for ((next, candidates), seen) in per_query {
                    std::mem::swap(next, candidates);
                    merge_query(&mut bitmaps[0], next, seen);
                }
            } else {
                // One chunk of queries per worker, balanced by candidates: a
                // query's next frontier depends on its own lists and set alone.
                let lists = &ctxs[..active];
                let weights: Vec<u64> = (0..frontiers.len())
                    .map(|q| lists.iter().map(|ctx| ctx.nexts[q].len() as u64).sum())
                    .collect();
                let mut per_query = next_frontiers.iter_mut().zip(&mut visited).enumerate();
                let mut parts: Vec<(_, Vec<_>)> = bitmaps
                    .iter_mut()
                    .zip(balanced_ranges(&weights, active))
                    .map(|(bitmap, chunk)| (bitmap, per_query.by_ref().take(chunk.len()).collect()))
                    .collect();
                self.pool.run_with(&mut parts, |_, (bitmap, mine)| {
                    for (q, (next, seen)) in mine.iter_mut() {
                        next.clear();
                        for ctx in lists {
                            next.extend_from_slice(&ctx.nexts[*q]);
                        }
                        merge_query(bitmap, next, seen);
                    }
                });
            }
            if let Some(deps) = track.as_deref_mut() {
                // Merged-delta host time is thread-count invariant.
                deps.host_lane |= !delta.host_time.is_zero();
            }
            std::mem::swap(&mut frontiers, &mut next_frontiers);
        }
        self.scratch.merge_bitmaps = bitmaps;
        self.scratch.nfa_ctxs = ctxs;
        self.view.work += expansions + visited.iter().map(ProductSet::len).sum::<usize>();
        (visited, hops, expansions)
    }

    /// One worker's share of an NFA-product execute stage.
    ///
    /// The worker expands the `partition_point` slice of every query's
    /// frontier that falls in its key range `keys`, query by query, whichever
    /// module or host row owns a pair. Expanding is **build-then-replay**:
    /// `build_expansion` files a pair's charges and successors in the
    /// worker's memo on first sight in the call; every expansion then
    /// replays the entry — its time charge and its byte charges into the
    /// worker's delta (made unconditionally, §6 rule 2), and each successor
    /// key that is new to
    /// both the worker's marks for this `(query, hop)` and the query's
    /// visited snapshot (marks first: a duplicate costs one stamp compare).
    fn nfa_hop_worker(
        &self,
        keys: &Range<usize>,
        nfa: &Nfa,
        frontiers: &[Vec<usize>],
        visited: &[ProductSet],
        host_resident_bytes: u64,
        ctx: &mut NfaHopCtx,
    ) -> StatsDelta {
        let mut delta = StatsDelta::new(self.config.pim.num_modules);
        let NfaHopCtx { marks, nexts, memo } = ctx;
        for (q, frontier) in frontiers.iter().enumerate() {
            // Last hop's candidates stay readable until the merge stage has
            // copied them out; the list is emptied here, by its owner.
            let next = &mut nexts[q];
            next.clear();
            let snapshot = &visited[q];
            marks.next_epoch();
            let first = frontier.partition_point(|&key| key < keys.start);
            let last = first + frontier[first..].partition_point(|&key| key < keys.end);
            for &key in &frontier[first..last] {
                let index = match memo.slot(key) {
                    Some(index) => index,
                    None => {
                        let (node, state) = snapshot.pair(key);
                        let expansion = self.build_expansion(
                            NodeId(node),
                            nfa.transitions_from(state as usize),
                            snapshot,
                            host_resident_bytes,
                            &mut memo.successors,
                        );
                        memo.push_entry(key, expansion)
                    }
                };
                let expansion = memo.entries[index];
                match delta.per_module.get_mut(expansion.lane as usize) {
                    Some(slot) => *slot += expansion.time,
                    None => delta.host_time += expansion.time,
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

    /// The build half of an expansion: scans the row of `node` (the row view
    /// or its owner's store), matches it against `transitions`, appends the
    /// successors' keys to `successors` and returns what the scan charges. A
    /// node no edge has named has no owner and no row: nothing to charge.
    /// `shape` is any set over the call's key space.
    fn build_expansion(
        &self,
        node: NodeId,
        transitions: &[(LabelSpec, usize)],
        shape: &ProductSet,
        host_resident_bytes: u64,
        successors: &mut Vec<usize>,
    ) -> Expansion {
        let (mut ipc_messages, mut cpc_entries) = (0u64, 0u64);
        let owner = self.owner(node);
        let (scanned, row) = self.forward_row(node, owner);
        self.match_row(row, transitions, shape, successors, |to| match (owner, to) {
            // The host forwards a produced entry to the module owning it (or
            // keeps it if the next row is also host-resident).
            (Some(PartitionId::Host), _) => {
                cpc_entries += u64::from(matches!(to, Some(PartitionId::Pim(_))));
            }
            (_, Some(PartitionId::Pim(_))) if to == owner => {}
            (_, Some(PartitionId::Pim(_))) => ipc_messages += 1,
            // The destination row lives on the host (or is unknown): the
            // entry is gathered over the CPC link.
            _ => cpc_entries += 1,
        });
        // A label-constrained scan reads the id array and the label array.
        let scan_bytes = scanned as u64 * (ID_BYTES + LABEL_BYTES);
        let (lane, time) = match owner {
            Some(PartitionId::Host) => {
                let cost = self.pim.host_random_access_cost(1, host_resident_bytes)
                    + self.pim.host_sequential_read_cost(scan_bytes);
                (HOST_LANE, cost)
            }
            Some(PartitionId::Pim(m)) => (m, self.pim.pim_hash_lookup_cost(scan_bytes)),
            None => (HOST_LANE, SimTime::ZERO),
        };
        Expansion { lane, time, ipc_messages, cpc_entries, successors_end: successors.len() }
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
        row.for_each(|(u, label)| {
            for &(spec, next_state) in transitions {
                if spec.matches(label) {
                    charge(owners.partition_of(u));
                    successors.extend(shape.key(u.0, next_state as u32));
                }
            }
        });
    }
}
