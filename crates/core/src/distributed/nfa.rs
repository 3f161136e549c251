//! The NFA-product loop behind `rpq_batch` and the executed non-forward
//! plans. As in the k-hop loop, each worker owns a contiguous range of the
//! batch's queries, in lane groups of up to 64 — one bit of a `u64` lane
//! mask each — and runs every hop of them with no barrier and no merge. Per call
//! a worker keeps one entry per product key it reaches: the key's memoised
//! expansion and its group's `visited` and `next` lane words
//! (CONCURRENCY.md §3.1 and §4.1; the memo's contract is §6 rule 8).

use super::planned::Pruning;
use super::{take_scratch, ErasedEngine, ENTRY_BYTES, ID_BYTES, LABEL_BYTES, STATE_BYTES};
use crate::deps::{DepMask, QueryDeps};
use crate::stats::{QueryStats, StatsDelta};
use graph_store::{Label, NodeId, PartitionId};
use moctopus_runtime::chunk_ranges;
use pim_sim::{Phase, SimTime, Timeline};
use rpq::{LabelSpec, Nfa};
use sparse::ProductSet;
use std::collections::BTreeMap;

/// Most queries per lane group: one bit of a `u64` lane mask each.
const LANES: usize = 64;

/// A group's answers are read by a scan of the slot table over the span of
/// its reached keys when at least one key per this many slots is reached,
/// and by a sort of the reached keys otherwise.
const DENSE_SPAN: usize = 32;

/// The [`Expansion::lane`] of `host_time`: past every module.
const HOST_LANE: u32 = u32::MAX;

/// What expanding one product pair charges and where its successors are.
///
/// While `nfa_product_batch_impl` borrows the engine mutably no store,
/// owner, `live_bytes` or automaton can change: this is a pure function of
/// the pair, built once per call and worker and replayed for every lane and
/// hop that expands it.
#[derive(Debug, Clone, Copy)]
struct Expansion {
    /// Where the expansion's time goes: a `per_module` index, or [`HOST_LANE`].
    lane: u32,
    /// One expansion's time, an addend (zero for a node no edge has named).
    time: SimTime,
    /// Matched transitions into another PIM module.
    ipc_messages: u64,
    /// Matched transitions that cross the CPU↔PIM bus.
    cpc_entries: u64,
    /// The pair's successors: `successors[start..end]` of the worker's
    /// context, entry indices.
    start: usize,
    end: usize,
}

/// One product key a worker's call reached, less its lane words.
#[derive(Debug, Clone, Copy)]
pub(super) struct Entry {
    key: usize,
    /// The key's expansion, once one of its lanes has expanded it.
    expansion: Option<Expansion>,
    /// Whether the key may enter a frontier (a pruned plan's useful set).
    useful: bool,
}

/// The lane words of an entry, apart from it: the successor loop and the
/// drain touch only these, 16 bytes an entry.
#[derive(Debug, Clone, Copy, Default)]
struct Lanes {
    /// The current group's lanes that have reached the key.
    visited: u64,
    /// The lanes that reached it this hop: all zero between hops.
    next: u64,
}

/// One NFA-product worker's context for a whole call (CONCURRENCY.md §6
/// rule 8), kept across calls for its capacity.
///
/// A `u32` slot per product key — the one structure sized by the key space —
/// is zero or an entry index plus one. An index the slot cannot hold is
/// filed under the slot value `slot_cap` in `overflow` instead, so an index
/// never wraps. A call starts by zeroing the slots its predecessor's entries
/// name — never the key space — so a small query pays for what it reached.
#[derive(Debug)]
pub(super) struct NfaCtx {
    slots: Vec<u32>,
    /// The slot value that sends a lookup to `overflow`: `u32::MAX`, lower
    /// only in the unit test of the overflow path.
    pub(super) slot_cap: u32,
    pub(super) overflow: BTreeMap<usize, usize>,
    pub(super) entries: Vec<Entry>,
    /// Each entry's lane words, by entry index.
    lanes: Vec<Lanes>,
    /// Every built entry's successor indices, back to back.
    successors: Vec<usize>,
    /// This hop's frontier: entries with the lanes that expand them.
    frontier: Vec<(usize, u64)>,
    /// Entries whose `next` word this hop made non-zero.
    touched: Vec<usize>,
    /// Entries whose `visited` word the current group made non-zero.
    reached: Vec<usize>,
    /// The current group's reached keys with their lanes, in key order.
    order: Vec<(usize, u64)>,
    /// Per hop, every charge of this worker's expansions.
    deltas: Vec<StatsDelta>,
    /// The nodes of every reached pair (tracked calls).
    deps: DepMask,
    pub(super) expansions: usize,
    /// Pairs visited, summed over the worker's queries.
    visited_pairs: usize,
    answers: Vec<Vec<NodeId>>,
}

impl Default for NfaCtx {
    fn default() -> Self {
        NfaCtx {
            slots: Vec::new(),
            slot_cap: u32::MAX,
            overflow: BTreeMap::new(),
            entries: Vec::new(),
            lanes: Vec::new(),
            successors: Vec::new(),
            frontier: Vec::new(),
            touched: Vec::new(),
            reached: Vec::new(),
            order: Vec::new(),
            deltas: Vec::new(),
            deps: DepMask::EMPTY,
            expansions: 0,
            visited_pairs: 0,
            answers: Vec::new(),
        }
    }
}

impl NfaCtx {
    /// Empties the context for a call over keys below `bound`.
    fn reset(&mut self, bound: usize) {
        for entry in self.entries.drain(..) {
            self.slots[entry.key] = 0;
        }
        self.lanes.clear();
        self.overflow.clear();
        self.successors.clear();
        self.deltas.clear();
        (self.deps, self.expansions, self.visited_pairs) = (DepMask::EMPTY, 0, 0);
        if self.slots.len() < bound {
            // Every slot is zero here: a fresh zeroed table is the old one
            // grown, and its untouched pages cost nothing.
            self.slots = vec![0; bound];
        }
    }

    /// The entry of `key`, filed on first sight.
    fn entry(&mut self, key: usize, call: &NfaCall) -> usize {
        match self.slots[key] {
            0 => {}
            slot if slot == self.slot_cap => return self.overflow[&key],
            slot => return slot as usize - 1,
        }
        let index = self.entries.len();
        let useful = call.useful.is_none_or(|set| set.contains_key(key));
        self.entries.push(Entry { key, expansion: None, useful });
        self.lanes.push(Lanes::default());
        self.slots[key] = match u32::try_from(index + 1) {
            Ok(slot) if slot < self.slot_cap => slot,
            _ => {
                self.overflow.insert(key, index);
                self.slot_cap
            }
        };
        index
    }

    /// ORs `mask` into the `next` word of entry `index`.
    #[inline]
    fn reach(&mut self, index: usize, mask: u64) {
        let lanes = &mut self.lanes[index];
        if lanes.next == 0 {
            self.touched.push(index);
        }
        lanes.next |= mask;
    }

    /// Moves every touched `next` word into `visited` and makes the lanes
    /// new to an entry — `next & !visited` — its lanes of the next frontier,
    /// if the entry is useful (every entry is, unless `pruned`).
    fn drain(&mut self, pruned: bool) {
        let NfaCtx { entries, lanes, frontier, touched, reached, .. } = self;
        frontier.clear();
        for &index in touched.iter() {
            let words = &mut lanes[index];
            let new = std::mem::take(&mut words.next) & !words.visited;
            if new != 0 {
                if words.visited == 0 {
                    reached.push(index);
                }
                words.visited |= new;
                if !pruned || entries[index].useful {
                    frontier.push((index, new));
                }
            }
        }
        touched.clear();
    }
}

/// What every worker of one call reads.
struct NfaCall<'a> {
    nfa: &'a Nfa,
    /// The call's key space: `directory bound × automaton states`.
    shape: ProductSet,
    useful: Option<&'a ProductSet>,
    accept_nodes: Option<&'a ProductSet>,
    host_resident_bytes: u64,
    track: bool,
}

impl NfaCall<'_> {
    /// Whether `(node, state)` is an answer pair.
    fn accepts(&self, node: u64, state: u32) -> bool {
        self.nfa.is_accepting(state as usize)
            && self.accept_nodes.is_none_or(|set| set.contains(node, 0))
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
    /// data graph and the query automaton — deduplicated per query over the
    /// whole call by its bit of each reached key's `visited` lane word
    /// (required for termination on cyclic graphs under `*`/`+`). Charges follow the k-hop loop's model (ARCHITECTURE.md §1),
    /// with `STATE_BYTES` riding along every routed entry and label-constrained
    /// scans reading the label array too: `row_len × (ID_BYTES + LABEL_BYTES)`.
    ///
    /// A node is reported for a query as soon as *some* visited product state
    /// is accepting; if the automaton accepts the empty path the source
    /// itself is part of the answer, as in [`rpq::ReferenceEvaluator`].
    ///
    /// The shared entry point: charges a non-forward plan's preamble and the
    /// dispatch, runs every worker's query range (`nfa_worker`), then charges
    /// the hops one by one from the workers' per-hop deltas, as
    /// `k_hop_batch_impl` does.
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
        self.prepare_row_view(true);
        // The automaton start state rides along with every dispatched source.
        self.charge_dispatch(sources, ENTRY_BYTES + STATE_BYTES, &mut timeline);

        // Full lane groups, each worker a contiguous range of them: a batch
        // of at most 64 queries runs on one worker, whose memo then builds
        // each key once (CONCURRENCY.md §4.1 measures the alternatives).
        let groups = sources.len().div_ceil(LANES);
        let workers = self.pool.workers_for(groups);
        let ranges: Vec<_> = chunk_ranges(groups, workers)
            .into_iter()
            .map(|r| r.start * LANES..(r.end * LANES).min(sources.len()))
            .collect();
        let call = NfaCall {
            nfa,
            shape: self.product_set(nfa),
            useful,
            accept_nodes,
            host_resident_bytes: self.host_store.live_bytes(),
            track: track.is_some(),
        };
        let mut ctxs = take_scratch(&mut self.scratch.nfa_ctxs, workers);
        let this: &Self = self;
        this.pool.run_with(&mut ctxs[..workers], |worker, ctx| {
            this.nfa_worker(&call, &sources[ranges[worker].clone()], ctx);
        });

        let active = &mut ctxs[..workers];
        let hops = active.iter().map(|ctx| ctx.deltas.len()).max().unwrap_or(0);
        for hop in 0..hops {
            let deltas = active.iter().filter_map(|ctx| ctx.deltas.get(hop));
            let delta = self.charge_hop(deltas, &mut timeline);
            if let Some(deps) = track.as_deref_mut() {
                deps.host_lane |= !delta.host_time.is_zero();
            }
        }
        let results: Vec<_> = active.iter_mut().flat_map(|ctx| ctx.answers.drain(..)).collect();
        let expansions = active.iter().map(|ctx| ctx.expansions).sum();
        let visited_pairs: usize = active.iter().map(|ctx| ctx.visited_pairs).sum();
        if let Some(deps) = track {
            active.iter().for_each(|ctx| deps.nodes.union(ctx.deps));
        }
        self.scratch.nfa_ctxs = ctxs;

        self.view.work += expansions + visited_pairs;
        let matched_pairs: usize = results.iter().map(Vec::len).sum();
        self.charge_gather(matched_pairs, &mut timeline);
        let stats =
            QueryStats { timeline, batch_size: sources.len(), hops, matched_pairs, expansions };
        (results, stats)
    }

    /// One worker's share of a call: every hop of the queries `sources`, in
    /// lane groups of up to [`LANES`].
    ///
    /// Per group the sources' start pairs are the first `next` words, and
    /// each hop drains the touched words into the frontier — the lanes new
    /// to a key, if a pruned plan finds the key useful — then expands every
    /// frontier entry for its lanes: **build-then-replay**, the first
    /// expansion of a key in the call builds its [`Expansion`]
    /// (`build_expansion`, successors filed as entries), and every expansion
    /// adds its charges times the lane count into the worker's delta for
    /// the hop (unconditionally, §6 rule 2) and ORs its lanes into every
    /// successor's `next` word. A source outside the owner directory has no
    /// key, no owner and no row: it counts as one expansion of the first hop
    /// and is read back last.
    fn nfa_worker(&self, call: &NfaCall, sources: &[NodeId], ctx: &mut NfaCtx) {
        ctx.reset(call.shape.bound());
        let start = call.nfa.start() as u32;
        for group in sources.chunks(LANES) {
            let mut unkeyed = 0usize;
            for (lane, s) in group.iter().enumerate() {
                match call.shape.key(s.0, start) {
                    Some(key) => {
                        let index = ctx.entry(key, call);
                        ctx.reach(index, 1 << lane);
                    }
                    None => {
                        ctx.visited_pairs += 1;
                        unkeyed +=
                            usize::from(call.useful.is_none_or(|set| set.contains(s.0, start)));
                        if call.track {
                            ctx.deps.insert(*s);
                        }
                    }
                }
            }
            ctx.drain(call.useful.is_some());
            ctx.expansions += unkeyed;
            let mut hop = 0;
            while !ctx.frontier.is_empty() || (hop == 0 && unkeyed > 0) {
                if ctx.deltas.len() == hop {
                    ctx.deltas.push(StatsDelta::new(self.config.pim.num_modules));
                }
                for at in 0..ctx.frontier.len() {
                    let (index, mask) = ctx.frontier[at];
                    let expansion = match ctx.entries[index].expansion {
                        Some(expansion) => expansion,
                        None => self.build_expansion(call, index, ctx),
                    };
                    let lanes = u64::from(mask.count_ones());
                    let delta = &mut ctx.deltas[hop];
                    match delta.per_module.get_mut(expansion.lane as usize) {
                        Some(slot) => *slot += expansion.time * lanes,
                        None => delta.host_time += expansion.time * lanes,
                    }
                    delta.ipc_messages += lanes * expansion.ipc_messages;
                    delta.ipc_bytes += lanes * expansion.ipc_messages * (ENTRY_BYTES + STATE_BYTES);
                    delta.cpc_bytes += lanes * expansion.cpc_entries * (ENTRY_BYTES + STATE_BYTES);
                    ctx.expansions += lanes as usize;
                    for at in expansion.start..expansion.end {
                        ctx.reach(ctx.successors[at], mask);
                    }
                }
                ctx.drain(call.useful.is_some());
                hop += 1;
            }
            self.read_answers(call, group, ctx);
        }
    }

    /// Reads a finished group's answers, and its deps when tracked, off the
    /// `visited` words in key order — node-major, so each lane's accepted
    /// nodes come out ascending — with unkeyed sources last (their ids lie
    /// past every key's node), and zeroes the words. Dense reached keys are
    /// read by a scan of the slot table over their span, sparse ones sorted.
    fn read_answers(&self, call: &NfaCall, group: &[NodeId], ctx: &mut NfaCtx) {
        let NfaCtx { slots, slot_cap, overflow, entries, lanes, reached, order, .. } = ctx;
        order.clear();
        let (lo, hi) = reached.iter().fold((usize::MAX, 0), |(lo, hi), &index| {
            let key = entries[index].key;
            (lo.min(key), hi.max(key))
        });
        // Empty, `hi < lo`: the sort path, over nothing.
        if hi.saturating_sub(lo) / DENSE_SPAN < reached.len() {
            for (key, &slot) in (lo..).zip(&slots[lo..=hi]) {
                let index = match slot {
                    0 => continue,
                    slot if slot == *slot_cap => overflow[&key],
                    slot => slot as usize - 1,
                };
                let visited = std::mem::take(&mut lanes[index].visited);
                if visited != 0 {
                    order.push((key, visited));
                }
            }
        } else {
            for &index in reached.iter() {
                order.push((entries[index].key, std::mem::take(&mut lanes[index].visited)));
            }
            order.sort_unstable();
        }
        reached.clear();
        let NfaCtx { order, answers, deps, visited_pairs, .. } = ctx;
        let first = answers.len();
        answers.resize(first + group.len(), Vec::new());
        for &(key, mut lanes) in order.iter() {
            *visited_pairs += lanes.count_ones() as usize;
            let (node, state) = call.shape.pair(key);
            if call.track {
                deps.insert(NodeId(node));
            }
            if call.accepts(node, state) {
                while lanes != 0 {
                    let answer = &mut answers[first + lanes.trailing_zeros() as usize];
                    if answer.last() != Some(&NodeId(node)) {
                        answer.push(NodeId(node));
                    }
                    lanes &= lanes - 1;
                }
            }
        }
        let start = call.nfa.start() as u32;
        for (answer, s) in answers[first..].iter_mut().zip(group) {
            if call.shape.key(s.0, start).is_none() && call.accepts(s.0, start) {
                answer.push(*s);
            }
        }
    }

    /// The build half of an expansion: scans the row of entry `index`'s
    /// node (the row view or its owner's store), matches it against the
    /// transitions of the entry's state, files the successors' entries, and
    /// stores and returns what the scan charges. A node no edge has named
    /// has no owner and no row: nothing to charge.
    fn build_expansion(&self, call: &NfaCall, index: usize, ctx: &mut NfaCtx) -> Expansion {
        let (node, state) = call.shape.pair(ctx.entries[index].key);
        let node = NodeId(node);
        let (mut ipc_messages, mut cpc_entries) = (0u64, 0u64);
        let owner = self.owner(node);
        let (scanned, row) = self.forward_row(node, owner);
        let start = ctx.successors.len();
        let transitions = call.nfa.transitions_from(state as usize);
        self.match_row(row, transitions, &call.shape, &mut ctx.successors, |to| {
            match (owner, to) {
                // The host forwards a produced entry to the module owning it
                // (or keeps it if the next row is also host-resident).
                (Some(PartitionId::Host), _) => {
                    cpc_entries += u64::from(matches!(to, Some(PartitionId::Pim(_))));
                }
                (_, Some(PartitionId::Pim(_))) if to == owner => {}
                (_, Some(PartitionId::Pim(_))) => ipc_messages += 1,
                // The destination row lives on the host (or is unknown): the
                // entry is gathered over the CPC link.
                _ => cpc_entries += 1,
            }
        });
        for at in start..ctx.successors.len() {
            ctx.successors[at] = ctx.entry(ctx.successors[at], call);
        }
        // A label-constrained scan reads the id array and the label array.
        let scan_bytes = scanned as u64 * (ID_BYTES + LABEL_BYTES);
        let (lane, time) = match owner {
            Some(PartitionId::Host) => {
                let cost = self.pim.host_random_access_cost(1, call.host_resident_bytes)
                    + self.pim.host_sequential_read_cost(scan_bytes);
                (HOST_LANE, cost)
            }
            Some(PartitionId::Pim(m)) => (m, self.pim.pim_hash_lookup_cost(scan_bytes)),
            None => (HOST_LANE, SimTime::ZERO),
        };
        let end = ctx.successors.len();
        let expansion = Expansion { lane, time, ipc_messages, cpc_entries, start, end };
        ctx.entries[index].expansion = Some(expansion);
        expansion
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
