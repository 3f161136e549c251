//! The batch k-hop loop: each worker owns a contiguous range of the batch's
//! queries and runs all k hops on it, up to 64 queries at a time as the
//! lanes of a `u64` mask, scanning each row of a lane group's frontier union
//! once per hop and charging it times the lanes that hold it
//! (CONCURRENCY.md §3.1; the measurement is §4.1).

use super::{active_workers, take_scratch, ErasedEngine, ENTRY_BYTES, ID_BYTES};
use crate::deps::{DepMask, QueryDeps};
use crate::stats::{QueryStats, StatsDelta};
use graph_store::{NodeId, PartitionId};
use moctopus_runtime::chunk_ranges;
use pim_sim::Timeline;

/// Queries per lane group: one bit of a `u64` lane mask each.
const LANES: usize = 64;

/// A drain scans a bitmap of the touched slots word by word over their span
/// when at least one slot per this many words is touched, and sorts them otherwise.
const DENSE_SPAN: usize = 16;

/// Per directory slot, the lanes of a group's next frontiers that hold the
/// slot; the slots this hop made non-zero; and one bit per slot for reading
/// them in order: all zero and empty between hops.
#[derive(Debug, Default)]
struct LaneArray {
    words: Vec<u64>,
    touched: Vec<usize>,
    bits: Vec<u64>,
}

impl LaneArray {
    /// ORs `mask` into the word of every node of `row` (at most `len` of
    /// them). Each slot is written past the end of `touched` and kept by
    /// advancing over it when its word was zero: no branch on the word.
    fn spread(&mut self, mask: u64, len: usize, row: impl Iterator<Item = NodeId>) {
        let start = self.touched.len();
        self.touched.resize(start + len, 0);
        let mut end = start;
        row.for_each(|u| {
            let word = &mut self.words[u.index()];
            self.touched[end] = u.index();
            end += usize::from(*word == 0);
            *word |= mask;
        });
        self.touched.truncate(end);
    }

    /// Calls `visit` with every touched slot's node and word in ascending id
    /// order, zeroing the words and bits and emptying `touched`.
    fn drain_in_order(&mut self, mut visit: impl FnMut(NodeId, u64)) {
        let LaneArray { words, touched, bits } = self;
        let (lo, hi) = touched.iter().fold((usize::MAX, 0), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        let mut take = |slot: usize| visit(NodeId(slot as u64), std::mem::take(&mut words[slot]));
        // Empty, `hi < lo`: the sort path, over nothing.
        if (hi / 64).saturating_sub(lo / 64) / DENSE_SPAN < touched.len() {
            touched.iter().for_each(|&slot| bits[slot / 64] |= 1 << (slot % 64));
            for (index, word) in (lo / 64..).zip(&mut bits[lo / 64..=hi / 64]) {
                let mut set = std::mem::take(word);
                while set != 0 {
                    take(index * 64 + set.trailing_zeros() as usize);
                    set &= set - 1;
                }
            }
        } else {
            touched.sort_unstable();
            touched.iter().for_each(|&slot| take(slot));
        }
        touched.clear();
    }
}

/// One k-hop worker's context for a whole call (CONCURRENCY.md §6 rule 2),
/// kept across calls for its capacity.
#[derive(Debug, Default)]
pub(super) struct KHopCtx {
    next: LaneArray,
    /// The group's frontier union, ascending, each node with its lanes.
    union: Vec<(NodeId, u64)>,
    /// Per hop, every charge of this worker's expansions.
    deltas: Vec<StatsDelta>,
    /// The buckets of every node reached (tracked calls).
    deps: DepMask,
    pub(super) expansions: usize,
    answers: Vec<Vec<NodeId>>,
}

impl ErasedEngine {
    /// The shared k-hop loop; the tracked entry point passes a deps
    /// accumulator, the plain one passes `None` (zero work added). Each
    /// worker runs every hop of its query range; then this thread charges
    /// the hops one by one from the workers' deltas.
    pub(super) fn k_hop_batch_impl(
        &mut self,
        sources: &[NodeId],
        k: usize,
        mut track: Option<&mut QueryDeps>,
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        self.prepare_row_view(false);
        let mut timeline = Timeline::new();
        self.charge_dispatch(sources, ENTRY_BYTES, &mut timeline);
        if let Some(deps) = track.as_deref_mut() {
            sources.iter().for_each(|&s| deps.nodes.insert(s));
        }
        // Never more workers than queries. A call of at most one hop knows
        // its whole work up front, its sources' rows, and is clamped by it
        // (`active_workers`), so a call of a few queries runs inline; a
        // deeper call goes wide by query count.
        let width = self.pool.workers_for(sources.len());
        let workers = if k > 1 { width } else { active_workers(width, k * sources.len()) };
        let ranges = chunk_ranges(sources.len(), workers);
        let mut ctxs = take_scratch(&mut self.scratch.khop_ctxs, workers);
        let this: &Self = self;
        let tracked = track.is_some();
        this.pool.run_with(&mut ctxs[..workers], |worker, ctx| {
            this.khop_worker(&sources[ranges[worker].clone()], k, tracked, ctx);
        });

        let active = &mut ctxs[..workers];
        for hop in 0..k {
            let delta = self.charge_hop(active.iter().map(|ctx| &ctx.deltas[hop]), &mut timeline);
            if let Some(deps) = track.as_deref_mut() {
                deps.host_lane |= !delta.host_time.is_zero();
            }
        }
        let answers: Vec<_> = active.iter_mut().flat_map(|ctx| ctx.answers.drain(..)).collect();
        let expansions = active.iter().map(|ctx| ctx.expansions).sum();
        if let Some(deps) = track {
            active.iter().for_each(|ctx| deps.nodes.union(ctx.deps));
        }
        self.scratch.khop_ctxs = ctxs;

        let matched_pairs: usize = answers.iter().map(Vec::len).sum();
        self.view.work += expansions + matched_pairs;
        self.charge_gather(matched_pairs, &mut timeline);
        let stats =
            QueryStats { timeline, batch_size: sources.len(), hops: k, matched_pairs, expansions };
        (answers, stats)
    }

    /// One worker's share of a k-hop call: all `k` hops of the queries
    /// `sources`, in lane groups of up to [`LANES`]. Per group and hop it
    /// reads the frontiers' union off the lane array in id order and expands
    /// each row of it once for all of its lanes.
    fn khop_worker(&self, sources: &[NodeId], k: usize, track: bool, ctx: &mut KHopCtx) {
        let row_owner = self.owner_lookup();
        let KHopCtx { next, union, deltas, deps, expansions, answers } = ctx;
        next.words.resize(self.directory_bound() as usize, 0);
        next.bits.resize(next.words.len().div_ceil(64), 0);
        deltas.clear();
        deltas.resize_with(k, || StatsDelta::new(self.config.pim.num_modules));
        (*deps, *expansions) = (DepMask::EMPTY, 0);

        for group in sources.chunks(LANES) {
            if k == 0 {
                answers.extend(group.iter().map(|&s| vec![s]));
                continue;
            }
            // The sources are hop 0's frontiers. One outside the owner
            // directory has no row: it counts as an expansion, nothing more.
            for (lane, s) in group.iter().enumerate() {
                match next.words.get(s.index()) {
                    Some(_) => next.spread(1 << lane, 1, std::iter::once(*s)),
                    None => *expansions += 1,
                }
            }
            for (hop, delta) in deltas.iter_mut().enumerate() {
                union.clear();
                let track_hop = track && hop > 0 && !deps.is_full();
                next.drain_in_order(|v, mask| {
                    union.push((v, mask));
                    if track_hop {
                        deps.insert(v);
                    }
                });
                for &(v, mask) in union.iter() {
                    *expansions += mask.count_ones() as usize;
                    self.expand_row(v, row_owner(v), mask, next, delta);
                }
            }
            // The last hop's next frontiers are the answers, pushed in place.
            let first = answers.len();
            answers.resize(first + group.len(), Vec::new());
            let track_answers = track && !deps.is_full();
            next.drain_in_order(|v, mut lanes| {
                while lanes != 0 {
                    answers[first + lanes.trailing_zeros() as usize].push(v);
                    lanes &= lanes - 1;
                }
                if track_answers {
                    deps.insert(v);
                }
            });
        }
    }

    /// Expands the row of `v`, which `owner` holds, for the lanes in `mask`:
    /// ORs `mask` into `next` for every row entry and adds to `delta`, times
    /// the lane count, the scan's time and the transfers counted by the
    /// row's [`RowTally`](super::RowTally). A node with no owner has no row
    /// and charges nothing. A module row forwards (IPC) each entry whose
    /// next row is on another module and gathers (CPC) each one whose next
    /// row is not on a module; a host row forwards each entry whose next row
    /// is on a module.
    fn expand_row(
        &self,
        v: NodeId,
        owner: Option<PartitionId>,
        mask: u64,
        next: &mut LaneArray,
        delta: &mut StatsDelta,
    ) {
        let lanes = u64::from(mask.count_ones());
        let tally = self.tallies.get(v.index()).copied().unwrap_or_default();
        let (scanned, row) = self.forward_ids(v, owner);
        next.spread(mask, scanned, row);
        let scan_bytes = scanned as u64 * ID_BYTES;
        match owner {
            Some(PartitionId::Host) => {
                delta.cpc_bytes += lanes * u64::from(tally.on_pim) * ENTRY_BYTES;
                let cost = self.pim.host_random_access_cost(1, self.host_store.live_bytes())
                    + self.pim.host_sequential_read_cost(scan_bytes);
                delta.host_time += cost * lanes;
            }
            Some(PartitionId::Pim(m)) => {
                let forwarded = u64::from(tally.on_pim - tally.on_own);
                delta.ipc_bytes += lanes * forwarded * ENTRY_BYTES;
                delta.ipc_messages += lanes * forwarded;
                delta.cpc_bytes += lanes * (scanned as u64 - u64::from(tally.on_pim)) * ENTRY_BYTES;
                delta.per_module[m as usize] += self.pim.pim_hash_lookup_cost(scan_bytes) * lanes;
            }
            None => {}
        }
    }
}
