//! The batch k-hop loop: each worker owns a contiguous range of the batch's
//! queries and runs all k hops on it, up to 64 queries at a time as the
//! lanes of a `u64` mask, scanning each row of a lane group's frontier union
//! once per hop (CONCURRENCY.md §3.1; the measurement is §4.1).

use super::{
    active_workers, replay_charges, take_scratch, Charge, ChargeLog, ErasedEngine, ENTRY_BYTES,
    HOST_LANE, ID_BYTES,
};
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
        for u in row {
            let word = &mut self.words[u.index()];
            self.touched[end] = u.index();
            end += usize::from(*word == 0);
            *word |= mask;
        }
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

/// The lanes set in `mask`, ascending.
fn lanes_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let lane = (mask != 0).then(|| mask.trailing_zeros() as usize)?;
        mask &= mask - 1;
        Some(lane)
    })
}

/// One k-hop worker's context for a whole call (CONCURRENCY.md §6 rule 2),
/// kept across calls for its capacity.
#[derive(Debug, Default)]
pub(super) struct KHopCtx {
    next: LaneArray,
    /// The group's frontier union, ascending, each node with its lanes.
    union: Vec<(NodeId, u64)>,
    /// Per `union` entry, what expanding its row charges (`None`: no row).
    charges: Vec<Option<Charge>>,
    /// Per lane, its frontier as ascending indices into `union`.
    frontiers: Vec<Vec<usize>>,
    /// Per hop, the integer charges (a lone worker's float ones too).
    deltas: Vec<StatsDelta>,
    /// One run per lane group and hop.
    log: ChargeLog,
    /// The buckets of every node reached (tracked calls).
    deps: DepMask,
    pub(super) expansions: usize,
    answers: Vec<Vec<NodeId>>,
}

impl ErasedEngine {
    /// The shared k-hop loop; the tracked entry point passes a deps
    /// accumulator, the plain one passes `None` (zero work added). Each
    /// worker runs every hop of its query range; then this thread charges
    /// the hops one by one, adding several workers' logged float charges
    /// worker by worker — ranges ascend, so in query order.
    pub(super) fn k_hop_batch_impl(
        &mut self,
        sources: &[NodeId],
        k: usize,
        mut track: Option<&mut QueryDeps>,
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        let mut timeline = Timeline::new();
        self.charge_dispatch(sources, ENTRY_BYTES, &mut timeline);
        if let Some(deps) = track.as_deref_mut() {
            sources.iter().for_each(|&s| deps.nodes.insert(s));
        }
        // Never more workers than queries; a call of at most one hop (its
        // frontier: the sources) is clamped by its work as an NFA hop is.
        let width = self.pool.workers_for(sources.len());
        let workers = if k > 1 { width } else { active_workers(width, k * sources.len()) };
        let ranges = chunk_ranges(sources.len(), workers);
        let mut ctxs = take_scratch(&mut self.scratch.khop_ctxs, workers);
        for ctx in &mut ctxs[..workers] {
            ctx.log.reset(workers == 1);
        }
        let this: &Self = self;
        let tracked = track.is_some();
        this.pool.run_with(&mut ctxs[..workers], |worker, ctx| {
            this.khop_worker(&sources[ranges[worker].clone()], k, tracked, ctx);
        });

        let active = &mut ctxs[..workers];
        for hop in 0..k {
            // A lone worker's runs are empty: it added its own charges.
            let mut replayed = StatsDelta::new(self.config.pim.num_modules);
            let runs = active.iter().zip(&ranges).flat_map(|(ctx, range)| {
                (0..range.len().div_ceil(LANES)).map(move |g| ctx.log.run(g * k + hop))
            });
            replay_charges(runs, &mut replayed);
            let deltas = active.iter().map(|ctx| &ctx.deltas[hop]);
            let delta = self.charge_hop(std::iter::once(&replayed).chain(deltas), &mut timeline);
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
        self.charge_gather(matched_pairs, &mut timeline);
        let stats =
            QueryStats { timeline, batch_size: sources.len(), hops: k, matched_pairs, expansions };
        (answers, stats)
    }

    /// One worker's share of a k-hop call: all `k` hops of the queries
    /// `sources`, in lane groups of up to [`LANES`]. Per group and hop it
    /// reads the frontiers off the lane array in id order, expands each row
    /// of their union once for all of its lanes, and then hands each
    /// expansion's float charge to its log (which adds it at once for the
    /// call's only worker) lane by lane, in frontier order: query order.
    fn khop_worker(&self, sources: &[NodeId], k: usize, track: bool, ctx: &mut KHopCtx) {
        let row_owner = self.owner_lookup();
        let KHopCtx { next, union, charges, frontiers, deltas, log, deps, expansions, answers } =
            ctx;
        next.words.resize(self.directory_bound() as usize, 0);
        next.bits.resize(next.words.len().div_ceil(64), 0);
        frontiers.resize_with(LANES, Vec::new);
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
                frontiers.iter_mut().for_each(Vec::clear);
                let track_hop = track && hop > 0 && !deps.is_full();
                next.drain_in_order(|v, mask| {
                    lanes_of(mask).for_each(|lane| frontiers[lane].push(union.len()));
                    union.push((v, mask));
                    if track_hop {
                        deps.insert(v);
                    }
                });
                charges.clear();
                for &(v, mask) in union.iter() {
                    charges.push(self.expand_row(v, row_owner(v), mask, next, delta));
                }
                for &i in frontiers[..group.len()].iter().flatten() {
                    *expansions += 1;
                    if let Some(charge) = charges[i] {
                        log.add(delta, charge);
                    }
                }
                log.end_run();
            }
            // The last hop's next frontiers are the answers, pushed in place.
            let first = answers.len();
            answers.resize(first + group.len(), Vec::new());
            let track_answers = track && !deps.is_full();
            next.drain_in_order(|v, mask| {
                lanes_of(mask).for_each(|lane| answers[first + lane].push(v));
                if track_answers {
                    deps.insert(v);
                }
            });
        }
    }

    /// Expands the row of `v`, which `owner` holds, for the lanes in `mask`:
    /// ORs `mask` into `next` for every row entry, adds each lane's integer
    /// charges to `delta` from the row's [`RowTally`](super::RowTally) and
    /// returns the float charge one expansion makes (`None`: no owner). A
    /// module row forwards (IPC) each entry whose next row is on another
    /// module and gathers (CPC) each one whose next row is not on a module; a
    /// host row forwards each entry whose next row is on a module.
    fn expand_row(
        &self,
        v: NodeId,
        owner: Option<PartitionId>,
        mask: u64,
        next: &mut LaneArray,
        delta: &mut StatsDelta,
    ) -> Option<Charge> {
        let lanes = u64::from(mask.count_ones());
        let tally = self.tallies.get(v.index()).copied().unwrap_or_default();
        match owner? {
            PartitionId::Host => {
                let (slots, row) = self.host_store.row_scan(v);
                delta.cpc_bytes += lanes * u64::from(tally.on_pim) * ENTRY_BYTES;
                next.spread(mask, slots, row.map(|(u, _)| u));
                let cost = self.pim.host_random_access_cost(1, self.host_store.live_bytes())
                    + self.pim.host_sequential_read_cost(slots as u64 * ID_BYTES);
                Some((HOST_LANE, cost))
            }
            PartitionId::Pim(m) => {
                let row = self.local_stores[m as usize].row(v).unwrap_or(&[]);
                let len = row.len() as u64;
                let forwarded = u64::from(tally.on_pim - tally.on_own);
                delta.ipc_bytes += lanes * forwarded * ENTRY_BYTES;
                delta.ipc_messages += lanes * forwarded;
                delta.cpc_bytes += lanes * (len - u64::from(tally.on_pim)) * ENTRY_BYTES;
                next.spread(mask, row.len(), row.iter().map(|&(u, _)| u));
                Some((m, self.pim.pim_hash_lookup_cost(len * ID_BYTES)))
            }
        }
    }
}
