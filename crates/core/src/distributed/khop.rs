//! The batch k-hop loop: plan → execute → merge per hop over the worker
//! pool, with transfers charged per row from owner-class tallies,
//! epoch-marked dedup and recycled frontier buffers (CONCURRENCY.md §3.1;
//! the worker clamp and the scan-balanced module split are §4.1).

use super::{
    active_workers, balanced_ranges, merge_per_query, take_scratch, ErasedEngine, ENTRY_BYTES,
    ID_BYTES,
};
use crate::deps::QueryDeps;
use crate::stats::{QueryStats, StatsDelta};
use graph_store::{NodeId, PartitionId};
use pim_sim::Timeline;
use sparse::{EpochMarks, OrderedBitmap};
use std::ops::Range;

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
pub(super) struct FrontierScratch {
    marks: EpochMarks,
    pub(super) pool: Vec<Vec<NodeId>>,
}

impl FrontierScratch {
    /// Hands out an empty buffer, recycling capacity when the pool has one.
    fn take_buffer(&mut self) -> Vec<NodeId> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf
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
pub(super) struct HopCtx {
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
        self.nexts.extend((0..queries).map(|_| self.scratch.take_buffer()));
        self.scanned.clear();
        self.scanned.resize(module_count + 1, 0);
    }
}

impl ErasedEngine {
    /// The shared k-hop loop; the tracked entry point passes a deps
    /// accumulator, the plain one passes `None` (zero work added).
    pub(super) fn k_hop_batch_impl(
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
            let this: &Self = self;
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
            next_frontiers.extend((0..frontiers.len()).map(|_| scratch.take_buffer()));
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
            // Every worker's spent candidate buffers go back to its own pool
            // (`take_buffer` clears them).
            for ctx in &mut ctxs[..active] {
                ctx.scratch.pool.append(&mut ctx.nexts);
            }
            std::mem::swap(&mut frontiers, &mut next_frontiers);
            scratch.pool.append(&mut next_frontiers);
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
    /// sequential order. An expansion's transfers are charged per row, from
    /// the row's [`RowTally`](super::RowTally): the same integer sums the
    /// per-entry charges of the sequential loop add up to. Produced
    /// next-hops are deduplicated per `(query, hop)` with the worker's
    /// private epoch marks.
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
        let row_owner = self.owner_lookup();
        for (q, frontier) in frontiers.iter().enumerate() {
            let next = &mut ctx.nexts[q];
            let marks = &mut ctx.scratch.marks;
            // One marker generation per (query, hop): a produced entry is
            // kept only on first sight, so the candidate list is
            // duplicate-free (within this worker) by construction.
            marks.next_epoch();
            for &v in frontier {
                match row_owner(v) {
                    Some(PartitionId::Host) if host_lane => {
                        let (slots, row) = self.host_store.row_scan(v);
                        ctx.scanned[module_count] += 1 + slots as u64;
                        delta.host_time += self.pim.host_random_access_cost(1, host_resident_bytes)
                            + self.pim.host_sequential_read_cost(slots as u64 * ID_BYTES);
                        // The host forwards each produced entry whose next
                        // row lives on a module, and keeps the rest.
                        let tally = self.tallies.get(v.index()).copied().unwrap_or_default();
                        delta.cpc_bytes += u64::from(tally.on_pim) * ENTRY_BYTES;
                        push_first_sights(marks, next, slots, row.map(|(u, _)| u));
                    }
                    Some(PartitionId::Pim(m)) if my_modules.contains(&(m as usize)) => {
                        let m = m as usize;
                        let row = self.local_stores[m].row(v).unwrap_or(&[]);
                        let len = row.len() as u64;
                        ctx.scanned[m] += 1 + len;
                        delta.per_module[m] += self.pim.pim_hash_lookup_cost(len * ID_BYTES);
                        // An entry whose next row is on another module is
                        // forwarded (IPC); one whose next row is on the host
                        // (or unknown) is gathered over the CPC link.
                        let tally = self.tallies.get(v.index()).copied().unwrap_or_default();
                        let forwarded = u64::from(tally.on_pim - tally.on_own);
                        delta.ipc_bytes += forwarded * ENTRY_BYTES;
                        delta.ipc_messages += forwarded;
                        delta.cpc_bytes += (len - u64::from(tally.on_pim)) * ENTRY_BYTES;
                        push_first_sights(marks, next, row.len(), row.iter().map(|&(u, _)| u));
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
}

/// Appends to `next` every node of `row` (at most `len` of them) not yet
/// marked this generation: each node is written past the end and kept by
/// advancing over it on first sight, so the loop has no branch on the mark.
fn push_first_sights(
    marks: &mut EpochMarks,
    next: &mut Vec<NodeId>,
    len: usize,
    row: impl Iterator<Item = NodeId>,
) {
    let start = next.len();
    next.resize(start + len, NodeId(0));
    let mut end = start;
    for u in row {
        next[end] = u;
        end += usize::from(marks.mark(u.index()));
    }
    next.truncate(end);
}
