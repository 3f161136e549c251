//! The four workloads as data: sizes, and a seeded stream of ops each.
//!
//! A stream is a pure function of `(workload, seed, node universe)`. The
//! program under test only ever sees the generated ops. Nothing here times
//! or executes anything.

use crate::layers::{Edge, Label, NodeId};
use crate::stats::{zipf_weights, Fnv, SplitMix64};
use std::collections::VecDeque;

/// One of the benchmark's fixed workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unlabelled k = 1,2,3 sweeps straight on the engine.
    KHop,
    /// Closure RPQs straight on the engine, planned by the harness.
    Closure,
    /// Read-mostly serving through `QueryServer` with the optimizer on.
    ServeRead,
    /// Update-heavy serving through `QueryServer` over `DurableEngine`.
    ServeWrite,
}

/// The closure sweep: every op evaluates all six, each over its own fresh
/// source batch, so ops are alike: the per-op quantiles are set neither by
/// which expression an op happened to draw nor by how many of one small
/// batch's sources happen to reach the giant component.
pub const CLOSURE_EXPRS: [&str; 6] = ["1+", "1*", "1+/8", "(1|8)+", "1+|8", "1/(2|3)*/4"];

/// The k-hop sweep spelled as path expressions, for the legs that need a
/// query text (parsing, planning, caching) on the `khop` workload.
pub const KHOP_EXPRS: [&str; 3] = [".", ".{2}", ".{3}"];

/// `serve_read`'s expressions; four flood the big component (`1+/8`, `1*/8`
/// are the rare-tail closures the optimizer re-plans), four are cheap.
///
/// The order is the Zipf rank order within a batch-size group. The five whose
/// answers are small come first, so that the median op of an epoch is a hit on
/// one of them and not on the boundary to the hits that copy a large answer.
pub const SERVE_READ_EXPRS: [&str; 8] =
    ["1+/8", "1*/8", "1/8/4", "1/2/3", "1/(2|3)*/4", "1+", "(1|8)+", ".{2}"];

/// Source-batch size of `serve_read`'s pool entry at Zipf rank `r`: the 16
/// most requested entries are small batches, the tail holds the 32- and
/// 64-source batches.
pub const SERVE_READ_BATCHES: [usize; 4] = [16, 16, 32, 64];

/// `serve_write`'s cheap queries. Update batches carry labels 1-4, so rows of
/// the last three survive invalidation and it is the LRU bound that removes
/// them; rows of `1/2` die with every update.
pub const SERVE_WRITE_EXPRS: [&str; 4] = ["1/2", "5/6", "6/7|8", "7/5"];

/// Op counts and input sizes of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Scale handed to the repository's workload generators.
    pub scale: f64,
    /// Sources per query op (ignored by `serve_read`, whose pool fixes them).
    pub sources: usize,
    /// Edges per update batch.
    pub update_edges: usize,
    /// Untimed ops run before the first timed op; they belong to set-up.
    pub warmup_ops: usize,
    /// The first this-many timed ops are the *window*: every simulated
    /// quantity and every count is taken over exactly these ops, so it
    /// repeats bit for bit however many ops the host fits into the run.
    /// Also the least number of timed ops in a run.
    pub window_ops: usize,
    /// The timed ops are cut into segments of this many; `ops_per_s` and
    /// `wall_p50_ms` are medians over the segments, so a stretch of the run
    /// that the box spent on something else is outvoted, not averaged in.
    /// `serve_read`'s segment is its epoch, so segments do the same work.
    pub segment_ops: usize,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::KHop, Workload::Closure, Workload::ServeRead, Workload::ServeWrite];

    /// The name used on the command line and in records.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KHop => "khop",
            Workload::Closure => "closure",
            Workload::ServeRead => "serve_read",
            Workload::ServeWrite => "serve_write",
        }
    }

    /// Parses a name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line (also its `why` in `/BENCHMARK.json`).
    #[rustfmt::skip] // one workload per line
    pub fn why(self) -> &'static str {
        match self {
            Workload::KHop => "The paper's headline: k=1,2,3 sweeps on a skewed web graph; all time is core's hop loop, owner directory, row scans and host lane. Bypasses rpq, server, cache and WAL: they must not move it.",
            Workload::Closure => "Closure RPQs (1+, 1*, (1|8)+ ...) straight on the engine: the NFA-product loop and its visited sets. Every plan is forward here, so optimizer and serving-tier changes must not move it.",
            Workload::ServeRead => "Read-mostly serving where the query pool fits the cache: p50 is a hit, p95 and ops/s are closure misses. The only workload where the optimizer leaves the forward plan, so shadow runs show here.",
            Workload::ServeWrite => "Update-heavy serving over DurableEngine: forward rows, reverse-row mirror, label stats, WAL append/fsync, rotation, invalidation scan, LRU eviction. What helps reads and costs writes shows here.",
        }
    }

    /// Engine worker threads, pinned explicitly (never `MOCTOPUS_THREADS`,
    /// never the machine's parallelism): the reference box has two cores.
    pub fn threads(self) -> usize {
        match self {
            Workload::KHop | Workload::Closure => 2,
            Workload::ServeRead | Workload::ServeWrite => 1,
        }
    }

    /// The recorded sizes; `smoke` shrinks everything so all four workloads,
    /// traced and untraced, finish in seconds.
    pub fn sizes(self, smoke: bool) -> Sizes {
        let full = match self {
            Workload::KHop => Sizes {
                scale: 0.25,
                sources: 64,
                update_edges: 1024,
                warmup_ops: 20,
                window_ops: 200,
                segment_ops: 20,
            },
            Workload::Closure => Sizes {
                scale: 0.1,
                sources: 4,
                update_edges: 1024,
                warmup_ops: 20,
                window_ops: 200,
                segment_ops: 20,
            },
            Workload::ServeRead => Sizes {
                scale: 0.1,
                sources: 16,
                update_edges: 8,
                warmup_ops: 10,
                window_ops: EPOCH,
                segment_ops: EPOCH,
            },
            Workload::ServeWrite => Sizes {
                scale: 0.1,
                sources: 16,
                update_edges: 1024,
                warmup_ops: 100,
                window_ops: 2000,
                segment_ops: 500,
            },
        };
        if !smoke {
            return full;
        }
        Sizes {
            scale: full.scale / 16.0,
            update_edges: full.update_edges.min(128),
            warmup_ops: 10,
            window_ops: match self {
                Workload::ServeWrite => 400,
                Workload::ServeRead => EPOCH,
                Workload::KHop | Workload::Closure => 100,
            },
            segment_ops: full.segment_ops.min(200),
            ..full
        }
    }
}

/// One closed-loop op: issued when the previous one has returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `k_hop_batch` for k = 1, 2, 3 over one source batch.
    KHopSweep {
        /// The fresh source batch.
        sources: Vec<NodeId>,
    },
    /// Parse, normalize, plan and execute each of [`CLOSURE_EXPRS`];
    /// expression `i` runs over the `i`-th equal chunk of `sources`.
    RpqSweep {
        /// One fresh source batch per expression, concatenated.
        sources: Vec<NodeId>,
    },
    /// One served query, parsed from text when issued.
    Query {
        /// Expression text.
        text: &'static str,
        /// Source batch.
        sources: Vec<NodeId>,
    },
    /// One served insert batch.
    Insert {
        /// Labelled edges.
        edges: Vec<Edge>,
    },
    /// One served delete batch.
    Delete {
        /// Labelled edges.
        edges: Vec<Edge>,
    },
}

/// Folds labelled edges into the input checksum.
pub fn checksum_edges(h: &mut Fnv, edges: &[Edge]) {
    for &(s, d, l) in edges {
        h.u64(s.0);
        h.u64(d.0);
        h.u64(u64::from(l.0));
    }
}

impl Op {
    /// Folds the op into the input checksum.
    pub fn checksum(&self, h: &mut Fnv) {
        let nodes_into = |h: &mut Fnv, nodes: &[NodeId]| nodes.iter().for_each(|n| h.u64(n.0));
        match self {
            Op::KHopSweep { sources } => {
                h.bytes(b"K");
                nodes_into(h, sources);
            }
            Op::RpqSweep { sources } => {
                h.bytes(b"R");
                nodes_into(h, sources);
            }
            Op::Query { text, sources } => {
                h.bytes(b"Q");
                h.bytes(text.as_bytes());
                nodes_into(h, sources);
            }
            Op::Insert { edges } => {
                h.bytes(b"I");
                checksum_edges(h, edges);
            }
            Op::Delete { edges } => {
                h.bytes(b"D");
                checksum_edges(h, edges);
            }
        }
    }

    /// The op's queries as `(expression text, sources)`, for the legs that
    /// replay a workload's own queries through one layer.
    pub fn queries(&self) -> Vec<(&'static str, &[NodeId])> {
        match self {
            Op::KHopSweep { sources } => KHOP_EXPRS.iter().map(|&t| (t, &sources[..])).collect(),
            Op::RpqSweep { sources } => {
                let batch = sources.len() / CLOSURE_EXPRS.len();
                CLOSURE_EXPRS.iter().copied().zip(sources.chunks_exact(batch)).collect()
            }
            Op::Query { text, sources } => vec![(*text, &sources[..])],
            Op::Insert { .. } | Op::Delete { .. } => Vec::new(),
        }
    }
}

/// Ops per `serve_read` epoch: 199 queries, then one update (0.5 % updates).
/// A cost-exact update invalidates nearly every resident entry, so an epoch
/// is one fill of the cache and its length sets the hit share: 167 of 199
/// queries. Shorter epochs put the median op on the boundary between cheap
/// hits and hits that copy a large answer, where it jumps from seed to seed.
pub const EPOCH: usize = 200;

/// The seeded op stream of one workload.
#[derive(Debug, Clone)]
pub struct OpStream {
    workload: Workload,
    sizes: Sizes,
    rng: SplitMix64,
    nodes: Vec<NodeId>,
    issued: usize,
    /// `serve_read` / `serve_write`: the query pool.
    pool: Vec<(&'static str, Vec<NodeId>)>,
    /// `serve_read`: the pool ranks one epoch requests.
    epoch: Vec<usize>,
    /// `serve_read`: ranks still to request before the next update, consumed
    /// from the back. Starts as the warm-up prelude.
    hand: Vec<usize>,
    /// `serve_read`: the prelude is over.
    in_epochs: bool,
    /// Inserted batches not yet deleted, oldest first.
    pending: VecDeque<Vec<Edge>>,
    updates: usize,
}

impl OpStream {
    /// Creates the stream. `nodes` is the input graph's node universe in
    /// ascending order; `pinned` are sources worth keeping in `serve_read`'s
    /// pool batches (the rare-closure chain heads, so rare-tail answers are
    /// not all empty).
    pub fn new(
        workload: Workload,
        seed: u64,
        nodes: &[NodeId],
        pinned: &[NodeId],
        smoke: bool,
    ) -> Self {
        assert!(nodes.len() >= 2, "the input graph has no nodes to query");
        let mut stream = OpStream {
            workload,
            sizes: workload.sizes(smoke),
            // Decorrelated from the graph generators, which take the raw seed.
            rng: SplitMix64::new(seed ^ 0x6f70_5f73_7472_6561),
            nodes: nodes.to_vec(),
            issued: 0,
            pool: Vec::new(),
            epoch: Vec::new(),
            hand: Vec::new(),
            in_epochs: false,
            pending: VecDeque::new(),
            updates: 0,
        };
        match workload {
            Workload::KHop | Workload::Closure => {}
            Workload::ServeRead => stream.build_read_pool(pinned),
            Workload::ServeWrite => {
                for _ in 0..16 {
                    let sources = stream.sample_nodes(stream.sizes.sources);
                    for text in SERVE_WRITE_EXPRS {
                        stream.pool.push((text, sources.clone()));
                    }
                }
            }
        }
        stream
    }

    fn sample_nodes(&mut self, count: usize) -> Vec<NodeId> {
        (0..count).map(|_| self.nodes[self.rng.below(self.nodes.len())]).collect()
    }

    /// 32 entries: rank `r` is expression `r % 8` over a batch of
    /// `SERVE_READ_BATCHES[r / 8]` sources. The schedule is *stratified*:
    /// every epoch requests rank `r` `round(199 * w_r)` times (`w_r` its
    /// Zipf(1/r) weight; at least once), so the set of entries an epoch
    /// re-executes after its update is the same for every seed and only their
    /// order and their source nodes vary.
    ///
    /// The warm-up ops are a prelude outside the epochs: the most requested
    /// entries once each, in rank order, so set-up costs every seed the same
    /// and the first timed op opens an epoch.
    fn build_read_pool(&mut self, pinned: &[NodeId]) {
        let ranks = SERVE_READ_EXPRS.len() * SERVE_READ_BATCHES.len();
        for r in 0..ranks {
            let mut sources = self.sample_nodes(SERVE_READ_BATCHES[r / SERVE_READ_EXPRS.len()]);
            for (slot, &head) in pinned.iter().take(4).enumerate() {
                let at = (slot * 5 + r) % sources.len();
                sources[at] = head;
            }
            self.pool.push((SERVE_READ_EXPRS[r % SERVE_READ_EXPRS.len()], sources));
        }
        let slots = EPOCH - 1;
        let mut counts: Vec<usize> = zipf_weights(ranks)
            .iter()
            .map(|w| ((w * slots as f64).round() as usize).max(1))
            .collect();
        // Rounding leaves the total a few slots off; the most requested
        // entry (a quarter of all slots) absorbs the difference.
        let total: usize = counts.iter().sum();
        counts[0] = counts[0] + slots - total;
        self.epoch =
            counts.iter().enumerate().flat_map(|(r, &c)| std::iter::repeat_n(r, c)).collect();
        self.hand = (0..self.sizes.warmup_ops.min(ranks)).rev().collect();
    }

    /// `serve_read`: the next query of the epoch, or its closing update.
    fn next_read_op(&mut self) -> Op {
        if let Some(rank) = self.hand.pop() {
            let (text, sources) = &self.pool[rank];
            return Op::Query { text, sources: sources.clone() };
        }
        // The hand is played: refill it for the next epoch, and close this
        // one (unless it was the prelude) with an update.
        self.hand = self.epoch.clone();
        for k in (1..self.hand.len()).rev() {
            let j = self.rng.below(k + 1);
            self.hand.swap(k, j);
        }
        if !std::mem::replace(&mut self.in_epochs, true) {
            return self.next_read_op();
        }
        // Labels 2-7: the rare tail (label 8) stays rare, so the re-planned
        // closures stay re-planned. Every inserted batch is deleted by the
        // next update: the graph is stationary.
        match self.pending.pop_front() {
            Some(edges) => Op::Delete { edges },
            None => {
                let edges = self.fresh_batch(2..=7);
                self.pending.push_back(edges.clone());
                Op::Insert { edges }
            }
        }
    }

    fn fresh_batch(&mut self, labels: std::ops::RangeInclusive<u16>) -> Vec<Edge> {
        let span = usize::from(labels.end() - labels.start()) + 1;
        (0..self.sizes.update_edges)
            .map(|_| {
                let s = self.nodes[self.rng.below(self.nodes.len())];
                let d = self.nodes[self.rng.below(self.nodes.len())];
                // min of two draws: low labels are the common ones, as in the
                // generators' Zipf label mix.
                let l = self.rng.below(span).min(self.rng.below(span)) as u16;
                (s, d, Label(labels.start() + l))
            })
            .collect()
    }

    /// The next op.
    pub fn next_op(&mut self) -> Op {
        let i = self.issued;
        self.issued += 1;
        match self.workload {
            Workload::KHop => Op::KHopSweep { sources: self.sample_nodes(self.sizes.sources) },
            Workload::Closure => Op::RpqSweep {
                sources: self.sample_nodes(self.sizes.sources * CLOSURE_EXPRS.len()),
            },
            Workload::ServeRead => self.next_read_op(),
            Workload::ServeWrite => {
                if i % 5 == 4 {
                    let (text, sources) = &self.pool[self.rng.below(self.pool.len())];
                    return Op::Query { text, sources: sources.clone() };
                }
                // Insert a fresh batch, delete the one inserted eight updates
                // earlier: the graph's size is stationary.
                self.updates += 1;
                if self.updates.is_multiple_of(2) && self.pending.len() >= 4 {
                    let edges = self.pending.pop_front().expect("checked non-empty");
                    Op::Delete { edges }
                } else {
                    let edges = self.fresh_batch(1..=4);
                    self.pending.push_back(edges.clone());
                    Op::Insert { edges }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> Vec<NodeId> {
        (0..500u64).map(NodeId).collect()
    }

    fn ops(workload: Workload, seed: u64, n: usize) -> Vec<Op> {
        let mut s = OpStream::new(workload, seed, &universe(), &[NodeId(7)], true);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_same_ops_and_another_seed_other_ops() {
        for w in Workload::ALL {
            assert_eq!(ops(w, 42, 120), ops(w, 42, 120), "{}", w.name());
            assert_ne!(ops(w, 42, 120), ops(w, 7, 120), "{}", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn every_workload_times_at_least_200_ops() {
        for w in Workload::ALL {
            assert!(w.sizes(false).window_ops >= 200);
            assert!(w.sizes(false).warmup_ops >= 10);
        }
    }

    #[test]
    fn serve_read_requests_every_entry_in_zipf_proportion() {
        let mut s = OpStream::new(Workload::ServeRead, 3, &universe(), &[], true);
        let pool = s.pool.clone();
        let rank_of = |op: &Op| match op {
            Op::Query { text, sources } => pool.iter().position(|(t, b)| t == text && b == sources),
            _ => None,
        };
        // The prelude: the ten most requested entries, in rank order.
        let prelude: Vec<Op> = (0..10).map(|_| s.next_op()).collect();
        assert_eq!(
            prelude.iter().map(rank_of).collect::<Vec<_>>(),
            (0..10).map(Some).collect::<Vec<_>>()
        );
        // Then whole epochs: 199 queries and the update that closes them,
        // every epoch the same multiset of entries in another order.
        let epochs: Vec<Vec<Op>> =
            (0..2).map(|_| (0..EPOCH).map(|_| s.next_op()).collect()).collect();
        let requested = |epoch: &[Op]| {
            let mut seen = vec![0usize; pool.len()];
            for (i, op) in epoch.iter().enumerate() {
                match rank_of(op) {
                    Some(rank) => seen[rank] += 1,
                    None => {
                        assert_eq!(i, EPOCH - 1, "0.5 % of the ops are updates, closing an epoch")
                    }
                }
            }
            seen
        };
        let seen = requested(&epochs[0]);
        assert_eq!(seen, requested(&epochs[1]));
        assert_ne!(epochs[0][..EPOCH - 1], epochs[1][..EPOCH - 1]);
        assert_eq!(seen.iter().sum::<usize>(), EPOCH - 1);
        assert!(seen.iter().all(|&c| c >= 1), "{seen:?}");
        assert!(seen[0] > 20 * seen[31], "{seen:?}");
        // Batch sizes follow the rank groups.
        assert_eq!(pool[0].1.len(), 16);
        assert_eq!(pool[31].1.len(), 64);
    }

    #[test]
    fn serve_write_is_four_updates_per_query_and_stationary() {
        let all = ops(Workload::ServeWrite, 5, 500);
        let mut live = 0isize;
        for (i, op) in all.iter().enumerate() {
            match op {
                Op::Query { sources, .. } => {
                    assert_eq!(i % 5, 4);
                    assert_eq!(sources.len(), 16);
                }
                Op::Insert { edges } => {
                    live += 1;
                    assert!(edges.iter().all(|e| (1..=4).contains(&e.2 .0)));
                }
                Op::Delete { .. } => live -= 1,
                _ => panic!("unexpected op"),
            }
            assert!(i % 5 == 4 || !matches!(op, Op::Query { .. }));
        }
        assert!((0..=6).contains(&live), "{live} batches outstanding");
    }

    #[test]
    fn deleted_batches_were_inserted_before() {
        for w in [Workload::ServeRead, Workload::ServeWrite] {
            let mut inserted: Vec<Vec<Edge>> = Vec::new();
            for op in ops(w, 11, 600) {
                match op {
                    Op::Insert { edges } => inserted.push(edges),
                    Op::Delete { edges } => {
                        let at = inserted.iter().position(|b| *b == edges).expect("known batch");
                        inserted.remove(at);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn checksum_tells_ops_apart() {
        let sum = |ops: &[Op]| {
            let mut h = Fnv::default();
            ops.iter().for_each(|o| o.checksum(&mut h));
            h.finish()
        };
        assert_eq!(sum(&ops(Workload::KHop, 1, 30)), sum(&ops(Workload::KHop, 1, 30)));
        assert_ne!(sum(&ops(Workload::KHop, 1, 30)), sum(&ops(Workload::KHop, 2, 30)));
        assert_ne!(sum(&ops(Workload::KHop, 1, 30)), sum(&ops(Workload::Closure, 1, 30)));
    }
}
