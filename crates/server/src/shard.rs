//! The sharded execution plane: one logical engine over N replica shards.
//!
//! The serving core funnels every request through one [`GraphEngine`]; this
//! module splits that work across `N` engine instances behind the same trait,
//! so the serving semantics (cache, collapsing, sessions) are untouched while
//! query execution scales with shard count. The design follows the PR 4
//! plan/execute/merge template, now across engines (SERVING.md §7):
//!
//! 1. **Plan.** A frozen [`ShardPlan`] maps every node to one of `G`
//!    *placement groups* — `G` is fixed and **independent of the shard
//!    count**, derived from the placements `graph-partition` already produced
//!    (with a stable-hash fallback for host-resident and unseen nodes).
//!    Shards own contiguous group ranges via
//!    [`moctopus_runtime::chunk_ranges`].
//! 2. **Execute.** Each query batch is canonically decomposed into per-group
//!    sub-batches (ascending group id, original positions remembered); each
//!    sub-batch executes on the shard owning its group, shards running in
//!    parallel via [`moctopus_runtime::WorkerPool`]. Updates are broadcast to
//!    every shard, keeping the replicas in lockstep.
//! 3. **Merge.** Results are re-placed by original batch position, statistics
//!    are merged in ascending group id ([`moctopus::QueryStats::merge`]), and
//!    dependency footprints are unioned ([`moctopus::QueryDeps::merge`]).
//!
//! # Why every externally visible output is shard-count invariant
//!
//! The decomposition is applied at **every** shard count, including 1, and it
//! depends only on the plan and the batch — never on `N`. Each group
//! sub-batch executes alone against a full replica whose state is identical
//! at every shard count (all replicas apply every update in the same total
//! order, and queries mutate no semantic engine state). The merge order
//! (ascending group id) is also `N`-free. So results, `QueryStats`, and
//! `QueryDeps` are byte-identical for `--shards 1`, `2`, and `4` — the
//! property `tests/shard_equivalence.rs` enforces and CI re-checks by
//! diffing `serve` stdout across shard counts. Only the [`ShardThroughput`]
//! clock — per-shard busy time and the max-over-shards makespan — depends on
//! `N`, and it feeds the `serve --json` record, never the result path.
//!
//! DepMask soundness across shards: dependency buckets are stable hashes of
//! node ids ([`moctopus::dep_bucket`]), identical on every replica, so the
//! bitwise-OR union of per-group footprints equals the footprint one engine
//! would have reported — shard count cannot change the merged mask.

use graph_partition::PartitionAssignment;
use graph_store::{Label, NodeId, PartitionId};
use moctopus::{GraphEngine, QueryDeps, QueryStats, UpdateFootprint, UpdateStats};
use moctopus_runtime::{chunk_ranges, WorkerPool};
use pim_sim::SimTime;
use rpq::{PlanStrategy, RpqExpr};
use std::sync::{Arc, Mutex};

/// A frozen node → placement-group mapping (see the module docs).
///
/// # Examples
///
/// ```
/// use graph_store::NodeId;
/// use moctopus_server::ShardPlan;
///
/// let plan = ShardPlan::hashed(ShardPlan::DEFAULT_GROUPS);
/// let g = plan.group_of(NodeId(42));
/// assert!(g < plan.groups());
/// assert_eq!(g, plan.group_of(NodeId(42)), "groups are a pure function of the id");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of placement groups `G` (fixed; never derived from the shard
    /// count, or the decomposition would change with `N`).
    groups: usize,
    /// Dense node-index → group table built from partition placements; nodes
    /// beyond the table fall back to the stable hash.
    table: Vec<u32>,
}

impl ShardPlan {
    /// Default group count: the paper configuration's 64 PIM modules
    /// (`PimConfig::upmem_rank`) in groups of four, and divides evenly
    /// across 1, 2, and 4 shards.
    pub const DEFAULT_GROUPS: usize = 16;

    /// A plan with no recorded placements: every node maps through the
    /// stable hash. Useful before any graph exists.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero.
    pub fn hashed(groups: usize) -> Self {
        assert!(groups > 0, "a shard plan needs at least one placement group");
        ShardPlan { groups, table: Vec::new() }
    }

    /// Builds a plan from the placements a `graph-partition` partitioner
    /// produced: a node assigned to PIM module `m` joins group `m % groups`;
    /// host-resident and unassigned nodes use the stable-hash fallback.
    ///
    /// The assignment is read once and frozen — later migrations or
    /// promotions do **not** move nodes between groups, so the decomposition
    /// of any batch is a pure function of this plan (determinism requires a
    /// frozen plan; correctness does not depend on placement quality, since
    /// every shard holds a full replica).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero.
    pub fn from_assignment(assignment: &PartitionAssignment, groups: usize) -> Self {
        assert!(groups > 0, "a shard plan needs at least one placement group");
        let table = (0..assignment.id_bound())
            .map(|id| {
                let node = NodeId(id);
                match assignment.partition_of(node) {
                    Some(PartitionId::Pim(m)) => (m as usize % groups) as u32,
                    Some(PartitionId::Host) | None => Self::hash_group(node, groups),
                }
            })
            .collect();
        ShardPlan { groups, table }
    }

    /// Number of placement groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// The placement group of a node (total: every node has one).
    pub fn group_of(&self, node: NodeId) -> usize {
        match self.table.get(node.0 as usize) {
            Some(&g) => g as usize,
            None => Self::hash_group(node, self.groups) as usize,
        }
    }

    /// Stable splitmix-style hash fallback, unrelated to dynamic placement.
    fn hash_group(node: NodeId, groups: usize) -> u32 {
        let mut x = node.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((x ^ (x >> 31)) % groups as u64) as u32
    }
}

/// Shard-count-*dependent* throughput accounting (`serve --json` only; the
/// result path never reads it — see the module docs).
///
/// Simulated wall-clock model: shards execute their share of each request in
/// parallel, so one request's serving time is the **maximum** over shards of
/// the time each shard spent on it; `makespan` sums that over requests.
/// `per_shard_busy` sums each shard's own work instead, making update
/// broadcast write-amplification visible (`N` replicas each apply every
/// update).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardThroughput {
    /// Total simulated busy time per shard.
    pub per_shard_busy: Vec<SimTime>,
    /// Sum over requests of the slowest shard's time on that request — the
    /// simulated serving-plane wall clock.
    pub makespan: SimTime,
    /// Query batches executed (cache misses and bypasses).
    pub queries: u64,
    /// Update batches broadcast to every shard.
    pub updates_broadcast: u64,
}

impl ShardThroughput {
    /// Total busy time summed over shards (≥ `makespan`; the gap is the
    /// parallelism the plane exploited, minus broadcast amplification).
    pub fn busy_total(&self) -> SimTime {
        self.per_shard_busy.iter().copied().sum()
    }
}

/// One sub-batch of a scattered query: a placement group's sources plus the
/// batch positions they came from.
struct GroupBatch {
    group: usize,
    positions: Vec<usize>,
    sources: Vec<NodeId>,
}

/// N replica engines behind one [`GraphEngine`] facade (see the module docs).
pub struct ShardedEngine {
    shards: Vec<Box<dyn GraphEngine + Send>>,
    plan: ShardPlan,
    /// `group → owning shard`, from contiguous `chunk_ranges` over the groups.
    owner: Vec<usize>,
    pool: WorkerPool,
    clock: Arc<Mutex<ShardThroughput>>,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("name", &self.name())
            .field("shards", &self.shards.len())
            .field("groups", &self.plan.groups())
            .finish_non_exhaustive()
    }
}

impl ShardedEngine {
    /// Builds the plane over `shards` replica engines.
    ///
    /// Every replica must be in the **same state** (same edges, same
    /// configuration) — typically freshly built from the same snapshot; the
    /// plane keeps them in lockstep afterwards by broadcasting updates.
    /// `threads` sizes the cross-shard worker pool (0 = available
    /// parallelism), and each replica gets `max(1, threads / replicas)`
    /// engine threads in place of its own setting, so that the nested pools
    /// never ask for more threads than `threads` together.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn new(shards: Vec<Box<dyn GraphEngine + Send>>, plan: ShardPlan, threads: usize) -> Self {
        assert!(!shards.is_empty(), "the sharded plane needs at least one shard");
        let mut owner = vec![0usize; plan.groups()];
        for (shard, range) in chunk_ranges(plan.groups(), shards.len()).into_iter().enumerate() {
            for g in range {
                owner[g] = shard;
            }
        }
        let clock = Arc::new(Mutex::new(ShardThroughput {
            per_shard_busy: vec![SimTime::ZERO; shards.len()],
            ..Default::default()
        }));
        let mut plane =
            ShardedEngine { shards, plan, owner, pool: WorkerPool::new(threads), clock };
        plane.share_threads();
        plane
    }

    /// Gives each replica `max(1, threads / replicas)` of the plane's
    /// threads.
    fn share_threads(&mut self) {
        let per_replica = (self.pool.threads() / self.shards.len()).max(1);
        for shard in &mut self.shards {
            shard.set_threads(per_replica);
        }
    }

    /// The frozen plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// A handle to the shard-dependent throughput clock. Clone it before
    /// boxing the engine: the benchmark harness reads it after the serving
    /// run, while the boxed engine is owned by the server.
    pub fn clock(&self) -> Arc<Mutex<ShardThroughput>> {
        Arc::clone(&self.clock)
    }

    /// Canonical batch decomposition: per-group sub-batches in ascending
    /// group id, original positions preserved. A pure function of the plan
    /// and the batch — never of the shard count.
    fn scatter(&self, sources: &[NodeId]) -> Vec<GroupBatch> {
        let mut batches: Vec<GroupBatch> = Vec::new();
        let mut slot: Vec<Option<usize>> = vec![None; self.plan.groups()];
        for (pos, &src) in sources.iter().enumerate() {
            let g = self.plan.group_of(src);
            let idx = *slot[g].get_or_insert_with(|| {
                batches.push(GroupBatch { group: g, positions: Vec::new(), sources: Vec::new() });
                batches.len() - 1
            });
            batches[idx].positions.push(pos);
            batches[idx].sources.push(src);
        }
        batches.sort_by_key(|b| b.group);
        batches
    }

    /// Executes `f` once per group sub-batch on the owning shard, shards in
    /// parallel, and returns the outputs in ascending group id.
    fn run_scattered<R: Send>(
        &mut self,
        batches: &[GroupBatch],
        f: impl Fn(&mut Box<dyn GraphEngine + Send>, &[NodeId]) -> R + Sync,
    ) -> Vec<(usize, R)> {
        // Index the sub-batches by owning shard so each worker walks only its
        // own groups (disjoint ownership — rule 1 of CONCURRENCY.md).
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, b) in batches.iter().enumerate() {
            per_shard[self.owner[b.group]].push(i);
        }
        let outputs: Vec<Vec<(usize, R)>> = {
            let per_shard = &per_shard;
            self.pool.run_with(&mut self.shards, |shard_idx, engine| {
                per_shard[shard_idx].iter().map(|&i| (i, f(engine, &batches[i].sources))).collect()
            })
        };
        // Shards own contiguous ascending group ranges, so flattening in
        // shard order already yields ascending batch index; the sort is a
        // cheap guard that keeps the merge order explicit.
        let mut flat: Vec<(usize, R)> = outputs.into_iter().flatten().collect();
        flat.sort_by_key(|&(i, _)| i);
        flat
    }

    /// Charges one scattered query to the throughput clock: each shard's busy
    /// time grows by its own groups' latencies, the makespan by the slowest
    /// shard's total.
    fn charge_query(&self, batches: &[GroupBatch], latencies: &[(usize, SimTime)]) {
        let mut per_shard = vec![SimTime::ZERO; self.shards.len()];
        for &(batch_idx, t) in latencies {
            per_shard[self.owner[batches[batch_idx].group]] += t;
        }
        let mut clock = self.clock.lock().expect("shard clock poisoned");
        let mut slowest = SimTime::ZERO;
        for (slot, &t) in clock.per_shard_busy.iter_mut().zip(&per_shard) {
            *slot += t;
            slowest = slowest.max(t);
        }
        clock.makespan += slowest;
        clock.queries += 1;
    }

    /// Broadcasts an update closure to every shard in parallel and returns
    /// the per-shard outputs in shard order.
    fn broadcast<R: Send>(
        &mut self,
        f: impl Fn(&mut Box<dyn GraphEngine + Send>) -> (R, UpdateStats) + Sync,
    ) -> Vec<(R, UpdateStats)> {
        let outputs = self.pool.run_with(&mut self.shards, |_, engine| f(engine));
        let mut clock = self.clock.lock().expect("shard clock poisoned");
        let mut slowest = SimTime::ZERO;
        for (slot, (_, stats)) in clock.per_shard_busy.iter_mut().zip(&outputs) {
            *slot += stats.latency();
            slowest = slowest.max(stats.latency());
        }
        clock.makespan += slowest;
        clock.updates_broadcast += 1;
        outputs
    }

    /// The one scatter/execute/merge loop of every query entry point: each
    /// group sub-batch runs on its owning replica, rows go back to their
    /// batch positions, stats and dependency footprints merge in batch
    /// order, and the throughput clock is charged once.
    fn query_scattered(
        &mut self,
        sources: &[NodeId],
        f: impl Fn(
                &mut Box<dyn GraphEngine + Send>,
                &[NodeId],
            ) -> (Vec<Vec<NodeId>>, QueryStats, QueryDeps)
            + Sync,
    ) -> (Vec<Vec<NodeId>>, QueryStats, QueryDeps) {
        let batches = self.scatter(sources);
        let outputs = self.run_scattered(&batches, |engine, chunk| f(engine, chunk));
        let mut results: Vec<Vec<NodeId>> = vec![Vec::new(); sources.len()];
        let mut stats = QueryStats::default();
        let mut deps = QueryDeps::default();
        let mut latencies = Vec::with_capacity(outputs.len());
        for (batch_idx, (rows, sub, sub_deps)) in outputs {
            latencies.push((batch_idx, sub.latency()));
            for (&pos, row) in batches[batch_idx].positions.iter().zip(rows) {
                results[pos] = row;
            }
            stats.merge(&sub);
            deps.merge(&sub_deps);
        }
        self.charge_query(&batches, &latencies);
        (results, stats, deps)
    }

    /// [`ShardedEngine::query_scattered`] for the untracked entry points:
    /// each sub-batch reports an empty footprint and the union is dropped.
    fn query_untracked(
        &mut self,
        sources: &[NodeId],
        f: impl Fn(&mut Box<dyn GraphEngine + Send>, &[NodeId]) -> (Vec<Vec<NodeId>>, QueryStats) + Sync,
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        let (results, stats, _) = self.query_scattered(sources, |engine, chunk| {
            let (rows, stats) = f(engine, chunk);
            (rows, stats, QueryDeps::default())
        });
        (results, stats)
    }
}

impl GraphEngine for ShardedEngine {
    /// The replicas' own name: stdout stays shard-count invariant.
    fn name(&self) -> &'static str {
        self.shards[0].name()
    }

    fn insert_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
        let mut outputs = self.broadcast(|engine| ((), engine.insert_labeled_edges(edges)));
        outputs.swap_remove(0).1
    }

    fn delete_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
        let mut outputs = self.broadcast(|engine| ((), engine.delete_labeled_edges(edges)));
        outputs.swap_remove(0).1
    }

    fn insert_labeled_edges_tracked(
        &mut self,
        edges: &[(NodeId, NodeId, Label)],
    ) -> (UpdateStats, UpdateFootprint) {
        let mut outputs = self.broadcast(|engine| {
            let (stats, footprint) = engine.insert_labeled_edges_tracked(edges);
            (footprint, stats)
        });
        let (footprint, stats) = outputs.swap_remove(0);
        (stats, footprint)
    }

    fn delete_labeled_edges_tracked(
        &mut self,
        edges: &[(NodeId, NodeId, Label)],
    ) -> (UpdateStats, UpdateFootprint) {
        let mut outputs = self.broadcast(|engine| {
            let (stats, footprint) = engine.delete_labeled_edges_tracked(edges);
            (footprint, stats)
        });
        let (footprint, stats) = outputs.swap_remove(0);
        (stats, footprint)
    }

    fn rpq_batch(&mut self, expr: &RpqExpr, sources: &[NodeId]) -> (Vec<Vec<NodeId>>, QueryStats) {
        self.query_untracked(sources, |engine, chunk| engine.rpq_batch(expr, chunk))
    }

    /// Planned (shadow) execution scatters exactly like
    /// [`GraphEngine::rpq_batch`]: each group sub-batch runs the strategy on
    /// its owning replica, so the byte-identity contract composes —
    /// per-replica planned answers equal the forward answers, and the merge
    /// is the same position re-placement.
    fn rpq_batch_planned(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
        strategy: PlanStrategy,
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        self.query_untracked(sources, |engine, chunk| {
            engine.rpq_batch_planned(expr, chunk, strategy)
        })
    }

    fn rpq_batch_tracked(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
    ) -> (Vec<Vec<NodeId>>, QueryStats, QueryDeps) {
        self.query_scattered(sources, |engine, chunk| engine.rpq_batch_tracked(expr, chunk))
    }

    fn edge_count(&self) -> usize {
        self.shards[0].edge_count()
    }

    /// The cross-shard pool gets `threads`, each replica
    /// `max(1, threads / replicas)` of them (`ShardedEngine::new`).
    fn set_threads(&mut self, threads: usize) {
        self.pool = WorkerPool::new(threads);
        self.share_threads();
    }

    fn threads(&self) -> usize {
        self.pool.threads()
    }

    fn label_stats(&self) -> graph_store::LabelStatsSnapshot {
        // Shards are full replicas (every update fans out to all of them),
        // so any shard's statistics describe the whole stored graph.
        self.shards[0].label_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moctopus::{MoctopusConfig, MoctopusSystem};
    use rpq::parser::parse;

    fn ring_edges(n: u64) -> Vec<(NodeId, NodeId, Label)> {
        // A labelled ring with chords: enough structure that multi-hop
        // expressions produce non-trivial answers from every source.
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((NodeId(i), NodeId((i + 1) % n), Label(1 + (i % 3) as u16)));
            edges.push((NodeId(i), NodeId((i + 7) % n), Label(2)));
        }
        edges
    }

    fn replica() -> Box<dyn GraphEngine + Send> {
        Box::new(MoctopusSystem::new(MoctopusConfig::small_test()))
    }

    fn plane(shards: usize, edges: &[(NodeId, NodeId, Label)]) -> ShardedEngine {
        let replicas = (0..shards).map(|_| replica()).collect();
        let mut plane =
            ShardedEngine::new(replicas, ShardPlan::hashed(ShardPlan::DEFAULT_GROUPS), 0);
        plane.insert_labeled_edges(edges);
        plane
    }

    #[test]
    fn plan_is_a_pure_function_of_the_node_id() {
        let plan = ShardPlan::hashed(16);
        for id in 0..200u64 {
            let g = plan.group_of(NodeId(id));
            assert!(g < 16);
            assert_eq!(g, plan.group_of(NodeId(id)));
        }
        assert_eq!(plan, ShardPlan::hashed(16), "same parameters, same plan");
    }

    #[test]
    fn assignment_plans_follow_pim_placements_and_hash_the_rest() {
        let mut assignment = PartitionAssignment::new(32);
        assignment.assign(NodeId(0), PartitionId::Pim(3));
        assignment.assign(NodeId(1), PartitionId::Pim(13));
        assignment.assign(NodeId(2), PartitionId::Host);
        let plan = ShardPlan::from_assignment(&assignment, 8);
        assert_eq!(plan.group_of(NodeId(0)), 3);
        assert_eq!(plan.group_of(NodeId(1)), 13 % 8);
        // Host-resident and out-of-bound nodes take the stable hash fallback,
        // the same one `hashed` uses for everything.
        let hashed = ShardPlan::hashed(8);
        assert_eq!(plan.group_of(NodeId(2)), hashed.group_of(NodeId(2)));
        assert_eq!(plan.group_of(NodeId(999)), hashed.group_of(NodeId(999)));
    }

    #[test]
    fn sharded_results_match_the_unsharded_engine() {
        let edges = ring_edges(64);
        let mut single = MoctopusSystem::new(MoctopusConfig::small_test());
        single.insert_labeled_edges(&edges);
        let mut sharded = plane(4, &edges);

        let sources: Vec<NodeId> = (0..32).map(|i| NodeId(i * 2)).collect();
        for pattern in ["1/2", "(1|2)*/3", "2+", ".{2}"] {
            let expr = parse(pattern).unwrap().normalize();
            let (want, _) = single.rpq_batch(&expr, &sources);
            let (got, _) = sharded.rpq_batch(&expr, &sources);
            assert_eq!(got, want, "sharded answers must equal the single engine's for {pattern}");
        }
    }

    #[test]
    fn every_output_is_shard_count_invariant() {
        let edges = ring_edges(48);
        let expr = parse("1/(2|3)*").unwrap().normalize();
        let sources: Vec<NodeId> = (0..24).map(|i| NodeId(i * 2 + 1)).collect();
        let more = vec![(NodeId(5), NodeId(40), Label(3)), (NodeId(9), NodeId(2), Label(1))];

        let outcomes: Vec<_> = [1usize, 2, 4]
            .into_iter()
            .map(|n| {
                let mut p = plane(n, &edges);
                let before = p.rpq_batch_tracked(&expr, &sources);
                let (ustats, footprint) = p.insert_labeled_edges_tracked(&more);
                let after = p.rpq_batch_tracked(&expr, &sources);
                (before, ustats, footprint, after, p.edge_count())
            })
            .collect();
        for other in &outcomes[1..] {
            assert_eq!(
                other, &outcomes[0],
                "results, stats, deps, update footprints and edge counts must not depend on N"
            );
        }
    }

    #[test]
    fn the_clock_sees_parallelism_and_broadcast_amplification() {
        let edges = ring_edges(64);
        let mut p = plane(4, &edges);
        let expr = parse("1/2/3").unwrap().normalize();
        let sources: Vec<NodeId> = (0..64).map(NodeId).collect();
        let clock = p.clock();
        p.rpq_batch(&expr, &sources);
        let t = clock.lock().unwrap().clone();
        assert_eq!(t.queries, 1);
        assert_eq!(t.updates_broadcast, 1, "the setup insert was broadcast");
        assert_eq!(t.per_shard_busy.len(), 4);
        assert!(t.makespan > SimTime::ZERO);
        assert!(t.busy_total() >= t.makespan, "total work can only exceed the parallel wall clock");
    }

    #[test]
    fn replicas_share_the_planes_threads() {
        let wide = || Box::new(MoctopusSystem::new(MoctopusConfig::small_test().with_threads(2)));
        let replicas: Vec<Box<dyn GraphEngine + Send>> = (0..4).map(|_| wide() as _).collect();
        let mut plane = ShardedEngine::new(replicas, ShardPlan::hashed(16), 2);
        assert_eq!(plane.threads(), 2);
        assert!(plane.shards.iter().all(|shard| shard.threads() == 1), "4 replicas on 2 threads");
        plane.set_threads(8);
        assert!(plane.shards.iter().all(|shard| shard.threads() == 2), "4 replicas on 8 threads");
        let lone = ShardedEngine::new(vec![wide() as _], ShardPlan::hashed(16), 2);
        assert_eq!(lone.shards[0].threads(), 2, "one replica keeps every thread");
    }

    #[test]
    fn scatter_covers_every_position_exactly_once() {
        let edges = ring_edges(32);
        let p = plane(2, &edges);
        // Duplicates and repeats included: positions, not sources, are the unit.
        let sources = vec![NodeId(3), NodeId(3), NodeId(17), NodeId(8), NodeId(3)];
        let batches = p.scatter(&sources);
        let mut seen: Vec<usize> = batches.iter().flat_map(|b| b.positions.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert!(batches.windows(2).all(|w| w[0].group < w[1].group), "ascending group order");
        for b in &batches {
            assert_eq!(b.positions.len(), b.sources.len());
            assert!(b.sources.iter().all(|&s| p.plan.group_of(s) == b.group));
        }
    }
}
