//! The common interface implemented by every evaluated engine.

use crate::deps::{QueryDeps, UpdateFootprint};
use crate::stats::{QueryStats, UpdateStats};
use graph_store::{Label, LabelStatsSnapshot, NodeId, SnapshotState};
use rpq::{PlanStrategy, RpqExpr};

/// A graph engine that can ingest labelled edges, apply updates, and answer
/// batch path queries — from the paper's k-hop workhorse to general regular
/// path queries — reporting simulated costs for each operation.
///
/// [`MoctopusSystem`](crate::MoctopusSystem),
/// [`PimHashSystem`](crate::PimHashSystem) and
/// [`HostBaseline`](crate::HostBaseline) all implement this trait so the
/// benchmark harness can sweep the three systems uniformly, exactly as the
/// paper's figures do.
pub trait GraphEngine {
    /// Short human-readable engine name used in experiment output.
    fn name(&self) -> &'static str;

    /// Inserts a batch of directed unlabelled edges (they receive
    /// [`Label::ANY`]), returning simulated update costs.
    ///
    /// The default materialises a labelled copy of the batch; the in-tree
    /// engines override it with an allocation-free streaming path.
    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> UpdateStats {
        let labelled: Vec<(NodeId, NodeId, Label)> =
            edges.iter().map(|&(s, d)| (s, d, Label::ANY)).collect();
        self.insert_labeled_edges(&labelled)
    }

    /// Deletes a batch of directed unlabelled ([`Label::ANY`]) edges,
    /// returning simulated update costs.
    fn delete_edges(&mut self, edges: &[(NodeId, NodeId)]) -> UpdateStats {
        let labelled: Vec<(NodeId, NodeId, Label)> =
            edges.iter().map(|&(s, d)| (s, d, Label::ANY)).collect();
        self.delete_labeled_edges(&labelled)
    }

    /// Inserts a batch of directed labelled edges, returning simulated update
    /// costs.
    fn insert_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats;

    /// Deletes a batch of directed labelled edges, returning simulated update
    /// costs.
    fn delete_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats;

    /// Answers a batch k-hop path query: for every start node, the set of
    /// nodes reachable by a path of exactly `k` edges (boolean semantics,
    /// any label), sorted ascending. Also returns the simulated query costs.
    /// It is the regular path query `.{k}`: one way in for every engine.
    fn k_hop_batch(&mut self, sources: &[NodeId], k: usize) -> (Vec<Vec<NodeId>>, QueryStats) {
        self.rpq_batch(&RpqExpr::k_hop(k), sources)
    }

    /// Answers a batch regular path query: for every start node, the sorted
    /// set of nodes reachable by a path whose label sequence matches `expr`.
    ///
    /// Results must agree with [`rpq::ReferenceEvaluator::evaluate`];
    /// [`GraphEngine::k_hop_batch`] is this method on `.{k}`.
    fn rpq_batch(&mut self, expr: &RpqExpr, sources: &[NodeId]) -> (Vec<Vec<NodeId>>, QueryStats);

    /// [`GraphEngine::rpq_batch`] executed under an explicit plan strategy —
    /// the execution half of the `rpq::optimizer` contract.
    ///
    /// Served answers must be **byte-identical** to [`GraphEngine::rpq_batch`]
    /// under every strategy; only the simulated cost (and workload counters
    /// such as `expansions`) may differ. Cache dependency footprints are
    /// *not* produced by planned execution: a pruned traversal's visited set
    /// is not a sound invalidation cover for future inserts, so deps always
    /// come from the canonical forward path
    /// ([`GraphEngine::rpq_batch_tracked`]).
    ///
    /// The default ignores the strategy and runs the canonical forward path,
    /// which is always correct; the in-tree engines override it with real
    /// bidirectional / rare-label-split executors over their reverse
    /// adjacency indexes.
    fn rpq_batch_planned(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
        strategy: PlanStrategy,
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        let _ = strategy;
        self.rpq_batch(expr, sources)
    }

    /// [`GraphEngine::rpq_batch`] plus the execution's dependency footprint,
    /// for update-consistent result caching (the `moctopus-server` crate).
    ///
    /// The returned [`QueryDeps`] must be a sound over-approximation of what
    /// the execution touched: the bucket of **every visited node** (sources
    /// and every frontier member) and whether any host-resident row was
    /// expanded. It must also be deterministic — byte-identical at every
    /// thread count, like the stats themselves.
    ///
    /// The default implementation returns [`QueryDeps::all`] ("touched
    /// everything"), which is always sound: a cache built on it simply
    /// invalidates such entries on every update. The in-tree PIM engines
    /// override it with precise tracking; the host baseline keeps the
    /// default because its simulated cost already couples to the whole
    /// graph's resident bytes (see
    /// [`UpdateFootprint::cost_global`]).
    fn rpq_batch_tracked(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
    ) -> (Vec<Vec<NodeId>>, QueryStats, QueryDeps) {
        let (results, stats) = self.rpq_batch(expr, sources);
        (results, stats, QueryDeps::all())
    }

    /// [`GraphEngine::insert_labeled_edges`] plus the update's dependency
    /// footprint — the cache hook of the update path.
    ///
    /// The returned [`UpdateFootprint`] must cover everything the batch may
    /// have changed (row contents, node placement, host-store bytes); see the
    /// [`crate::deps`] module docs for the two-tier structure. The default
    /// implementation returns [`UpdateFootprint::everything`], which
    /// invalidates every cached entry — always sound.
    fn insert_labeled_edges_tracked(
        &mut self,
        edges: &[(NodeId, NodeId, Label)],
    ) -> (UpdateStats, UpdateFootprint) {
        (self.insert_labeled_edges(edges), UpdateFootprint::everything())
    }

    /// [`GraphEngine::delete_labeled_edges`] plus the update's dependency
    /// footprint; same contract as
    /// [`GraphEngine::insert_labeled_edges_tracked`].
    fn delete_labeled_edges_tracked(
        &mut self,
        edges: &[(NodeId, NodeId, Label)],
    ) -> (UpdateStats, UpdateFootprint) {
        (self.delete_labeled_edges(edges), UpdateFootprint::everything())
    }

    /// Number of directed edges currently stored (labelled parallel edges
    /// count once per label).
    fn edge_count(&self) -> usize;

    /// Reconfigures the engine's execution runtime to `threads` host worker
    /// threads (`0` = the machine's available parallelism).
    ///
    /// Implementations must keep simulated results, `SimTime`, and transfer
    /// tallies **byte-identical** at every thread count — the knob trades
    /// wall-clock only (see CONCURRENCY.md). The harness uses this to sweep
    /// `--threads` over boxed engines uniformly.
    fn set_threads(&mut self, threads: usize);

    /// Host worker threads the engine's execution runtime currently uses.
    fn threads(&self) -> usize;

    /// Exports a complete durable image of the engine's storage plane, or
    /// `None` if the engine does not support snapshots (the default).
    ///
    /// The contract is **observational bit-identity**: an engine restored
    /// from the exported state (on the same configuration) must answer every
    /// future query and update with byte-identical results, stats, and
    /// dependency footprints. `SnapshotState::last_seq` is left `0`; the
    /// durability layer stamps it before persisting.
    fn export_snapshot(&self) -> Option<SnapshotState> {
        None
    }

    /// Replaces the engine's storage plane with a previously exported image.
    ///
    /// Returns `false` — leaving the engine untouched — when the engine does
    /// not support snapshots (the default) or the image is structurally
    /// incompatible (e.g. written under a different PIM module count).
    fn restore_snapshot(&mut self, snapshot: &SnapshotState) -> bool {
        let _ = snapshot;
        false
    }

    /// A deterministic snapshot of the engine's per-label degree/cardinality
    /// statistics, the input of the cost-based RPQ plan optimizer
    /// (`rpq::optimizer`).
    ///
    /// The counters are maintained by the engine's row tables inside every
    /// labelled write — never by rescanning stored rows — and hold no
    /// per-node state: the planned executors scan rows for their seed lists.
    /// Reading them must be a pure observable: it can never change served
    /// results, query statistics, or dependency footprints. The default
    /// returns an empty snapshot, under which the optimizer degenerates to
    /// the left-to-right forward plan (always sound).
    fn label_stats(&self) -> LabelStatsSnapshot {
        LabelStatsSnapshot::default()
    }

    /// The engine's in-adjacency secondary index, flattened to canonical
    /// reverse rows: nodes ascending, each row's `(source, label)` entries
    /// strictly sorted, no empty rows.
    ///
    /// This is a pure diagnostic observable — the differential tests use it
    /// to prove the reverse index is exactly the transpose of the forward
    /// rows and comes back bit-identical through snapshot restore and WAL
    /// replay. Engines without a reverse index return an empty list (the
    /// default); engines with one must keep it byte-deterministic at every
    /// thread count, like every other observable.
    fn export_rev_rows(&self) -> Vec<(NodeId, Vec<(NodeId, Label)>)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HostBaseline, MoctopusConfig, MoctopusSystem, PimHashSystem};

    /// The trait must stay object-safe so harnesses can hold `Box<dyn GraphEngine>`.
    #[test]
    fn engines_are_usable_as_trait_objects() {
        let engines: Vec<Box<dyn GraphEngine>> = vec![
            Box::new(MoctopusSystem::new(MoctopusConfig::small_test())),
            Box::new(PimHashSystem::new(MoctopusConfig::small_test())),
            Box::new(HostBaseline::new(MoctopusConfig::small_test())),
        ];
        let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["Moctopus", "PIM-hash", "RedisGraph-like"]);
    }

    #[test]
    fn empty_engines_report_zero_edges() {
        let engines: Vec<Box<dyn GraphEngine>> = vec![
            Box::new(MoctopusSystem::new(MoctopusConfig::small_test())),
            Box::new(PimHashSystem::new(MoctopusConfig::small_test())),
            Box::new(HostBaseline::new(MoctopusConfig::small_test())),
        ];
        for e in &engines {
            assert_eq!(e.edge_count(), 0, "{} should start empty", e.name());
        }
    }
}
