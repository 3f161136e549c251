//! The Moctopus PIM-friendly dynamic graph partitioner (paper Section 3.2).
//!
//! The partitioner combines two ideas:
//!
//! * **Labor division** (Section 3.2.1): out-degrees are tracked as edges
//!   stream in, and the moment a node crosses the high-degree threshold it is
//!   promoted to the host CPU. PIM modules therefore never own hubs, which
//!   removes the load imbalance that graph skew would otherwise cause.
//! * **Greedy-adaptive load balancing** (Section 3.2.2): a new node is
//!   assigned to the partition of its *first* neighbour (the radical greedy
//!   heuristic — O(1) instead of scanning all modules like LDG). A dynamic
//!   capacity constraint of 1.05× the mean PIM load redirects assignments to
//!   under-loaded modules (chosen by hash) when the target is full. Because
//!   the first-neighbour guess is sometimes wrong, path matching later detects
//!   *incorrectly partitioned* nodes — nodes that miss most of their next-hops
//!   locally — and [`GreedyAdaptivePartitioner::refine_rows`] migrates them to the
//!   module holding most of their neighbours.

use crate::assignment::PartitionAssignment;
use crate::StreamingPartitioner;
use graph_store::{AdjacencyGraph, DegreeTracker, Label, NodeId, PartitionId, SnapshotState};

/// A PIM-resident node whose locally-hit next-hop fraction falls below this
/// value is considered incorrectly partitioned (refinement target).
const MISLOCAL_THRESHOLD: f64 = 0.5;

/// Tunable parameters of the greedy-adaptive partitioner. The high-degree
/// threshold is [`HIGH_DEGREE_THRESHOLD`](graph_store::HIGH_DEGREE_THRESHOLD).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyAdaptiveConfig {
    /// Number of PIM modules to spread low-degree nodes across.
    pub num_pim_modules: usize,
    /// Capacity slack factor over the mean PIM load (paper: 1.05).
    pub capacity_slack: f64,
    /// Enables the labor-division promotion of high-degree nodes to the host.
    /// Disabled only for ablation studies.
    pub labor_division: bool,
}

impl GreedyAdaptiveConfig {
    /// The paper's default configuration for `num_pim_modules` modules.
    pub fn paper_defaults(num_pim_modules: usize) -> Self {
        GreedyAdaptiveConfig { num_pim_modules, capacity_slack: 1.05, labor_division: true }
    }
}

/// Result of one detection-and-migration refinement pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// PIM-resident nodes whose locality was checked.
    pub examined: usize,
    /// Nodes migrated to a better PIM module.
    pub migrated: usize,
    /// The individual migrations as `(node, from, to)`.
    pub migrations: Vec<(NodeId, PartitionId, PartitionId)>,
}

/// The Moctopus greedy-adaptive streaming partitioner.
///
/// # Examples
///
/// ```
/// use graph_partition::{GreedyAdaptivePartitioner, StreamingPartitioner};
/// use graph_store::{NodeId, PartitionId};
///
/// let mut p = GreedyAdaptivePartitioner::new(4);
/// // First edge: node 0 gets a hash placement, node 1 follows node 0.
/// p.on_edge(NodeId(0), NodeId(1));
/// assert_eq!(p.partition_of(NodeId(0)), p.partition_of(NodeId(1)));
///
/// // Drive node 0 past the high-degree threshold: it moves to the host.
/// for i in 2..20u64 {
///     p.on_edge(NodeId(0), NodeId(i));
/// }
/// assert_eq!(p.partition_of(NodeId(0)), Some(PartitionId::Host));
/// ```
#[derive(Debug, Clone)]
pub struct GreedyAdaptivePartitioner {
    config: GreedyAdaptiveConfig,
    assignment: PartitionAssignment,
    degrees: DegreeTracker,
    promotions: Vec<NodeId>,
}

impl GreedyAdaptivePartitioner {
    /// Creates a partitioner with the paper's defaults over `num_pim_modules`.
    pub fn new(num_pim_modules: usize) -> Self {
        Self::with_config(GreedyAdaptiveConfig::paper_defaults(num_pim_modules))
    }

    /// Creates a partitioner with an explicit configuration.
    pub fn with_config(config: GreedyAdaptiveConfig) -> Self {
        GreedyAdaptivePartitioner {
            assignment: PartitionAssignment::new(config.num_pim_modules),
            degrees: DegreeTracker::new(),
            config,
            promotions: Vec::new(),
        }
    }

    /// Nodes promoted to the host so far, in promotion order.
    pub fn promotions(&self) -> &[NodeId] {
        &self.promotions
    }

    /// Current out-degree bookkeeping (shared with the storage engine).
    pub fn degrees(&self) -> &DegreeTracker {
        &self.degrees
    }

    /// The dynamic per-module capacity: 1.05× the mean PIM load.
    ///
    /// A small floor (32 nodes) keeps the constraint from binding while the
    /// graph is still tiny; the paper's constraint "increases with graph
    /// scale", so at any realistic size the 1.05× term dominates.
    pub fn capacity_limit(&self) -> usize {
        let mean = self.assignment.mean_pim_load();
        ((mean * self.config.capacity_slack).ceil() as usize).max(32)
    }

    fn is_under_capacity(&self, module: u32) -> bool {
        self.assignment.pim_node_count(module as usize) < self.capacity_limit()
    }

    /// Hash fallback over the modules currently below the capacity constraint.
    ///
    /// Runs on every new node that cannot inherit its first neighbour's
    /// placement, so it counts and indexes the under-capacity modules in two
    /// passes instead of materialising a candidate vector per call. The
    /// selected module is identical to indexing the ascending candidate list.
    fn fallback_module(&self, node: NodeId) -> u32 {
        let limit = self.capacity_limit();
        let modules = self.config.num_pim_modules;
        let under = (0..modules).filter(|&m| self.assignment.pim_node_count(m) < limit).count();
        let h = node.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) as usize;
        if under == 0 {
            // Everyone is at the limit (e.g. perfectly balanced); fall back to
            // plain hashing over all modules.
            return (h % modules) as u32;
        }
        // moctopus-lint: allow(panic-in-lib, reason = "h % under < under, the count of this very filter computed above")
        (0..modules)
            .filter(|&m| self.assignment.pim_node_count(m) < limit)
            .nth(h % under)
            .expect("nth < count of under-capacity modules") as u32
    }

    /// Assigns a brand-new node given its first neighbour (the other endpoint
    /// of the edge that introduced it), following the radical greedy heuristic.
    fn assign_new_node(&mut self, node: NodeId, first_neighbor: Option<NodeId>) -> PartitionId {
        let target = first_neighbor
            .and_then(|n| self.assignment.partition_of(n))
            .and_then(|p| match p {
                // Following a neighbour onto the host would defeat labor
                // division; only PIM placements are inherited.
                PartitionId::Host => None,
                PartitionId::Pim(m) if self.is_under_capacity(m) => Some(m),
                PartitionId::Pim(_) => None,
            })
            .unwrap_or_else(|| self.fallback_module(node));
        self.assignment.assign(node, PartitionId::Pim(target));
        PartitionId::Pim(target)
    }

    /// Records the degree increase of `src`, whose partition is `owner`, and
    /// promotes it to the host when it crosses the high-degree threshold
    /// (labor division). Returns `src`'s partition afterwards.
    fn bump_degree(&mut self, src: NodeId, owner: PartitionId) -> PartitionId {
        let crossed = self.degrees.record_insert(src);
        if crossed && self.config.labor_division && owner != PartitionId::Host {
            self.assignment.assign(src, PartitionId::Host);
            self.promotions.push(src);
            return PartitionId::Host;
        }
        owner
    }

    /// [`GreedyAdaptivePartitioner::refine_rows`] over the out-rows of
    /// `graph`, whose `nodes()` come in hash order and are sorted first.
    pub fn refine(&mut self, graph: &AdjacencyGraph) -> MigrationReport {
        let mut nodes: Vec<NodeId> = graph.nodes().collect();
        nodes.sort_unstable();
        self.refine_rows(nodes.into_iter().map(|node| (node, graph.neighbors(node))))
    }

    /// Detects incorrectly partitioned nodes and migrates them to the module
    /// holding most of their neighbours, respecting the capacity constraint.
    ///
    /// `rows` pairs each node with its out-row (entries in any order) in
    /// ascending id order: migration decisions are order-dependent, and every
    /// downstream IPC/latency figure with them. Host-resident, unassigned and
    /// row-less nodes are skipped. In the real system detection piggybacks on
    /// path matching inside the PIM modules; the engine feeds this pass the
    /// rows its module stores hold, read in place.
    pub fn refine_rows<'a>(
        &mut self,
        rows: impl IntoIterator<Item = (NodeId, &'a [(NodeId, Label)])>,
    ) -> MigrationReport {
        let mut report = MigrationReport::default();
        let limit = self.capacity_limit();
        // Histogram of neighbour placements across PIM modules, reused (and
        // re-zeroed) across the whole pass instead of allocated per node.
        let mut counts = vec![0usize; self.config.num_pim_modules];
        for (node, row) in rows {
            let Some(PartitionId::Pim(current)) = self.assignment.partition_of(node) else {
                continue; // host-resident or unknown nodes are not refined
            };
            if row.is_empty() {
                continue;
            }
            report.examined += 1;
            counts.fill(0);
            let mut pim_neighbors = 0usize;
            for &(dst, _) in row {
                if let Some(PartitionId::Pim(m)) = self.assignment.partition_of(dst) {
                    counts[m as usize] += 1;
                    pim_neighbors += 1;
                }
            }
            if pim_neighbors == 0 {
                continue;
            }
            let local = counts[current as usize];
            let local_fraction = local as f64 / pim_neighbors as f64;
            if local_fraction >= MISLOCAL_THRESHOLD {
                continue;
            }
            // The last module with the most neighbours.
            let best = counts.iter().enumerate().max_by_key(|&(_, &c)| c);
            let Some((best, &best_count)) = best else { continue };
            let best = best as u32;
            if best == current || best_count <= local {
                continue;
            }
            if self.assignment.pim_node_count(best as usize) >= limit {
                continue; // respect the load-balance constraint
            }
            self.assignment.assign(node, PartitionId::Pim(best));
            report.migrations.push((node, PartitionId::Pim(current), PartitionId::Pim(best)));
            report.migrated += 1;
        }
        report
    }
}

impl StreamingPartitioner for GreedyAdaptivePartitioner {
    fn on_edge(&mut self, src: NodeId, dst: NodeId) -> PartitionId {
        let owner = match self.assignment.partition_of(src) {
            Some(owner) => owner,
            None => self.assign_new_node(src, Some(dst).filter(|d| self.assignment.contains(*d))),
        };
        if !self.assignment.contains(dst) {
            self.assign_new_node(dst, Some(src));
        }
        self.bump_degree(src, owner)
    }

    fn partition_of(&self, node: NodeId) -> Option<PartitionId> {
        self.assignment.partition_of(node)
    }

    fn assignment(&self) -> &PartitionAssignment {
        &self.assignment
    }

    /// Degree bookkeeping only: the paper keeps demoted hubs on the host, and
    /// so does the reproduction.
    fn on_edge_delete(&mut self, src: NodeId, _dst: NodeId) {
        self.degrees.record_delete(src);
    }

    fn num_pim_modules(&self) -> usize {
        self.config.num_pim_modules
    }

    fn export_snapshot_parts(&self, image: &mut SnapshotState) {
        image.assignment_slots = self.assignment.export_slots();
        image.degrees = self.degrees.export_entries();
        image.promotions = self.promotions.clone();
    }

    /// The restored partitioner makes exactly the decisions the exported one
    /// would have made next: the assignment drives first-neighbour
    /// inheritance and the capacity constraint, the degrees drive promotion
    /// crossings, and the promotion log is carried for reporting. Every
    /// stored row's source was counted on its way in, so an image in which
    /// some row's source has no degree entry (the image's table is sorted
    /// by node id) was written under another placement.
    fn restore_snapshot_parts(&mut self, image: &SnapshotState) -> bool {
        let counted = |node: &NodeId| image.degrees.binary_search_by_key(node, |&(n, _)| n).is_ok();
        let module_rows = image.local_modules.iter().flat_map(|m| m.rows.iter().map(|(n, _)| n));
        if !module_rows.chain(image.host_rows.iter().map(|r| &r.node)).all(counted) {
            return false;
        }
        self.assignment = PartitionAssignment::from_slots(
            image.assignment_slots.clone(),
            self.config.num_pim_modules,
        );
        self.degrees = DegreeTracker::from_entries(image.degrees.clone());
        self.promotions = image.promotions.clone();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_neighbor_placement_preserves_locality() {
        let mut p = GreedyAdaptivePartitioner::new(8);
        // A chain: every new node should follow its predecessor.
        for i in 0..20u64 {
            p.on_edge(NodeId(i), NodeId(i + 1));
        }
        let first = p.partition_of(NodeId(0)).unwrap();
        // With capacity slack the chain eventually spills, but the first few
        // nodes must share the first node's module.
        assert_eq!(p.partition_of(NodeId(1)), Some(first));
        assert_eq!(p.partition_of(NodeId(2)), Some(first));
    }

    #[test]
    fn high_degree_nodes_are_promoted_to_host() {
        let mut p = GreedyAdaptivePartitioner::new(4);
        // `on_edge` names the source's owner after the edge: its module
        // until the edge that crosses the threshold, the host from then on.
        let module = p.on_edge(NodeId(0), NodeId(1));
        assert!(matches!(module, PartitionId::Pim(_)));
        for i in 2..=16u64 {
            assert_eq!(p.on_edge(NodeId(0), NodeId(i)), module);
        }
        assert_eq!(p.on_edge(NodeId(0), NodeId(17)), PartitionId::Host);
        assert_eq!(p.on_edge(NodeId(0), NodeId(18)), PartitionId::Host);
        assert_eq!(p.partition_of(NodeId(0)), Some(PartitionId::Host));
        assert_eq!(p.promotions(), &[NodeId(0)]);
        // Low-degree neighbours stay on PIM modules.
        assert!(matches!(p.partition_of(NodeId(1)), Some(PartitionId::Pim(_))));
    }

    #[test]
    fn labor_division_can_be_disabled() {
        let mut cfg = GreedyAdaptiveConfig::paper_defaults(4);
        cfg.labor_division = false;
        let mut p = GreedyAdaptivePartitioner::with_config(cfg);
        for i in 1..=40u64 {
            p.on_edge(NodeId(0), NodeId(i));
        }
        assert!(matches!(p.partition_of(NodeId(0)), Some(PartitionId::Pim(_))));
        assert!(p.promotions().is_empty());
    }

    #[test]
    fn new_nodes_never_follow_a_host_neighbor() {
        let mut p = GreedyAdaptivePartitioner::new(4);
        for i in 1..=17u64 {
            p.on_edge(NodeId(0), NodeId(i));
        }
        assert!(p.partition_of(NodeId(0)).unwrap().is_host());
        // A new node whose first neighbour is the hub must not land on the host.
        p.on_edge(NodeId(100), NodeId(0));
        assert!(matches!(p.partition_of(NodeId(100)), Some(PartitionId::Pim(_))));
    }

    #[test]
    fn capacity_constraint_spreads_load() {
        let mut p = GreedyAdaptivePartitioner::new(4);
        // A long chain would pile onto one module without the constraint.
        for i in 0..400u64 {
            p.on_edge(NodeId(i), NodeId(i + 1));
        }
        let a = p.assignment();
        let mean = a.mean_pim_load();
        let max = a.max_pim_load() as f64;
        assert!(max <= mean * 1.30 + 2.0, "max {max} vs mean {mean}");
    }

    #[test]
    fn capacity_limit_grows_with_scale() {
        let mut p = GreedyAdaptivePartitioner::new(4);
        p.on_edge(NodeId(0), NodeId(1));
        let small = p.capacity_limit();
        for i in 0..1000u64 {
            p.on_edge(NodeId(2 * i), NodeId(2 * i + 1));
        }
        assert!(p.capacity_limit() > small);
    }

    #[test]
    fn refine_migrates_mispartitioned_nodes() {
        // Build two dense clusters; stream edges in an order that first sees
        // cluster-crossing edges so some nodes get bad first-neighbour guesses.
        let mut graph = AdjacencyGraph::new();
        let cluster = |base: u64| (base..base + 20).collect::<Vec<u64>>();
        let a = cluster(0);
        let b = cluster(100);
        let mut p = GreedyAdaptivePartitioner::new(2);
        // Mis-leading first edges: connect a[i] to b[i] first.
        for i in 0..10 {
            graph.insert_edge(NodeId(a[i]), NodeId(b[i]), Label::ANY);
            p.on_edge(NodeId(a[i]), NodeId(b[i]));
        }
        // Then the dense intra-cluster structure arrives.
        for ids in [&a, &b] {
            for &u in ids.iter() {
                for &v in ids.iter() {
                    if u != v && (u + v) % 3 == 0 {
                        graph.insert_edge(NodeId(u), NodeId(v), Label::ANY);
                        p.on_edge(NodeId(u), NodeId(v));
                    }
                }
            }
        }
        let report = p.refine(&graph);
        assert!(report.examined > 0);
        // The refinement pass must not worsen balance beyond the constraint.
        let a_ = p.assignment();
        assert!(a_.max_pim_load() <= p.capacity_limit() + 1);
        // Every recorded migration moved a node between PIM modules.
        for (_, from, to) in &report.migrations {
            assert!(!from.is_host());
            assert!(!to.is_host());
            assert_ne!(from, to);
        }
    }

    #[test]
    fn refine_is_idempotent_when_locality_is_good() {
        let mut graph = AdjacencyGraph::new();
        let mut p = GreedyAdaptivePartitioner::new(2);
        // Two disconnected chains, streamed in locality-friendly order.
        for i in 0..20u64 {
            graph.insert_edge(NodeId(i), NodeId(i + 1), Label::ANY);
            p.on_edge(NodeId(i), NodeId(i + 1));
        }
        let first = p.refine(&graph);
        let second = p.refine(&graph);
        assert!(second.migrated <= first.migrated);
    }

    #[test]
    fn edge_delete_updates_degree_tracking() {
        let mut p = GreedyAdaptivePartitioner::new(2);
        p.on_edge(NodeId(0), NodeId(1));
        p.on_edge(NodeId(0), NodeId(2));
        assert_eq!(p.degrees().degree(NodeId(0)), 2);
        p.on_edge_delete(NodeId(0), NodeId(2));
        assert_eq!(p.degrees().degree(NodeId(0)), 1);
    }
}
