//! Hash partitioning (the scheme used by the PIM-hash contrast system).
//!
//! Distributed graph databases such as G-Tran and ByteGraph assign graph nodes
//! to computing nodes with a consistent hash of the node id. The scheme is
//! simple and perfectly balanced in expectation, but it is oblivious to graph
//! locality (neighbouring nodes land on arbitrary modules, so almost every
//! next-hop crosses the narrow CPU↔PIM bus) and it sends high-degree nodes to
//! PIM modules, so skewed graphs overload a few modules.

use crate::assignment::PartitionAssignment;
use crate::StreamingPartitioner;
use graph_store::{NodeId, PartitionId, SnapshotState};

/// Stateless-hash streaming partitioner.
///
/// # Examples
///
/// ```
/// use graph_partition::{HashPartitioner, StreamingPartitioner};
/// use graph_store::NodeId;
///
/// let mut p = HashPartitioner::new(8);
/// p.on_edge(NodeId(1), NodeId(2));
/// assert!(p.partition_of(NodeId(1)).is_some());
/// assert_eq!(p.partition_of(NodeId(1)), Some(HashPartitioner::hash_partition(NodeId(1), 8)));
/// ```
#[derive(Debug, Clone)]
pub struct HashPartitioner {
    assignment: PartitionAssignment,
}

impl HashPartitioner {
    /// Creates a hash partitioner over `num_pim_modules` modules.
    pub fn new(num_pim_modules: usize) -> Self {
        HashPartitioner { assignment: PartitionAssignment::new(num_pim_modules) }
    }

    /// The deterministic hash placement of `node` over `num_modules` modules.
    ///
    /// Uses a Fibonacci-style multiplicative hash so consecutive ids spread
    /// out instead of striping (real systems hash ids for the same reason).
    pub fn hash_partition(node: NodeId, num_modules: usize) -> PartitionId {
        let h = node.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        PartitionId::Pim((h % num_modules.max(1) as u64) as u32)
    }

    /// The node's partition, assigning its hash module on first sight.
    fn ensure_assigned(&mut self, node: NodeId) -> PartitionId {
        if let Some(p) = self.assignment.partition_of(node) {
            return p;
        }
        let p = Self::hash_partition(node, self.assignment.num_pim_modules());
        self.assignment.assign(node, p);
        p
    }
}

impl StreamingPartitioner for HashPartitioner {
    fn on_edge(&mut self, src: NodeId, dst: NodeId) -> PartitionId {
        let owner = self.ensure_assigned(src);
        self.ensure_assigned(dst);
        owner
    }

    fn partition_of(&self, node: NodeId) -> Option<PartitionId> {
        self.assignment.partition_of(node)
    }

    fn assignment(&self) -> &PartitionAssignment {
        &self.assignment
    }

    fn num_pim_modules(&self) -> usize {
        self.assignment.num_pim_modules()
    }

    /// Hash placement is stateless, so the assignment alone (which records
    /// every node ever observed) fully restores the partitioner. It keeps no
    /// degrees, promotes nothing and places no row on the host, so an image
    /// with a degree table, a promotion log, host rows or a host slot was
    /// written under another placement.
    fn restore_snapshot_parts(&mut self, image: &SnapshotState) -> bool {
        if !image.degrees.is_empty() || !image.promotions.is_empty() || !image.host_rows.is_empty()
        {
            return false;
        }
        let assignment =
            PartitionAssignment::from_slots(image.assignment_slots.clone(), self.num_pim_modules());
        if assignment.host_node_count() > 0 {
            return false;
        }
        self.assignment = assignment;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_never_host() {
        let mut p = HashPartitioner::new(4);
        let first = p.on_edge(NodeId(10), NodeId(11));
        assert_eq!(first, HashPartitioner::hash_partition(NodeId(10), 4));
        assert_eq!(p.on_edge(NodeId(10), NodeId(12)), first);
        assert_eq!(p.partition_of(NodeId(10)), Some(first));
        assert!(!first.is_host());
        // Re-observing the node never changes its placement.
        p.on_edge(NodeId(13), NodeId(10));
        assert_eq!(p.partition_of(NodeId(10)), Some(first));
    }

    #[test]
    fn hash_spreads_nodes_roughly_evenly() {
        let mut p = HashPartitioner::new(8);
        for i in 0..8000u64 {
            p.on_edge(NodeId(i), NodeId(i + 8000));
        }
        let a = p.assignment();
        let mean = a.mean_pim_load();
        for m in 0..8 {
            let load = a.pim_node_count(m) as f64;
            assert!((load - mean).abs() / mean < 0.2, "module {m} load {load} vs mean {mean}");
        }
    }

    #[test]
    fn neighbouring_ids_do_not_stripe_onto_the_same_module() {
        // With a multiplicative hash, ids i and i+1 usually land on different
        // modules — the point of hash partitioning's locality-obliviousness.
        let different = (0..100u64)
            .filter(|&i| {
                HashPartitioner::hash_partition(NodeId(i), 8)
                    != HashPartitioner::hash_partition(NodeId(i + 1), 8)
            })
            .count();
        assert!(different > 60);
    }

    #[test]
    fn trait_accessors_work() {
        let mut p = HashPartitioner::new(3);
        assert_eq!(p.num_pim_modules(), 3);
        p.on_edge(NodeId(0), NodeId(1));
        assert_eq!(p.assignment().len(), 2);
        assert_eq!(p.partition_of(NodeId(5)), None);
    }
}
