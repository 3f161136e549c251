//! The node-to-partition assignment (the paper's `node_partition_vector`).

use graph_store::{NodeId, PartitionId};

/// Slot value for a node that has never been assigned.
const NONE_SLOT: u32 = u32::MAX;
/// Slot value for a node assigned to the host CPU (the paper's `-1`).
const HOST_SLOT: u32 = u32::MAX - 1;

/// Mapping from graph node to the computing node (host or PIM module) that
/// owns its adjacency-matrix row.
///
/// Stored exactly as the paper describes: a dense vector indexed by node id
/// (`node_partition_vector`), with a sentinel for the host and another for
/// ids that have not been seen yet. `partition_of` is therefore a single
/// bounds-checked array load — the operation the distributed query engine
/// performs once per expanded edge, where a hash lookup would dominate the
/// hop loop. Per-partition counters keep the 1.05× capacity constraint O(1).
///
/// The vector grows to the largest assigned node id plus one; ids are dense
/// (assigned by the ingestion layer), so this matches the graph size.
///
/// # Examples
///
/// ```
/// use graph_partition::PartitionAssignment;
/// use graph_store::{NodeId, PartitionId};
///
/// let mut a = PartitionAssignment::new(4);
/// a.assign(NodeId(3), PartitionId::Pim(2));
/// a.assign(NodeId(9), PartitionId::Host);
/// assert_eq!(a.partition_of(NodeId(3)), Some(PartitionId::Pim(2)));
/// assert_eq!(a.pim_node_count(2), 1);
/// assert_eq!(a.host_node_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PartitionAssignment {
    /// The dense `node_partition_vector`: one slot per node id.
    slots: Vec<u32>,
    pim_counts: Vec<usize>,
    host_count: usize,
    /// Number of assigned nodes (slots not holding the NONE sentinel).
    assigned: usize,
}

#[inline]
fn encode(partition: PartitionId) -> u32 {
    match partition {
        PartitionId::Host => HOST_SLOT,
        PartitionId::Pim(i) => i,
    }
}

#[inline]
fn decode(slot: u32) -> Option<PartitionId> {
    match slot {
        NONE_SLOT => None,
        HOST_SLOT => Some(PartitionId::Host),
        i => Some(PartitionId::Pim(i)),
    }
}

impl PartitionAssignment {
    /// Creates an empty assignment over `num_pim_modules` PIM modules.
    pub fn new(num_pim_modules: usize) -> Self {
        PartitionAssignment {
            slots: Vec::new(),
            pim_counts: vec![0; num_pim_modules],
            host_count: 0,
            assigned: 0,
        }
    }

    /// Number of PIM modules.
    pub fn num_pim_modules(&self) -> usize {
        self.pim_counts.len()
    }

    /// One past the largest node id the directory covers (its dense length).
    pub fn id_bound(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Assigns (or reassigns) a node to a partition.
    ///
    /// # Panics
    ///
    /// Panics if a PIM partition index is out of range.
    pub fn assign(&mut self, node: NodeId, partition: PartitionId) {
        if let PartitionId::Pim(i) = partition {
            assert!((i as usize) < self.pim_counts.len(), "pim module {i} out of range");
        }
        let idx = node.index();
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, NONE_SLOT);
        }
        match decode(self.slots[idx]) {
            Some(old) => self.decrement(old),
            None => self.assigned += 1,
        }
        self.slots[idx] = encode(partition);
        self.increment(partition);
    }

    fn increment(&mut self, partition: PartitionId) {
        match partition {
            PartitionId::Host => self.host_count += 1,
            PartitionId::Pim(i) => self.pim_counts[i as usize] += 1,
        }
    }

    fn decrement(&mut self, partition: PartitionId) {
        match partition {
            PartitionId::Host => self.host_count -= 1,
            PartitionId::Pim(i) => self.pim_counts[i as usize] -= 1,
        }
    }

    /// The partition of a node, if assigned. A single dense-vector load.
    #[inline]
    pub fn partition_of(&self, node: NodeId) -> Option<PartitionId> {
        self.slots.get(node.index()).copied().and_then(decode)
    }

    /// Returns `true` if the node has been assigned.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.slots.get(node.index()).is_some_and(|&s| s != NONE_SLOT)
    }

    /// Number of nodes assigned to PIM module `i`.
    pub fn pim_node_count(&self, i: usize) -> usize {
        self.pim_counts.get(i).copied().unwrap_or(0)
    }

    /// Number of nodes assigned to the host.
    pub fn host_node_count(&self) -> usize {
        self.host_count
    }

    /// Total number of assigned nodes.
    pub fn len(&self) -> usize {
        self.assigned
    }

    /// Returns `true` if no node has been assigned.
    pub fn is_empty(&self) -> bool {
        self.assigned == 0
    }

    /// Number of nodes assigned to PIM modules (excludes the host).
    pub fn pim_total(&self) -> usize {
        self.assigned - self.host_count
    }

    /// Mean number of nodes per PIM module.
    pub fn mean_pim_load(&self) -> f64 {
        if self.pim_counts.is_empty() {
            0.0
        } else {
            self.pim_total() as f64 / self.pim_counts.len() as f64
        }
    }

    /// Largest number of nodes on any single PIM module.
    pub fn max_pim_load(&self) -> usize {
        self.pim_counts.iter().copied().max().unwrap_or(0)
    }

    /// The PIM module with the fewest assigned nodes.
    pub fn least_loaded_pim(&self) -> usize {
        self.pim_counts.iter().enumerate().min_by_key(|&(_, &c)| c).map(|(i, _)| i).unwrap_or(0)
    }

    /// Iterates over `(node, partition)` pairs in ascending node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, PartitionId)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, &s)| decode(s).map(|p| (NodeId(i as u64), p)))
    }

    /// The raw `node_partition_vector` slots, for a durable snapshot.
    ///
    /// Sentinel values (host / unassigned) are exported as-is; the per-
    /// partition counters are derivable and are not part of the image.
    pub fn export_slots(&self) -> Vec<u32> {
        self.slots.clone()
    }

    /// Rebuilds an assignment from slots exported by
    /// [`PartitionAssignment::export_slots`], recomputing every counter.
    ///
    /// # Panics
    ///
    /// Panics if a slot names a PIM module `>= num_pim_modules` (a snapshot
    /// written under a different module count).
    pub fn from_slots(slots: Vec<u32>, num_pim_modules: usize) -> Self {
        let mut a = PartitionAssignment::new(num_pim_modules);
        for &slot in &slots {
            match decode(slot) {
                None => {}
                Some(p) => {
                    a.assigned += 1;
                    a.increment(p);
                }
            }
        }
        a.slots = slots;
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_and_reassign_update_counters() {
        let mut a = PartitionAssignment::new(2);
        a.assign(NodeId(1), PartitionId::Pim(0));
        a.assign(NodeId(2), PartitionId::Pim(0));
        assert_eq!(a.pim_node_count(0), 2);
        a.assign(NodeId(1), PartitionId::Pim(1));
        assert_eq!(a.pim_node_count(0), 1);
        assert_eq!(a.pim_node_count(1), 1);
        a.assign(NodeId(1), PartitionId::Host);
        assert_eq!(a.host_node_count(), 1);
        assert_eq!(a.pim_node_count(1), 0);
        assert_eq!(a.len(), 2);
        assert_eq!(a.pim_total(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pim_module_panics() {
        let mut a = PartitionAssignment::new(2);
        a.assign(NodeId(0), PartitionId::Pim(5));
    }

    #[test]
    fn load_statistics() {
        let mut a = PartitionAssignment::new(4);
        for i in 0..8 {
            a.assign(NodeId(i), PartitionId::Pim((i % 2) as u32));
        }
        assert_eq!(a.max_pim_load(), 4);
        assert_eq!(a.mean_pim_load(), 2.0);
        let least = a.least_loaded_pim();
        assert!(least == 2 || least == 3);
    }

    #[test]
    fn empty_assignment_statistics() {
        let a = PartitionAssignment::new(0);
        assert!(a.is_empty());
        assert_eq!(a.mean_pim_load(), 0.0);
        assert_eq!(a.max_pim_load(), 0);
        assert_eq!(a.least_loaded_pim(), 0);
        assert_eq!(a.id_bound(), 0);
    }

    #[test]
    fn iter_covers_all_assignments() {
        let mut a = PartitionAssignment::new(2);
        a.assign(NodeId(0), PartitionId::Pim(0));
        a.assign(NodeId(1), PartitionId::Host);
        let pairs: Vec<_> = a.iter().collect();
        assert_eq!(pairs, vec![(NodeId(0), PartitionId::Pim(0)), (NodeId(1), PartitionId::Host)]);
    }

    #[test]
    fn sparse_ids_leave_unassigned_holes() {
        let mut a = PartitionAssignment::new(2);
        a.assign(NodeId(10), PartitionId::Pim(1));
        assert_eq!(a.partition_of(NodeId(5)), None);
        assert!(!a.contains(NodeId(5)));
        assert_eq!(a.partition_of(NodeId(10_000)), None);
        assert_eq!(a.len(), 1);
        assert_eq!(a.id_bound(), 11);
        assert_eq!(a.iter().count(), 1);
    }
}
