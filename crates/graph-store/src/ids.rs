//! Strongly-typed identifiers shared by every crate in the workspace.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a graph node (a row of the adjacency matrix).
///
/// Node ids are dense `u64` values assigned by the ingestion layer. They are
/// newtyped so that node ids, partition ids, and labels can never be mixed up
/// at compile time.
///
/// # Examples
///
/// ```
/// use graph_store::NodeId;
/// let n = NodeId(42);
/// assert_eq!(n.index(), 42);
/// assert_eq!(format!("{n}"), "n42");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u64);

impl NodeId {
    /// Returns the id as a `usize` index, for dense array addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(v: u64) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v as u64)
    }
}

/// Identifier of a computing node that owns a slice of the graph.
///
/// The host CPU and every PIM module are computing nodes; the paper's
/// `node_partition_vector` stores one of these per graph node.
///
/// # Examples
///
/// ```
/// use graph_store::PartitionId;
/// assert!(PartitionId::HOST.is_host());
/// assert!(!PartitionId::Pim(3).is_host());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PartitionId {
    /// The host CPU partition (stores high-degree nodes).
    Host,
    /// A PIM module, identified by its rank-local index.
    Pim(u32),
}

impl PartitionId {
    /// The host partition, provided as an associated constant for readability.
    pub const HOST: PartitionId = PartitionId::Host;

    /// Returns `true` if this partition is the host CPU.
    #[inline]
    pub fn is_host(self) -> bool {
        matches!(self, PartitionId::Host)
    }
}

impl Default for PartitionId {
    fn default() -> Self {
        PartitionId::Pim(0)
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionId::Host => write!(f, "host"),
            PartitionId::Pim(i) => write!(f, "pim{i}"),
        }
    }
}

/// An edge label (relationship type) in the property-graph model.
///
/// Regular path queries are regular expressions over these labels. Label `0`
/// is the default/untyped relationship used by plain k-hop queries.
///
/// # Examples
///
/// ```
/// use graph_store::Label;
/// let knows = Label(1);
/// assert_ne!(knows, Label::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Label(pub u16);

impl Label {
    /// The default (untyped) relationship label.
    pub const ANY: Label = Label(0);
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl From<u16> for Label {
    fn from(v: u16) -> Self {
        Label(v)
    }
}

/// Hasher of the storage plane's id-keyed maps ([`IdMap`]).
///
/// One widening multiply per written word, the product's two halves xored
/// together: the high half carries every input bit *down*, the low half
/// carries it *up*, so dense ids, strided ids (`i << k`) and
/// `(src, dst, label)` triples all keep both ends of the hash spread — the
/// low bits hashbrown indexes buckets with and the top seven it tags slots
/// with (`tests/id_hasher_quality.rs` states the bounds). A wrapping multiply
/// with a final rotate costs the same single `mul` but only ever moves
/// information upward, so for ids whose entropy sits in the high bits it has
/// to starve either the index or the tag.
///
/// The key is fixed, so this is **not** collision-attack resistant; see
/// STORAGE.md §7 for why the storage plane accepts that.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// The fallback for keys that are not id-shaped: eight bytes per word,
    /// the tail zero-padded (`Hash` impls of slices and strings delimit
    /// themselves).
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u16(&mut self, w: u16) {
        self.write_u64(u64::from(w));
    }

    #[inline]
    fn write_u64(&mut self, w: u64) {
        let p = u128::from(self.0 ^ w) * 0x9e37_79b9_7f4a_7c15;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }
}

/// The map type of every structure keyed by [`NodeId`] or
/// [`LabeledEdgeKey`]: `std`'s `HashMap` over [`IdHasher`] instead of
/// SipHash. Iteration order is as arbitrary as any hash map's (it depends on
/// capacity and insert history), so lint rule D1 tracks this alias too.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A directed labelled edge expressed as a `(source, destination, label)`
/// triple.
///
/// Used as the key of the heterogeneous storage's `elem_position_map`: the
/// same node pair may be connected under several labels, and each such edge
/// occupies its own slot.
pub type LabeledEdgeKey = (NodeId, NodeId, Label);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn node_id_roundtrip() {
        let n: NodeId = 7u64.into();
        assert_eq!(n.index(), 7);
        assert_eq!(NodeId::from(7usize), n);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
    }

    #[test]
    fn partition_id_host_and_pim() {
        assert!(PartitionId::HOST.is_host());
        assert!(!PartitionId::Pim(5).is_host());
    }

    #[test]
    fn partition_id_display() {
        assert_eq!(PartitionId::Host.to_string(), "host");
        assert_eq!(PartitionId::Pim(2).to_string(), "pim2");
    }

    #[test]
    fn label_default_is_any() {
        assert_eq!(Label::default(), Label::ANY);
        assert_eq!(Label::from(4u16), Label(4));
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(NodeId(1));
        set.insert(NodeId(1));
        set.insert(NodeId(2));
        assert_eq!(set.len(), 2);
        assert!(NodeId(1) < NodeId(2));
        assert!(PartitionId::Host < PartitionId::Pim(0));
    }
}
