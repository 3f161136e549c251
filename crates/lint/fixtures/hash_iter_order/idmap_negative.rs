//! D1 negative fixture for the storage plane's alias — linted as
//! `crates/graph-store/src/fixture.rs` (Lib).

use graph_store::{IdMap, NodeId};

/// Point operations on an `IdMap` are what it is for — only iteration is
/// flagged.
pub fn bump(table: &mut IdMap<NodeId, u32>, n: NodeId) -> u32 {
    let d = table.entry(n).or_insert(0);
    *d += 1;
    *d
}

/// Sizes and membership are order-free.
pub fn known(table: &IdMap<NodeId, u32>, n: NodeId) -> bool {
    !table.is_empty() && table.contains_key(&n)
}

/// A `Vec` of maps iterates in the vector's order; the outermost type is
/// what counts.
pub fn sizes(stores: &[IdMap<NodeId, u32>]) -> Vec<usize> {
    stores.iter().map(|s| s.len()).collect()
}
