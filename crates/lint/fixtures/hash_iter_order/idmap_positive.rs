//! D1 positive fixture for the storage plane's alias — linted as
//! `crates/graph-store/src/fixture.rs` (Lib). `IdMap` is `std`'s `HashMap`
//! over a fixed hasher: its order no longer changes run to run, but it still
//! depends on capacity and insert history, so iterating it is still a finding.

use graph_store::{IdMap, NodeId};

/// A struct field declared through the alias is tracked like any hash map.
pub struct Degrees {
    degrees: IdMap<NodeId, usize>,
}

impl Degrees {
    /// Exports in table order: two trackers holding the same degrees can
    /// disagree on this vector.
    pub fn export(&self) -> Vec<(NodeId, usize)> {
        self.degrees.iter().map(|(&n, &d)| (n, d)).collect()
    }
}

/// A `let` annotated with the alias, walked by a for-loop.
pub fn first_row(rows: &[(NodeId, usize)]) -> Option<NodeId> {
    let mut seen: IdMap<NodeId, usize> = IdMap::default();
    for &(n, d) in rows {
        seen.insert(n, d);
    }
    for (n, _) in seen {
        return Some(n);
    }
    None
}
