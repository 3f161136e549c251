//! Dependency footprints for update-consistent result caching.
//!
//! A result cache over [`GraphEngine`](crate::GraphEngine) batches must
//! answer one question precisely: *which graph updates can change (the result
//! or the simulated cost of) a cached query?* This module provides the two
//! halves of that contract:
//!
//! * [`QueryDeps`] — what a query execution **touched**, reported by the
//!   engine alongside the results
//!   ([`GraphEngine::rpq_batch_tracked`](crate::GraphEngine::rpq_batch_tracked)):
//!   the dependency buckets of every node the traversal visited, plus
//!   whether the host lane (labor-division hub rows) was involved.
//! * [`UpdateFootprint`] — what an update batch **may have changed**,
//!   reported by the engine's update path
//!   ([`GraphEngine::insert_labeled_edges_tracked`](crate::GraphEngine::insert_labeled_edges_tracked)):
//!   per-label source buckets (result dependencies), label-blind
//!   source+destination buckets (cost/placement dependencies), and
//!   engine-level coupling flags.
//!
//! # Why buckets are *stable hashes*, not PIM partitions
//!
//! The obvious dependency key — the engine's own partition of a node — is
//! **unsound** under Moctopus's dynamic placement: labor division promotes
//! rows to the host and refinement migrates rows between modules, so the
//! partition recorded when a query ran can differ from the partition consulted
//! when a later update arrives, and the intersection test would silently miss
//! real dependencies. Cache dependency buckets are therefore a *fixed* hash
//! of the node id ([`dep_bucket`]): stable across migrations, identical for
//! every engine, and O(1) to compute. The trade-off is that a bucket no
//! longer corresponds to a physical module — it is purely an invalidation
//! index. SERVING.md §3 carries the full argument.

use graph_store::{Label, NodeId};
use std::collections::BTreeMap;
use std::fmt;

/// Number of dependency buckets node ids hash into. 64 keeps a bucket set in
/// one machine word ([`DepMask`]), making footprint intersection a single
/// `AND`.
pub const DEP_BUCKETS: u32 = 64;

/// The stable dependency bucket of a node: a splitmix64-style hash of the id
/// reduced to [`DEP_BUCKETS`]. Deliberately unrelated to the engine's dynamic
/// node placement (see the module docs).
pub fn dep_bucket(node: NodeId) -> u32 {
    let mut x = node.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((x ^ (x >> 31)) % DEP_BUCKETS as u64) as u32
}

/// A set of dependency buckets, stored as a 64-bit mask (one bit per
/// [`dep_bucket`] value).
///
/// # Examples
///
/// ```
/// use graph_store::NodeId;
/// use moctopus::deps::DepMask;
/// let mut touched = DepMask::EMPTY;
/// touched.insert(NodeId(7));
/// let mut updated = DepMask::EMPTY;
/// updated.insert(NodeId(7));
/// assert!(touched.intersects(updated));
/// assert!(!touched.intersects(DepMask::EMPTY));
/// assert!(DepMask::ALL.intersects(updated));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct DepMask(u64);

impl DepMask {
    /// The empty bucket set.
    pub const EMPTY: DepMask = DepMask(0);

    /// Every bucket — the sound over-approximation used by engines that do
    /// not track dependencies precisely.
    pub const ALL: DepMask = DepMask(u64::MAX);

    /// Adds `node`'s bucket to the set.
    #[inline]
    pub fn insert(&mut self, node: NodeId) {
        self.0 |= 1u64 << dep_bucket(node);
    }

    /// Returns `true` if the two sets share a bucket.
    #[inline]
    pub fn intersects(self, other: DepMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Unions `other` into `self`.
    #[inline]
    pub fn union(&mut self, other: DepMask) {
        self.0 |= other.0;
    }

    /// Returns `true` if no bucket is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if every bucket is set: no insert can change the set,
    /// so a traversal that floods the graph stops hashing its nodes.
    #[inline]
    pub fn is_full(self) -> bool {
        self == DepMask::ALL
    }

    /// Number of buckets in the set.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }
}

impl fmt::Display for DepMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// What one tracked query execution depended on, reported by
/// [`GraphEngine::rpq_batch_tracked`](crate::GraphEngine::rpq_batch_tracked).
///
/// `nodes` holds the dependency bucket of **every node the traversal
/// visited** — all sources and every per-hop frontier member, which for the
/// NFA product is the node of every visited `(node, state)` pair. `host_lane`
/// records whether any visited row was host-resident: host-lane query cost
/// depends on the host store's total resident bytes, a *global* quantity, so
/// such entries must additionally be invalidated by any update that changes
/// the host store (see [`UpdateFootprint::host_store`]).
///
/// Determinism: both fields are derived from the merged (thread-count
/// invariant) frontiers, so tracked deps are byte-identical at every
/// `--threads` value — asserted by `tests/serve_cache_equivalence.rs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryDeps {
    /// Buckets of every node the traversal visited.
    pub nodes: DepMask,
    /// `true` if the traversal expanded a host-resident (labor-division) row.
    pub host_lane: bool,
}

impl QueryDeps {
    /// The sound over-approximation: depends on everything. Used by the
    /// default [`rpq_batch_tracked`](crate::GraphEngine::rpq_batch_tracked)
    /// implementation for engines without precise tracking (the cache then
    /// invalidates such entries on every update — correct, just imprecise).
    pub fn all() -> QueryDeps {
        QueryDeps { nodes: DepMask::ALL, host_lane: true }
    }

    /// Unions another execution's footprint into this one — the shard-aware
    /// merge of the sharded serving plane's gather step.
    ///
    /// Soundness across shards needs no order sensitivity: buckets are stable
    /// hashes of node ids ([`dep_bucket`]), identical on every shard replica,
    /// so the union of per-sub-batch footprints covers exactly the nodes the
    /// whole batch would have visited on one engine (bitwise OR is
    /// commutative, associative and idempotent — shard *count* cannot change
    /// the merged mask).
    pub fn merge(&mut self, other: &QueryDeps) {
        self.nodes.union(other.nodes);
        self.host_lane |= other.host_lane;
    }
}

/// What one update batch may have changed, reported by the tracked update
/// hooks ([`GraphEngine::insert_labeled_edges_tracked`](crate::GraphEngine::insert_labeled_edges_tracked)
/// and the delete counterpart).
///
/// The footprint has a two-tier structure mirroring the two consistency
/// levels a cache can offer (see SERVING.md §3):
///
/// * **Result dependencies** (`per_label`): an update edge `(u, v, L)` can
///   change a query's *answer* only if the query visited `u` **and** its
///   expression can traverse label `L` — so each edge contributes its source
///   bucket under its label.
/// * **Cost dependencies** (`structural`, `host_store`, `cost_global`):
///   simulated cost is more sensitive than the answer. Any applied edge
///   changes its source row's length (label-oblivious scans charge
///   `row_len × ID_BYTES` for *every* label), an insert can assign or promote
///   a node and thereby change routing charges, and host-store mutations move
///   the global `live_bytes` input of every host-lane random access. These
///   are label-blind, and `structural` therefore covers source **and**
///   destination buckets (a destination can be newly assigned a partition).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateFootprint {
    /// Per-label source-node buckets: the result-dependency tier, sorted by
    /// label (built through a `BTreeMap`, so equal batches produce equal
    /// footprints).
    pub per_label: Vec<(Label, DepMask)>,
    /// Label-blind source+destination buckets: the cost-dependency tier.
    pub structural: DepMask,
    /// `true` if the update may have changed the host store (row contents,
    /// promotions, `live_bytes`) — invalidates entries whose query touched
    /// the host lane.
    pub host_store: bool,
    /// `true` if the engine couples *every* query's simulated cost to this
    /// update (e.g. the host baseline's cache-residency model reads the whole
    /// graph's byte size). Invalidates all entries under cost-exact
    /// consistency; row-exact entries depend on answers only and stay.
    pub cost_global: bool,
    /// `true` if nothing can be said at all: every cached entry must go, in
    /// every consistency mode. Default for engines without tracked hooks.
    pub result_global: bool,
}

impl UpdateFootprint {
    /// The footprint of an update that changed nothing.
    pub fn empty() -> UpdateFootprint {
        UpdateFootprint::default()
    }

    /// The sound worst case: invalidates everything in every mode. Used by
    /// the default tracked-update implementations.
    pub fn everything() -> UpdateFootprint {
        UpdateFootprint {
            per_label: Vec::new(),
            structural: DepMask::ALL,
            host_store: true,
            cost_global: true,
            result_global: true,
        }
    }

    /// The batch-derived base footprint: per-label source buckets and
    /// label-blind source+destination buckets. Engines extend it with the
    /// flags only they can observe (`host_store`, `cost_global`).
    pub fn from_edges(edges: &[(NodeId, NodeId, Label)]) -> UpdateFootprint {
        let mut per_label: BTreeMap<Label, DepMask> = BTreeMap::new();
        let mut structural = DepMask::EMPTY;
        for &(src, dst, label) in edges {
            per_label.entry(label).or_insert(DepMask::EMPTY).insert(src);
            structural.insert(src);
            structural.insert(dst);
        }
        UpdateFootprint {
            per_label: per_label.into_iter().collect(),
            structural,
            ..Default::default()
        }
    }

    /// Returns `true` if no dependency of any kind is recorded.
    pub fn is_empty(&self) -> bool {
        self.per_label.is_empty()
            && self.structural.is_empty()
            && !self.host_store
            && !self.cost_global
            && !self.result_global
    }

    /// Result-tier test: can this update change the *answer* of a query with
    /// the given deps whose expression traverses labels accepted by
    /// `alphabet_contains`?
    ///
    /// (`alphabet_contains` abstracts `rpq::LabelAlphabet::contains` so this
    /// crate does not name the higher-level type.)
    pub fn invalidates_results(
        &self,
        deps: &QueryDeps,
        mut alphabet_contains: impl FnMut(Label) -> bool,
    ) -> bool {
        self.result_global
            || self
                .per_label
                .iter()
                .any(|&(label, mask)| alphabet_contains(label) && deps.nodes.intersects(mask))
    }

    /// Cost-tier test: can this update change the *simulated cost* of a query
    /// with the given deps (label-blind; see the type docs)?
    pub fn invalidates_costs(&self, deps: &QueryDeps) -> bool {
        self.result_global
            || self.cost_global
            || (self.host_store && deps.host_lane)
            || deps.nodes.intersects(self.structural)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_stable_and_in_range() {
        for id in [0u64, 1, 63, 64, 12345, u64::MAX] {
            let b = dep_bucket(NodeId(id));
            assert!(b < DEP_BUCKETS);
            assert_eq!(b, dep_bucket(NodeId(id)), "bucket must be a pure function of the id");
        }
        // The hash must actually spread ids (not collapse to one bucket).
        let distinct: std::collections::HashSet<u32> =
            (0..256u64).map(|i| dep_bucket(NodeId(i))).collect();
        assert!(distinct.len() > DEP_BUCKETS as usize / 2);
    }

    #[test]
    fn mask_set_operations() {
        let mut a = DepMask::EMPTY;
        assert!(a.is_empty());
        a.insert(NodeId(3));
        a.insert(NodeId(3));
        assert_eq!(a.len(), 1);
        let mut b = DepMask::EMPTY;
        b.insert(NodeId(3));
        b.insert(NodeId(1000));
        assert!(a.intersects(b));
        let mut c = DepMask::EMPTY;
        c.union(a);
        assert_eq!(c, a);
    }

    #[test]
    fn a_full_mask_stays_full() {
        let mut mask = DepMask::ALL;
        (0..64).chain([12345, u64::MAX]).for_each(|id| mask.insert(NodeId(id)));
        assert!(mask.is_full() && !DepMask::EMPTY.is_full());
    }

    #[test]
    fn query_deps_merge_unions_masks_and_lanes() {
        let mut a = QueryDeps::default();
        a.nodes.insert(NodeId(1));
        let mut b = QueryDeps { host_lane: true, ..QueryDeps::default() };
        b.nodes.insert(NodeId(1000));
        a.merge(&b);
        assert!(a.host_lane);
        let mut want = DepMask::EMPTY;
        want.insert(NodeId(1));
        want.insert(NodeId(1000));
        assert_eq!(a.nodes, want);
        // Idempotent and order-free: merging in any order or repeatedly
        // produces the same mask (the sharding soundness argument).
        let snapshot = a;
        a.merge(&b);
        assert_eq!(a, snapshot);
    }

    #[test]
    fn footprint_from_edges_partitions_by_label() {
        let edges = [(NodeId(1), NodeId(2), Label(1)), (NodeId(3), NodeId(4), Label(2))];
        let fp = UpdateFootprint::from_edges(&edges);
        assert_eq!(fp.per_label.len(), 2);
        assert_eq!(fp.per_label[0].0, Label(1));
        let mut src1 = DepMask::EMPTY;
        src1.insert(NodeId(1));
        assert_eq!(fp.per_label[0].1, src1);
        // Structural covers sources *and* destinations.
        let mut all = DepMask::EMPTY;
        for n in [1u64, 2, 3, 4] {
            all.insert(NodeId(n));
        }
        assert_eq!(fp.structural, all);
        assert!(!fp.host_store && !fp.cost_global && !fp.result_global);
    }

    #[test]
    fn invalidation_tiers_behave() {
        let edges = [(NodeId(1), NodeId(2), Label(5))];
        let fp = UpdateFootprint::from_edges(&edges);
        let mut visited = DepMask::EMPTY;
        visited.insert(NodeId(1));
        let deps = QueryDeps { nodes: visited, host_lane: false };

        // Result tier is label-sensitive.
        assert!(fp.invalidates_results(&deps, |l| l == Label(5)));
        assert!(!fp.invalidates_results(&deps, |l| l == Label(9)));
        // Cost tier is label-blind.
        assert!(fp.invalidates_costs(&deps));

        // A query that visited nothing relevant is untouched by both tiers.
        let far = QueryDeps { nodes: DepMask::EMPTY, host_lane: false };
        assert!(!fp.invalidates_results(&far, |_| true));
        assert!(!fp.invalidates_costs(&far));

        // Host-store flag hits host-lane entries only.
        let mut hosty = fp.clone();
        hosty.host_store = true;
        let lane = QueryDeps { nodes: DepMask::EMPTY, host_lane: true };
        assert!(hosty.invalidates_costs(&lane));
        assert!(!fp.invalidates_costs(&lane));

        // Global tiers dominate.
        assert!(UpdateFootprint::everything().invalidates_results(&deps, |_| false));
        assert!(UpdateFootprint::everything().invalidates_costs(&QueryDeps::default()));
        assert!(UpdateFootprint::empty().is_empty());
    }
}
