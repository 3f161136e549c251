//! The update-consistent RPQ result cache.
//!
//! Entries are keyed by the **normalized** expression ([`RpqExpr::normalize`])
//! plus the exact source batch, and carry the dependency footprint of the
//! execution that produced them ([`moctopus::QueryDeps`] from the engine,
//! [`rpq::LabelAlphabet`] from the expression). Updates invalidate entries
//! through [`ResultCache::invalidate`], driven by the engine-reported
//! [`UpdateFootprint`] — never by time, so **stale reads are impossible**:
//! an entry survives an update only if the consistency argument (SERVING.md
//! §3) proves re-execution would return the identical answer (and, under
//! [`ConsistencyMode::CostExact`], the identical simulated statistics).
//!
//! Eviction is deterministic least-recently-used: every lookup/insert bumps a
//! logical tick, entries are indexed by tick in a `BTreeMap` (ticks are
//! unique, so the minimum is too — no wall clock, no hash-order dependence),
//! and the smallest tick leaves when the cache is full, in O(log n).

use graph_store::NodeId;
use moctopus::{QueryDeps, QueryStats, UpdateFootprint};
use rpq::{LabelAlphabet, RpqExpr};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Which consistency level invalidation enforces; see SERVING.md §3 for the
/// argument behind each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ConsistencyMode {
    /// A surviving entry's answer **and** simulated `QueryStats` are
    /// bit-identical to uncached re-execution. Invalidates on the footprint's
    /// label-blind cost tier (structural buckets, host-store flag, global
    /// flags) in addition to the result tier.
    #[default]
    CostExact,
    /// Entries are cached per *(expression, single source)* **row** instead
    /// of per whole batch: the server decomposes each query batch into one
    /// row per position, probes each row independently, and executes only
    /// the missing rows. Two batches sharing any source share cache state,
    /// so overlapping-but-unequal batches still hit. A surviving row's
    /// answer is bit-identical to uncached re-execution; its stats describe
    /// the (equally valid) execution that produced it but may differ from a
    /// fresh run's micro-costs, so invalidation uses the per-label result
    /// tier only. A response's stats are the batch-order fold of its rows'
    /// stats.
    RowExact,
}

/// Cache sizing and consistency configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum resident entries (≥ 1); the deterministic LRU evicts beyond
    /// this.
    pub capacity: usize,
    /// The consistency level invalidation enforces.
    pub mode: ConsistencyMode,
}

impl Default for CacheConfig {
    /// 4096 entries, cost-exact.
    fn default() -> Self {
        CacheConfig { capacity: 4096, mode: ConsistencyMode::CostExact }
    }
}

/// Cache observability counters (all monotone over a server's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (the batch then executed on the engine).
    pub misses: u64,
    /// Entries written after a miss.
    pub insertions: u64,
    /// Entries removed by update footprints.
    pub invalidated: u64,
    /// Entries removed by the LRU capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A cache key: normalized expression + the exact source batch.
///
/// The batch is kept verbatim (order and multiplicity included) because the
/// engine's simulated statistics depend on it — `[a, b]` and `[b, a]` dispatch
/// and gather in different orders — and cost-exact hits must reproduce stats
/// bitwise. Two spellings of the same *expression* still collapse via
/// normalization.
///
/// Built once per query by the server and probed by reference, so the
/// lookup/insert path never re-clones the expression tree or the batch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    expr: RpqExpr,
    sources: Vec<NodeId>,
}

impl CacheKey {
    /// Builds a key; `expr` must already be normalized (the server
    /// normalizes once per request).
    pub fn new(expr: RpqExpr, sources: Vec<NodeId>) -> Self {
        CacheKey { expr, sources }
    }

    /// The normalized expression.
    pub fn expr(&self) -> &RpqExpr {
        &self.expr
    }

    /// The source batch, verbatim.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }
}

/// One cached batch answer plus its dependency footprint.
#[derive(Debug, Clone)]
struct CacheEntry {
    results: Vec<Vec<NodeId>>,
    stats: QueryStats,
    deps: QueryDeps,
    alphabet: LabelAlphabet,
    /// LRU tick of the last lookup/insert touching this entry.
    last_used: u64,
}

/// The update-consistent result cache (see the module docs).
///
/// Keys are shared (`Arc`) between the entry map and the LRU tick index, so
/// neither eviction nor recency bumps clone key material.
#[derive(Debug)]
pub struct ResultCache {
    config: CacheConfig,
    entries: HashMap<Arc<CacheKey>, CacheEntry>,
    /// Tick → key index for O(log n) deterministic LRU (ticks are unique).
    lru: BTreeMap<u64, Arc<CacheKey>>,
    tick: u64,
    stats: CacheStats,
}

impl ResultCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `config.capacity` is zero (use `ServerConfig.cache = None`
    /// to disable caching instead).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.capacity > 0, "cache capacity must be at least 1");
        ResultCache {
            config,
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The observability counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a batch answer by key (probed by reference — no clones on
    /// either outcome). Returns the cached results and the stats of the
    /// execution that produced them, counting a hit or miss and bumping the
    /// entry's LRU tick.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<(Vec<Vec<NodeId>>, QueryStats)> {
        self.tick += 1;
        let Some(entry) = self.entries.get_mut(key) else {
            self.stats.misses += 1;
            return None;
        };
        // The entry's LRU slot holds the shared key; it moves to the new tick.
        if let Some(shared) = self.lru.remove(&entry.last_used) {
            self.lru.insert(self.tick, shared);
        }
        entry.last_used = self.tick;
        self.stats.hits += 1;
        Some((entry.results.clone(), entry.stats))
    }

    /// Inserts a freshly executed batch answer with its dependency footprint
    /// (`alphabet` computed from the key's expression), evicting the
    /// least-recently-used entry if the cache is full.
    pub fn insert(
        &mut self,
        key: CacheKey,
        results: Vec<Vec<NodeId>>,
        stats: QueryStats,
        deps: QueryDeps,
        alphabet: LabelAlphabet,
    ) {
        // Replacing an existing key (can only happen if callers race lookup
        // and insert, which the sequential core never does — defensive):
        // drop the old entry's LRU slot first.
        if let Some(old) = self.entries.remove(&key) {
            self.lru.remove(&old.last_used);
        }
        while self.entries.len() >= self.config.capacity {
            let Some((_, victim)) = self.lru.pop_first() else { break };
            self.entries.remove(&*victim);
            self.stats.evictions += 1;
        }
        self.tick += 1;
        self.stats.insertions += 1;
        let shared = Arc::new(key);
        self.entries.insert(
            Arc::clone(&shared),
            CacheEntry { results, stats, deps, alphabet, last_used: self.tick },
        );
        self.lru.insert(self.tick, shared);
    }

    /// Removes every entry the update footprint can affect at the configured
    /// consistency level; returns how many were removed.
    ///
    /// An empty footprint (an update that changed nothing) removes nothing;
    /// [`UpdateFootprint::everything`] removes all entries in either mode.
    pub fn invalidate(&mut self, footprint: &UpdateFootprint) -> usize {
        if footprint.is_empty() {
            return 0;
        }
        let mode = self.config.mode;
        let before = self.entries.len();
        let lru = &mut self.lru;
        // moctopus-lint: allow(hash-iter-order, reason = "removes the doomed *set*; each removal touches only its own entry and LRU slot, so visiting order is invisible")
        self.entries.retain(|_, entry| {
            let results_hit =
                footprint.invalidates_results(&entry.deps, |l| entry.alphabet.contains(l));
            let doomed = match mode {
                ConsistencyMode::CostExact => {
                    results_hit || footprint.invalidates_costs(&entry.deps)
                }
                ConsistencyMode::RowExact => results_hit,
            };
            if doomed {
                lru.remove(&entry.last_used);
            }
            !doomed
        });
        let removed = before - self.entries.len();
        self.stats.invalidated += removed as u64;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moctopus::DepMask;

    fn deps_of(nodes: &[u64], host_lane: bool) -> QueryDeps {
        let mut mask = DepMask::EMPTY;
        for &n in nodes {
            mask.insert(NodeId(n));
        }
        QueryDeps { nodes: mask, host_lane }
    }

    fn key_of(expr: &RpqExpr, nodes: &[u64]) -> CacheKey {
        CacheKey::new(expr.clone(), nodes.iter().copied().map(NodeId).collect())
    }

    fn insert_probe(cache: &mut ResultCache, expr: &RpqExpr, nodes: &[u64]) {
        cache.insert(
            key_of(expr, nodes),
            vec![Vec::new(); nodes.len()],
            QueryStats::default(),
            deps_of(nodes, false),
            expr.label_alphabet(),
        );
    }

    #[test]
    fn lookup_hits_after_insert_and_counts() {
        let mut cache = ResultCache::new(CacheConfig::default());
        let expr = rpq::parser::parse("1/2").unwrap().normalize();
        let key = key_of(&expr, &[1, 2]);
        assert!(cache.lookup(&key).is_none());
        insert_probe(&mut cache, &expr, &[1, 2]);
        let (results, _) = cache.lookup(&key).expect("hit after insert");
        assert_eq!(results.len(), 2);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
        // A different source *order* is a different key (stats depend on it).
        assert!(cache.lookup(&key_of(&expr, &[2, 1])).is_none());
    }

    #[test]
    fn label_mismatched_updates_keep_row_exact_entries() {
        let mut cache =
            ResultCache::new(CacheConfig { capacity: 8, mode: ConsistencyMode::RowExact });
        let expr = rpq::parser::parse("1/1").unwrap().normalize();
        insert_probe(&mut cache, &expr, &[1]);
        // Same node, different label: results cannot change, so the row
        // stays (a cost-exact cache drops it; see the next test).
        let fp = UpdateFootprint::from_edges(&[(NodeId(1), NodeId(9), graph_store::Label(7))]);
        assert_eq!(cache.invalidate(&fp), 0);
        // Same node, matching label: must go.
        let fp = UpdateFootprint::from_edges(&[(NodeId(1), NodeId(9), graph_store::Label(1))]);
        assert_eq!(cache.invalidate(&fp), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn cost_exact_entries_fall_to_label_blind_structural_updates() {
        let mut cache = ResultCache::new(CacheConfig::default());
        let expr = rpq::parser::parse("1/1").unwrap().normalize();
        insert_probe(&mut cache, &expr, &[1]);
        // Label 7 cannot change the answer, but it lengthens node 1's row —
        // cost-exact consistency must drop the entry.
        let fp = UpdateFootprint::from_edges(&[(NodeId(1), NodeId(9), graph_store::Label(7))]);
        assert_eq!(cache.invalidate(&fp), 1);

        // An update far away (different bucket) keeps the entry. Find a node
        // whose bucket differs from node 1's.
        insert_probe(&mut cache, &expr, &[1]);
        let far = (2..)
            .find(|&n| moctopus::dep_bucket(NodeId(n)) != moctopus::dep_bucket(NodeId(1)))
            .unwrap();
        let far2 = (far + 1..)
            .find(|&n| moctopus::dep_bucket(NodeId(n)) != moctopus::dep_bucket(NodeId(1)))
            .unwrap();
        let fp = UpdateFootprint::from_edges(&[(NodeId(far), NodeId(far2), graph_store::Label(1))]);
        assert_eq!(cache.invalidate(&fp), 0);
        assert_eq!(cache.len(), 1);
        assert!(cache.invalidate(&UpdateFootprint::empty()) == 0);
        assert_eq!(cache.invalidate(&UpdateFootprint::everything()), 1);
    }

    #[test]
    fn host_store_updates_only_hit_host_lane_entries() {
        let mut cache = ResultCache::new(CacheConfig::default());
        let expr = rpq::parser::parse("1+").unwrap().normalize();
        cache.insert(
            key_of(&expr, &[500]),
            vec![Vec::new()],
            QueryStats::default(),
            deps_of(&[500], true),
            expr.label_alphabet(),
        );
        insert_probe(&mut cache, &expr, &[600]); // host_lane = false
        let far = (700..)
            .find(|&n| {
                let b = moctopus::dep_bucket(NodeId(n));
                b != moctopus::dep_bucket(NodeId(500)) && b != moctopus::dep_bucket(NodeId(600))
            })
            .unwrap();
        let fp = UpdateFootprint {
            host_store: true,
            ..UpdateFootprint::from_edges(&[(NodeId(far), NodeId(far), graph_store::Label(9))])
        };
        assert_eq!(cache.invalidate(&fp), 1, "only the host-lane entry is cost-coupled");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_is_tick_deterministic() {
        let mut cache =
            ResultCache::new(CacheConfig { capacity: 2, mode: ConsistencyMode::CostExact });
        let a = rpq::parser::parse("1").unwrap().normalize();
        let b = rpq::parser::parse("2").unwrap().normalize();
        let c = rpq::parser::parse("3").unwrap().normalize();
        insert_probe(&mut cache, &a, &[1]);
        insert_probe(&mut cache, &b, &[2]);
        // Touch `a` so `b` is the LRU victim.
        assert!(cache.lookup(&key_of(&a, &[1])).is_some());
        insert_probe(&mut cache, &c, &[3]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(&key_of(&a, &[1])).is_some(), "recently used entry survives");
        assert!(cache.lookup(&key_of(&b, &[2])).is_none(), "LRU entry was evicted");
        assert!(cache.lookup(&key_of(&c, &[3])).is_some());
        // The tick index stays in lock-step with the entry map.
        assert_eq!(cache.lru.len(), cache.entries.len());
    }

    #[test]
    fn reinserting_an_existing_key_replaces_without_leaking_lru_slots() {
        let mut cache =
            ResultCache::new(CacheConfig { capacity: 4, mode: ConsistencyMode::CostExact });
        let a = rpq::parser::parse("1").unwrap().normalize();
        insert_probe(&mut cache, &a, &[1]);
        insert_probe(&mut cache, &a, &[1]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lru.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
    }
}
