//! The executed non-forward plans: the backward useful-set sweep over the
//! reverse rows, the rare-label split and the seed lists they start from.
//! Both run the NFA-product loop, pruned (CONCURRENCY.md §3.1); the sweeps
//! before it are sequential.

use super::nfa::KeySet;
use super::{ErasedEngine, ENTRY_BYTES, ID_BYTES, LABEL_BYTES, STATE_BYTES};
use crate::stats::{QueryStats, StatsDelta};
use graph_store::{Label, NodeId, PartitionId};
use pim_sim::Phase;
use rpq::{LabelSpec, Nfa, RpqExpr};

/// What an executed non-forward plan adds to the canonical NFA-product loop
/// (`nfa_product_batch_impl`).
pub(super) struct Pruning<'a> {
    /// Only these pairs are expanded (`None` = every pair, the split plan's
    /// suffix leg).
    pub(super) useful: Option<&'a KeySet>,
    /// Acceptance is restricted to these nodes, ascending (the split plan's
    /// prefix leg).
    pub(super) accept_nodes: Option<&'a [NodeId]>,
    /// Charges made before the loop — the backward useful-set sweep plus
    /// seed gathering — billed up front as one aggregate bulk phase.
    pub(super) preamble: StatsDelta,
}

impl ErasedEngine {
    /// All nodes with at least one `spec`-matching outgoing edge, ascending:
    /// every store's rows holding the label (stores that lack it are
    /// skipped, host rows answer from their label counts), then a sort.
    /// Charged as one host-side pass over the gathered id list.
    pub(super) fn spec_sources(&self, spec: LabelSpec, delta: &mut StatsDelta) -> Vec<NodeId> {
        let label = match spec {
            LabelSpec::Exact(l) => Some(l),
            LabelSpec::Any => None,
        };
        let local = self.local_stores.iter().flat_map(|s| s.rows_holding(label));
        let mut ids: Vec<NodeId> = local.chain(self.host_store.rows_holding(label)).collect();
        ids.sort_unstable();
        ids.dedup();
        delta.host_time += self.pim.host_sequential_read_cost(ids.len() as u64 * ID_BYTES);
        ids
    }

    /// One backward scan: resolves where `node`'s forward row lives (the
    /// colocation invariant puts its in-adjacency row there too), charges
    /// the scan of that reverse row into `delta` (id + label arrays, like
    /// the forward label-constrained scans) and returns the row.
    fn rev_scan(&self, node: NodeId, delta: &mut StatsDelta) -> &[(NodeId, Label)] {
        let bytes = |row: &[(NodeId, Label)]| row.len() as u64 * (ID_BYTES + LABEL_BYTES);
        match self.owner(node) {
            Some(PartitionId::Host) => {
                let row = self.host_store.rev_row(node).unwrap_or(&[]);
                let resident = self.host_store.live_bytes() + self.host_store.rev_bytes();
                delta.host_time += self.pim.host_random_access_cost(1, resident)
                    + self.pim.host_sequential_read_cost(bytes(row));
                row
            }
            Some(PartitionId::Pim(m)) => {
                let row = self.local_stores[m as usize].rev_row(node).unwrap_or(&[]);
                delta.per_module[m as usize] += self.pim.pim_hash_lookup_cost(bytes(row));
                row
            }
            None => &[],
        }
    }

    /// The bidirectional plan's *useful set*: every product pair
    /// `(node, state)` from which at least one more transition can reach an
    /// accepting pair, computed by sweeping the reversed automaton backward
    /// over the in-adjacency index. With `accept_nodes` given (the split
    /// plan's prefix leg), acceptance is additionally restricted to those
    /// nodes, so the base seeds come from their reverse rows.
    ///
    /// Soundness of the downstream pruning: on any accepting product path,
    /// every pair except the final accepting one has a transition into the
    /// rest of the path, so it is in the useful set — restricting forward
    /// frontiers to useful pairs drops no answer. The computation is
    /// sequential and touches only sorted rows and sorted seed lists, so the
    /// charges it accumulates are deterministic; the set itself is a fixpoint
    /// (discovery order is irrelevant to membership).
    pub(super) fn useful_pairs(
        &self,
        nfa: &Nfa,
        accept_nodes: Option<&[NodeId]>,
        delta: &mut StatsDelta,
    ) -> KeySet {
        let rev = nfa.reversed_transitions();
        let space = self.key_space(nfa);
        let mut useful = KeySet::new(space);
        // A row names only nodes inside the owner directory, so every pair
        // the sweep finds has a key.
        let insert = |useful: &mut KeySet, node: NodeId, state: u32| {
            space.key(node.0, state).is_some_and(|key| useful.insert(key))
        };
        let mut work: Vec<(NodeId, u32)> = Vec::new();

        // Base: pairs one matching transition away from an accepting pair.
        for (q_acc, rev_row) in rev.iter().enumerate() {
            if !nfa.is_accepting(q_acc) {
                continue;
            }
            for &(spec, from) in rev_row {
                match accept_nodes {
                    None => {
                        for n in self.spec_sources(spec, delta) {
                            if insert(&mut useful, n, from as u32) {
                                work.push((n, from as u32));
                                delta.cpc_bytes += ENTRY_BYTES + STATE_BYTES;
                            }
                        }
                    }
                    Some(ms) => {
                        for &m in ms {
                            for &(n, label) in self.rev_scan(m, delta) {
                                if spec.matches(label) && insert(&mut useful, n, from as u32) {
                                    work.push((n, from as u32));
                                    delta.cpc_bytes += ENTRY_BYTES + STATE_BYTES;
                                }
                            }
                        }
                    }
                }
            }
        }

        // Closure: walk product transitions backward over reverse rows.
        while let Some((n, q)) = work.pop() {
            for &(spec, p) in &rev[q as usize] {
                for &(m, label) in self.rev_scan(n, delta) {
                    if spec.matches(label) && insert(&mut useful, m, p as u32) {
                        work.push((m, p as u32));
                        delta.cpc_bytes += ENTRY_BYTES + STATE_BYTES;
                    }
                }
            }
        }
        useful
    }

    /// Executes the rare-label-split plan: the suffix automaton runs forward
    /// (unpruned) from the pivot label's exact source set, the prefix
    /// automaton runs pruned from the query sources with acceptance
    /// restricted to those pivot sources, and the per-source answers are
    /// joined on the host (charged as one reduce pass over the rows read out
    /// of the suffix answer table).
    pub(super) fn split_product(
        &mut self,
        prefix: &RpqExpr,
        suffix: &RpqExpr,
        pivot: Label,
        sources: &[NodeId],
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        let module_count = self.config.pim.num_modules;
        let mut seed_delta = StatsDelta::new(module_count);
        let pivots = self.spec_sources(LabelSpec::Exact(pivot), &mut seed_delta);
        let suffix_nfa = Nfa::from_expr(suffix);
        let prefix_nfa = Nfa::from_expr(prefix);

        // Suffix leg: full forward product from the pivot sources (every
        // pivot row feeds the join, so there is nothing to prune).
        let seeded = Pruning { useful: None, accept_nodes: None, preamble: seed_delta };
        let (suffix_results, suffix_stats) =
            self.nfa_product_batch_impl(&suffix_nfa, &pivots, Some(seeded), None);

        // Prefix leg: pruned toward the pivots — only pairs that can still
        // reach an accepting pair *at a pivot node* stay in the frontier.
        let mut backward = StatsDelta::new(module_count);
        let prefix_useful = self.useful_pairs(&prefix_nfa, Some(&pivots), &mut backward);
        let toward_pivots = Pruning {
            useful: Some(&prefix_useful),
            accept_nodes: Some(&pivots),
            preamble: backward,
        };
        let (mid_results, prefix_stats) =
            self.nfa_product_batch_impl(&prefix_nfa, sources, Some(toward_pivots), None);

        // Join on the host: each source's answer is the union of the suffix
        // answers of the pivots its prefix reached (`pivots` is ascending,
        // and `suffix_results` is in its order).
        let mut join_bytes = 0u64;
        let mut results: Vec<Vec<NodeId>> = Vec::with_capacity(sources.len());
        for mids in &mid_results {
            let mut ans: Vec<NodeId> = Vec::new();
            for m in mids {
                if let Ok(i) = pivots.binary_search(m) {
                    ans.extend_from_slice(&suffix_results[i]);
                    join_bytes += suffix_results[i].len() as u64 * ID_BYTES;
                }
            }
            ans.sort_unstable();
            ans.dedup();
            results.push(ans);
        }

        let matched_pairs: usize = results.iter().map(Vec::len).sum();
        let mut timeline = suffix_stats.timeline;
        timeline += prefix_stats.timeline;
        timeline.charge(
            Phase::Reduce,
            self.pim.host_sequential_read_cost(join_bytes)
                + self.pim.host_instructions_cost(matched_pairs as u64 * 8),
        );
        let stats = QueryStats {
            timeline,
            batch_size: sources.len(),
            hops: suffix_stats.hops.max(prefix_stats.hops),
            matched_pairs,
            expansions: suffix_stats.expansions + prefix_stats.expansions,
        };
        (results, stats)
    }
}
